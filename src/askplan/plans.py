"""Subgoal and plan data model, plus the textual template the planner model emits.

A plan is a plain tuple of subgoals. Subgoals are written one per line as
``(Action, object)``, or ``(Put, object, receptacle)`` for placement. Action
names are matched case-insensitively (internal spaces/underscores tolerated,
so ``pick up`` parses as ``Pickup``); object names are normalized to single
lowercase tokens with no internal whitespace (``desk lamp`` becomes
``desklamp``), so ``unnamable`` finds the scene ids that no line can name.

``parse_subgoal`` keeps the subgoals of the last ``PARSE_MEMO_SIZE`` distinct
lines it parsed, so a line that comes back within one process (a plan line
the planner repeats, a ground-truth core line read again, a trace line
scored again) is parsed once. A ``Subgoal`` is an immutable value, so every
caller may share it. A line that fails is not kept: it raises again, with
the same message, on every call. A subgoal keeps its canonical template
line, ``Subgoal.text``, drawn when it is built, so a subgoal that the memo
shares is rendered once per process however many records and prompts show
it. An object or receptacle holds no comma, so each text names one subgoal.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Optional


class PlanParseError(ValueError):
    """A line (or completion) violates the subgoal template."""


class NoSubgoalsFound(PlanParseError):
    """A completion in which not a single line is a subgoal."""


class ActionKind(str, Enum):
    PICKUP = "Pickup"
    PUT = "Put"
    TOGGLE_ON = "ToggleOn"
    TOGGLE_OFF = "ToggleOff"
    OPEN = "Open"
    CLOSE = "Close"
    SLICE = "Slice"
    NAVIGATE = "Navigate"


_ACTION_LOOKUP = {kind.value.lower(): kind for kind in ActionKind}

# Optional list index ("1." / "2)"), then exactly one parenthesized field list.
_LINE_RE = re.compile(r"^\s*(?:\d+\s*[.)]\s*)?\((?P<body>[^()]*)\)\s*$")
_SEPARATOR_RE = re.compile(r"[\s_-]+")


def _normalize_token(token: str) -> str:
    return _SEPARATOR_RE.sub("", token.strip().lower())


# what no object name holds: _normalize_token drops whitespace, "_" and "-",
# and a comma or a parenthesis ends the field of a subgoal line
_NOT_IN_NAME_RE = re.compile(r"[\s_\-,()]")


def _nameable(text: str) -> bool:
    return text == text.lower() and not _NOT_IN_NAME_RE.search(text)


def unnamable(names: Collection[str]) -> Optional[str]:
    """The first of ``names`` that no subgoal line can name, or None. The
    object of ``(Pickup, name)`` is ``name`` exactly when ``name`` is
    non-empty, its own ``lower()``, and free of whitespace, ``_``, ``-``,
    ``,``, ``(`` and ``)``. When every name is, one pass over the joined
    names shows it."""
    if all(names) and _nameable("".join(names)):
        return None
    return next((name for name in names if not (name and _nameable(name))), None)


@dataclass(frozen=True)
class Subgoal:
    """One controller-executable step: action, target object, optional receptacle.

    A receptacle is present exactly when the action is Put. ``text`` is the
    canonical template line, drawn when the subgoal is built and kept on it,
    outside comparison, hashing and repr.
    """

    action: ActionKind
    object: str
    receptacle: Optional[str] = None
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.object:
            raise PlanParseError("subgoal object must be a non-empty token")
        if self.receptacle is not None and not self.receptacle:
            raise PlanParseError("subgoal receptacle must be a non-empty token")
        if self.action is ActionKind.PUT and self.receptacle is None:
            raise PlanParseError("Put requires a receptacle")
        if self.action is not ActionKind.PUT and self.receptacle is not None:
            raise PlanParseError(f"{self.action.value} does not take a receptacle")
        # a comma would let two subgoals share one ``text``, which the relaxed
        # matcher looks steps up by
        if "," in self.object or "," in (self.receptacle or ""):
            raise PlanParseError(f"subgoal object and receptacle may not hold a comma: "
                                 f"{self.object!r}, {self.receptacle!r}")
        # Drawn here, not on first read: a functools.cached_property writes
        # through __dict__, and on CPython 3.11 and 3.12 that makes every
        # later field read of the subgoal 2-3x slower, which the matcher and
        # the world pay for on each step.
        text = f"({self.action.value}, {self.object}, {self.receptacle})" \
            if self.receptacle is not None else f"({self.action.value}, {self.object})"
        object.__setattr__(self, "text", text)


Plan = tuple[Subgoal, ...]


# lines whose subgoals parse_subgoal keeps, least recently used first out
PARSE_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_subgoal(line: str) -> Subgoal:
    """Parse one template line into a Subgoal; raises PlanParseError on a
    line with no template shape, an unknown action, the wrong number of
    fields or an empty object or receptacle."""
    match = _LINE_RE.match(line)
    if not match:
        raise PlanParseError(f"not a subgoal template line: {line!r}")
    fields = [part.strip() for part in match.group("body").split(",")]
    if len(fields) < 2 or len(fields) > 3:
        raise PlanParseError(f"expected 2 or 3 fields, got {len(fields)}: {line!r}")
    action_key = _normalize_token(fields[0])
    action = _ACTION_LOOKUP.get(action_key)
    if action is None:
        raise PlanParseError(f"unknown action {fields[0]!r}")
    obj = _normalize_token(fields[1])
    receptacle = _normalize_token(fields[2]) if len(fields) == 3 else None
    return Subgoal(action, obj, receptacle)


def parse_plan(raw: str) -> Plan:
    """Extract every template line from a free-form completion, in order, and
    return them as a tuple of subgoals.

    Non-template lines and blank lines are skipped. Raises NoSubgoalsFound,
    whose message counts the skipped non-blank lines, when not a single line
    parses.
    """
    steps: list[Subgoal] = []
    skipped = 0
    for line in raw.splitlines():
        if not line.strip():
            continue
        try:
            steps.append(parse_subgoal(line))
        except PlanParseError:
            skipped += 1
    if not steps:
        raise NoSubgoalsFound(f"no subgoal lines found ({skipped} lines skipped)")
    return tuple(steps)


def render_subgoal(sg: Subgoal) -> str:
    """Canonical template form, ``sg.text``; parse_subgoal(render_subgoal(sg)) == sg."""
    return sg.text

