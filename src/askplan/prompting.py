"""Prompt generators, one per stage: decomposition, planning, validity,
feedback and re-planning, implemented as substitution over versioned
template files. The decomposition and planning generators also pick their
ablation variant's template (chain-of-thought, no decomposition).

Templates live in the package's ``prompts/`` directory, one file per
template, with a ``[system]`` section followed by a ``[user]`` section.
A fragment, ``prompts/<name>.part``, holds text that several templates share;
a template names it as ``<<name>>`` anywhere in its text, expanded on load.
Placeholders are written ``{name}`` and substituted literally, in one pass,
so a value that itself contains ``{name}`` is inserted as it is. A template's
placeholders are the ones its text contains, and a generator must supply
values for exactly those, so a typo in either fails on the first render.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources

from .plans import Plan, Subgoal


_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_ -]*)\}")
_FRAGMENT_RE = re.compile(r"<<([a-z_]+)>>")


@dataclass(frozen=True)
class PromptTemplate:
    system_text: str
    user_text: str
    placeholders: frozenset[str]


@dataclass(frozen=True)
class RenderedPrompt:
    system_text: str
    user_text: str


# Ordered [question, answer] turns, as a trace records them; a lone answer
# with an empty question holds free-form decomposition text from the
# chain-of-thought variant.
QATranscript = list[list[str]]


class Verdict(str, Enum):
    VALID = "valid"
    INVALID = "invalid"


def _read_prompt_file(file_name: str, what: str) -> str:
    try:
        return resources.files("askplan").joinpath(f"prompts/{file_name}").read_text("utf-8")
    except FileNotFoundError as exc:
        raise ValueError(f"unknown {what}") from exc


@lru_cache(maxsize=None)
def load_template(name: str) -> PromptTemplate:
    def fragment(named: re.Match) -> str:
        return _read_prompt_file(f"{named[1]}.part",
                                 f"fragment {named[1]!r} in template {name!r}").rstrip("\n")

    text = _FRAGMENT_RE.sub(fragment, _read_prompt_file(f"{name}.txt", f"template {name!r}"))
    match = re.match(r"\[system\]\n(?P<system>.*?)\n\[user\]\n(?P<user>.*)", text, re.DOTALL)
    if not match:
        raise ValueError(f"template {name!r} lacks [system]/[user] sections")
    system_text = match.group("system").strip()
    user_text = match.group("user").strip()
    placeholders = frozenset(_PLACEHOLDER_RE.findall(f"{system_text}\n{user_text}"))
    return PromptTemplate(system_text, user_text, placeholders)


def _render(name: str, values: dict[str, str]) -> RenderedPrompt:
    template = load_template(name)
    if values.keys() != template.placeholders:
        raise ValueError(f"template {name!r} takes {sorted(template.placeholders)}, "
                         f"got {sorted(values)}")
    def substitute(text: str) -> str:
        return _PLACEHOLDER_RE.sub(lambda match: values[match.group(1)], text)

    return RenderedPrompt(substitute(template.system_text), substitute(template.user_text))


def format_transcript(qa: QATranscript) -> str:
    blocks = []
    for question, answer in qa:
        if question:
            blocks.append(f"Q: {question}\nA: {answer}")
        else:
            blocks.append(answer)
    return "\n".join(blocks)


def gen_std_prompt(instruction: str, cot: bool = False) -> RenderedPrompt:
    """Decomposition prompt for a raw instruction: self-questioning, or with
    ``cot=True`` the step-by-step ablation variant."""
    return _render("std_cot" if cot else "std", {"instruction": instruction})


def gen_tp_prompt(instruction: str, qa: QATranscript | None,
                  cot: bool = False) -> RenderedPrompt:
    """Planning prompt fed with the decomposition transcript, or with
    ``qa=None`` the no-decomposition ablation's prompt.

    With ``cot=True`` the transcript is free-form decomposition text rather
    than a conversation, and the ``tp_cot`` template words it so.
    """
    if qa is None:
        return _render("tp_no_std", {"instruction": instruction})
    if not qa:
        raise ValueError("planning with a decomposition requires at least one turn")
    return _render("tp_cot" if cot else "tp",
                   {"instruction": instruction, "QA": format_transcript(qa)})


def gen_validity_prompt(sg: Subgoal) -> RenderedPrompt:
    return _render("validity", {"subgoal": sg.text})


def gen_feedback_prompt(sg: Subgoal, verdict: Verdict) -> RenderedPrompt:
    return _render("feedback", {
        "subgoal": sg.text,
        "object": sg.object,
        "validity": verdict.value.upper(),
    })


def gen_replan_prompt(feedback: str, plan: Plan, observed: set[str] | frozenset[str],
                      verdict: Verdict, instruction: str) -> RenderedPrompt:
    """Re-planning prompt: instruction, current plan, observations, verdict, feedback."""
    if not plan:
        raise ValueError("cannot request a revision of an empty plan")
    if not feedback.strip():
        raise ValueError("feedback text must be non-empty")
    return _render("replan", {
        "instruction": instruction,
        "initial high-level plan": "\n".join(sg.text for sg in plan),
        "observed_objects": ", ".join(sorted(set(observed))),
        "validity": verdict.value.upper(),
        "feedback": feedback,
    })


# a verdict word, with the "not" or "n't" word that denies it and the "?"
# that makes it a question
_VERDICT_RE = re.compile(r"((?:\bNOT|N['’]T)\s+(?:AN?\s+)?)?\b(IN)?VALID\b(\s*\?)?")


def classify_validity(raw: str) -> Verdict:
    """The verdict of a validity reply; the caller keeps the reply itself.
    Keyword rule over whole words, in any case: the word INVALID anywhere
    wins, and the word VALID passes unless ``not`` or an ``n't`` word denies
    it (``not valid``, ``isn't a valid``) or a ``?`` makes it a question.
    Anything else, ``validity`` included, is treated as invalid so that
    re-planning is triggered rather than a blind retry."""
    found = _VERDICT_RE.findall(raw.upper())
    affirmed = any(not denied and not asked for denied, _, asked in found)
    invalid = any(word for _, word, _ in found)
    return Verdict.VALID if affirmed and not invalid else Verdict.INVALID
