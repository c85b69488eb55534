"""Strict and relaxed matching of predicted plans against annotated ground
truth, plus aggregate benchmark metrics.

A ground-truth annotation is a canonical subgoal sequence (the "core") plus
three relaxations:

* floating: a slot may appear anywhere after an anchor slot instead of at its
  canonical position (e.g. a door may be closed at any later point);
* wildcard receptacles: a Put slot accepts any receptacle (where an object is
  parked does not matter);
* swap groups: contiguous blocks of slots whose relative order is free
  (e.g. the slicing block and the chilling block of a task may come in either
  order).

The relaxations compile into a partial order over slots. A candidate plan
matches when some one-to-one assignment of its steps to slots respects every
slot pattern and orders the slots consistently with the partial order, i.e.
the candidate is a linear extension. Navigate steps are controller-level and
are excluded from matching on both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .plans import ActionKind, Plan, PlanParseError, Subgoal, parse_subgoal


class AnnotationError(ValueError):
    pass


class CyclicPrecedence(AnnotationError):
    pass


class TooLarge(ValueError):
    pass


class MissingGroundTruth(KeyError):
    def __init__(self, task_id: str):
        super().__init__(f"no ground-truth annotation for task {task_id!r}")
        self.task_id = task_id


@dataclass(frozen=True)
class GtAnnotation:
    """Canonical subgoal slots plus relaxation markup.

    ``floating`` holds (slot, anchor) pairs; ``wildcards`` holds indices of
    Put slots whose receptacle is free; ``swap_groups`` holds groups of
    [start, end] slot ranges (inclusive) that may be reordered.
    """

    core: tuple[Subgoal, ...]
    floating: tuple[tuple[int, int], ...] = ()
    wildcards: tuple[int, ...] = ()
    swap_groups: tuple[tuple[tuple[int, int], ...], ...] = ()

    @staticmethod
    def from_dict(data: dict) -> "GtAnnotation":
        if not isinstance(data, dict):
            raise AnnotationError(f"an annotation must be a JSON object, got {data!r}")
        core = tuple(parse_subgoal(line) for line in data.get("core", []))
        gt = GtAnnotation(
            core=core,
            floating=tuple((int(s), int(a)) for s, a in data.get("floating", [])),
            wildcards=tuple(int(i) for i in data.get("wildcards", [])),
            swap_groups=tuple(
                tuple((int(lo), int(hi)) for lo, hi in group)
                for group in data.get("swap_groups", [])
            ),
        )
        gt.validate()
        return gt

    def validate(self) -> None:
        n = len(self.core)
        for sg in self.core:
            if sg.action is ActionKind.NAVIGATE:
                raise AnnotationError("Navigate steps do not belong in a core annotation")
        anchors: dict[int, int] = {}
        for slot, anchor in self.floating:
            if not (0 <= slot < n and 0 <= anchor < n):
                raise AnnotationError(f"floating pair ({slot}, {anchor}) out of range")
            if slot == anchor:
                raise AnnotationError(f"slot {slot} cannot anchor itself")
            if slot in anchors:
                raise AnnotationError(f"slot {slot} floats twice")
            anchors[slot] = anchor
        # Compiling keeps, of a floating slot's edges, only anchor -> slot and
        # those to the slots anchored at it; every other edge follows the
        # core order. So the precedence DAG has a cycle exactly when an
        # anchor chain returns to a slot it passed.
        for slot in anchors:
            chain = {slot}
            anchor = anchors[slot]
            while anchor in anchors:
                if anchor in chain:
                    raise CyclicPrecedence(f"floating slot {slot} is anchored in a cycle")
                chain.add(anchor)
                anchor = anchors[anchor]
        for idx in self.wildcards:
            if not 0 <= idx < n:
                raise AnnotationError(f"wildcard index {idx} out of range")
            if self.core[idx].action is not ActionKind.PUT:
                raise AnnotationError(f"wildcard on non-Put slot {idx}")
        claimed: set[int] = set()
        for group in self.swap_groups:
            if len(group) < 2:
                raise AnnotationError("a swap group needs at least two blocks")
            for lo, hi in group:
                if not (0 <= lo <= hi < n):
                    raise AnnotationError(f"swap range [{lo}, {hi}] out of range")
                block = set(range(lo, hi + 1))
                if block & claimed:
                    raise AnnotationError("swap-group ranges overlap")
                claimed |= block


@dataclass(frozen=True)
class SlotPattern:
    action: ActionKind
    object: str
    receptacle: Optional[str]
    any_receptacle: bool = False

    def matches(self, sg: Subgoal) -> bool:
        if sg.action is not self.action or sg.object != self.object:
            return False
        if self.any_receptacle:
            return True
        return sg.receptacle == self.receptacle


@dataclass(frozen=True)
class RelaxedSpec:
    """Slot patterns plus a precedence DAG: (i, j) means slot i before slot j."""

    slots: tuple[SlotPattern, ...]
    precedence: frozenset[tuple[int, int]]


def compile_relaxed_spec(gt: GtAnnotation) -> RelaxedSpec:
    """Turn annotation markup into slot patterns and a precedence DAG.

    Starting from the total order of the core, swap groups drop every edge
    that crosses two blocks of the same group, and each floating slot keeps
    exactly one incoming edge, anchor -> slot. An unmarked annotation
    therefore compiles to the full total order.
    """
    gt.validate()
    n = len(gt.core)
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    for group in gt.swap_groups:
        blocks = [set(range(lo, hi + 1)) for lo, hi in group]
        for a, b in itertools.permutations(range(len(blocks)), 2):
            for i in blocks[a]:
                for j in blocks[b]:
                    edges.discard((i, j))
    float_map = dict(gt.floating)
    edges = {(i, j) for i, j in edges if i not in float_map and j not in float_map}
    for slot, anchor in float_map.items():
        edges.add((anchor, slot))
    wildcard_set = set(gt.wildcards)
    slots = tuple(
        SlotPattern(sg.action, sg.object, sg.receptacle, any_receptacle=idx in wildcard_set)
        for idx, sg in enumerate(gt.core)
    )
    return RelaxedSpec(slots, frozenset(edges))


def _matchable_steps(candidate: Plan | Sequence[Subgoal]) -> tuple[Subgoal, ...]:
    steps = candidate.steps if isinstance(candidate, Plan) else tuple(candidate)
    return tuple(sg for sg in steps if sg.action is not ActionKind.NAVIGATE)


def strict_match(candidate: Plan | Sequence[Subgoal], gt: GtAnnotation) -> bool:
    """Exact-sequence comparison against the core; wildcards are not honored."""
    return _matchable_steps(candidate) == gt.core


def relaxed_match(candidate: Plan | Sequence[Subgoal], spec: RelaxedSpec) -> bool:
    """Whether the candidate realizes the spec: a bijection of steps onto slots
    that satisfies every pattern and linearizes the precedence DAG.

    Backtracking over candidate positions in order; a slot is eligible at a
    position when its pattern matches and all its predecessors are already
    assigned to earlier positions.
    """
    steps = _matchable_steps(candidate)
    n = len(spec.slots)
    if len(steps) != n:
        return False
    compatible = [
        frozenset(s for s in range(n) if spec.slots[s].matches(step)) for step in steps
    ]
    if any(not c for c in compatible):
        return False
    preds: dict[int, set[int]] = {s: set() for s in range(n)}
    for i, j in spec.precedence:
        preds[j].add(i)
    used: set[int] = set()

    def assign(pos: int) -> bool:
        if pos == n:
            return True
        for slot in compatible[pos]:
            if slot in used or not preds[slot] <= used:
                continue
            used.add(slot)
            if assign(pos + 1):
                return True
            used.remove(slot)
        return False

    return assign(0)


def enumerate_valid_plans(spec: RelaxedSpec,
                          receptacles: Iterable[str] = ()) -> set[tuple[Subgoal, ...]]:
    """Brute-force oracle: every linear extension of the precedence DAG crossed
    with every wildcard-receptacle instantiation over the given vocabulary.

    Guarded to at most 8 slots. A non-empty receptacle vocabulary is required
    whenever the spec has wildcard slots.
    """
    n = len(spec.slots)
    if n > 8:
        raise TooLarge(f"{n} slots exceeds the enumeration guard of 8")
    pool = sorted(set(receptacles))
    choices: list[list[Optional[str]]] = []
    for pattern in spec.slots:
        if pattern.any_receptacle:
            if not pool:
                raise ValueError("receptacle vocabulary required for wildcard slots")
            choices.append(list(pool))
        else:
            choices.append([pattern.receptacle])
    preds: dict[int, set[int]] = {s: set() for s in range(n)}
    for i, j in spec.precedence:
        preds[j].add(i)

    orders: list[tuple[int, ...]] = []

    def extend(placed: tuple[int, ...], remaining: set[int]) -> None:
        if not remaining:
            orders.append(placed)
            return
        done = set(placed)
        for slot in sorted(remaining):
            if preds[slot] <= done:
                extend(placed + (slot,), remaining - {slot})

    extend((), set(range(n)))

    plans: set[tuple[Subgoal, ...]] = set()
    for order in orders:
        for combo in itertools.product(*(choices[s] for s in order)):
            plans.add(tuple(
                Subgoal(spec.slots[s].action, spec.slots[s].object, receptacle)
                for s, receptacle in zip(order, combo)
            ))
    return plans


@dataclass(frozen=True)
class ScoreSummary:
    """The figures reported for a set of episodes; ``None`` when it is empty."""

    n_episodes: int
    sr_pct: Optional[float]
    gc_pct: Optional[float]
    strict_hlp_pct: Optional[float]
    relaxed_hlp_pct: Optional[float]


@dataclass(frozen=True)
class TaskTypeRow(ScoreSummary):
    task_type: str
    mean_core_len: float


@dataclass(frozen=True)
class MetricsReport(ScoreSummary):
    per_type: tuple[TaskTypeRow, ...]

    def to_dict(self) -> dict:
        return asdict(self)

    def format_table(self) -> str:
        def pct(value: Optional[float]) -> str:
            return "n/a" if value is None else f"{value:.1f}"

        lines = [
            f"episodes: {self.n_episodes}",
            f"SR:         {pct(self.sr_pct)}",
            f"GC:         {pct(self.gc_pct)}",
            f"StrictHLP:  {pct(self.strict_hlp_pct)}",
            f"RelaxedHLP: {pct(self.relaxed_hlp_pct)}",
        ]
        if self.per_type:
            lines.append("")
            header = f"{'task type':<12}{'n':>4}{'gt len':>8}{'SR':>8}{'GC':>8}{'strict':>8}{'relaxed':>9}"
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.per_type:
                lines.append(
                    f"{row.task_type:<12}{row.n_episodes:>4}{row.mean_core_len:>8.1f}"
                    f"{row.sr_pct:>8.1f}{row.gc_pct:>8.1f}"
                    f"{row.strict_hlp_pct:>8.1f}{row.relaxed_hlp_pct:>9.1f}"
                )
        return "\n".join(lines)


def score_dataset(traces: Iterable[Mapping],
                  gts: Mapping[str, GtAnnotation]) -> MetricsReport:
    """Aggregate SR / GC / StrictHLP / RelaxedHLP over trace records.

    Each trace record is the JSON form of an episode trace; HLP accuracy is
    computed on the initial plan only. Raises MissingGroundTruth when a trace
    references a task id with no annotation, and PlanParseError when a line
    of an initial plan is not a subgoal.
    """
    rows: list[dict] = []
    for record in traces:
        task_id = record["task_id"]
        gt = gts.get(task_id)
        if gt is None:
            raise MissingGroundTruth(task_id)
        try:
            initial = tuple(parse_subgoal(line) for line in record.get("initial_plan") or ())
        except PlanParseError as exc:
            raise PlanParseError(f"initial plan of task {task_id!r}: {exc}") from exc
        rows.append({
            "task_type": record.get("task_type", "unknown"),
            "core_len": len(gt.core),
            "sr": int(record["sr"]),
            "gc": float(record["gc"]),
            "strict": strict_match(initial, gt),
            "relaxed": relaxed_match(initial, compile_relaxed_spec(gt)),
        })

    def summary(group: list[dict]) -> dict:
        def pct(key: str) -> Optional[float]:
            return 100.0 * sum(row[key] for row in group) / len(group) if group else None

        return dict(n_episodes=len(group), sr_pct=pct("sr"), gc_pct=pct("gc"),
                    strict_hlp_pct=pct("strict"), relaxed_hlp_pct=pct("relaxed"))

    per_type = []
    for task_type in sorted({row["task_type"] for row in rows}):
        group = [row for row in rows if row["task_type"] == task_type]
        per_type.append(TaskTypeRow(
            task_type=task_type,
            mean_core_len=sum(row["core_len"] for row in group) / len(group),
            **summary(group),
        ))
    return MetricsReport(per_type=tuple(per_type), **summary(rows))
