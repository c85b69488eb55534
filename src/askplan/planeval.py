"""Strict and relaxed matching of predicted plans against annotated ground
truth, plus aggregate benchmark metrics.

A ground-truth annotation is a canonical subgoal sequence (the "core") plus
three relaxations:

* floating: a slot may appear anywhere after an anchor slot instead of at its
  canonical position (e.g. a door may be closed at any later point);
* wildcard receptacles: a Put slot accepts any receptacle (where an object is
  parked does not matter);
* swap groups: blocks of slots with no order between the blocks of one
  group. Each block keeps its own internal order, but the blocks may
  interleave, not only trade places: with the blocks ``(Pickup, remote)
  (Put, remote, sofa)`` and ``(Pickup, remote2) (Put, remote2, sofa)``, the
  plan ``(Pickup, remote) (Pickup, remote2) (Put, remote, sofa) (Put,
  remote2, sofa)`` matches.

The relaxations compile into a partial order over the core's slots, held
once, as one predecessor mask per slot (``RelaxedSpec.preds``). A step
takes a slot when it has the slot's action and object, and its receptacle
unless the slot is a wildcard. A candidate plan matches when some one-to-one
assignment of its steps to slots that they can take orders the slots
consistently with the partial order, i.e. the candidate is a linear
extension. Navigate steps are controller-level and are excluded from
matching on both sides.

The matcher is a depth-first search over sets of used slots that remembers
the sets from which no assignment exists. Identical blocks of one group that
may trade places (twins) are taken in block order: each slot of a twin block
also needs the slot at the same offset in the block before it in its class
(lex-leader symmetry breaking, Crawford et al., KR 1996). Any accepted
assignment can be relabelled into that order, offset by offset, so no
verdict changes, and the sets the search meets within a class are
polynomial in its number of blocks. Within a swap group they are bounded by
the product of (block length + 1) over distinct blocks.

The tables the matcher reads that depend only on the annotation are compiled
by ``compile_relaxed_spec``: per core line, the (bit, needed bits) of every
slot that a step of that line can take; and per Put object, its wildcard
slots alone, for a Put to a receptacle no core line names. A slot's needed
bits are its ``preds`` mask plus its twin ordering edge. A match looks each
step up once, in one pass over the candidate that skips Navigate steps and
stops at the first step no slot takes. An annotation compiles its spec once,
in one pass over the slots, on first use of ``GtAnnotation.spec``, and keeps
it, so scoring the same annotations again compiles nothing.
Scoring a trace set matches each distinct (task, initial plan) pair once per
call, strictly and relaxed, and parses its lines through ``parse_subgoal``,
whose per-process memo parses each distinct line once. The strict match is
gated on length: only a candidate longer than the core has Navigate steps to
filter out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .inputs import MalformedInput, checked_field, reject_unknown_keys
from .plans import ActionKind, PlanParseError, Subgoal, parse_subgoal


# The most slots a core may hold. The matcher recurses once per slot, and
# 800 leaves room for callers under CPython's default recursion limit of 1000.
MAX_CORE_SLOTS = 800


@dataclass(frozen=True)
class GtAnnotation:
    """Canonical subgoal slots plus relaxation markup, checked on construction.

    ``floating`` holds (slot, anchor) pairs; ``wildcards`` holds indices of
    Put slots whose receptacle is free; ``swap_groups`` holds groups of
    [start, end] slot ranges (inclusive) that may be reordered.

    ``spec`` is the annotation's compiled ``RelaxedSpec``, built on first use
    and kept on the annotation, outside comparison and hashing.
    """

    core: tuple[Subgoal, ...]
    floating: tuple[tuple[int, int], ...] = ()
    wildcards: tuple[int, ...] = ()
    swap_groups: tuple[tuple[tuple[int, int], ...], ...] = ()
    # not a functools.cached_property: its first read adds a key to the
    # instance __dict__, which makes every later field read 2-3x slower on
    # CPython 3.11 and 3.12
    _spec: Optional[RelaxedSpec] = field(default=None, init=False, compare=False, repr=False)

    @staticmethod
    def from_dict(data: object) -> "GtAnnotation":
        """Build an annotation from its JSON form; raises MalformedInput on an
        ill-typed field or a broken invariant, and PlanParseError on a core
        line that is no subgoal."""
        reject_unknown_keys(data, {"core", "floating", "wildcards", "swap_groups"}, "gt")
        core = checked_field(data, "core", [str], "gt", [])
        return GtAnnotation(
            core=tuple(parse_subgoal(line) for line in core),
            floating=_pairs(checked_field(data, "floating", [[int]], "gt", []), "floating"),
            wildcards=tuple(checked_field(data, "wildcards", [int], "gt", [])),
            swap_groups=tuple(_pairs(group, "swap_groups") for group
                              in checked_field(data, "swap_groups", [[[int]]], "gt", [])),
        )

    @property
    def spec(self) -> RelaxedSpec:
        if self._spec is None:
            object.__setattr__(self, "_spec", compile_relaxed_spec(self))
        return self._spec

    def __post_init__(self) -> None:
        object.__setattr__(self, "_spec", None)  # a key from the start; see _spec
        n = len(self.core)
        if n > MAX_CORE_SLOTS:
            raise MalformedInput(f"a core of {n} slots exceeds the bound of {MAX_CORE_SLOTS}")
        for sg in self.core:
            if sg.action is ActionKind.NAVIGATE:
                raise MalformedInput("Navigate steps do not belong in a core annotation")
        anchors: dict[int, int] = {}
        for slot, anchor in self.floating:
            if not (0 <= slot < n and 0 <= anchor < n):
                raise MalformedInput(f"floating pair ({slot}, {anchor}) out of range")
            if slot == anchor:
                raise MalformedInput(f"slot {slot} cannot anchor itself")
            if slot in anchors:
                raise MalformedInput(f"slot {slot} floats twice")
            anchors[slot] = anchor
        # Compiling keeps, of a floating slot's edges, only anchor -> slot and
        # those to the slots anchored at it; every other edge follows the
        # core order. So the partial order has a cycle exactly when an
        # anchor chain returns to a slot it passed.
        for slot in anchors:
            chain = {slot}
            anchor = anchors[slot]
            while anchor in anchors:
                if anchor in chain:
                    raise MalformedInput(f"floating slot {slot} is anchored in a cycle")
                chain.add(anchor)
                anchor = anchors[anchor]
        for idx in self.wildcards:
            if not 0 <= idx < n:
                raise MalformedInput(f"wildcard index {idx} out of range")
            if self.core[idx].action is not ActionKind.PUT:
                raise MalformedInput(f"wildcard on non-Put slot {idx}")
        claimed: set[int] = set()
        for group in self.swap_groups:
            if len(group) < 2:
                raise MalformedInput("a swap group needs at least two blocks")
            for lo, hi in group:
                if not (0 <= lo <= hi < n):
                    raise MalformedInput(f"swap range [{lo}, {hi}] out of range")
                block = set(range(lo, hi + 1))
                if block & claimed:
                    raise MalformedInput("swap-group ranges overlap")
                claimed |= block


def _pairs(items: list[list[int]], name: str) -> tuple[tuple[int, int], ...]:
    if any(len(pair) != 2 for pair in items):
        raise MalformedInput(f"gt field {name!r} holds a list that is not a pair: {items!r:.80}")
    return tuple((a, b) for a, b in items)


# the slots a step can take, as (slot bit, bits of the slots it needs taken
# first), in slot order
Choices = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RelaxedSpec:
    """Slots plus a partial order, held as one predecessor mask per slot: bit
    i of ``preds[j]`` means slot i comes before slot j.

    ``slots`` is the annotation's core, and ``wildcards`` holds the Put slots
    whose receptacle is free. ``twins`` holds classes of interchangeable
    blocks, as [start, end] slot ranges (inclusive): exchanging two blocks of
    a class slot by slot maps the slots, the wildcards and the order onto
    themselves, and no slot of one block precedes a slot of another.

    The other fields are the matcher's tables, compiled once per spec from
    those four and left out of comparison and hashing. ``by_line`` maps each
    core line (``Subgoal.text``) to the slots a step of that line can take:
    the slots of that line, and the wildcard slots of its Put object.
    ``wildcard_puts`` maps a Put object to its wildcard slots alone, which is
    all a Put to a receptacle no core line names can take. Both list each
    slot as (slot bit, needed bits), in slot order. A slot's needed bits are
    its ``preds`` and, in a twin block but the first of its class, the slot
    at the same offset in the block before it, so that twin blocks take each
    offset in class order: an ordering edge that only the matcher reads.
    """

    slots: tuple[Subgoal, ...]
    wildcards: frozenset[int]
    preds: tuple[int, ...]
    twins: tuple[tuple[tuple[int, int], ...], ...]
    by_line: Mapping[str, Choices] = field(compare=False, repr=False)
    wildcard_puts: Mapping[str, Choices] = field(compare=False, repr=False)


def compile_relaxed_spec(gt: GtAnnotation) -> RelaxedSpec:
    """Turn annotation markup into one predecessor mask per slot, in one pass.

    A slot that does not float comes after every earlier slot that does not
    float, except those in the other blocks of its own swap group; a floating
    slot comes after its anchor alone. An unmarked annotation therefore
    compiles to the full total order. Twin blocks are sought within each swap
    group; their ordering edges go into the matcher's tables, not ``preds``.
    """
    slots, wildcards, anchors = gt.core, frozenset(gt.wildcards), dict(gt.floating)
    apart: dict[int, int] = {}  # per slot of a swap group, its group's other blocks
    for group in gt.swap_groups:
        whole = sum((2 << hi) - (1 << lo) for lo, hi in group)
        for lo, hi in group:
            apart.update(dict.fromkeys(range(lo, hi + 1), whole - (2 << hi) + (1 << lo)))
    preds, earlier = [], 0
    for s in range(len(slots)):
        if s in anchors:
            preds.append(1 << anchors[s])
        else:
            preds.append(earlier & ~apart.get(s, 0))
            earlier |= 1 << s
    twins = []
    for group in gt.swap_groups:
        classes: list[list[tuple[int, int]]] = []
        for block in group:
            for members in classes:
                if _interchangeable(members[0], block, slots, wildcards, preds):
                    members.append(block)
                    break
            else:
                classes.append([block])
        twins += [tuple(members) for members in classes if len(members) > 1]
    needs = list(preds)
    for members in twins:
        for (lo, hi), (next_lo, _) in zip(members, members[1:]):
            for offset in range(hi - lo + 1):
                needs[next_lo + offset] |= 1 << (lo + offset)
    lines: dict[str, set[int]] = {}  # the slots of each core line
    puts: dict[str, list[int]] = {}  # the wildcard slots of each Put object
    for s, sg in enumerate(slots):
        lines.setdefault(sg.text, set()).add(s)
        if s in wildcards:
            puts.setdefault(sg.object, []).append(s)
    for own in lines.values():
        sg = slots[min(own)]
        own.update(puts.get(sg.object, ()) if sg.action is ActionKind.PUT else ())
    entries = [(1 << s, need) for s, need in enumerate(needs)]
    by_line = {text: tuple(entries[s] for s in sorted(own)) for text, own in lines.items()}
    wildcard_puts = {obj: tuple(entries[s] for s in own) for obj, own in puts.items()}
    return RelaxedSpec(slots, wildcards, tuple(preds), tuple(twins), by_line, wildcard_puts)


def _interchangeable(a: tuple[int, int], b: tuple[int, int], slots: Sequence[Subgoal],
                     wildcards: frozenset[int], preds: list[int]) -> bool:
    """Whether exchanging blocks ``a`` and ``b`` slot by slot maps the slots,
    the wildcards and the predecessor masks onto themselves, and no slot of
    ``b`` precedes one of ``a`` (the exchange then rules out the converse).

    The exchanges that pass against one block of a class generate every
    permutation of the class, so each is checked only against the first.
    An edge between two blocks can only come from a slot that floats after a
    slot of the other block; it would let a plan put the blocks' offsets in
    opposite orders, which the ordering edges of a twin class forbid.
    """
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    if a_hi - a_lo != b_hi - b_lo or any(
            slots[i] != slots[j] or (i in wildcards) != (j in wildcards)
            for i, j in zip(range(a_lo, a_hi + 1), range(b_lo, b_hi + 1))):
        return False
    a_bits, b_bits = (2 << a_hi) - (1 << a_lo), (2 << b_hi) - (1 << b_lo)
    if any(m & b_bits for m in preds[a_lo:a_hi + 1]):
        return False
    exchanged, rest = list(preds), ~(a_bits | b_bits)
    exchanged[a_lo:a_hi + 1], exchanged[b_lo:b_hi + 1] = preds[b_lo:b_hi + 1], preds[a_lo:a_hi + 1]
    return all(m & rest | (m & a_bits) >> a_lo << b_lo | (m & b_bits) >> b_lo << a_lo == p
               for m, p in zip(exchanged, preds))


def strict_match(candidate: Sequence[Subgoal], gt: GtAnnotation) -> bool:
    """Exact-sequence comparison against the core, Navigate steps skipped;
    wildcards are not honored.

    Gated on length: a core holds no Navigate, so a candidate shorter than
    the core never matches, and one of the core's length matches only when
    it equals the core as it stands. Only a longer candidate has its
    Navigate steps filtered out."""
    core = gt.core
    if len(candidate) <= len(core):
        return tuple(candidate) == core
    return tuple(sg for sg in candidate if sg.action is not ActionKind.NAVIGATE) == core


def relaxed_match(candidate: Sequence[Subgoal], spec: RelaxedSpec) -> bool:
    """Whether the candidate realizes the spec: a bijection of steps onto slots
    in which each step can take its slot and which linearizes the partial order.

    One pass over the candidate looks up each step's slots, skips Navigate
    steps and fails at the first step that no slot takes. Then depth-first
    over candidate positions; a slot is eligible at a position when the step
    can take it and all its predecessors are already assigned to earlier
    positions. A plan that matches on the first descent costs no more than
    that descent; see ``_expand`` for how failed branches are remembered.
    """
    options = []
    for step in candidate:
        choices = spec.by_line.get(step.text)
        if choices is None:
            if step.action is ActionKind.NAVIGATE:
                continue
            if step.action is not ActionKind.PUT:
                return False
            choices = spec.wildcard_puts.get(step.object)
            if choices is None:
                return False
        options.append(choices)
    if len(options) != len(spec.slots):
        return False
    return _expand(options, set(), 0, 0)


def _expand(options: list[Choices], dead: set[int], pos: int, used: int) -> bool:
    """Whether the steps from ``pos`` on can take slots outside ``used``, the
    bit set of the slots held by the steps before ``pos``.

    ``options[p]`` lists (slot bit, needed bits) for every slot that step
    ``p`` matches. ``pos`` is the size of ``used``, so ``used`` names the
    whole state. Each failed state is added to ``dead`` and not expanded
    again. Of the sets that differ only by an exchange of twin blocks, the
    ordering edges leave one reachable.
    """
    if pos == len(options):
        return True
    if used in dead:
        return False
    for bit, need in options[pos]:
        if not used & bit and need & used == need \
                and _expand(options, dead, pos + 1, used | bit):
            return True
    dead.add(used)
    return False


def enumerate_valid_plans(spec: RelaxedSpec,
                          receptacles: Iterable[str] = ()) -> set[tuple[Subgoal, ...]]:
    """Brute-force oracle: every linear extension of the partial order crossed
    with every wildcard-receptacle instantiation over the given vocabulary.

    Guarded to at most 8 slots. A non-empty receptacle vocabulary is required
    whenever the spec has wildcard slots.
    """
    n = len(spec.slots)
    if n > 8:
        raise ValueError(f"{n} slots exceeds the enumeration guard of 8")
    pool = sorted(set(receptacles))
    if spec.wildcards and not pool:
        raise ValueError("receptacle vocabulary required for wildcard slots")
    # per slot, every subgoal it can take
    choices = [[Subgoal(sg.action, sg.object, receptacle) for receptacle in pool]
               if s in spec.wildcards else [sg] for s, sg in enumerate(spec.slots)]
    orders: list[tuple[int, ...]] = []

    def extend(placed: tuple[int, ...], done: int) -> None:
        if len(placed) == n:
            orders.append(placed)
            return
        for slot in range(n):
            if not done >> slot & 1 and not spec.preds[slot] & ~done:
                extend(placed + (slot,), done | 1 << slot)

    extend((), 0)

    plans: set[tuple[Subgoal, ...]] = set()
    for order in orders:
        plans.update(itertools.product(*(choices[s] for s in order)))
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
        """The report as plain dicts, copied field by field: every value is a
        number, a string or None, so nothing needs a deep copy."""
        return dict(vars(self), per_type=[dict(vars(row)) for row in self.per_type])

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
    computed on the initial plan only. Raises MalformedInput when a trace
    references a task id with no annotation or a line of an initial plan is
    not a subgoal.

    Each annotation's spec is compiled once, on its first use by any call.
    Within one call, each distinct (task id, initial plan lines) pair is
    parsed and matched once, strictly and relaxed; later records of the pair
    reuse its verdicts. ``parse_subgoal``'s memo is the only line memo. A
    task's initial plan does not depend on the seed, so traces made over many
    seeds repeat a few plans many times. The percentages are correctly rounded
    sums (``math.fsum``), so the report does not depend on record order.
    """
    # one row per record, under its task type: (sr, gc, strict, relaxed, core_len)
    by_type: dict[str, list[tuple]] = {}
    verdicts: dict[tuple[str, tuple[str, ...]], tuple[bool, bool]] = {}
    for record in traces:
        task_id = record["task_id"]
        gt = gts.get(task_id)
        if gt is None:
            raise MalformedInput(f"no ground-truth annotation for task {task_id!r}")
        key = (task_id, tuple(record.get("initial_plan") or ()))
        verdict = verdicts.get(key)
        if verdict is None:
            try:
                initial = [parse_subgoal(line) for line in key[1]]
            except PlanParseError as exc:
                raise MalformedInput(f"initial plan of task {task_id!r}: {exc}") from exc
            verdict = verdicts[key] = (strict_match(initial, gt), relaxed_match(initial, gt.spec))
        by_type.setdefault(record.get("task_type", "unknown"), []).append(
            (record["sr"], record["gc"], *verdict, len(gt.core)))

    def summary(rows: list[tuple]) -> dict:
        sr, gc, strict, relaxed, _ = [100.0 * math.fsum(column) / len(rows)
                                      for column in zip(*rows)] or [None] * 5
        return dict(n_episodes=len(rows), sr_pct=sr, gc_pct=gc,
                    strict_hlp_pct=strict, relaxed_hlp_pct=relaxed)

    per_type = tuple(TaskTypeRow(task_type=task_type, **summary(rows),
                                 mean_core_len=sum(row[4] for row in rows) / len(rows))
                     for task_type, rows in sorted(by_type.items()))
    return MetricsReport(per_type=per_type,
                         **summary([row for rows in by_type.values() for row in rows]))
