from __future__ import annotations

import dataclasses
import graphlib
import itertools
import json
import math
import random
import sys
import tracemalloc

import pytest

from askplan import planeval
from askplan.cli import load_tasks, read_traces
from askplan.plans import ActionKind, Subgoal, parse_subgoal
from askplan.planeval import (
    MAX_CORE_SLOTS,
    GtAnnotation,
    MalformedInput,
    MetricsReport,
    TaskTypeRow,
    compile_relaxed_spec,
    enumerate_valid_plans,
    relaxed_match,
    score_dataset,
    strict_match,
)
from conftest import perfbench_module


def gt(core_lines, floating=(), wildcards=(), swap_groups=()):
    return GtAnnotation(
        core=tuple(parse_subgoal(line) for line in core_lines),
        floating=tuple(floating),
        wildcards=tuple(wildcards),
        swap_groups=tuple(tuple(tuple(r) for r in group) for group in swap_groups),
    )


RECEPTACLE_POOL = ("counter", "table", "sink", "shelf")
OBJECT_POOL = ("bread", "knife", "mug", "tomato", "book")
ACTION_POOL = (ActionKind.PICKUP, ActionKind.OPEN, ActionKind.CLOSE,
               ActionKind.TOGGLE_ON, ActionKind.TOGGLE_OFF, ActionKind.SLICE)


def random_annotation(rng: random.Random, max_slots: int = 7,
                      min_slots: int = 3) -> GtAnnotation:
    """Annotation with up to 2 floats and, half of the time, one swap group.
    Half of the groups are two adjacent blocks of any length; the other half
    are 2-4 blocks of 1-3 slots, in half of which every block has one length
    and repeats the first block's steps half of the time, and a block is
    sometimes set apart from the one before it by a core slot."""
    n = rng.randint(min_slots, max_slots)
    core = []
    for _ in range(n):
        if rng.random() < 0.35:
            core.append(Subgoal(ActionKind.PUT, rng.choice(OBJECT_POOL),
                                rng.choice(RECEPTACLE_POOL)))
        else:
            core.append(Subgoal(rng.choice(ACTION_POOL), rng.choice(OBJECT_POOL)))

    floating = []
    for slot in rng.sample(range(1, n), k=min(rng.randint(0, 2), n - 1)):
        floating.append((slot, rng.randrange(0, slot)))

    swap_groups = []
    shape = rng.random()
    if shape < 0.25:
        cut = rng.randint(1, n - 1)
        swap_groups.append(((rng.randint(0, cut - 1), cut - 1),
                            (cut, rng.randint(cut, n - 1))))
    elif shape < 0.5:
        identical = rng.random() < 0.5
        length = rng.randint(1, 3)
        blocks, lo = [], rng.randint(0, n // 3)
        for _ in range(rng.randint(2, 4)):
            size = length if identical else rng.randint(1, 3)
            if lo + size > n:
                break
            blocks.append((lo, lo + size - 1))
            if identical and rng.random() < 0.5:
                core[lo:lo + size] = core[blocks[0][0]:blocks[0][0] + size]
            lo += size + (rng.random() < 0.3)
        if len(blocks) >= 2:
            swap_groups.append(tuple(blocks))

    wildcards = [i for i, sg in enumerate(core)
                 if sg.action is ActionKind.PUT and rng.random() < 0.4]

    return GtAnnotation(tuple(core), tuple(floating), tuple(wildcards),
                        tuple(swap_groups))


# -- annotation validation ----------------------------------------------------


def test_floating_anchor_must_be_in_range():
    with pytest.raises(MalformedInput, match=r"floating pair \(1, 5\) out of range"):
        gt(["(Pickup, mug)", "(Open, safe)"], floating=[(1, 5)])


def test_wildcard_only_on_put_slots():
    with pytest.raises(MalformedInput, match="wildcard on non-Put slot 0"):
        gt(["(Pickup, mug)"], wildcards=[0])


def test_swap_ranges_must_not_overlap():
    with pytest.raises(MalformedInput, match="swap-group ranges overlap"):
        gt(["(Pickup, mug)", "(Open, safe)", "(Close, safe)"],
           swap_groups=[[(0, 1), (1, 2)]])


def test_navigate_not_allowed_in_core():
    with pytest.raises(MalformedInput, match="Navigate steps do not belong in a core annotation"):
        gt(["(Navigate, safe)", "(Open, safe)"])


def test_a_core_over_the_slot_bound_is_malformed():
    core = tuple(Subgoal(ActionKind.OPEN, f"box{k}") for k in range(MAX_CORE_SLOTS + 1))
    with pytest.raises(MalformedInput, match="^a core of 801 slots exceeds the bound of 800$"):
        GtAnnotation(core)


def test_the_canonical_plan_of_a_core_at_the_slot_bound_relaxed_matches():
    # the matcher recurses once per slot, under pytest's own frames too
    core = tuple(Subgoal(ActionKind.OPEN, f"box{k}") for k in range(MAX_CORE_SLOTS))
    spec = GtAnnotation(core).spec
    assert relaxed_match(core, spec)
    assert not relaxed_match(core[:-2] + core[-1:] + core[-2:-1], spec)


def test_cyclic_anchor_chain_raises_defensively():
    with pytest.raises(MalformedInput, match="is anchored in a cycle"):
        gt(["(Pickup, mug)", "(Open, safe)", "(Close, safe)"], floating=[(1, 2), (2, 1)])


def test_anchor_walk_rejects_exactly_the_cyclic_precedences(monkeypatch):
    # compile every annotation, cyclic ones included, with validation skipped,
    # and compare validate's verdict with a reference cycle check of the edges
    validate = GtAnnotation.__post_init__
    monkeypatch.setattr(GtAnnotation, "__post_init__", lambda self: None)
    rng = random.Random(17)
    verdicts = set()
    for _ in range(500):
        n = rng.randint(2, 6)
        floating = [(slot, rng.choice([a for a in range(n) if a != slot]))
                    for slot in rng.sample(range(n), k=rng.randint(0, n))]
        cut = rng.randint(1, n - 1)
        swap = ((rng.randint(0, cut - 1), cut - 1), (cut, rng.randint(cut, n - 1)))
        annotation = gt(["(Pickup, mug)"] * n, floating=floating,
                        swap_groups=[swap] * rng.randint(0, 1))
        masks = compile_relaxed_spec(annotation).preds
        preds = {j: {i for i in range(n) if masks[j] >> i & 1} for j in range(n)}
        try:
            list(graphlib.TopologicalSorter(preds).static_order())
            cyclic = False
        except graphlib.CycleError:
            cyclic = True
        try:
            validate(annotation)
            rejected = False
        except MalformedInput as exc:
            assert "is anchored in a cycle" in str(exc), exc
            rejected = True
        assert rejected == cyclic, annotation
        verdicts.add(cyclic)
    assert verdicts == {True, False}


# -- compilation --------------------------------------------------------------


def edges(spec) -> set[tuple[int, int]]:
    """The spec's order as (i, j) pairs, slot i before slot j, read off its
    predecessor masks."""
    n = len(spec.preds)
    return {(i, j) for j, mask in enumerate(spec.preds) for i in range(n) if mask >> i & 1}


def test_unmarked_annotation_compiles_to_total_order():
    spec = compile_relaxed_spec(gt(["(Pickup, mug)", "(Open, safe)", "(Put, mug, safe)"]))
    n = 3
    assert edges(spec) == {(i, j) for i in range(n) for j in range(i + 1, n)}


def test_floating_slot_keeps_only_anchor_edge():
    annotation = gt(
        ["(Open, fridge)", "(Put, pan, fridge)", "(Close, fridge)", "(Pickup, mug)"],
        floating=[(2, 0)])
    spec = compile_relaxed_spec(annotation)
    incident = {(i, j) for (i, j) in edges(spec) if 2 in (i, j)}
    assert incident == {(0, 2)}


def test_swap_group_drops_cross_block_edges():
    annotation = gt(
        ["(Pickup, knife)", "(Slice, bread)", "(Open, fridge)", "(Close, fridge)",
         "(Pickup, mug)"],
        swap_groups=[[(0, 1), (2, 3)]])
    order = edges(compile_relaxed_spec(annotation))
    assert (0, 2) not in order
    assert (2, 0) not in order
    assert (0, 1) in order  # intra-block order kept
    assert (2, 3) in order
    assert (1, 4) in order  # edges to slots outside the group kept
    assert (3, 4) in order


def _boxes(n: int, twin_pairs: bool = False) -> GtAnnotation:
    """``n`` Open slots, distinct or, with ``twin_pairs``, in swap groups of
    two identical one-slot blocks."""
    if not twin_pairs:
        return GtAnnotation(tuple(Subgoal(ActionKind.OPEN, f"box{k}") for k in range(n)))
    return GtAnnotation(tuple(Subgoal(ActionKind.OPEN, f"box{k // 2}") for k in range(n)),
                        swap_groups=tuple(((k, k), (k + 1, k + 1)) for k in range(0, n, 2)))


def _compile_line_events(annotation) -> int:
    """The Python lines that compiling the annotation runs: a count of its
    work that, unlike a timing, is the same on every machine."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += event == "line"
        return tracer

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        compile_relaxed_spec(annotation)
    finally:
        sys.settrace(outer)
    return count


def test_compiling_an_unmarked_core_grows_linearly_with_its_slots():
    # a pair set of the total order made this ratio about 4
    assert _compile_line_events(_boxes(800)) / _compile_line_events(_boxes(400)) < 2.5


def test_compiling_a_core_of_twin_pairs_grows_below_the_cube_of_its_slots():
    # each pair's twin check reads one mask per slot; comparing a whole edge
    # set per pair made this ratio about 7
    pairs = _boxes(100, twin_pairs=True)
    assert len(compile_relaxed_spec(pairs).twins) == 50
    assert _compile_line_events(pairs) / _compile_line_events(_boxes(50, twin_pairs=True)) < 4.5


def test_a_spec_at_the_slot_bound_keeps_under_a_megabyte():
    # a pair set of its total order kept about 44 MB
    annotation = _boxes(MAX_CORE_SLOTS)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spec = compile_relaxed_spec(annotation)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(spec.preds) == MAX_CORE_SLOTS
    assert kept < 1_000_000, kept


def test_wildcard_slot_becomes_match_any():
    spec = compile_relaxed_spec(gt(["(Put, knife, counter)"], wildcards=[0]))
    assert spec.wildcards == {0}
    assert relaxed_match([parse_subgoal("(Put, knife, sink)")], spec)
    assert not relaxed_match([parse_subgoal("(Put, fork, sink)")], spec)
    fixed = compile_relaxed_spec(gt(["(Put, knife, counter)"]))
    assert relaxed_match([parse_subgoal("(Put, knife, counter)")], fixed)
    assert not relaxed_match([parse_subgoal("(Put, knife, sink)")], fixed)


# -- strict matching ----------------------------------------------------------


def test_strict_match_identity(bread_scenario):
    assert strict_match(bread_scenario.gt.core, bread_scenario.gt)


def test_strict_match_rejects_adjacent_swap(bread_scenario):
    steps = list(bread_scenario.gt.core)
    steps[0], steps[1] = steps[1], steps[0]
    assert not strict_match(steps, bread_scenario.gt)


def test_strict_match_ignores_wildcards():
    annotation = gt(["(Put, knife, table)"], wildcards=[0])
    assert not strict_match((parse_subgoal("(Put, knife, counter)"),), annotation)


def test_strict_match_skips_navigate_steps(bread_scenario):
    steps = (parse_subgoal("(Navigate, knife)"),) + bread_scenario.gt.core
    assert strict_match(steps, bread_scenario.gt)


def strict_by_filter(candidate, annotation) -> bool:
    """The definition of a strict match: the candidate's steps other than
    Navigate are the core."""
    return tuple(sg for sg in candidate if sg.action is not ActionKind.NAVIGATE) == annotation.core


NAVIGATE = parse_subgoal("(Navigate, counter)")


@pytest.mark.parametrize("case, candidate, expected", [
    ("shorter", lambda core: core[:-1], False),
    ("shorter, with a Navigate", lambda core: (NAVIGATE, *core[:-2]), False),
    ("equal", lambda core: core, True),
    ("equal, with a Navigate", lambda core: (NAVIGATE, *core[1:]), False),
    ("longer, with Navigates", lambda core: (NAVIGATE, *core[:2], NAVIGATE, *core[2:]), True),
    ("longer, with a Navigate and a stray step",
     lambda core: (NAVIGATE, *core, core[0]), False),
])
def test_strict_match_length_gate_agrees_with_the_filter(case, candidate, expected,
                                                         bread_scenario):
    annotation = bread_scenario.gt
    plan = candidate(annotation.core)
    assert strict_match(plan, annotation) is strict_by_filter(plan, annotation) is expected


def test_strict_match_agrees_with_the_filter_on_random_plans():
    rng = random.Random(2026)
    for _ in range(300):
        annotation = random_annotation(rng)
        core = list(annotation.core)
        plan = rng.choice([core, rng.sample(core, len(core)), core[:rng.randrange(len(core))]])
        for _ in range(rng.randint(0, 3)):
            plan.insert(rng.randint(0, len(plan)), NAVIGATE)
        if rng.random() < 0.3:
            plan.insert(rng.randint(0, len(plan)), rng.choice(core))
        assert strict_match(plan, annotation) is strict_by_filter(plan, annotation), plan


# -- relaxed matching ---------------------------------------------------------


def test_interchangeable_lamp_task_accepts_both_orders():
    annotation = gt(["(Pickup, book)", "(ToggleOn, desklamp)"],
                    swap_groups=[[(0, 0), (1, 1)]])
    spec = compile_relaxed_spec(annotation)
    assert relaxed_match((parse_subgoal("(Pickup, book)"),
                          parse_subgoal("(ToggleOn, desklamp)")), spec)
    assert relaxed_match((parse_subgoal("(ToggleOn, desklamp)"),
                          parse_subgoal("(Pickup, book)")), spec)


def test_wildcard_receptacle_accepts_any_location():
    annotation = gt(["(Slice, bread)", "(Put, knife, counter)"], wildcards=[1])
    spec = compile_relaxed_spec(annotation)
    assert relaxed_match((parse_subgoal("(Slice, bread)"),
                          parse_subgoal("(Put, knife, shelf)")), spec)


def test_floating_close_anywhere_after_anchor():
    annotation = gt(
        ["(Open, fridge)", "(Put, pan, fridge)", "(Close, fridge)", "(Pickup, mug)"],
        floating=[(2, 0)])
    spec = compile_relaxed_spec(annotation)
    ok = [
        ["(Open, fridge)", "(Close, fridge)", "(Put, pan, fridge)", "(Pickup, mug)"],
        ["(Open, fridge)", "(Put, pan, fridge)", "(Pickup, mug)", "(Close, fridge)"],
    ]
    for lines in ok:
        assert relaxed_match([parse_subgoal(l) for l in lines], spec), lines
    bad = ["(Close, fridge)", "(Open, fridge)", "(Put, pan, fridge)", "(Pickup, mug)"]
    assert not relaxed_match([parse_subgoal(l) for l in bad], spec)


def test_relaxed_match_length_mismatch():
    spec = compile_relaxed_spec(gt(["(Pickup, mug)"]))
    assert not relaxed_match((), spec)
    assert not relaxed_match((parse_subgoal("(Pickup, mug)"),
                              parse_subgoal("(Pickup, mug)")), spec)


def test_relaxed_match_excludes_navigate_on_candidate_side():
    spec = compile_relaxed_spec(gt(["(Pickup, mug)"]))
    candidate = (parse_subgoal("(Navigate, mug)"), parse_subgoal("(Pickup, mug)"))
    assert relaxed_match(candidate, spec)


# -- enumeration oracle -------------------------------------------------------


def test_enumerate_total_order_single_plan():
    spec = compile_relaxed_spec(gt(["(Pickup, mug)", "(Open, safe)", "(Put, mug, safe)"]))
    plans = enumerate_valid_plans(spec)
    assert len(plans) == 1


def test_enumerate_floating_close_three_positions():
    annotation = gt(
        ["(Open, fridge)", "(Close, fridge)", "(Put, pan, fridge)", "(Pickup, mug)"],
        floating=[(1, 0)])
    plans = enumerate_valid_plans(compile_relaxed_spec(annotation))
    assert len(plans) == 3  # close may sit at position 2, 3 or 4


def test_enumerate_guard_over_eight_slots():
    lines = [f"(Pickup, mug)" for _ in range(9)]
    spec = compile_relaxed_spec(gt(lines))
    with pytest.raises(ValueError, match="9 slots exceeds the enumeration guard of 8"):
        enumerate_valid_plans(spec)


def test_enumerate_wildcard_requires_vocab():
    spec = compile_relaxed_spec(gt(["(Put, knife, counter)"], wildcards=[0]))
    with pytest.raises(ValueError):
        enumerate_valid_plans(spec)
    plans = enumerate_valid_plans(spec, {"counter", "sink"})
    assert {p[0].receptacle for p in plans} == {"counter", "sink"}


def _candidate_variants(rng, core):
    """Order permutations of the core plus a few receptacle mutations."""
    unique_orders = {core}
    perms = itertools.permutations(core)
    if len(core) <= 5:
        unique_orders.update(perms)
    else:
        for _ in range(120):
            unique_orders.add(tuple(rng.sample(core, len(core))))
    variants = set(unique_orders)
    for order in list(unique_orders)[:40]:
        mutated = list(order)
        put_positions = [i for i, sg in enumerate(mutated)
                         if sg.action is ActionKind.PUT]
        if put_positions:
            pos = rng.choice(put_positions)
            mutated[pos] = Subgoal(ActionKind.PUT, mutated[pos].object,
                                   rng.choice(RECEPTACLE_POOL))
            variants.add(tuple(mutated))
    return variants


def _oracle_cases():
    """150 random annotations, each with its candidate plans."""
    rng = random.Random(424242)
    for _ in range(150):
        annotation = random_annotation(rng)
        yield annotation, _candidate_variants(rng, annotation.core)


def test_relaxed_match_agrees_with_oracle_on_150_random_specs():
    disagreements = 0
    twinned = 0
    for annotation, candidates in _oracle_cases():
        spec = compile_relaxed_spec(annotation)
        twinned += bool(spec.twins)
        oracle = enumerate_valid_plans(spec, RECEPTACLE_POOL)
        for candidate in candidates:
            if relaxed_match(candidate, spec) != (candidate in oracle):
                disagreements += 1
    assert disagreements == 0
    assert twinned


def test_compiled_tables_agree_with_the_spec_on_150_random_specs():
    for annotation, _ in _oracle_cases():
        spec = compile_relaxed_spec(annotation)
        n = len(spec.slots)
        # each twin block but the first of its class also needs the slot at
        # the same offset in the block before it
        ordering = {later + offset: earlier + offset for blocks in spec.twins
                    for (earlier, end), (later, _) in zip(blocks, blocks[1:])
                    for offset in range(end - earlier + 1)}

        def entries(slots):
            return tuple((1 << s, spec.preds[s] | (1 << ordering[s] if s in ordering else 0))
                         for s in slots)

        assert spec.by_line.keys() == {sg.text for sg in spec.slots}
        for line, choices in spec.by_line.items():
            step = parse_subgoal(line)
            assert choices == entries(s for s in range(n) if slot_matches(spec, s, step)), line
        puts = {sg.object for sg in spec.slots if sg.action is ActionKind.PUT}
        assert spec.wildcard_puts.keys() == {spec.slots[s].object for s in spec.wildcards}
        for obj in puts:
            # a receptacle that no core line names
            step = Subgoal(ActionKind.PUT, obj, "nowhere")
            assert spec.wildcard_puts.get(obj, ()) == \
                entries(s for s in range(n) if slot_matches(spec, s, step)), obj
        again = compile_relaxed_spec(annotation)
        assert again == spec
        assert hash(again) == hash(spec)


def slot_matches(spec, slot, sg):
    """The slot rule: same action and object, and the slot's receptacle unless
    the slot is a wildcard."""
    pattern = spec.slots[slot]
    return (sg.action, sg.object) == (pattern.action, pattern.object) and \
        (slot in spec.wildcards or sg.receptacle == pattern.receptacle)


def reference_match(candidate, spec):
    """The matcher before memoization: plain backtracking over positions,
    reading only the patterns and the predecessor masks."""
    steps = [sg for sg in candidate if sg.action is not ActionKind.NAVIGATE]
    n = len(spec.slots)

    def assign(pos, used):
        if pos == n:
            return True
        return any(not used >> slot & 1 and not spec.preds[slot] & ~used
                   and slot_matches(spec, slot, steps[pos]) and assign(pos + 1, used | 1 << slot)
                   for slot in range(n))

    return len(steps) == n and assign(0, 0)


def _linear_extension(rng, spec):
    """A random order of the slots that respects the predecessor masks, and
    the plan that takes them in that order; wildcard slots take a random
    receptacle."""
    order, remaining, done = [], set(range(len(spec.slots))), 0
    while remaining:
        ready = sorted(s for s in remaining if not spec.preds[s] & ~done)
        order.append(rng.choice(ready))
        remaining.remove(order[-1])
        done |= 1 << order[-1]
    return order, tuple(Subgoal(spec.slots[s].action, spec.slots[s].object,
                                rng.choice(RECEPTACLE_POOL)) if s in spec.wildcards
                        else spec.slots[s] for s in order)


def _variants(rng, spec, order, plan):
    """(name, candidate) pairs made from an accepted plan: two neighbouring
    steps exchanged, which mostly fails late; that with Navigate steps put in
    at random positions; a step dropped, repeated, or both; a step no slot
    takes; and a Put to a receptacle no core line names, at a wildcard slot's
    position and at a fixed Put slot's position."""
    plan = list(plan)
    pos = rng.randrange(len(plan) - 1)
    swapped = plan[:pos] + [plan[pos + 1], plan[pos]] + plan[pos + 2:]
    yield "exchange", swapped
    navigated = list(swapped)
    for _ in range(rng.randint(1, 3)):
        navigated.insert(rng.randint(0, len(navigated)),
                         Subgoal(ActionKind.NAVIGATE, rng.choice(OBJECT_POOL)))
    yield "navigate", navigated
    dropped = list(plan)
    del dropped[rng.randrange(len(plan))]
    yield "drop", dropped
    repeated = list(plan)
    repeated.insert(rng.randint(0, len(plan)), rng.choice(plan))
    yield "repeat", repeated
    kept_length = list(dropped)
    kept_length.insert(rng.randint(0, len(dropped)), rng.choice(dropped))
    yield "drop-and-repeat", kept_length
    # an object of the core, preferably one with a wildcard Put slot, under
    # an action that no slot of that object has
    obj = rng.choice([spec.slots[s].object for s in sorted(spec.wildcards)]
                     or [sg.object for sg in plan])
    actions = [a for a in ACTION_POOL if all((sg.action, sg.object) != (a, obj)
                                              for sg in spec.slots)]
    stranger = list(plan)
    stranger[rng.randrange(len(plan))] = Subgoal(rng.choice(actions), obj) if actions \
        else Subgoal(rng.choice(ACTION_POOL), "ghost")
    yield "unknown-step", stranger
    for name, slots in (("attic-on-wildcard", sorted(spec.wildcards)),
                        ("attic-on-fixed", [s for s, sg in enumerate(spec.slots)
                                            if sg.action is ActionKind.PUT
                                            and s not in spec.wildcards])):
        if slots:
            at = order.index(rng.choice(slots))
            moved = list(plan)
            moved[at] = Subgoal(ActionKind.PUT, plan[at].object, "attic")
            yield name, moved


def test_relaxed_match_agrees_with_reference_on_9_to_14_slots():
    # beyond the oracle's reach: accepted plans, and variants of them
    # annotations on their own stream, so the variants' draws do not change them
    annotations, rng = random.Random(9014), random.Random(9015)
    verdicts = {True: 0, False: 0}
    kinds = {}
    twinned = 0
    for _ in range(400):  # about 3 % of them have twins
        spec = compile_relaxed_spec(random_annotation(annotations, max_slots=14, min_slots=9))
        twinned += bool(spec.twins)
        for _ in range(10):
            order, plan = _linear_extension(rng, spec)
            assert relaxed_match(plan, spec)
            for name, variant in _variants(rng, spec, order, plan):
                expected = reference_match(variant, spec)
                assert relaxed_match(variant, spec) == expected, (name, spec, variant)
                verdicts[expected] += 1
                kinds.setdefault(name, set()).add(expected)
    assert min(verdicts.values()) >= 100
    assert twinned >= 10, twinned
    # each kind of variant ran, and each that can go either way did
    assert kinds == {"exchange": {True, False}, "navigate": {True, False}, "drop": {False},
                     "repeat": {False}, "drop-and-repeat": {True, False},
                     "unknown-step": {False}, "attic-on-wildcard": {True},
                     "attic-on-fixed": {True, False}}


def _all_orders_agree_with_oracle(spec):
    oracle = enumerate_valid_plans(spec, RECEPTACLE_POOL)
    return all(relaxed_match(order, spec) == (order in oracle)
               for order in set(itertools.permutations(spec.slots)))


MUG_BLOCK = ["(Pickup, mug)", "(Put, mug, shelf)"]


@pytest.mark.parametrize("core, floating, wildcards, swap_groups", [
    # a floating slot inside one of two identical blocks
    (MUG_BLOCK * 2 + ["(Open, box)"], [(1, 0)], [], [[(0, 1), (2, 3)]]),
    # an anchor inside one of two identical blocks
    (MUG_BLOCK * 2 + ["(Open, box)"], [(4, 1)], [], [[(0, 1), (2, 3)]]),
    # a core slot between two identical blocks
    (MUG_BLOCK + ["(Open, box)"] + MUG_BLOCK, [], [], [[(0, 1), (3, 4)]]),
    # two identical blocks whose Put slots differ only in being a wildcard
    (MUG_BLOCK * 2, [], [1], [[(0, 1), (2, 3)]]),
], ids=["floating-inside", "anchor-inside", "slot-between", "wildcard-in-one"])
def test_identical_blocks_that_are_not_interchangeable_are_no_twins(
        core, floating, wildcards, swap_groups):
    spec = compile_relaxed_spec(gt(core, floating=floating, wildcards=wildcards,
                                   swap_groups=swap_groups))
    assert spec.twins == ()
    assert _all_orders_agree_with_oracle(spec)


def test_identical_blocks_of_a_group_are_twins():
    core = MUG_BLOCK * 2 + ["(Pickup, box)", "(Put, box, shelf)"] + MUG_BLOCK
    blocks = [(0, 1), (2, 3), (4, 5), (6, 7)]
    # also listed out of slot order: the class keeps the group's order, and
    # the exchange of two blocks holds whichever of them comes first
    for group, twins in ((blocks, ((0, 1), (2, 3), (6, 7))),
                         (blocks[::-1], ((6, 7), (2, 3), (0, 1)))):
        spec = compile_relaxed_spec(gt(core, swap_groups=[group]))
        assert spec.twins == (twins,)
        assert _all_orders_agree_with_oracle(spec)


def test_identical_blocks_anchored_in_each_other_are_no_twins():
    # each block's Put floats after the other block's Pickup: the exchange
    # maps the DAG onto itself, but the plan Pickup, Put, Pickup, Put matches
    # only with its Pickups taken in one block order and its Puts in the
    # other, so twin ordering edges would reject it
    spec = compile_relaxed_spec(gt(MUG_BLOCK * 2, floating=[(1, 2), (3, 0)],
                                   swap_groups=[[(0, 1), (2, 3)]]))
    assert spec.twins == ()
    assert relaxed_match([parse_subgoal(line) for line in MUG_BLOCK * 2], spec)
    assert _all_orders_agree_with_oracle(spec)


def _expand_calls(monkeypatch, plan, spec) -> int:
    """The number of ``_expand`` calls of a relaxed match that must fail."""
    calls = 0
    expand = planeval._expand

    def counting(*args):
        nonlocal calls
        calls += 1
        return expand(*args)

    monkeypatch.setattr(planeval, "_expand", counting)
    assert not relaxed_match(plan, spec)
    return calls


def test_relaxed_match_state_count_is_polynomial_in_identical_blocks(monkeypatch):
    # k identical two-slot blocks and one distinct block in one swap group; the
    # plan moves the distinct block first and fails at its last two steps.
    # The twin ordering edges leave each mug step one open slot, the next
    # block's, so the search is a single descent of 2k + 1 calls. 3k leaves
    # room for another slot order; merging exchanged blocks by their used
    # patterns instead makes about k^2 calls (231 at k = 20), and a search
    # that tried every order of the identical blocks would make k! calls.
    k = 20
    core = ["(Pickup, box)", "(Put, box, shelf)"] + MUG_BLOCK * k
    spec = compile_relaxed_spec(gt(core, swap_groups=[[(2 * b, 2 * b + 1)
                                                       for b in range(k + 1)]]))
    plan = [parse_subgoal(line) for line in core]
    plan[-2], plan[-1] = plan[-1], plan[-2]
    assert 0 < _expand_calls(monkeypatch, plan, spec) <= 3 * k


def test_relaxed_match_orders_every_offset_of_identical_blocks(monkeypatch):
    # k identical two-slot blocks: the plan takes every Pickup before any Put
    # and fails at its last two steps. Ordering the Puts as well as the
    # Pickups leaves each step one open slot, so the search is a single
    # descent; ordering the Pickups alone lets the Puts go in any block
    # order, 2^k sets of used slots.
    k = 12
    core = MUG_BLOCK * k + ["(Open, box)", "(Close, box)"]
    spec = compile_relaxed_spec(gt(core, swap_groups=[[(2 * b, 2 * b + 1) for b in range(k)]]))
    plan = [parse_subgoal(MUG_BLOCK[0])] * k + [parse_subgoal(MUG_BLOCK[1])] * k \
        + [parse_subgoal("(Close, box)"), parse_subgoal("(Open, box)")]
    assert 0 < _expand_calls(monkeypatch, plan, spec) <= 3 * k


def test_relaxed_match_expands_each_failed_set_of_used_slots_once(monkeypatch):
    # k blocks that share their Pickup line but not their Put line, so they
    # are no twins: the plan takes every Pickup first, in one of k! slot
    # orders, and fails at its last two steps. Remembering the failed sets
    # of used slots leaves 2^k of them, each trying at most k slots; a search
    # that forgot them would try all k! orders.
    k = 7
    blocks = [["(Pickup, mug)", f"(Put, mug, shelf{b})"] for b in range(k)]
    core = [line for block in blocks for line in block] + ["(Open, box)", "(Close, box)"]
    spec = compile_relaxed_spec(gt(core, swap_groups=[[(2 * b, 2 * b + 1) for b in range(k)]]))
    assert spec.twins == ()
    plan = [parse_subgoal(block[0]) for block in blocks] \
        + [parse_subgoal(block[1]) for block in blocks] \
        + [parse_subgoal("(Close, box)"), parse_subgoal("(Open, box)")]
    assert 0 < _expand_calls(monkeypatch, plan, spec) <= k * 2 ** k


def test_order_soundness_violating_an_edge_fails_when_unambiguous():
    # distinct steps, total order: any transposition must fail
    annotation = gt(["(Pickup, knife)", "(Slice, bread)", "(Open, fridge)"])
    spec = compile_relaxed_spec(annotation)
    for perm in itertools.permutations(annotation.core):
        expected = perm == annotation.core
        assert relaxed_match(perm, spec) == expected


def test_strict_implies_relaxed_1000_random_annotations():
    rng = random.Random(31337)
    for _ in range(1000):
        annotation = random_annotation(rng)
        spec = compile_relaxed_spec(annotation)
        # the core always strict-matches itself, so it must relaxed-match too
        assert strict_match(annotation.core, annotation)
        assert relaxed_match(annotation.core, spec), annotation
        # and any candidate that strict-matches is core-equal, hence relaxed
        candidate = tuple(rng.sample(annotation.core, len(annotation.core)))
        if strict_match(candidate, annotation):
            assert relaxed_match(candidate, spec)


# -- dataset scoring ----------------------------------------------------------


def _record(task_id, sr, gc, plan_lines, task_type="Pick"):
    return {"task_id": task_id, "task_type": task_type, "sr": sr, "gc": gc,
            "initial_plan": plan_lines}


def test_score_dataset_arithmetic():
    gts = {
        "a": gt(["(Pickup, mug)"]),
        "b": gt(["(Pickup, pan)"]),
    }
    report = score_dataset([
        _record("a", 1, 1.0, ["(Pickup, mug)"]),
        _record("b", 0, 0.5, ["(Pickup, pan)"]),
    ], gts)
    assert report.n_episodes == 2
    assert report.sr_pct == 50.0
    assert report.gc_pct == 75.0
    assert report.strict_hlp_pct == 100.0
    assert report.relaxed_hlp_pct == 100.0


def test_score_dataset_strict_le_relaxed():
    gts = {"a": gt(["(Pickup, book)", "(ToggleOn, desklamp)"],
                   swap_groups=[[(0, 0), (1, 1)]])}
    report = score_dataset([
        _record("a", 1, 1.0, ["(ToggleOn, desklamp)", "(Pickup, book)"]),
    ], gts)
    assert report.strict_hlp_pct == 0.0
    assert report.relaxed_hlp_pct == 100.0


def test_score_dataset_parses_each_distinct_plan_once_per_call(monkeypatch):
    gts = {"a": gt(["(Pickup, mug)", "(Put, mug, shelf)"]),
           "b": gt(["(Pickup, book)", "(Put, book, shelf)"])}
    records = [
        _record("a", 1, 1.0, ["(Pickup, mug)", "(Put, mug, shelf)"]),
        _record("b", 1, 1.0, ["(Pickup, book)", "(Put, book, shelf)"]),
        _record("a", 0, 0.5, ["(Put, mug, shelf)", "(Pickup, mug)"]),
        _record("b", 0, 0.0, ["(Pickup, book)", "(Put, book, shelf)"]),
    ]
    # one parse per line of each distinct (task, plan) pair; repeats of a
    # line across pairs are left to parse_subgoal's own memo
    pairs = {(record["task_id"], tuple(record["initial_plan"])) for record in records}
    expected = sorted(line for _, plan in pairs for line in plan)
    assert len(expected) == 6
    calls = []
    parse = planeval.parse_subgoal

    def counting(line):
        calls.append(line)
        return parse(line)

    monkeypatch.setattr(planeval, "parse_subgoal", counting)
    report = score_dataset(records, gts)
    assert sorted(calls) == expected
    assert report.strict_hlp_pct == report.relaxed_hlp_pct == 75.0
    # the verdicts do not outlive a call
    calls.clear()
    assert score_dataset(records, gts) == report
    assert sorted(calls) == expected
    # a bad line still names its task, after valid lines of that task
    records.append(_record("a", 1, 1.0, ["(Pickup, mug)", "(Pickp, mug)"]))
    with pytest.raises(MalformedInput) as info:
        score_dataset(records, gts)
    assert str(info.value) == "initial plan of task 'a': unknown action 'Pickp'"


def test_score_dataset_compiles_each_annotation_once_across_calls(monkeypatch):
    gts = {"a": gt(["(Pickup, mug)", "(Put, mug, shelf)"], wildcards=[1]),
           "b": gt(["(Pickup, book)", "(Open, safe)"], floating=[(0, 1)])}
    records = [
        _record("a", 1, 1.0, ["(Pickup, mug)", "(Put, mug, sofa)"]),
        _record("b", 0, 0.5, ["(Open, safe)", "(Pickup, book)"]),
        _record("a", 0, 0.0, ["(Put, mug, shelf)", "(Pickup, mug)"]),
    ]
    compiled = []
    compile_spec = planeval.compile_relaxed_spec

    def counting(annotation):
        compiled.append(annotation)
        return compile_spec(annotation)

    monkeypatch.setattr(planeval, "compile_relaxed_spec", counting)
    first = score_dataset(records, gts)
    assert score_dataset(records, gts) == first
    assert sorted(compiled, key=id) == sorted(gts.values(), key=id)
    assert first.relaxed_hlp_pct == pytest.approx(200 / 3)
    # the kept spec is the compiled one, and stays out of equality and hashing
    assert gts["a"].spec == compile_spec(gts["a"])
    twin = gt(["(Pickup, mug)", "(Put, mug, shelf)"], wildcards=[1])
    assert twin == gts["a"] and hash(twin) == hash(gts["a"])


def test_reading_the_spec_adds_no_key_to_the_annotation():
    # a key added after construction slows every later field read on
    # CPython 3.11 and 3.12
    annotation = gt(["(Pickup, mug)", "(Put, mug, shelf)"], wildcards=[1])
    keys = set(vars(annotation))
    spec = annotation.spec
    assert set(vars(annotation)) == keys
    assert annotation.spec is spec and spec == compile_relaxed_spec(annotation)


def test_score_dataset_missing_gt():
    with pytest.raises(MalformedInput, match="no ground-truth annotation for task 'ghost'"):
        score_dataset([_record("ghost", 1, 1.0, [])], {})


def test_score_dataset_empty():
    report = score_dataset([], {})
    assert report.n_episodes == 0
    assert report.sr_pct is None
    assert report.format_table().startswith("episodes: 0")


def test_score_dataset_per_type_rows():
    gts = {
        "h": gt(["(Pickup, mug)", "(Open, safe)"]),
        "e": gt(["(Pickup, book)"]),
    }
    report = score_dataset([
        _record("h", 1, 1.0, ["(Pickup, mug)", "(Open, safe)"], task_type="Heat"),
        _record("e", 0, 0.0, ["(Pickup, book)"], task_type="Examine"),
    ], gts)
    rows = {row.task_type: row for row in report.per_type}
    assert rows["Heat"].mean_core_len == 2.0
    assert rows["Examine"].mean_core_len == 1.0
    assert rows["Heat"].sr_pct == 100.0
    assert rows["Examine"].sr_pct == 0.0


def reference_report(records, gts) -> MetricsReport:
    """score_dataset's report with no memo: every record is parsed and both
    matchers judge it, strict by its filter definition."""
    rows = []
    for record in records:
        annotation = gts[record["task_id"]]
        plan = [parse_subgoal(line) for line in record.get("initial_plan") or ()]
        rows.append({"task_type": record.get("task_type", "unknown"),
                     "core_len": len(annotation.core), "sr": record["sr"], "gc": record["gc"],
                     "strict": strict_by_filter(plan, annotation),
                     "relaxed": relaxed_match(plan, annotation.spec)})

    def summary(group):
        return {"n_episodes": len(group), **{
            f"{name}_pct": 100.0 * math.fsum(row[key] for row in group) / len(group)
            for name, key in (("sr", "sr"), ("gc", "gc"), ("strict_hlp", "strict"),
                              ("relaxed_hlp", "relaxed"))}}

    types = sorted({row["task_type"] for row in rows})
    per_type = []
    for task_type in types:
        group = [row for row in rows if row["task_type"] == task_type]
        per_type.append(TaskTypeRow(
            task_type=task_type,
            mean_core_len=sum(row["core_len"] for row in group) / len(group), **summary(group)))
    return MetricsReport(per_type=tuple(per_type), **summary(rows))


def _counting(monkeypatch, name: str) -> list:
    """Count the calls score_dataset makes of ``planeval.<name>``."""
    calls = []
    function = getattr(planeval, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(planeval, name, counting)
    return calls


def _distinct_pairs(records) -> int:
    return len({(record["task_id"], tuple(record.get("initial_plan") or ()))
                for record in records})


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_score_dataset_matches_each_distinct_plan_once_on_swap_groups(seed, tmp_path,
                                                                       monkeypatch):
    tasks, traces, _ = perfbench_module("gen_swaps").write(seed, tmp_path)
    gts = {scenario.id: scenario.gt for scenario in load_tasks(tasks).scenarios}
    records = read_traces(traces)
    expected = reference_report(records, gts)
    strict_calls = _counting(monkeypatch, "strict_match")
    relaxed_calls = _counting(monkeypatch, "relaxed_match")
    assert score_dataset(records, gts) == expected
    assert len(strict_calls) == len(relaxed_calls) == _distinct_pairs(records) < len(records)
    # nothing is kept across calls: a second call does the same work
    assert score_dataset(records, gts) == expected
    assert len(relaxed_calls) == 2 * _distinct_pairs(records)


def test_score_dataset_matches_each_distinct_plan_once_over_ten_noisy_runs(
        scripted_run, mini7, monkeypatch):
    # a task's initial plan does not depend on the seed; noise acts only on
    # execution, so 70 lines hold 7 distinct plans
    records = [record for seed in range(10)
               for record in read_traces(scripted_run("mini7", seed, "0.3"))]
    gts = {scenario.id: scenario.gt for scenario in mini7.scenarios}
    expected = reference_report(records, gts)
    relaxed_calls = _counting(monkeypatch, "relaxed_match")
    assert score_dataset(records, gts) == expected
    assert (len(records), len(relaxed_calls)) == (70, 7)


def test_score_dataset_judges_the_same_plan_under_each_task_by_its_own_annotation():
    gts = {"a": gt(["(Pickup, mug)", "(Put, mug, shelf)"]),
           "b": gt(["(Put, mug, shelf)", "(Pickup, mug)"], swap_groups=[[(0, 0), (1, 1)]]),
           "c": gt(["(Pickup, mug)"])}
    plan = ["(Pickup, mug)", "(Put, mug, shelf)"]
    records = [_record(task_id, 1, 1.0, plan, task_type=task_id)
               for task_id in ("a", "b", "c", "c", "b", "a")]
    report = score_dataset(records, gts)
    assert report == reference_report(records, gts)
    verdicts = {row.task_type: (row.strict_hlp_pct, row.relaxed_hlp_pct)
                for row in report.per_type}
    assert verdicts == {"a": (100.0, 100.0), "b": (0.0, 100.0), "c": (0.0, 0.0)}


def test_a_repeated_bad_line_raises_at_its_first_record():
    gts = {"a": gt(["(Pickup, mug)"]), "b": gt(["(Pickup, book)"])}
    bad = ["(Pickup, book)", "(Pickp, book)"]
    records = [_record("a", 1, 1.0, ["(Pickup, mug)"]), _record("b", 0, 0.0, bad),
               _record("a", 0, 0.0, bad), _record("b", 0, 0.0, bad)]
    read = []

    def stream():
        for record in records:
            read.append(record)
            yield record

    with pytest.raises(MalformedInput) as info:
        score_dataset(stream(), gts)
    assert str(info.value) == "initial plan of task 'b': unknown action 'Pickp'"
    assert len(read) == 2


def test_an_unknown_task_raises_though_its_plan_was_seen_under_another_task():
    gts = {"a": gt(["(Pickup, mug)"])}
    records = [_record("a", 1, 1.0, ["(Pickup, mug)"]),
               _record("ghost", 1, 1.0, ["(Pickup, mug)"])]
    with pytest.raises(MalformedInput) as info:
        score_dataset(records, gts)
    assert str(info.value) == "no ground-truth annotation for task 'ghost'"


def test_report_to_dict_serialises_as_the_dataclass_does():
    gts = {"a": gt(["(Pickup, mug)"]), "b": gt(["(Pickup, book)", "(Open, safe)"])}
    report = score_dataset([_record("a", 1, 1.0, ["(Pickup, mug)"], task_type="Pick"),
                            _record("b", 0, 0.5, ["(Open, safe)"], task_type="Open")], gts)
    out = report.to_dict()
    assert json.dumps(out, sort_keys=True) == json.dumps(dataclasses.asdict(report),
                                                         sort_keys=True)
    # a copy: changing it leaves the frozen report as it was
    assert out["per_type"][0] is not vars(report.per_type[0])
