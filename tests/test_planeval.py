from __future__ import annotations

import graphlib
import itertools
import random

import pytest

from askplan.plans import ActionKind, Subgoal, parse_subgoal
from askplan.planeval import (
    AnnotationError,
    GtAnnotation,
    MissingGroundTruth,
    TooLarge,
    compile_relaxed_spec,
    enumerate_valid_plans,
    relaxed_match,
    score_dataset,
    strict_match,
)


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


def random_annotation(rng: random.Random, max_slots: int = 7) -> GtAnnotation:
    """Annotation with up to 2 floats and 1 swap group over random slots."""
    n = rng.randint(3, max_slots)
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

    wildcards = [i for i, sg in enumerate(core)
                 if sg.action is ActionKind.PUT and rng.random() < 0.4]

    swap_groups = []
    if rng.random() < 0.5 and n >= 2:
        cut = rng.randint(1, n - 1)
        lo = rng.randint(0, cut - 1)
        hi = rng.randint(cut, n - 1)
        swap_groups.append(((lo, cut - 1), (cut, hi)))

    return GtAnnotation(tuple(core), tuple(floating), tuple(wildcards),
                        tuple(swap_groups))


# -- annotation validation ----------------------------------------------------


def test_floating_anchor_must_be_in_range():
    with pytest.raises(AnnotationError):
        gt(["(Pickup, mug)", "(Open, safe)"], floating=[(1, 5)])


def test_wildcard_only_on_put_slots():
    with pytest.raises(AnnotationError):
        gt(["(Pickup, mug)"], wildcards=[0])


def test_swap_ranges_must_not_overlap():
    with pytest.raises(AnnotationError):
        gt(["(Pickup, mug)", "(Open, safe)", "(Close, safe)"],
           swap_groups=[[(0, 1), (1, 2)]])


def test_navigate_not_allowed_in_core():
    with pytest.raises(AnnotationError):
        gt(["(Navigate, safe)", "(Open, safe)"])


def test_cyclic_anchor_chain_raises_defensively():
    from askplan.planeval import CyclicPrecedence

    with pytest.raises(CyclicPrecedence):
        gt(["(Pickup, mug)", "(Open, safe)", "(Close, safe)"], floating=[(1, 2), (2, 1)])


def test_anchor_walk_rejects_exactly_the_cyclic_precedences(monkeypatch):
    from askplan.planeval import CyclicPrecedence

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
        preds = {j: {i for i, k in compile_relaxed_spec(annotation).precedence if k == j}
                 for j in range(n)}
        try:
            list(graphlib.TopologicalSorter(preds).static_order())
            cyclic = False
        except graphlib.CycleError:
            cyclic = True
        try:
            validate(annotation)
            rejected = False
        except CyclicPrecedence:
            rejected = True
        assert rejected == cyclic, annotation
        verdicts.add(cyclic)
    assert verdicts == {True, False}


# -- compilation --------------------------------------------------------------


def test_unmarked_annotation_compiles_to_total_order():
    spec = compile_relaxed_spec(gt(["(Pickup, mug)", "(Open, safe)", "(Put, mug, safe)"]))
    n = 3
    assert spec.precedence == frozenset(
        (i, j) for i in range(n) for j in range(i + 1, n))


def test_floating_slot_keeps_only_anchor_edge():
    annotation = gt(
        ["(Open, fridge)", "(Put, pan, fridge)", "(Close, fridge)", "(Pickup, mug)"],
        floating=[(2, 0)])
    spec = compile_relaxed_spec(annotation)
    incident = {(i, j) for (i, j) in spec.precedence if 2 in (i, j)}
    assert incident == {(0, 2)}


def test_swap_group_drops_cross_block_edges():
    annotation = gt(
        ["(Pickup, knife)", "(Slice, bread)", "(Open, fridge)", "(Close, fridge)",
         "(Pickup, mug)"],
        swap_groups=[[(0, 1), (2, 3)]])
    spec = compile_relaxed_spec(annotation)
    assert (0, 2) not in spec.precedence
    assert (2, 0) not in spec.precedence
    assert (0, 1) in spec.precedence  # intra-block order kept
    assert (2, 3) in spec.precedence
    assert (1, 4) in spec.precedence  # edges to slots outside the group kept
    assert (3, 4) in spec.precedence


def test_wildcard_slot_becomes_match_any():
    spec = compile_relaxed_spec(gt(["(Put, knife, counter)"], wildcards=[0]))
    assert spec.slots[0].matches(parse_subgoal("(Put, knife, sink)"))
    assert not spec.slots[0].matches(parse_subgoal("(Put, fork, sink)"))


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
    with pytest.raises(TooLarge):
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


def test_relaxed_match_agrees_with_oracle_on_150_random_specs():
    rng = random.Random(424242)
    disagreements = 0
    for _ in range(150):
        annotation = random_annotation(rng)
        spec = compile_relaxed_spec(annotation)
        oracle = enumerate_valid_plans(spec, RECEPTACLE_POOL)
        for candidate in _candidate_variants(rng, annotation.core):
            if relaxed_match(candidate, spec) != (candidate in oracle):
                disagreements += 1
    assert disagreements == 0


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


def test_score_dataset_missing_gt():
    with pytest.raises(MissingGroundTruth):
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
