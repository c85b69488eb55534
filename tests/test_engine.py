from __future__ import annotations

import json

import pytest

from askplan.engine import (
    EpisodeConfig,
    EpisodeOutcome,
    MalformedTranscript,
    PlanningFailed,
    decompose,
    handle_failure,
    make_plan,
    run_episode,
)
from askplan.gateway import (
    DecodeParams,
    OracleScript,
    ScriptEntry,
    ScriptedGateway,
)
from askplan.plans import ActionKind, parse_subgoal, render_subgoal
from askplan.prompting import Verdict
from askplan.world import FailReason, new_world, noise_draw, render_scene

DECODE = DecodeParams()
CFG = EpisodeConfig(decode=DECODE)

QA_REPLY = (
    "Q: Which sub-tasks make up the instruction?\n"
    "A: Slice, heat, store.\n"
    "Q: In which order must the sub-tasks be carried out?\n"
    "A: In that order.\n"
    "Q: Which target objects and receptacles are involved?\n"
    "A: Bread, knife, microwave, fridge.\n"
    "Q: How is each sub-task executed, step by step?\n"
    "A: With the usual appliance steps."
)


def scripted(*entries, fallback=None):
    return ScriptedGateway(OracleScript(tuple(entries), fallback_reply=fallback))


def single_noise_failure_seed(p: float = 0.05, within: int = 10) -> int:
    """A seed whose only failing draw among the first 40 steps comes early."""
    for seed in range(100000):
        fails = [step for step in range(40) if noise_draw(seed, step) < p]
        if len(fails) == 1 and fails[0] <= within:
            return seed
    raise AssertionError("no suitable seed found")


# -- decompose ----------------------------------------------------------------


def test_decompose_parses_four_turns():
    gw = scripted(ScriptEntry(reply=QA_REPLY, contains_all=("things to discover",)))
    qa = decompose("put a heated slice of bread in the fridge", gw, CFG, [])
    assert len(qa.turns) == 4
    assert qa.turns[0][0].startswith("Which sub-tasks")


def test_decompose_rejects_reply_without_qa_lines():
    gw = scripted(ScriptEntry(reply="no questions here",
                              contains_all=("things to discover",)))
    with pytest.raises(MalformedTranscript):
        decompose("instruction text", gw, CFG, [])


def test_decompose_cot_single_pseudo_turn():
    gw = scripted(ScriptEntry(reply="1. slice 2. heat 3. store",
                              contains_all=("Let's think step by step",)))
    qa = decompose("instruction text", gw, EpisodeConfig(use_cot=True, decode=DECODE), [])
    assert qa.turns == (("", "1. slice 2. heat 3. store"),)


# -- make_plan ----------------------------------------------------------------


def test_make_plan_parses_scripted_reply(bread_scenario, mini7_gateway):
    qa = decompose(bread_scenario.instruction, mini7_gateway, CFG, [])
    plan = make_plan(bread_scenario.instruction, qa, mini7_gateway, CFG, [])
    assert render_subgoal(plan.steps[0]) == "(Pickup, knife)"
    assert render_subgoal(plan.steps[1]) == "(Slice, bread)"
    assert render_subgoal(plan.steps[-1]) == "(Close, fridge)"


def test_make_plan_no_std_degenerate_plan():
    # without the decomposition stage the canned planner forgets the knife
    gw = scripted(ScriptEntry(reply="1. (Slice, bread)\n2. (Put, bread, fridge)",
                              contains_all=("Create a detailed plan",)))
    plan = make_plan("slice bread and chill it", None, gw,
                     EpisodeConfig(use_std=False, decode=DECODE), [])
    actions = [sg.action for sg in plan.steps]
    assert ActionKind.SLICE in actions
    assert ActionKind.PICKUP not in actions


def test_make_plan_empty_completion_fails():
    gw = scripted(ScriptEntry(reply="cannot help", contains_all=("Create",)))
    with pytest.raises(PlanningFailed):
        make_plan("instruction", None, gw, EpisodeConfig(use_std=False, decode=DECODE), [])


# -- handle_failure -----------------------------------------------------------


def _failed_put_context(bread_scenario):
    """World state right after (Put, bread, fridge) failed on a closed fridge."""
    from askplan.plans import Plan
    from askplan.world import apply_subgoal, detect_objects

    world = new_world(bread_scenario)
    for line in ["(Pickup, knife)", "(Slice, bread)", "(Put, knife, counter)",
                 "(Pickup, bread)"]:
        world = apply_subgoal(world, parse_subgoal(line)).state_after
    sg = parse_subgoal("(Put, bread, fridge)")
    result = apply_subgoal(world, sg)
    assert result.reason is FailReason.RECEPTACLE_CLOSED
    world = result.state_after
    observed = detect_objects(world)
    plan = Plan((sg,))
    return sg, render_scene(world), observed, plan


def test_handle_failure_replans_on_invalid(bread_scenario, recovery_gateway):
    sg, scene, observed, plan = _failed_put_context(bread_scenario)
    decision = handle_failure(sg, scene, set(observed), plan,
                              bread_scenario.instruction, recovery_gateway, CFG, [])
    assert decision.kind == "replan"
    assert decision.validity.verdict is Verdict.INVALID
    inserted = [render_subgoal(s) for s in decision.new_plan.steps]
    assert "(Open, fridge)" in inserted


def test_handle_failure_redo_needs_observed_and_valid(bread_scenario):
    gw = scripted(
        ScriptEntry(reply="VALID - looks fine", contains_all=("Answer with VALID",)),
    )
    sg, scene, observed, plan = _failed_put_context(bread_scenario)
    decision = handle_failure(sg, scene, set(observed), plan,
                              bread_scenario.instruction, gw, CFG, [])
    assert decision.kind == "redo"


def test_handle_failure_replans_when_object_unobserved(bread_scenario):
    gw = scripted(
        ScriptEntry(reply="VALID - looks fine", contains_all=("Answer with VALID",)),
        ScriptEntry(reply="The object has not been seen.",
                    contains_all=("cause of the failure",)),
        ScriptEntry(reply="(Open, fridge)", contains_all=("Revise the plan",)),
    )
    sg, scene, observed, plan = _failed_put_context(bread_scenario)
    decision = handle_failure(sg, scene, set(), plan, bread_scenario.instruction,
                              gw, CFG, [])
    assert decision.kind == "replan"


def test_handle_failure_aborts_on_gateway_error(bread_scenario):
    gw = scripted()  # strict script with no entries: every call misses
    sg, scene, observed, plan = _failed_put_context(bread_scenario)
    decision = handle_failure(sg, scene, set(observed), plan,
                              bread_scenario.instruction, gw, CFG, [])
    assert decision.kind == "abort"
    assert "gateway_error" in decision.reason


def test_handle_failure_aborts_on_unparseable_replan(bread_scenario):
    gw = scripted(
        ScriptEntry(reply="INVALID - door closed", contains_all=("Answer with VALID",)),
        ScriptEntry(reply="open the door first", contains_all=("cause of the failure",)),
        ScriptEntry(reply="sorry, no plan", contains_all=("Revise the plan",)),
    )
    sg, scene, observed, plan = _failed_put_context(bread_scenario)
    decision = handle_failure(sg, scene, set(observed), plan,
                              bread_scenario.instruction, gw, CFG, [])
    assert decision.kind == "abort"
    assert decision.reason == "replan_unparseable"


# -- run_episode end to end ---------------------------------------------------


def test_bread_episode_success(bread_scenario, mini7_gateway):
    trace = run_episode(bread_scenario, mini7_gateway, EpisodeConfig(seed=1))
    assert trace.outcome is EpisodeOutcome.SUCCESS
    assert trace.sr == 1
    assert trace.gc == 1.0
    assert trace.failure_count == 0
    assert not any(step.decision == "replan" for step in trace.steps)
    assert len(trace.qa.turns) == 4


def test_fridge_recovery_episode(bread_scenario, recovery_gateway):
    trace = run_episode(bread_scenario, recovery_gateway, EpisodeConfig(seed=1))
    assert trace.outcome is EpisodeOutcome.SUCCESS
    assert trace.sr == 1
    replans = [i for i, step in enumerate(trace.steps) if step.decision == "replan"]
    assert len(replans) == 1
    next_step = trace.steps[replans[0] + 1]
    assert render_subgoal(next_step.subgoal) == "(Open, fridge)"
    assert next_step.success


def test_static_ablation_fails_without_recovery(bread_scenario, recovery_gateway):
    trace = run_episode(bread_scenario, recovery_gateway,
                        EpisodeConfig(seed=1, replanning_enabled=False))
    assert trace.sr == 0
    assert trace.gc < 1.0
    assert all(step.validity is None for step in trace.steps)
    assert all(step.feedback is None for step in trace.steps)
    assert all(step.replan is None for step in trace.steps)


def test_redo_path_single_noise_failure(bread_scenario, noisy_gateway):
    seed = single_noise_failure_seed()
    trace = run_episode(bread_scenario, noisy_gateway,
                        EpisodeConfig(seed=seed, noise_override=0.05))
    assert trace.outcome is EpisodeOutcome.SUCCESS
    assert trace.sr == 1
    assert sum(1 for s in trace.steps if s.decision == "redo") == 1
    assert sum(1 for s in trace.steps if s.decision == "replan") == 0
    assert trace.failure_count == 1


def test_budget_exhaustion_at_noise_one(bread_scenario, noisy_gateway):
    trace = run_episode(bread_scenario, noisy_gateway,
                        EpisodeConfig(seed=7, noise_override=1.0))
    assert trace.outcome is EpisodeOutcome.BUDGET_EXHAUSTED
    assert trace.failure_count == 10
    assert all(step.reason is FailReason.CONTROLLER_NOISE for step in trace.steps)


def test_failure_count_never_exceeds_budget(bread_scenario, noisy_gateway):
    trace = run_episode(bread_scenario, noisy_gateway,
                        EpisodeConfig(seed=7, noise_override=1.0, failure_budget=3))
    assert trace.failure_count == 3
    assert trace.outcome is EpisodeOutcome.BUDGET_EXHAUSTED


def test_observed_objects_grow_monotonically(bread_scenario, recovery_gateway):
    trace = run_episode(bread_scenario, recovery_gateway, EpisodeConfig(seed=1))
    previous: set[str] = set()
    for step in trace.steps:
        current = set(step.observed)
        assert previous <= current
        previous = current


def test_sr_one_implies_gc_one(mini7, mini7_gateway):
    for scenario in mini7.scenarios:
        trace = run_episode(scenario, mini7_gateway, EpisodeConfig(seed=1))
        if trace.sr == 1:
            assert trace.gc == 1.0


def test_planning_failure_is_recorded_not_raised(bread_scenario):
    gw = scripted(
        ScriptEntry(reply=QA_REPLY, contains_all=("things to discover",)),
        ScriptEntry(reply="no plan, sorry", contains_all=("Based on this conversation",)),
    )
    trace = run_episode(bread_scenario, gw, EpisodeConfig(seed=1))
    assert trace.outcome is EpisodeOutcome.PLAN_EXHAUSTED
    assert trace.initial_plan is None
    assert "no subgoals" in trace.abort_reason


def test_gateway_miss_is_recorded_not_raised(bread_scenario):
    trace = run_episode(bread_scenario, scripted(), EpisodeConfig(seed=1))
    assert trace.outcome is EpisodeOutcome.PLAN_EXHAUSTED
    assert "no script entry" in trace.abort_reason


def test_subgoal_with_unknown_object_feeds_recovery(bread_scenario):
    gw = scripted(
        ScriptEntry(reply=QA_REPLY, contains_all=("things to discover",)),
        ScriptEntry(reply="(Pickup, unicorn)", contains_all=("Based on this conversation",)),
        ScriptEntry(reply="INVALID - there is no unicorn",
                    contains_all=("Answer with VALID",)),
        ScriptEntry(reply="There is no unicorn in the scene; use the bread.",
                    contains_all=("cause of the failure",)),
        ScriptEntry(reply="(Pickup, bread)", contains_all=("Revise the plan",)),
    )
    trace = run_episode(bread_scenario, gw, EpisodeConfig(seed=1))
    first = trace.steps[0]
    assert first.reason is FailReason.TARGET_NOT_VISIBLE
    assert first.decision == "replan"


def test_trace_record_round_trips_through_json(bread_scenario, recovery_gateway):
    trace = run_episode(bread_scenario, recovery_gateway, EpisodeConfig(seed=1))
    record = trace.to_record()
    assert json.loads(json.dumps(record)) == record
    assert record["schema_version"] == 1
    assert record["task_id"] == "heat_bread"
    assert record["failure_count"] == sum(
        1 for step in record["steps"] if not step["success"])


def test_llm_log_alternates_req_res(bread_scenario, mini7_gateway):
    trace = run_episode(bread_scenario, mini7_gateway, EpisodeConfig(seed=1))
    directions = [entry["direction"] for entry in trace.llm_log]
    assert directions == ["req", "res"] * (len(directions) // 2)
    assert trace.llm_log[0]["stage"] == "decompose"
    assert trace.llm_log[2]["stage"] == "plan"


def test_replay_reproduces_identical_trace(bread_scenario, recovery_gateway):
    cfg = EpisodeConfig(seed=99)
    first = run_episode(bread_scenario, recovery_gateway, cfg).to_record()
    second = run_episode(bread_scenario, recovery_gateway, cfg).to_record()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_static_episode_without_std(bread_scenario):
    gw = scripted(
        ScriptEntry(reply="(Pickup, bread)", contains_all=("Create a detailed plan",)),
    )
    cfg = EpisodeConfig(seed=1, use_std=False, replanning_enabled=False)
    trace = run_episode(bread_scenario, gw, cfg)
    assert trace.qa is None
    assert trace.outcome is EpisodeOutcome.PLAN_EXHAUSTED
    assert trace.steps[0].success


def test_cot_episode_end_to_end(mini7):
    examine = next(s for s in mini7.scenarios if s.id == "examine_book")
    gw = scripted(
        ScriptEntry(reply="1. Toggle the lamp on. 2. Fetch the book.",
                    contains_all=("Let's think step by step",)),
        ScriptEntry(
            reply="(Navigate, desklamp)\n(ToggleOn, desklamp)\n(Navigate, book)\n"
                  "(Pickup, book)\n(Navigate, desklamp)",
            contains_all=("Based on this step-by-step decomposition",)),
    )
    trace = run_episode(examine, gw, EpisodeConfig(seed=1, use_cot=True))
    assert trace.outcome is EpisodeOutcome.SUCCESS
    assert trace.qa.turns[0][0] == ""  # single pseudo-turn, no question
    assert "Toggle the lamp" in trace.qa.turns[0][1]


def test_heavy_lamp_failure_replans_to_toggle_in_place(mini7):
    # the planner first tries to lift the lamp; recovery must produce a plan
    # that toggles it where it stands
    examine = next(s for s in mini7.scenarios if s.id == "examine_book")
    gw = scripted(
        ScriptEntry(reply=QA_REPLY, contains_all=("things to discover",)),
        ScriptEntry(reply="(Navigate, desklamp)\n(Pickup, desklamp)",
                    contains_all=("Based on this conversation",)),
        ScriptEntry(reply="INVALID - the desk lamp is too heavy to pick up",
                    contains_all=("Answer with VALID", "(Pickup, desklamp)")),
        ScriptEntry(reply="The desk lamp is too heavy to lift. Turn it on in "
                          "place instead of picking it up.",
                    contains_all=("cause of the failure",)),
        ScriptEntry(reply="(Navigate, desklamp)\n(ToggleOn, desklamp)\n"
                          "(Navigate, book)\n(Pickup, book)\n(Navigate, desklamp)",
                    contains_all=("Revise the plan",)),
    )
    trace = run_episode(examine, gw, EpisodeConfig(seed=1))
    assert trace.outcome is EpisodeOutcome.SUCCESS
    failed = next(s for s in trace.steps if not s.success)
    assert failed.reason is FailReason.OBJECT_TOO_HEAVY
    assert failed.decision == "replan"
    revised = [render_subgoal(sg) for sg in failed.replan]
    assert "(ToggleOn, desklamp)" in revised
    assert "(Pickup, desklamp)" not in revised


def test_mini7_scripted_transcripts_cover_discovery_dimensions(mini7, mini7_gateway):
    from askplan.prompting import discovery_coverage

    for scenario in mini7.scenarios:
        qa = decompose(scenario.instruction, mini7_gateway, CFG, [])
        assert discovery_coverage(qa) == {"sub_tasks", "order", "objects", "execution"}, \
            scenario.id
