from __future__ import annotations

import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from operator import gt

import pytest

from askplan import asset_path, engine, world as world_module
from askplan.cli import episode_seed, load_tasks
from askplan.engine import (
    EpisodeConfig,
    EpisodeOutcome,
    GoalTracker,
    PlanningFailed,
    decompose,
    episode_score,
    handle_failure,
    make_plan,
    noise_draw,
    run_episode,
    _resume_index,
)
from askplan.gateway import (
    DecodeParams,
    OracleScript,
    ScriptEntry,
    ScriptedGateway,
    load_script,
)
from askplan.planeval import compile_relaxed_spec
from askplan.plans import ActionKind, parse_subgoal, render_subgoal
from askplan.prompting import Verdict
from askplan.world import (
    FailReason,
    Scenario,
    WorldState,
    apply_subgoal,
    check_goal_conditions,
    detect_objects,
    new_world,
    render_scene,
)

from conftest import (CountingEntities, core_with_navigation, perfbench_module, random_walk,
                      walk_scenes)

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


def test_the_default_decode_profile_is_built_by_the_first_episode_and_shared(
        mini7_gateway):
    scenario = load_tasks(asset_path("tasks/mini7.json")).scenarios[0]
    assert scenario._decode is None  # loading builds no profile
    first, second = (run_episode(scenario, mini7_gateway, EpisodeConfig(seed=seed))
                     for seed in (0, 1))
    profile = scenario.decode_profile
    assert profile == DecodeParams.for_vocab(set(scenario.initial.entities))
    assert scenario.decode_profile is profile
    assert first.config["decode"] == second.config["decode"] == {
        "temperature": 0.0, "max_tokens": 512, "token_bias": dict(profile.token_bias)}


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
    assert len(qa) == 4
    assert qa[0][0].startswith("Which sub-tasks")


def test_decompose_rejects_reply_without_qa_lines():
    gw = scripted(ScriptEntry(reply="no questions here",
                              contains_all=("things to discover",)))
    with pytest.raises(PlanningFailed, match="no Q/A pairs found in the decomposition reply"):
        decompose("instruction text", gw, CFG, [])


def test_decompose_cot_single_pseudo_turn():
    gw = scripted(ScriptEntry(reply="1. slice 2. heat 3. store",
                              contains_all=("Let's think step by step",)))
    qa = decompose("instruction text", gw, EpisodeConfig(use_cot=True, decode=DECODE), [])
    assert qa == [["", "1. slice 2. heat 3. store"]]


def test_decompose_joins_continuation_lines_of_a_question_and_an_answer():
    # blank lines inside a question or an answer add nothing to it
    reply = ("Q: Which sub-tasks\n\n  make up the instruction?\n"
             "A: Slice, heat,\n\nthen store.\n\n"
             "Q: In which order?\nA: In that order.")
    gw = scripted(ScriptEntry(reply=reply, contains_all=("things to discover",)))
    assert decompose("instruction text", gw, CFG, []) == [
        ["Which sub-tasks make up the instruction?", "Slice, heat, then store."],
        ["In which order?", "In that order."],
    ]


def test_decompose_cot_rejects_an_empty_reply():
    gw = scripted(ScriptEntry(reply=" \n ", contains_all=("Let's think step by step",)))
    with pytest.raises(PlanningFailed, match="empty decomposition reply"):
        decompose("instruction text", gw, EpisodeConfig(use_cot=True, decode=DECODE), [])


# -- make_plan ----------------------------------------------------------------


def test_make_plan_parses_scripted_reply(bread_scenario, mini7_gateway):
    qa = decompose(bread_scenario.instruction, mini7_gateway, CFG, [])
    plan = make_plan(bread_scenario.instruction, qa, mini7_gateway, CFG, [])
    assert render_subgoal(plan[0]) == "(Pickup, knife)"
    assert render_subgoal(plan[1]) == "(Slice, bread)"
    assert render_subgoal(plan[-1]) == "(Close, fridge)"


def test_make_plan_no_std_degenerate_plan():
    # without the decomposition stage the canned planner forgets the knife
    gw = scripted(ScriptEntry(reply="1. (Slice, bread)\n2. (Put, bread, fridge)",
                              contains_all=("Create a detailed plan",)))
    plan = make_plan("slice bread and chill it", None, gw,
                     EpisodeConfig(use_std=False, decode=DECODE), [])
    actions = [sg.action for sg in plan]
    assert ActionKind.SLICE in actions
    assert ActionKind.PICKUP not in actions


def test_an_episode_that_runs_off_the_end_of_its_plan_is_plan_exhausted(bread_scenario):
    # every step succeeds, but two steps meet none of the goal conditions
    gw = scripted(ScriptEntry(reply="1. (Pickup, knife)\n2. (Slice, bread)",
                              contains_all=("Create a detailed plan",)))
    record = run_episode(bread_scenario, gw,
                         EpisodeConfig(use_std=False, seed=1)).to_record()
    assert (record["outcome"], record["abort_reason"]) == ("plan_exhausted", None)
    assert [(step["subgoal"], step["success"]) for step in record["steps"]] == [
        ("(Pickup, knife)", True), ("(Slice, bread)", True)]
    assert (record["failure_count"], record["sr"]) == (0, 0)


def test_make_plan_empty_completion_fails():
    gw = scripted(ScriptEntry(reply="cannot help", contains_all=("Create",)))
    with pytest.raises(PlanningFailed):
        make_plan("instruction", None, gw, EpisodeConfig(use_std=False, decode=DECODE), [])


# -- handle_failure -----------------------------------------------------------


def _failed_put_context(bread_scenario):
    """World state right after (Put, bread, fridge) failed on a closed fridge."""
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
    plan = (sg,)
    return sg, render_scene(world), observed, plan


def test_handle_failure_replans_on_invalid(bread_scenario, recovery_gateway):
    sg, scene, observed, plan = _failed_put_context(bread_scenario)
    decision = handle_failure(sg, scene, set(observed), plan,
                              bread_scenario.instruction, recovery_gateway, CFG, [])
    assert decision.kind == "replan"
    assert decision.validity["verdict"] == Verdict.INVALID
    inserted = [render_subgoal(s) for s in decision.new_plan]
    assert "(Open, fridge)" in inserted


def test_handle_failure_redo_needs_observed_and_valid(bread_scenario):
    gw = scripted(
        ScriptEntry(reply="VALID - looks fine", contains_all=("Answer with VALID",)),
    )
    sg, scene, observed, plan = _failed_put_context(bread_scenario)
    decision = handle_failure(sg, scene, set(observed), plan,
                              bread_scenario.instruction, gw, CFG, [])
    assert decision.kind == "redo"


def test_handle_failure_keeps_the_validity_reply(bread_scenario, recovery_gateway):
    # the decision carries the failed step's record values, the reply kept whole
    sg, scene, observed, plan = _failed_put_context(bread_scenario)
    log = []
    decision = handle_failure(sg, scene, set(observed), plan,
                              bread_scenario.instruction, recovery_gateway, CFG, log)
    replies = [entry["text"] for entry in log if entry["direction"] == "res"]
    assert decision.validity == {"verdict": "invalid", "raw": replies[0]}
    assert decision.feedback == replies[1]
    assert replies[0].startswith("INVALID")


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
    assert decision.validity is None


@pytest.mark.parametrize("answered, failed_stage", [
    (1, "feedback"),  # the validity check is answered, the feedback call misses
    (2, "replan"),
])
def test_handle_failure_aborts_on_gateway_error_after_the_validity_check(
        bread_scenario, answered, failed_stage):
    gw = scripted(*(
        ScriptEntry(reply="INVALID - door closed", contains_all=("Answer with VALID",)),
        ScriptEntry(reply="open the door first", contains_all=("cause of the failure",)),
    )[:answered])
    sg, scene, observed, plan = _failed_put_context(bread_scenario)
    log = []
    decision = handle_failure(sg, scene, set(observed), plan,
                              bread_scenario.instruction, gw, CFG, log)
    assert decision.kind == "abort"
    assert decision.reason.startswith("gateway_error: ")
    assert decision.validity["verdict"] == Verdict.INVALID
    # the feedback reply is kept when the replan call is the one that fails
    assert decision.feedback == (None if failed_stage == "feedback" else "open the door first")
    assert log[-1]["direction"] == "req" and log[-1]["stage"] == failed_stage


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


def test_empty_feedback_ends_the_episode_as_a_recorded_outcome(bread_scenario):
    from askplan import asset_path
    from askplan.gateway import load_script

    script = load_script(asset_path("scripts/bread_recovery.json"))
    assert "cause of the failure" in script.entries[3].contains_all
    entries = list(script.entries)
    entries[3] = ScriptEntry(reply="   ", contains_all=entries[3].contains_all)
    gw = ScriptedGateway(OracleScript(tuple(entries)), script_path="bread_recovery.json")
    trace = run_episode(bread_scenario, gw, EpisodeConfig(seed=1))
    assert trace.outcome == EpisodeOutcome.PLAN_EXHAUSTED
    assert trace.abort_reason == "feedback_empty"
    assert trace.config == EpisodeConfig.from_echo(trace.config).to_echo(gw)
    assert trace.steps[-1]["decision"] == "abort"
    assert trace.steps[-1]["reason"] == FailReason.RECEPTACLE_CLOSED
    assert trace.steps[-1]["validity"]["verdict"] == Verdict.INVALID
    assert [(entry["direction"], entry["stage"]) for entry in trace.llm_log[-4:]] == [
        ("req", "validity"), ("res", "validity"), ("req", "feedback"), ("res", "feedback")]
    assert trace.llm_log[-1]["text"] == "   "


def test_a_replan_call_that_fails_keeps_the_feedback_in_the_step_record(bread_scenario):
    script = load_script(asset_path("scripts/bread_recovery.json"))
    entries = [entry for entry in script.entries if "Revise the plan" not in entry.contains_all]
    assert len(entries) == len(script.entries) - 1
    gw = ScriptedGateway(OracleScript(tuple(entries)), script_path="bread_recovery.json")
    trace = run_episode(bread_scenario, gw, EpisodeConfig(seed=42))
    assert trace.abort_reason.startswith("gateway_error: ")
    step = trace.steps[-1]
    assert step["decision"] == "abort"
    assert step["validity"]["verdict"] == Verdict.INVALID
    feedback = [entry["text"] for entry in trace.llm_log
                if entry["direction"] == "res" and entry["stage"] == "feedback"]
    assert step["feedback"] == feedback[-1] and feedback[-1].strip()
    assert (trace.llm_log[-1]["direction"], trace.llm_log[-1]["stage"]) == ("req", "replan")


def test_resume_skips_a_revised_step_whose_effect_already_holds(bread_scenario):
    world = new_world(bread_scenario)
    for line in ["(Pickup, knife)", "(Slice, bread)"]:
        world = apply_subgoal(world, parse_subgoal(line)).state_after
    executed = [parse_subgoal("(Pickup, knife)")]  # the slice is not on record
    revised = tuple(parse_subgoal(line) for line in [
        "(Slice, bread)", "(Put, knife, counter)", "(Pickup, bread)"])
    # the bread is already sliced, so the plan resumes at the knife's Put
    assert _resume_index(world, revised, executed) == 1


def test_resume_stops_at_a_revised_step_whose_object_is_unknown(bread_scenario):
    pickup = parse_subgoal("(Pickup, knife)")
    world = apply_subgoal(new_world(bread_scenario), pickup).state_after
    revised = tuple(parse_subgoal(line) for line in [
        "(Pickup, knife)", "(Open, ghost)", "(Slice, bread)"])
    assert _resume_index(world, revised, [pickup]) == 1


def test_resume_after_a_revised_plan_that_repeats_the_whole_history(bread_scenario):
    history = [parse_subgoal("(Pickup, knife)"), parse_subgoal("(Slice, bread)")]
    world = new_world(bread_scenario)
    for sg in history:
        world = apply_subgoal(world, sg).state_after
    added = parse_subgoal("(Put, knife, counter)")
    assert _resume_index(world, (*history, added), history) == 2
    assert _resume_index(world, tuple(history), history) == 2


# -- run_episode end to end ---------------------------------------------------


def test_bread_episode_success(bread_scenario, mini7_gateway):
    trace = run_episode(bread_scenario, mini7_gateway, EpisodeConfig(seed=1))
    assert trace.outcome == EpisodeOutcome.SUCCESS
    assert trace.sr == 1
    assert trace.gc == 1.0
    assert trace.failure_count == 0
    assert not any(step["decision"] == "replan" for step in trace.steps)
    assert len(trace.qa) == 4


def test_fridge_recovery_episode(bread_scenario, recovery_gateway):
    trace = run_episode(bread_scenario, recovery_gateway, EpisodeConfig(seed=1))
    assert trace.outcome == EpisodeOutcome.SUCCESS
    assert trace.sr == 1
    replans = [i for i, step in enumerate(trace.steps) if step["decision"] == "replan"]
    assert len(replans) == 1
    next_step = trace.steps[replans[0] + 1]
    assert next_step["subgoal"] == "(Open, fridge)"
    assert next_step["success"]


def test_static_ablation_fails_without_recovery(bread_scenario, recovery_gateway):
    trace = run_episode(bread_scenario, recovery_gateway,
                        EpisodeConfig(seed=1, replanning_enabled=False))
    assert trace.sr == 0
    assert trace.gc < 1.0
    assert all(step["validity"] is None for step in trace.steps)
    assert all(step["feedback"] is None for step in trace.steps)
    assert all(step["replan"] is None for step in trace.steps)


def test_redo_path_single_noise_failure(bread_scenario, noisy_gateway):
    seed = single_noise_failure_seed()
    trace = run_episode(bread_scenario, noisy_gateway,
                        EpisodeConfig(seed=seed, noise_override=0.05))
    assert trace.outcome == EpisodeOutcome.SUCCESS
    assert trace.sr == 1
    assert sum(1 for s in trace.steps if s["decision"] == "redo") == 1
    assert sum(1 for s in trace.steps if s["decision"] == "replan") == 0
    assert trace.failure_count == 1


def test_budget_exhaustion_at_noise_one(bread_scenario, noisy_gateway):
    trace = run_episode(bread_scenario, noisy_gateway,
                        EpisodeConfig(seed=7, noise_override=1.0))
    assert trace.outcome == EpisodeOutcome.BUDGET_EXHAUSTED
    assert trace.failure_count == 10
    assert all(step["reason"] == FailReason.CONTROLLER_NOISE for step in trace.steps)


def _counted_noise_draws(monkeypatch) -> list[tuple[int, int]]:
    """Patch the engine's noise draw to record the (seed, step) of each call."""
    draws = []

    def counted(seed: int, step: int) -> float:
        draws.append((seed, step))
        return noise_draw(seed, step)

    monkeypatch.setattr(engine, "noise_draw", counted)
    return draws


def test_no_noise_draw_is_made_at_noise_zero(mini7, mini7_gateway, monkeypatch):
    draws = _counted_noise_draws(monkeypatch)
    assert {scenario.noise for scenario in mini7.scenarios} == {0.0}
    traces = [run_episode(scenario, mini7_gateway, CFG) for scenario in mini7.scenarios]
    assert all(trace.outcome == EpisodeOutcome.SUCCESS for trace in traces)
    assert sum(len(trace.steps) for trace in traces) > 40
    assert draws == []


def test_the_noisy_run_draws_once_per_step(bread_scenario, noisy_gateway, monkeypatch):
    # the heat_bread episode of `run --script bread_noisy.json --seed 42 --noise 0.15`
    seed = episode_seed(42, 0)
    draws = _counted_noise_draws(monkeypatch)
    trace = run_episode(bread_scenario, noisy_gateway,
                        EpisodeConfig(seed=seed, noise_override=0.15))
    assert trace.outcome == EpisodeOutcome.SUCCESS
    reasons = [step["reason"] for step in trace.steps]
    assert FailReason.CONTROLLER_NOISE in reasons and FailReason.OK in reasons
    assert draws == [(seed, step) for step in range(len(trace.steps))]


def test_failure_count_never_exceeds_budget(bread_scenario, noisy_gateway):
    trace = run_episode(bread_scenario, noisy_gateway,
                        EpisodeConfig(seed=7, noise_override=1.0, failure_budget=3))
    assert trace.failure_count == 3
    assert trace.outcome == EpisodeOutcome.BUDGET_EXHAUSTED


def test_observed_objects_grow_monotonically(bread_scenario, recovery_gateway):
    trace = run_episode(bread_scenario, recovery_gateway, EpisodeConfig(seed=1))
    previous: set[str] = set()
    for step in trace.steps:
        current = set(step["observed"])
        assert previous <= current
        previous = current


def test_sr_one_implies_gc_one(mini7, mini7_gateway):
    for scenario in mini7.scenarios:
        trace = run_episode(scenario, mini7_gateway, EpisodeConfig(seed=1))
        if trace.sr == 1:
            assert trace.gc == 1.0


@pytest.mark.parametrize("conditions, expected", [
    ([], (0, 0.0)),  # an internal_error record holds none
    ([False], (0, 0.0)),
    ([True, False, False], (0, 1 / 3)),
    ([True, True], (1, 1.0)),
])
def test_episode_score(conditions, expected):
    score = episode_score(conditions)
    assert score == expected and type(score[1]) is float


def test_planning_failure_is_recorded_not_raised(bread_scenario):
    gw = scripted(
        ScriptEntry(reply=QA_REPLY, contains_all=("things to discover",)),
        ScriptEntry(reply="no plan, sorry", contains_all=("Based on this conversation",)),
    )
    trace = run_episode(bread_scenario, gw, EpisodeConfig(seed=1))
    assert trace.outcome == EpisodeOutcome.PLAN_EXHAUSTED
    assert trace.initial_plan is None
    assert "no subgoals" in trace.abort_reason


def test_gateway_miss_is_recorded_not_raised(bread_scenario):
    trace = run_episode(bread_scenario, scripted(), EpisodeConfig(seed=1))
    assert trace.outcome == EpisodeOutcome.PLAN_EXHAUSTED
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
    assert first["reason"] == FailReason.TARGET_NOT_VISIBLE
    assert first["decision"] == "replan"


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
    assert trace.outcome == EpisodeOutcome.PLAN_EXHAUSTED
    assert trace.steps[0]["success"]


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
    assert trace.outcome == EpisodeOutcome.SUCCESS
    assert trace.qa[0][0] == ""  # single pseudo-turn, no question
    assert "Toggle the lamp" in trace.qa[0][1]


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
    assert trace.outcome == EpisodeOutcome.SUCCESS
    failed = next(s for s in trace.steps if not s["success"])
    assert failed["reason"] == FailReason.OBJECT_TOO_HEAVY
    assert failed["decision"] == "replan"
    revised = failed["replan"]
    assert "(ToggleOn, desklamp)" in revised
    assert "(Pickup, desklamp)" not in revised


def test_episodes_on_threads_fill_the_shared_memos_as_a_serial_run_does(mini7_gateway):
    # Every mini7 scenario four times at once, on eight threads that switch
    # every 10 us, from cold memos: a fresh load (no scene line drawn, no
    # spec kept), then parse_subgoal's lines dropped, so no subgoal of a plan
    # and none of its renderings exist yet. Threads fill one initial state's
    # scene lines, the parse memo and an annotation's spec together, and
    # build the subgoals whose text the records and prompts show.
    serial = [run_episode(scenario, mini7_gateway, CFG).to_record()
              for scenario in load_tasks(asset_path("tasks/mini7.json")).scenarios]
    scenarios = load_tasks(asset_path("tasks/mini7.json")).scenarios
    parse_subgoal.cache_clear()
    assert parse_subgoal.cache_info().currsize == 0

    def play(index: int):
        scenario = scenarios[index]
        return index, run_episode(scenario, mini7_gateway, CFG).to_record(), scenario.gt.spec

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(play, index) for _ in range(4)
                       for index in range(len(scenarios))]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for index, record, spec in results:
        assert record == serial[index], scenarios[index].id
        assert spec == compile_relaxed_spec(scenarios[index].gt), scenarios[index].id


# -- incremental goal check and scene order -------------------------------------


def _listed(scene: str) -> set[str]:
    return {line[2:].split(" (")[0] for line in scene.splitlines() if line.startswith("- ")}


def test_incremental_goal_verdicts_and_scene_order_match_a_full_check_on_random_walks():
    # The first walk of each scene runs its core (with Navigate inserted, so
    # every appliance effect fires), the rest are random, with failures and
    # carries. After every step the tracker agrees with a full check, the
    # step names exactly the entities it replaced, and the scene equals one
    # sorted afresh, on a state with no kept lines or order.
    rng = random.Random(34)
    seen = {"failure": 0, "carry": 0, "appliance effect": 0, "met, then unmet": 0}
    for label, scenario, vocab in walk_scenes():
        for walk in range(3):
            world = new_world(scenario)
            tracker = GoalTracker(world, scenario)
            steps = core_with_navigation(scenario) if walk == 0 else random_walk(rng, vocab)
            for sg in steps:
                where = f"{label}, walk {walk}, {sg.text}"
                before, verdicts = world, list(tracker.verdicts)
                result = apply_subgoal(world, sg)
                world = result.state_after
                assert set(result.changed) == {
                    oid for oid, entity in world.entities.items()
                    if entity is not before.entities[oid]}, where
                tracker.update(world, result.changed)
                assert tracker.verdicts == check_goal_conditions(world, scenario.goal), where
                assert tracker.unmet == tracker.verdicts.count(False), where
                fresh = WorldState(dict(world.entities), world.agent_zone, world.held)
                assert render_scene(world) == render_scene(fresh), where
                seen["failure"] += not result.success
                seen["carry"] += sg.action is ActionKind.NAVIGATE and bool(result.changed)
                seen["appliance effect"] += bool(set(result.changed) - {sg.object})
                seen["met, then unmet"] += any(map(gt, verdicts, tracker.verdicts))
    assert all(seen.values()), seen


def _scene(goal: list[dict], core: list[str], n: int = 1) -> Scenario:
    # one room: n cups, a mug and an open box
    entities = [{"id": f"cup{k}", "category": "cup", "zone": "room", "pickupable": True}
                for k in range(n)]
    entities += [{"id": "mug", "category": "mug", "zone": "room", "pickupable": True},
                 {"id": "shelf", "category": "shelf", "zone": "room", "is_receptacle": True},
                 {"id": "box", "category": "box", "zone": "room", "is_receptacle": True,
                  "openable": True, "is_open": True}]
    return Scenario.from_dict({"id": "cups", "instruction": "put the cups in the box",
                               "agent_zone": "room", "entities": entities, "goal": goal,
                               "gt": {"core": core}})


def _planned(lines: list[str]):
    return scripted(ScriptEntry(reply="\n".join(lines), contains_all=("Create a detailed plan",)))


def test_incremental_goal_check_does_not_end_an_episode_when_a_met_condition_is_unmet_again():
    # the cup is in the box after step 2 and out of it from step 3; a check
    # that missed the flip back would end the episode once the mug is in,
    # at step 6
    goal = [{"type": "located", "object": "cup0", "receptacle": "box"},
            {"type": "located", "object": "mug", "receptacle": "box"}]
    plan = ["(Pickup, cup0)", "(Put, cup0, box)", "(Pickup, cup0)", "(Put, cup0, shelf)",
            "(Pickup, mug)", "(Put, mug, box)", "(Pickup, cup0)", "(Put, cup0, box)"]
    scenario = _scene(goal, plan[:2])
    trace = run_episode(scenario, _planned(plan), EpisodeConfig(use_std=False, seed=1))
    assert [step["subgoal"] for step in trace.steps] == plan
    assert all(step["success"] for step in trace.steps)
    assert (trace.outcome, trace.goal_conditions) == (EpisodeOutcome.SUCCESS, [True, True])


def _cups(n: int) -> tuple[Scenario, list[str]]:
    # item 13's probe: n cups into one open box, a located condition each
    plan = [line for k in range(n) for line in (f"(Pickup, cup{k})", f"(Put, cup{k}, box)")]
    goal = [{"type": "located", "object": f"cup{k}", "receptacle": "box"} for k in range(n)]
    return _scene(goal, plan, n), plan


def _goal_reads_per_step(n: int) -> list[int]:
    # the entities the tracker reads on each step of the plan
    scenario, plan = _cups(n)
    reads = [0]
    initial = scenario.initial
    world = WorldState(CountingEntities(initial.entities, reads), initial.agent_zone,
                       initial.held)
    tracker = GoalTracker(world, scenario)
    per_step = []
    for line in plan:
        result = apply_subgoal(world, parse_subgoal(line))
        world = result.state_after
        reads[0] = 0
        tracker.update(world, result.changed)
        per_step.append(reads[0])
    assert tracker.unmet == 0
    return per_step


def test_incremental_goal_check_evaluates_no_more_conditions_per_step_for_a_larger_goal(
        monkeypatch):
    # a step reads only the condition on the cup it moved, so 320 cups cost a
    # step what 5 do, and a whole episode makes the full check once, before
    # its first step: its end takes the tracker's verdicts
    small, large = _goal_reads_per_step(5), _goal_reads_per_step(320)
    assert small == [1] * 10 and large == [1] * 640
    full_checks = []
    whole = engine.check_goal_conditions

    def counting(world, goal):
        full_checks.append(len(goal))
        return whole(world, goal)

    monkeypatch.setattr(engine, "check_goal_conditions", counting)
    for n in (5, 320):
        scenario, plan = _cups(n)
        trace = run_episode(scenario, _planned(plan), EpisodeConfig(use_std=False, seed=1))
        assert (trace.outcome, len(trace.steps)) == (EpisodeOutcome.SUCCESS, 2 * n)
        assert full_checks == [n], n
        full_checks.clear()


def test_incremental_scene_order_sorts_once_per_change_of_the_visible_set(monkeypatch):
    # every mini7 episode, with and without the benchmark's distractors, and
    # the noisy heat_bread run, whose failed steps keep their state: a scene
    # is sorted only when the visible set differs from the last non-empty
    # one, and the distractors keep most scenes unchanged
    mini7_raw = json.loads(asset_path("tasks/mini7.json").read_text("utf-8"))
    scaled_raw = perfbench_module("gen_scaled").add_distractors(mini7_raw, 1)
    noisy = ScriptedGateway(load_script(asset_path("scripts/bread_noisy.json")))
    mini7_gw = ScriptedGateway(load_script(asset_path("scripts/mini7.json")))
    runs = [(Scenario.from_dict(raw), mini7_gw, CFG)
            for raw in mini7_raw["scenarios"] + scaled_raw["scenarios"]]
    runs += [(run[0], noisy, EpisodeConfig(seed=seed, noise_override=0.3))
             for run in runs if run[0].id == "heat_bread" for seed in range(3)]
    sorts = []
    monkeypatch.setattr(world_module, "sorted", lambda ids: sorts.append(1) or sorted(ids),
                        raising=False)
    steps = sorted_scenes = 0
    for scenario, gw, cfg in runs:
        last = detect_objects(new_world(scenario))  # new_world sorts the first scene
        sorts.clear()
        trace = run_episode(scenario, gw, cfg)
        changes = 0
        for step in trace.steps:
            visible = _listed(step["scene"])
            if visible and visible != last:
                changes, last = changes + 1, visible
        assert len(sorts) == changes, scenario.id
        steps, sorted_scenes = steps + len(trace.steps), sorted_scenes + changes
    assert sorted_scenes < steps / 2, (sorted_scenes, steps)
