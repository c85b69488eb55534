from __future__ import annotations

import copy
import random
from pathlib import Path

import pytest

from askplan.plans import ActionKind, Subgoal, parse_subgoal
from askplan.world import (
    FLAG_IMPLICATIONS,
    FailReason,
    GoalCondition,
    InvalidScenario,
    Scenario,
    WorldState,
    apply_subgoal,
    check_goal_conditions,
    detect_objects,
    new_world,
    noise_draw,
    render_scene,
    subgoal_effects_satisfied,
)

from conftest import random_subgoal, raw_scenario

DATA = Path(__file__).parent / "data"


def run_plan(world: WorldState, lines: list[str]) -> WorldState:
    for line in lines:
        result = apply_subgoal(world, parse_subgoal(line))
        assert result.success, f"{line} failed: {result.reason} {result.detail}"
        world = result.state_after
    return world


def run_core_with_navigation(world: WorldState, core) -> WorldState:
    # Cores omit Navigate steps (they are controller-level); insert the zone
    # move a low-level controller would perform before each interaction.
    for sg in core:
        anchor = sg.receptacle if sg.action is ActionKind.PUT else sg.object
        if world.entities[anchor].zone != world.agent_zone:
            world = apply_subgoal(world, Subgoal(ActionKind.NAVIGATE, anchor)).state_after
        result = apply_subgoal(world, sg)
        assert result.success, f"{sg} failed: {result.detail}"
        world = result.state_after
    return world


# -- scenario loading ---------------------------------------------------------


def test_new_world_bread_fixture(bread_scenario):
    world = new_world(bread_scenario)
    assert world.step_count == 0
    bread = world.entities["bread"]
    assert not bread.is_sliced and not bread.is_heated
    assert not world.entities["microwave"].is_open
    assert not world.entities["fridge"].is_open
    assert "knife" in world.entities


def test_new_world_copies_state(bread_scenario):
    world = new_world(bread_scenario)
    world.entities["bread"].is_sliced = True
    assert not bread_scenario.initial.entities["bread"].is_sliced


def test_scenario_goal_over_missing_object_rejected():
    data = raw_scenario("heat_bread")
    data["goal"].append({"type": "state", "object": "ghost", "flag": "is_on", "value": True})
    with pytest.raises(InvalidScenario):
        Scenario.from_dict(data)


def test_scenario_empty_goal_rejected():
    data = raw_scenario("heat_bread")
    data["goal"] = []
    data["entities"] = []
    with pytest.raises(InvalidScenario):
        Scenario.from_dict(data)


def test_scenario_flag_implication_rejected():
    data = raw_scenario("heat_bread")
    data["entities"][0]["is_heated"] = True
    data["entities"][0].pop("heatable", None)
    with pytest.raises(InvalidScenario):
        Scenario.from_dict(data)


def test_scenario_container_must_be_receptacle():
    data = raw_scenario("heat_bread")
    data["entities"][1]["container"] = "bread"
    with pytest.raises(InvalidScenario):
        Scenario.from_dict(data)


def test_scenario_noise_range_checked():
    data = raw_scenario("heat_bread")
    data["noise"] = 1.5
    with pytest.raises(InvalidScenario):
        Scenario.from_dict(data)


# -- transitions --------------------------------------------------------------


def test_put_into_closed_fridge_fails(bread_scenario):
    world = run_plan(new_world(bread_scenario), ["(Pickup, bread)"])
    result = apply_subgoal(world, parse_subgoal("(Put, bread, fridge)"))
    assert not result.success
    assert result.reason is FailReason.RECEPTACLE_CLOSED


def test_pickup_while_holding_fails(bread_scenario):
    world = run_plan(new_world(bread_scenario), ["(Pickup, knife)"])
    result = apply_subgoal(world, parse_subgoal("(Pickup, bread)"))
    assert not result.success
    assert result.reason is FailReason.HAND_OCCUPIED


def test_pickup_heavy_object_fails(mini7):
    examine = next(s for s in mini7.scenarios if s.id == "examine_book")
    world = new_world(examine)
    result = apply_subgoal(world, parse_subgoal("(Pickup, desklamp)"))
    assert not result.success
    assert result.reason is FailReason.OBJECT_TOO_HEAVY


def test_open_then_put_sets_containment(bread_scenario):
    world = run_plan(new_world(bread_scenario),
                     ["(Pickup, bread)", "(Open, fridge)", "(Put, bread, fridge)"])
    assert world.entities["bread"].container == "fridge"
    assert world.held is None


def test_navigate_moves_agent_and_held_object(mini7):
    pick = next(s for s in mini7.scenarios if s.id == "pick_watch")
    world = run_plan(new_world(pick),
                     ["(Navigate, watch)", "(Pickup, watch)", "(Navigate, safe)"])
    assert world.agent_zone == "bedroom"
    assert world.entities["watch"].zone == "bedroom"


def test_interaction_across_zones_fails(mini7):
    pick = next(s for s in mini7.scenarios if s.id == "pick_watch")
    world = new_world(pick)  # agent in bedroom, watch in livingroom
    result = apply_subgoal(world, parse_subgoal("(Pickup, watch)"))
    assert not result.success
    assert result.reason is FailReason.TARGET_NOT_VISIBLE


def test_unknown_object_is_failure_not_crash(bread_scenario):
    result = apply_subgoal(new_world(bread_scenario), parse_subgoal("(Pickup, unicorn)"))
    assert not result.success
    assert result.reason is FailReason.TARGET_NOT_VISIBLE


def test_open_requires_openable(bread_scenario):
    result = apply_subgoal(new_world(bread_scenario), parse_subgoal("(Open, bread)"))
    assert result.reason is FailReason.PRECONDITION_VIOLATED


def test_toggle_requires_toggleable(bread_scenario):
    result = apply_subgoal(new_world(bread_scenario), parse_subgoal("(ToggleOn, bread)"))
    assert result.reason is FailReason.PRECONDITION_VIOLATED


def test_put_into_non_receptacle(bread_scenario):
    world = run_plan(new_world(bread_scenario), ["(Pickup, knife)"])
    result = apply_subgoal(world, parse_subgoal("(Put, knife, bread)"))
    assert result.reason is FailReason.PRECONDITION_VIOLATED


def test_slice_requires_knife_in_hand(bread_scenario):
    world = new_world(bread_scenario)
    result = apply_subgoal(world, parse_subgoal("(Slice, bread)"))
    assert result.reason is FailReason.HAND_EMPTY
    world = run_plan(world, ["(Pickup, bread)"])
    result = apply_subgoal(world, parse_subgoal("(Slice, bread)"))
    assert result.reason is FailReason.PRECONDITION_VIOLATED


def test_heating_applies_on_toggle_of_loaded_microwave(bread_scenario):
    world = run_plan(new_world(bread_scenario), [
        "(Open, microwave)", "(Pickup, bread)", "(Put, bread, microwave)",
        "(ToggleOn, microwave)",
    ])
    assert world.entities["bread"].is_heated


def test_chilling_applies_when_fridge_closes(bread_scenario):
    world = run_plan(new_world(bread_scenario), [
        "(Open, fridge)", "(Pickup, bread)", "(Put, bread, fridge)", "(Close, fridge)",
    ])
    assert world.entities["bread"].is_chilled


def test_cleaning_applies_when_faucet_turns_on(mini7):
    clean = next(s for s in mini7.scenarios if s.id == "clean_ladle")
    world = run_plan(new_world(clean),
                     ["(Pickup, ladle)", "(Put, ladle, sink)", "(ToggleOn, faucet)"])
    assert world.entities["ladle"].is_clean


def test_put_requires_holding_the_named_object(bread_scenario):
    world = run_plan(new_world(bread_scenario), ["(Pickup, knife)", "(Open, fridge)"])
    result = apply_subgoal(world, parse_subgoal("(Put, bread, fridge)"))
    assert result.reason is FailReason.PRECONDITION_VIOLATED
    world.held = None
    result = apply_subgoal(world, parse_subgoal("(Put, bread, fridge)"))
    assert result.reason is FailReason.HAND_EMPTY


def test_put_cannot_create_containment_cycle():
    data = raw_scenario("stack_plate")
    data["entities"].append({"id": "bowl", "category": "bowl", "zone": "kitchen",
                             "pickupable": True, "is_receptacle": True})
    scenario = Scenario.from_dict(data)
    world = run_plan(new_world(scenario), [
        "(Pickup, plate)", "(Put, plate, bowl)", "(Pickup, bowl)",
    ])
    result = apply_subgoal(world, parse_subgoal("(Put, bowl, plate)"))
    assert result.reason is FailReason.PRECONDITION_VIOLATED
    assert "inside" in result.detail


def test_contained_object_moves_with_carried_receptacle(mini7):
    stack = next(s for s in mini7.scenarios if s.id == "stack_plate")
    world = run_plan(new_world(stack), [
        "(Pickup, spoon)", "(Put, spoon, plate)", "(Pickup, plate)",
        "(Put, plate, countertop)",
    ])
    assert world.entities["spoon"].container == "plate"
    assert world.entities["plate"].container == "countertop"


# -- noise --------------------------------------------------------------------


def test_noise_zero_never_fires(bread_scenario):
    world = new_world(bread_scenario)
    assert world.noise_p == 0.0
    for _ in range(30):
        result = apply_subgoal(world, parse_subgoal("(Open, fridge)"))
        assert result.reason is not FailReason.CONTROLLER_NOISE
        world = result.state_after


def test_noise_one_always_fires(bread_scenario):
    world = new_world(bread_scenario)
    world.noise_p = 1.0
    result = apply_subgoal(world, parse_subgoal("(Open, fridge)"))
    assert result.reason is FailReason.CONTROLLER_NOISE
    assert not result.state_after.entities["fridge"].is_open


def test_noise_draw_deterministic():
    assert noise_draw(42, 7) == noise_draw(42, 7)
    assert 0.0 <= noise_draw(42, 7) < 1.0


def test_identical_inputs_identical_results(bread_scenario):
    world = new_world(bread_scenario)
    world.noise_p = 0.5
    world.noise_seed = 99
    first = apply_subgoal(world, parse_subgoal("(Pickup, knife)"))
    second = apply_subgoal(world, parse_subgoal("(Pickup, knife)"))
    assert first.reason == second.reason
    assert first.state_after == second.state_after


# -- visibility and scene -----------------------------------------------------


def test_closed_container_hides_contents(bread_scenario):
    world = run_plan(new_world(bread_scenario), [
        "(Open, fridge)", "(Pickup, bread)", "(Put, bread, fridge)", "(Close, fridge)",
    ])
    visible = detect_objects(world)
    assert "bread" not in visible
    assert "fridge" in visible


def test_held_object_is_detected(bread_scenario):
    world = run_plan(new_world(bread_scenario), ["(Pickup, knife)"])
    assert "knife" in detect_objects(world)


def test_other_zone_objects_not_detected(mini7):
    examine = next(s for s in mini7.scenarios if s.id == "examine_book")
    world = new_world(examine)  # agent in bedroom, book in livingroom
    assert "book" not in detect_objects(world)


def test_scene_golden(bread_scenario):
    world = run_plan(new_world(bread_scenario), [
        "(Pickup, bread)", "(Open, microwave)", "(Put, bread, microwave)",
        "(Pickup, knife)",
    ])
    scene = render_scene(world)
    assert scene.description == (DATA / "golden_scene_microwave.txt").read_text().rstrip("\n")
    assert "microwave (open)" in scene.description
    assert "bread (in microwave)" in scene.description


def test_scene_lists_exactly_detected_ids_randomized(bread_scenario):
    rng = random.Random(7)
    world = new_world(bread_scenario)
    vocab = sorted(world.entities)
    for _ in range(500):
        sg = random_subgoal(rng)
        if rng.random() < 0.8:  # bias toward names that exist in this world
            obj = rng.choice(vocab)
            sg = Subgoal(sg.action, obj, rng.choice(vocab)
                         if sg.action is ActionKind.PUT else None)
        world = apply_subgoal(world, sg).state_after
        scene = render_scene(world)
        assert scene.visible_ids == frozenset(detect_objects(world))
        for oid in scene.visible_ids:
            assert f"- {oid}" in scene.description


def test_scene_empty_zone(mini7):
    pick = next(s for s in mini7.scenarios if s.id == "pick_watch")
    world = new_world(pick)
    world.agent_zone = "cellar"
    scene = render_scene(world)
    assert scene.visible_ids == frozenset()
    assert "Visible objects: none" in scene.description


# -- goal conditions ----------------------------------------------------------


def test_goal_conditions_initially_false(bread_scenario):
    world = new_world(bread_scenario)
    assert check_goal_conditions(world, bread_scenario.goal) == [False, False, False]


def test_goal_conditions_after_full_gt_plan(bread_scenario):
    # replaying the annotated core with zero noise must satisfy every condition
    world = new_world(bread_scenario)
    for sg in bread_scenario.gt.core:
        result = apply_subgoal(world, sg)
        assert result.success, f"{sg} failed: {result.detail}"
        world = result.state_after
    assert all(check_goal_conditions(world, bread_scenario.goal))


def test_all_mini7_gt_cores_execute_to_success(mini7):
    for scenario in mini7.scenarios:
        world = run_core_with_navigation(new_world(scenario), scenario.gt.core)
        assert all(check_goal_conditions(world, scenario.goal)), scenario.id


def test_negated_flag_condition(bread_scenario):
    world = new_world(bread_scenario)
    goal = (GoalCondition("state", "bread", flag="is_heated", value=False),)
    assert check_goal_conditions(world, goal) == [True]


# -- invariants under random action sequences ---------------------------------


def _flags_consistent(world: WorldState) -> bool:
    for entity in world.entities.values():
        for state_flag, capability in FLAG_IMPLICATIONS.items():
            if getattr(entity, state_flag) and not getattr(entity, capability):
                return False
    return True


def test_random_sequences_preserve_invariants(mini7):
    rng = random.Random(123)
    for scenario in mini7.scenarios:
        for _ in range(10):
            world = new_world(scenario)
            world.noise_p = 0.2
            world.noise_seed = rng.randrange(2 ** 32)
            vocab = sorted(world.entities)
            for _ in range(30):
                obj = rng.choice(vocab)
                sg = random_subgoal(rng)
                sg = Subgoal(sg.action, obj, rng.choice(vocab)
                             if sg.action is ActionKind.PUT else None)
                before = copy.deepcopy(world)
                result = apply_subgoal(world, sg)
                world = result.state_after
                # at most one held object, by construction of the field; flags stay legal
                assert world.held is None or world.held in world.entities
                assert _flags_consistent(world)
                assert world.step_count == before.step_count + 1
                if not result.success:
                    before.step_count += 1
                    assert world == before, "failed step must only advance the counter"


def test_effects_satisfied_helper(bread_scenario):
    world = run_plan(new_world(bread_scenario), ["(Open, fridge)"])
    assert subgoal_effects_satisfied(world, parse_subgoal("(Open, fridge)"))
    assert not subgoal_effects_satisfied(world, parse_subgoal("(Close, fridge)"))
    assert not subgoal_effects_satisfied(world, parse_subgoal("(Pickup, knife)"))
    assert subgoal_effects_satisfied(world, parse_subgoal("(Navigate, knife)"))
