from __future__ import annotations

import copy
import random
from dataclasses import FrozenInstanceError
from functools import partial
from pathlib import Path

import pytest

from askplan import asset_path, world as world_module
from askplan.cli import load_tasks
from askplan.engine import EpisodeConfig, EpisodeOutcome, noise_draw, run_episode
from askplan.inputs import MalformedInput
from askplan.plans import (ActionKind, PlanParseError, Subgoal, parse_subgoal,
                           render_subgoal)
from askplan.world import (
    FLAG_IMPLICATIONS,
    FailReason,
    GoalCondition,
    Scenario,
    WorldState,
    apply_subgoal,
    build_index,
    check_goal_conditions,
    detect_objects,
    new_world,
    render_scene,
    subgoal_effects_satisfied,
)

from conftest import (CountingEntities, core_with_navigation, entity_chain, random_subgoal,
                      random_walk, raw_scenario, walk_scenes)

DATA = Path(__file__).parent / "data"


def run_plan(world: WorldState, lines: list[str]) -> WorldState:
    for line in lines:
        result = apply_subgoal(world, parse_subgoal(line))
        assert result.success, f"{line} failed: {result.reason} {result.detail}"
        world = result.state_after
    return world


# -- scenario loading ---------------------------------------------------------


def test_new_world_bread_fixture(bread_scenario):
    world = new_world(bread_scenario)
    assert world == bread_scenario.initial
    bread = world.entities["bread"]
    assert not bread.is_sliced and not bread.is_heated
    assert not world.entities["microwave"].is_open
    assert not world.entities["fridge"].is_open
    assert "knife" in world.entities


def test_new_world_copies_state(bread_scenario, mini7, mini7_gateway):
    world = new_world(bread_scenario)
    with pytest.raises(AttributeError):
        world.entities["bread"].is_sliced = True
    world = world.after({"bread": {"is_sliced": True}}, world.agent_zone, world.held)
    assert world.entities["bread"].is_sliced
    assert not bread_scenario.initial.entities["bread"].is_sliced
    for scenario in mini7.scenarios:
        initial = copy.deepcopy(scenario.initial)
        trace = run_episode(scenario, mini7_gateway, EpisodeConfig(seed=1))
        assert trace.steps, scenario.id
        assert scenario.initial == initial, scenario.id


def test_states_and_scenarios_are_values(bread_scenario):
    assert new_world(bread_scenario) is bread_scenario.initial
    with pytest.raises(FrozenInstanceError):
        bread_scenario.initial.held = "knife"
    with pytest.raises(FrozenInstanceError):
        bread_scenario.initial.agent_zone = "cellar"
    with pytest.raises(FrozenInstanceError):
        bread_scenario.noise = 1.0
    assert bread_scenario.initial.held is None and bread_scenario.noise == 0.0


def test_scenario_goal_over_missing_object_rejected():
    data = raw_scenario("heat_bread")
    data["goal"].append({"type": "state", "object": "ghost", "flag": "is_on", "value": True})
    with pytest.raises(MalformedInput, match="goal references missing object 'ghost'"):
        Scenario.from_dict(data)


@pytest.mark.parametrize("line, name", [
    ("(Pickup, ghost)", "ghost"), ("(Put, bread, nowhere)", "nowhere")])
def test_scenario_core_must_name_entities_of_its_scene(line, name):
    data = raw_scenario("heat_bread")
    data["gt"]["core"].append(line)
    slot = len(data["gt"]["core"]) - 1
    with pytest.raises(MalformedInput) as exc:
        Scenario.from_dict(data)
    assert str(exc.value) == (f"gt core slot {slot} {line} names {name!r}, "
                              "which is no entity of the scene")


@pytest.mark.parametrize("flag, valid", [
    ("is_heated", True), ("heavy", True), ("is_receptacle", True),
    ("container", False), ("zone", False), ("is_hot", False),
])
def test_scenario_goal_flag_must_be_a_boolean_entity_field(flag, valid):
    data = raw_scenario("heat_bread")
    data["goal"].append({"type": "state", "object": "bread", "flag": flag, "value": True})
    if valid:
        Scenario.from_dict(data)
    else:
        with pytest.raises(MalformedInput, match=f"goal references unknown flag '{flag}'"):
            Scenario.from_dict(data)


# ids at the edges of the entity-id rule: case, each character that
# parse_subgoal drops or splits a line at, whitespace and case beyond ASCII
# (U+0085 and U+3000 are whitespace, U+200B is not), and the empty id
_EDGE_IDS = ["mug", "Mug", "MUG", "desk_lamp", "desk-lamp", "desk lamp", " mug", "mug ",
             "mug\t", "mug\n", "a,b", "(mug", "mug)", "", "1", "mug2", "mug.", "mug/2",
             "{mug}", "'mug'", "\u00e9", "\u00c9", "\u00df", "\u0130", "\u01c5", "\u03c2",
             "\u03a3", "a\u00a0b", "a\u0085b", "\u3000", "a\x1cb", "a\u200bb", "\uff4d",
             "\uff2d"]
_EDGE_ALPHABET = "ab_- ,()M\u00c9\u0130\u03a3\u00a0\u0085\u200b\u01c5"


def _names_itself(entity_id: str) -> bool:
    try:
        return parse_subgoal(f"(Pickup, {entity_id})").object == entity_id
    except PlanParseError:
        return False


def test_scenario_accepts_exactly_the_entity_ids_a_subgoal_names():
    rng = random.Random(2404)
    ids = _EDGE_IDS + ["".join(rng.choice(_EDGE_ALPHABET) for _ in range(rng.randrange(4)))
                       for _ in range(400)]
    accepted = set()
    for entity_id in ids:
        data = raw_scenario("heat_bread")
        data["entities"].append({"id": entity_id, "category": "vase", "zone": "kitchen"})
        try:
            Scenario.from_dict(data)
            accepted.add(entity_id)
        except MalformedInput as exc:
            assert f"entity id {entity_id!r} cannot be named in a subgoal" in str(exc)
        assert (entity_id in accepted) == _names_itself(entity_id), entity_id
    assert {"mug", "1", "a\u200bb"} <= accepted and len(accepted) < len(set(ids)) / 2


def test_scenario_empty_goal_rejected():
    data = raw_scenario("heat_bread")
    data["goal"] = []
    data["entities"] = []
    with pytest.raises(MalformedInput, match="goal must have at least one condition"):
        Scenario.from_dict(data)


def test_scenario_flag_implication_rejected():
    data = raw_scenario("heat_bread")
    data["entities"][0]["is_heated"] = True
    data["entities"][0].pop("heatable", None)
    with pytest.raises(MalformedInput, match="is_heated set without heatable"):
        Scenario.from_dict(data)


def test_scenario_held_object_must_be_in_the_agents_zone():
    data = raw_scenario("pick_watch")  # agent in bedroom, watch in livingroom
    data["held"] = "watch"
    with pytest.raises(MalformedInput, match="agent's zone"):
        Scenario.from_dict(data)
    data["agent_zone"] = "livingroom"
    Scenario.from_dict(data)


def test_scenario_container_must_be_receptacle():
    data = raw_scenario("heat_bread")
    data["entities"][1]["container"] = "bread"
    with pytest.raises(MalformedInput, match="container 'bread' is not a receptacle"):
        Scenario.from_dict(data)


def test_scenario_noise_range_checked():
    data = raw_scenario("heat_bread")
    data["noise"] = 1.5
    with pytest.raises(MalformedInput, match=r"noise must be in \[0, 1\], got 1.5"):
        Scenario.from_dict(data)


# one edit of heat_bread's entity list per check of an entity list, and a
# few that break none
_ENTITY_EDITS = {
    "as-bundled": lambda es: None,
    "empty": lambda es: es.clear(),
    "not-an-object": lambda es: es.append("mug"),
    "empty-list-last": lambda es: es.append([]),
    "lacks-id": lambda es: es[1].pop("id"),
    "lacks-everything": lambda es: es[1].clear(),
    "unknown-field": lambda es: es[1].update(colour="red"),
    "id-not-text": lambda es: es[1].update(id=5),
    "zone-null": lambda es: es[1].update(zone=None),
    "container-not-text": lambda es: es[1].update(container=["counter"]),
    "container-null": lambda es: es[1].update(container=None),
    "flag-not-boolean": lambda es: es[1].update(pickupable=1),
    "flag-null": lambda es: es[1].update(heavy=None),
    "duplicate-id": lambda es: es.append(dict(es[1])),
    "state-without-capability": lambda es: es[1].update(is_open=True),
    "state-with-capability": lambda es: es[2].update(is_open=True),
    "state-false-without-capability": lambda es: es[1].update(is_on=False),
    "in-a-receptacle": lambda es: es[1].update(container="counter"),
    "in-a-missing-container": lambda es: es[1].update(container="shelf"),
    "in-a-non-receptacle": lambda es: es[1].update(container="bread"),
    "in-another-zone": lambda es: es[1].update(container="counter", zone="hall"),
    "in-itself": lambda es: es[4].update(container="counter"),
    "in-a-cycle": lambda es: (es[2].update(container="fridge"),
                              es[3].update(container="microwave")),
    "in-a-chain": lambda es: (es[1].update(container="microwave"),
                              es[2].update(container="fridge")),
}


@pytest.mark.parametrize("edit", _ENTITY_EDITS.values(), ids=_ENTITY_EDITS.keys())
def test_whole_list_entity_checks_take_exactly_what_the_chain_takes(edit):
    raws = raw_scenario("heat_bread")["entities"]  # bread, knife, microwave, fridge, counter
    edit(raws)
    assert world_module._accepted_entities(raws) == entity_chain(raws)


def test_an_entity_error_names_the_first_field_in_field_order():
    # whatever the hash seed: the fields were once read in set order
    for entity, message in [({}, "lacks the field 'id'"),
                            ({"id": 5}, "field 'id' is ill-typed: 5"),
                            ({"id": "mug", "zone": 5}, "lacks the field 'category'"),
                            ({"heavy": 1, "id": "mug", "category": "mug", "zone": None},
                             "field 'zone' is ill-typed: None")]:
        data = raw_scenario("heat_bread")
        data["entities"].append(entity)
        with pytest.raises(MalformedInput) as exc:
            Scenario.from_dict(data)
        assert str(exc.value) == f"entity #5 {message}"


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


def test_navigate_carries_what_the_held_object_contains():
    data = raw_scenario("stack_plate")
    data["entities"].append({"id": "table", "category": "table", "zone": "diningroom",
                             "is_receptacle": True})
    world = run_plan(new_world(Scenario.from_dict(data)), [
        "(Pickup, spoon)", "(Put, spoon, plate)", "(Pickup, plate)", "(Navigate, table)",
        "(Put, plate, table)",
    ])
    assert world.entities["spoon"].zone == world.entities["plate"].zone == "diningroom"
    assert world.entities["countertop"].zone == "kitchen"


def test_navigate_within_the_zone_replaces_no_entity(bread_scenario):
    world = run_plan(new_world(bread_scenario), ["(Pickup, knife)"])
    after = apply_subgoal(world, parse_subgoal("(Navigate, fridge)")).state_after
    assert all(after.entities[eid] is world.entities[eid] for eid in world.entities)


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


@pytest.mark.parametrize("action, target, capability", [
    ("Open", "bread", "openable"), ("Close", "bread", "openable"),
    ("ToggleOn", "bread", "toggleable"), ("ToggleOff", "bread", "toggleable"),
    ("Slice", "counter", "sliceable"),
], ids=["Open", "Close", "ToggleOn", "ToggleOff", "Slice"])
def test_flag_action_requires_capability(bread_scenario, action, target, capability):
    world = run_plan(new_world(bread_scenario), ["(Pickup, knife)"])  # Slice's blade
    result = apply_subgoal(world, parse_subgoal(f"({action}, {target})"))
    assert result.reason is FailReason.PRECONDITION_VIOLATED
    assert result.detail == f"{target} is not {capability}"
    assert result.state_after.entities == world.entities


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


def test_each_appliance_effect_fires_only_for_its_own_pair(bread_scenario):
    # bread is heatable and coolable: opening the fridge chills nothing, and
    # turning the microwave off or closing it heats and chills nothing
    world = run_plan(new_world(bread_scenario), [
        "(Open, fridge)", "(Pickup, bread)", "(Put, bread, fridge)", "(Open, fridge)",
    ])
    assert not world.entities["bread"].is_chilled
    world = run_plan(new_world(bread_scenario), [
        "(Open, microwave)", "(Pickup, bread)", "(Put, bread, microwave)",
        "(ToggleOff, microwave)", "(Close, microwave)",
    ])
    assert not world.entities["bread"].is_heated and not world.entities["bread"].is_chilled
    # a faucet attached to nothing runs, and cleans nothing
    data = raw_scenario("clean_ladle")
    next(entity for entity in data["entities"] if entity["id"] == "faucet").pop("container")
    world = run_plan(new_world(Scenario.from_dict(data)),
                     ["(Pickup, ladle)", "(Put, ladle, sink)", "(ToggleOn, faucet)"])
    assert world.entities["faucet"].is_on and not world.entities["ladle"].is_clean


def test_put_requires_holding_the_named_object(bread_scenario):
    world = run_plan(new_world(bread_scenario), ["(Pickup, knife)", "(Open, fridge)"])
    result = apply_subgoal(world, parse_subgoal("(Put, bread, fridge)"))
    assert result.reason is FailReason.PRECONDITION_VIOLATED
    world = world.after({}, world.agent_zone, None)
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


def _stack_with_bowl_and_cup() -> Scenario:
    data = raw_scenario("stack_plate")
    for name in ("bowl", "cup"):
        data["entities"].append({"id": name, "category": name, "zone": "kitchen",
                                 "pickupable": True, "is_receptacle": True})
    return Scenario.from_dict(data)


def test_put_into_a_receptacle_inside_another_succeeds():
    world = run_plan(new_world(_stack_with_bowl_and_cup()), [
        "(Pickup, bowl)", "(Put, bowl, plate)", "(Pickup, plate)", "(Put, plate, countertop)",
        "(Pickup, cup)",
    ])
    result = apply_subgoal(world, parse_subgoal("(Put, cup, bowl)"))
    assert result.reason is FailReason.OK
    entities = result.state_after.entities
    assert (entities["cup"].container, entities["bowl"].container,
            entities["plate"].container) == ("bowl", "plate", "countertop")


def test_put_cannot_close_a_containment_cycle_two_levels_up():
    world = run_plan(new_world(_stack_with_bowl_and_cup()), [
        "(Pickup, cup)", "(Put, cup, bowl)", "(Pickup, bowl)", "(Put, bowl, plate)",
        "(Pickup, plate)",
    ])
    # the cup sits in the bowl, which sits in the held plate
    result = apply_subgoal(world, parse_subgoal("(Put, plate, cup)"))
    assert result.reason is FailReason.PRECONDITION_VIOLATED
    assert result.detail == "cup is inside plate"
    assert result.state_after.entities == world.entities


def test_contained_object_moves_with_carried_receptacle(mini7):
    stack = next(s for s in mini7.scenarios if s.id == "stack_plate")
    world = run_plan(new_world(stack), [
        "(Pickup, spoon)", "(Put, spoon, plate)", "(Pickup, plate)",
        "(Put, plate, countertop)",
    ])
    assert world.entities["spoon"].container == "plate"
    assert world.entities["plate"].container == "countertop"


def _failure_scene() -> Scenario:
    data = raw_scenario("heat_bread")
    data["entities"] += [
        {"id": "vase", "category": "vase", "zone": "hallway", "is_receptacle": True},
        {"id": "anvil", "category": "anvil", "zone": "kitchen", "pickupable": True,
         "heavy": True},
        {"id": "bowl", "category": "bowl", "zone": "kitchen", "pickupable": True,
         "is_receptacle": True},
        {"id": "plate", "category": "plate", "zone": "kitchen", "pickupable": True,
         "is_receptacle": True},
    ]
    return Scenario.from_dict(data)


# one row per failure path of apply_subgoal: steps that set it up, the failing
# step, and the reason and detail it fails with
FAILED_STEPS = [
    ([], "(Pickup, unicorn)", FailReason.TARGET_NOT_VISIBLE,
     "no object named 'unicorn' in the environment"),
    ([], "(Pickup, vase)", FailReason.TARGET_NOT_VISIBLE, "vase is not visible"),
    (["(Pickup, knife)"], "(Pickup, bread)", FailReason.HAND_OCCUPIED, "already holding knife"),
    ([], "(Pickup, counter)", FailReason.PRECONDITION_VIOLATED, "counter is not pickupable"),
    ([], "(Pickup, anvil)", FailReason.OBJECT_TOO_HEAVY, "anvil is too heavy"),
    ([], "(Put, bread, counter)", FailReason.HAND_EMPTY, "nothing is held"),
    (["(Pickup, knife)"], "(Put, bread, counter)", FailReason.PRECONDITION_VIOLATED,
     "holding knife, not bread"),
    (["(Pickup, bread)"], "(Put, bread, unicorn)", FailReason.TARGET_NOT_VISIBLE,
     "no object named 'unicorn' in the environment"),
    (["(Pickup, bowl)"], "(Put, bowl, bowl)", FailReason.PRECONDITION_VIOLATED,
     "cannot put an object into itself"),
    (["(Pickup, bread)"], "(Put, bread, vase)", FailReason.TARGET_NOT_VISIBLE,
     "vase is not visible"),
    (["(Pickup, bread)"], "(Put, bread, knife)", FailReason.PRECONDITION_VIOLATED,
     "knife is not a receptacle"),
    (["(Pickup, bread)"], "(Put, bread, fridge)", FailReason.RECEPTACLE_CLOSED,
     "fridge is closed"),
    (["(Pickup, plate)", "(Put, plate, bowl)", "(Pickup, bowl)"], "(Put, bowl, plate)",
     FailReason.PRECONDITION_VIOLATED, "plate is inside bowl"),
    ([], "(Slice, bread)", FailReason.HAND_EMPTY, "slicing requires holding a knife"),
    (["(Pickup, bread)"], "(Slice, bread)", FailReason.PRECONDITION_VIOLATED,
     "bread cannot slice anything"),
    ([], "(Open, bread)", FailReason.PRECONDITION_VIOLATED, "bread is not openable"),
]


@pytest.mark.parametrize("setup, line, reason, detail", FAILED_STEPS,
                         ids=[f"{row[1]}-{row[3]}" for row in FAILED_STEPS])
def test_a_failed_step_returns_its_input(setup, line, reason, detail):
    world = run_plan(new_world(_failure_scene()), setup)
    result = apply_subgoal(world, parse_subgoal(line))
    assert (result.reason, result.detail) == (reason, detail)
    assert result.state_after is world


def test_failed_steps_cover_every_reason_a_step_can_fail_with():
    assert {row[2] for row in FAILED_STEPS} == \
        set(FailReason) - {FailReason.OK, FailReason.CONTROLLER_NOISE}


def test_toggling_a_cleanable_faucet_on_cleans_it_with_its_sink():
    # the faucet is both the toggled target and part of the site it cleans
    data = raw_scenario("clean_ladle")
    next(entity for entity in data["entities"] if entity["id"] == "faucet")["cleanable"] = True
    world = run_plan(new_world(Scenario.from_dict(data)),
                     ["(Pickup, ladle)", "(Put, ladle, sink)", "(ToggleOn, faucet)"])
    faucet = world.entities["faucet"]
    assert faucet.is_on and faucet.is_clean
    assert world.entities["ladle"].is_clean


# -- controller noise ---------------------------------------------------------
# The episode draws the noise and the world never sees it, so these run whole
# episodes: the noisy script answers every validity check VALID, so each
# noisy step is redone.


def _noisy_episode(scenario, gateway, seed, noise, budget=10):
    return run_episode(scenario, gateway, EpisodeConfig(
        seed=seed, noise_override=noise, failure_budget=budget))


def test_noise_zero_never_fires(bread_scenario, noisy_gateway):
    assert bread_scenario.noise == 0.0
    for seed in range(10):
        for cfg in (EpisodeConfig(seed=seed), EpisodeConfig(seed=seed, noise_override=0.0)):
            trace = run_episode(bread_scenario, noisy_gateway, cfg)
            assert trace.config["noise"] == 0.0
            assert trace.failure_count == 0
            assert all(step["reason"] != FailReason.CONTROLLER_NOISE for step in trace.steps)


def test_noise_one_always_fires(bread_scenario, noisy_gateway):
    trace = _noisy_episode(bread_scenario, noisy_gateway, seed=5, noise=1.0, budget=30)
    assert trace.failure_count == 30
    assert all(step["reason"] == FailReason.CONTROLLER_NOISE and step["decision"] == "redo"
               for step in trace.steps[:-1])
    # a noisy step changes nothing: every scene is the initial one
    initial = new_world(bread_scenario)
    assert {step["scene"] for step in trace.steps} == \
        {render_scene(initial)}
    assert trace.goal_conditions == check_goal_conditions(initial, bread_scenario.goal)


def test_a_task_with_noise_one_loads_and_fails_every_step(noisy_gateway):
    data = raw_scenario("heat_bread")
    data["noise"] = 1.0
    scenario = Scenario.from_dict(data)
    for budget in (10, 1):
        trace = run_episode(scenario, noisy_gateway, EpisodeConfig(seed=3, failure_budget=budget))
        assert trace.config["noise"] == 1.0
        assert trace.outcome == EpisodeOutcome.BUDGET_EXHAUSTED
        assert trace.failure_count == len(trace.steps) == budget
        assert all(step["reason"] == FailReason.CONTROLLER_NOISE for step in trace.steps)


def test_noise_draw_deterministic(bread_scenario, noisy_gateway):
    assert noise_draw(42, 7) == noise_draw(42, 7)
    assert 0.0 <= noise_draw(42, 7) < 1.0
    # step k of an episode fails exactly when the draw for (seed, k) is below the noise
    trace = _noisy_episode(bread_scenario, noisy_gateway, seed=99, noise=0.3)
    assert trace.failure_count
    assert [step["reason"] == FailReason.CONTROLLER_NOISE for step in trace.steps] == \
        [noise_draw(99, k) < 0.3 for k in range(len(trace.steps))]


def test_identical_inputs_identical_results(bread_scenario, noisy_gateway):
    world = new_world(bread_scenario)
    first = apply_subgoal(world, parse_subgoal("(Pickup, knife)"))
    second = apply_subgoal(world, parse_subgoal("(Pickup, knife)"))
    assert first == second
    runs = [_noisy_episode(bread_scenario, noisy_gateway, seed=99, noise=0.5).to_record()
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]["failure_count"]
    other = _noisy_episode(bread_scenario, noisy_gateway, seed=98, noise=0.5).to_record()
    assert [step["reason"] for step in other["steps"]] != \
        [step["reason"] for step in runs[0]["steps"]]


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
    assert scene == (DATA / "golden_scene_microwave.txt").read_text().rstrip("\n")
    assert "microwave (open)" in scene
    assert "bread (in microwave)" in scene


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
        visible = detect_objects(world)
        listed = {line[2:].split(" (")[0]
                  for line in render_scene(world).splitlines() if line.startswith("- ")}
        assert listed == visible


def test_scene_empty_zone(mini7):
    pick = next(s for s in mini7.scenarios if s.id == "pick_watch")
    world = new_world(pick)
    world = WorldState(world.entities, "cellar", world.held)
    assert render_scene(world).splitlines()[1:] == \
        ["Visible objects: none"]


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


def test_all_gt_cores_execute_to_success():
    # mini7, mini7 with 300 distractors per scenario, and gen_swaps seeds 0-9
    for label, scenario, _ in walk_scenes():
        world = new_world(scenario)
        for step in core_with_navigation(scenario):
            world = apply_subgoal(world, step).state_after
        assert all(check_goal_conditions(world, scenario.goal)), label


def test_negated_flag_condition(bread_scenario):
    world = new_world(bread_scenario)
    goal = (GoalCondition("state", "bread", "is_heated", False),)
    assert check_goal_conditions(world, goal) == [True]


# -- invariants under random action sequences ---------------------------------


def _flags_consistent(world: WorldState) -> bool:
    for entity in world.entities.values():
        for state_flag, capability in FLAG_IMPLICATIONS.items():
            if getattr(entity, state_flag) and not getattr(entity, capability):
                return False
    return True


def _containment_consistent(world: WorldState) -> bool:
    # every container exists and is a receptacle in the same zone, no chain
    # loops, and the held entity is in no container and in the agent's zone
    for entity in world.entities.values():
        parent = world.entities.get(entity.container)
        if entity.container is not None and (
                parent is None or not parent.is_receptacle or parent.zone != entity.zone):
            return False
    for entity in world.entities.values():
        chain = {entity.id}
        while entity.container is not None:
            entity = world.entities[entity.container]
            if entity.id in chain:
                return False
            chain.add(entity.id)
    if world.held is None:
        return True
    held = world.entities[world.held]
    return held.container is None and held.zone == world.agent_zone


def test_random_sequences_preserve_invariants(mini7):
    rng = random.Random(123)
    succeeded = set()
    for scenario in mini7.scenarios:
        for _ in range(10):
            world = new_world(scenario)
            vocab = sorted(world.entities)
            for _ in range(30):
                obj = rng.choice(vocab)
                sg = random_subgoal(rng)
                sg = Subgoal(sg.action, obj, rng.choice(vocab)
                             if sg.action is ActionKind.PUT else None)
                before = copy.deepcopy(world)
                result = apply_subgoal(world, sg)
                assert world == before, f"{sg} mutated its input world"
                world = result.state_after
                if result.success:  # what the step did is what resuming checks for
                    assert subgoal_effects_satisfied(world, sg), f"{sg} left no effect"
                    succeeded.add(sg.action)
                # at most one held object, by construction of the field; flags stay legal
                assert world.held is None or world.held in world.entities
                assert _flags_consistent(world)
                assert _containment_consistent(world), f"{sg} broke containment"
                if not result.success:
                    assert world == before, f"failed {sg} changed the world"
    assert succeeded == set(ActionKind)


def _with_distractors(scenario_id: str, count: int) -> Scenario:
    # Inert distractors: no capability flag and no container, spread over the
    # zones the scenario uses, so no step of its plans can touch one.
    raw = raw_scenario(scenario_id)
    zones = sorted({entity["zone"] for entity in raw["entities"]} | {raw["agent_zone"]})
    raw["entities"] += [{"id": f"distractor{k:04d}", "category": "vase",
                         "zone": zones[k % len(zones)]} for k in range(count)]
    return Scenario.from_dict(raw)


def test_steps_share_every_entity_they_do_not_change(mini7):
    for scenario_id in (s.id for s in mini7.scenarios):
        scenario = _with_distractors(scenario_id, 1000)
        own = {eid for eid in scenario.initial.entities if not eid.startswith("distractor")}
        distractors = scenario.initial.entities.keys() - own
        world = new_world(scenario)
        assert all(world.entities[eid] is scenario.initial.entities[eid] for eid in distractors)
        for sg in scenario.gt.core:  # with Navigate inserted, as in run_core_with_navigation
            anchor = sg.receptacle if sg.action is ActionKind.PUT else sg.object
            steps = [sg] if world.entities[anchor].zone == world.agent_zone else \
                [Subgoal(ActionKind.NAVIGATE, anchor), sg]
            for step in steps:
                result = apply_subgoal(world, step)
                assert result.success, f"{scenario_id}: {step} failed: {result.detail}"
                after = result.state_after.entities
                assert all(after[eid] is world.entities[eid] for eid in distractors), \
                    f"{scenario_id}: {step} replaced a distractor"
                changed = [eid for eid in after if after[eid] is not world.entities[eid]]
                assert len(changed) <= len(own), f"{scenario_id}: {step} replaced {changed}"
                world = result.state_after
        assert all(check_goal_conditions(world, scenario.goal)), scenario_id


def test_effects_satisfied_helper(bread_scenario):
    world = run_plan(new_world(bread_scenario), ["(Open, fridge)"])
    assert subgoal_effects_satisfied(world, parse_subgoal("(Open, fridge)"))
    assert not subgoal_effects_satisfied(world, parse_subgoal("(Close, fridge)"))
    assert not subgoal_effects_satisfied(world, parse_subgoal("(Pickup, knife)"))
    assert subgoal_effects_satisfied(world, parse_subgoal("(Navigate, knife)"))


# -- the scene index and the scene lines a state keeps ------------------------


def _with_storage_distractors(scenario_id: str, count: int) -> dict:
    # Inert distractors in three storage zones no entity of the scenario uses,
    # as the cluttered-scene benchmark adds them, so the agent never sees one.
    raw = raw_scenario(scenario_id)
    raw["entities"] += [{"id": f"stored{k:04d}", "category": "crate", "zone": f"storage{k % 3}"}
                        for k in range(count)]
    return raw


def _storage_scene(scenario_id: str) -> Scenario:
    return Scenario.from_dict(_with_storage_distractors(scenario_id, 30))


def _scan_visible(world: WorldState) -> set[str]:
    # The documented rule, entity by entity: the held object, and every entity
    # in the agent's zone with no closed container on its chain.
    visible = set()
    for entity in world.entities.values():
        if entity.id == world.held:
            visible.add(entity.id)
            continue
        if entity.zone != world.agent_zone:
            continue
        parent = entity
        while parent.container is not None:
            parent = world.entities[parent.container]
            if parent.openable and not parent.is_open:
                break
        else:
            visible.add(entity.id)
    return visible


def _assert_index_holds(world: WorldState, where: str) -> None:
    visible = detect_objects(world)
    assert visible == _scan_visible(world), where
    assert world.index() == build_index(world.entities), where
    # a state with an empty line cache draws every line afresh
    fresh = WorldState(dict(world.entities), world.agent_zone, world.held)
    assert render_scene(world) == render_scene(fresh), where


def _garden_scene() -> Scenario:
    # stack_plate, with a closed chest on the countertop, a bowl and a cup to
    # nest, a table in another zone, and a zone that shares its name with a
    # receptacle entity: zone "garden" and the entity "garden" in the kitchen
    data = raw_scenario("stack_plate")
    data["entities"] += [
        {"id": "chest", "category": "chest", "zone": "kitchen", "container": "countertop",
         "openable": True, "is_receptacle": True},
        {"id": "bowl", "category": "bowl", "zone": "kitchen", "pickupable": True,
         "is_receptacle": True},
        {"id": "cup", "category": "cup", "zone": "kitchen", "pickupable": True,
         "is_receptacle": True},
        {"id": "table", "category": "table", "zone": "diningroom", "is_receptacle": True},
        {"id": "garden", "category": "planter", "zone": "kitchen", "is_receptacle": True},
        {"id": "shed", "category": "shed", "zone": "garden", "is_receptacle": True},
        {"id": "rake", "category": "rake", "zone": "garden", "container": "shed",
         "pickupable": True},
    ]
    return Scenario.from_dict(data)


# scene -> (its scenario, the steps run before the random walks: each must
# succeed, except one marked "!", which must fail; None runs the core)
INDEX_SCENES = {
    **{f"{scenario_id}+storage": (partial(_storage_scene, scenario_id), None)
       for scenario_id in ("heat_bread", "cool_tomato", "clean_ladle", "picktwo_remotes",
                           "stack_plate", "pick_watch", "examine_book")},
    "nested stack": (_stack_with_bowl_and_cup, [
        "(Pickup, cup)", "(Put, cup, bowl)", "(Pickup, bowl)", "(Put, bowl, plate)",
        "(Pickup, plate)", "(Put, plate, countertop)",
    ]),
    # the plate carries the bowl, which holds the cup, to the table's zone and back
    "carried receptacle": (_garden_scene, [
        "(Pickup, cup)", "(Put, cup, bowl)", "(Pickup, bowl)", "(Put, bowl, plate)",
        "(Pickup, plate)", "(Navigate, table)", "(Put, plate, table)", "(Pickup, plate)",
        "(Navigate, countertop)",
    ]),
    # put into an open chain, close it, put into the closed chest and into the
    # bowl it hides, then open the chain and put into it again
    "container chains": (_garden_scene, [
        "(Open, chest)", "(Pickup, bowl)", "(Put, bowl, chest)", "(Pickup, cup)",
        "(Put, cup, bowl)", "(Close, chest)", "(Pickup, spoon)", "!(Put, spoon, chest)",
        "!(Put, spoon, bowl)", "(Open, chest)", "(Put, spoon, cup)", "(Close, chest)",
    ]),
    # a zone and a receptacle both named garden
    "zone named like an entity": (_garden_scene, [
        "(Pickup, spoon)", "(Put, spoon, garden)", "(Navigate, shed)", "(Pickup, rake)",
        "(Navigate, garden)", "(Put, rake, garden)",
    ]),
}


@pytest.mark.parametrize("name", INDEX_SCENES)
def test_index_matches_a_scan_of_the_scene_after_every_step(name):
    build, prefix = INDEX_SCENES[name]
    scenario = build()
    # the core fires all three appliance effects on heat_bread, cool_tomato
    # and clean_ladle
    prefix = [render_subgoal(sg) for sg in core_with_navigation(scenario)] \
        if prefix is None else prefix
    world = new_world(scenario)
    _assert_index_holds(world, f"{name}: initial state")
    for line in prefix:
        result = apply_subgoal(world, parse_subgoal(line.lstrip("!")))
        assert result.success != line.startswith("!"), f"{name}: {line}: {result.detail}"
        world = result.state_after
        _assert_index_holds(world, f"{name}: after {line}")
    rng = random.Random(name)
    vocab = sorted(world.entities)
    for walk in range(4):
        world = new_world(scenario)
        for _ in range(40):
            action = rng.choice(list(ActionKind))
            step = Subgoal(action, rng.choice(vocab),
                           rng.choice(vocab) if action is ActionKind.PUT else None)
            world = apply_subgoal(world, step).state_after
            _assert_index_holds(world, f"{name}: walk {walk}, after {step}")


def test_a_step_finds_its_target_not_visible_exactly_when_a_scan_does_not_see_it():
    # At every state of seeded walks (the core of a scene, with Navigate
    # inserted, or the steps of an index scene, then a random walk with
    # failures and carries), every entity is tried as the target of a Pickup
    # and as the receptacle of a Put of the held object: target_not_visible
    # exactly when the scan excludes it.
    rng = random.Random(35)
    seen = {"failure": 0, "carry": 0, "hidden in the agent's zone": 0, "put probe": 0}
    scenes = [(label, scenario, vocab, core_with_navigation(scenario))
              for label, scenario, vocab in walk_scenes()]
    for name, (build, prefix) in INDEX_SCENES.items():
        if prefix is not None:
            scenario = build()
            scenes.append((name, scenario, sorted(scenario.initial.entities),
                           [parse_subgoal(line.lstrip("!")) for line in prefix]))
    for label, scenario, vocab, first in scenes:
        for walk in range(2):
            world = new_world(scenario)
            steps = first if walk == 0 else random_walk(rng, vocab)
            for sg in [*steps, None]:
                visible = _scan_visible(world)
                for oid, entity in world.entities.items():
                    probes = [Subgoal(ActionKind.PICKUP, oid)]
                    if world.held not in (None, oid):
                        probes.append(Subgoal(ActionKind.PUT, world.held, oid))
                    for probe in probes:
                        reason = apply_subgoal(world, probe).reason
                        assert (reason is FailReason.TARGET_NOT_VISIBLE) == (oid not in visible), \
                            f"{label}, walk {walk}, before {sg}: {probe.text}"
                    seen["hidden in the agent's zone"] += \
                        oid not in visible and entity.zone == world.agent_zone
                    seen["put probe"] += len(probes) - 1
                if sg is not None:
                    result = apply_subgoal(world, sg)
                    seen["failure"] += not result.success
                    seen["carry"] += sg.action is ActionKind.NAVIGATE and bool(result.changed)
                    world = result.state_after
    assert all(seen.values()), seen


def test_index_keeps_a_zone_and_an_entity_of_one_name_apart():
    world = run_plan(new_world(_garden_scene()), ["(Pickup, spoon)", "(Put, spoon, garden)"])
    index = world.index()
    assert index[("garden",)] == {"shed"} and index["garden"] == {"spoon"}
    assert "rake" not in detect_objects(world) and "spoon" in detect_objects(world)


def test_the_held_object_is_detected_wherever_the_agent_is(mini7):
    # load and Navigate keep the held object in the agent's zone; the rule
    # does not depend on it
    pick = next(s for s in mini7.scenarios if s.id == "pick_watch")
    world = WorldState(new_world(pick).entities, "cellar", "watch")
    assert detect_objects(world) == _scan_visible(world) == {"watch"}


def test_scene_lines_follow_the_held_object_through_after(bread_scenario):
    # the held marker is the one part of a line that depends on the state
    world = new_world(bread_scenario)
    render_scene(world)
    for held in ("knife", "bread", None):
        world = world.after({}, world.agent_zone, held)
        _assert_index_holds(world, f"holding {held}")


def _lines_to_draw(scenario: Scenario, trace) -> list[str]:
    # Replays the trace's steps. The lines of the entities the initial state
    # does not show start stale; a step makes stale the lines of the entities
    # it replaced and of the held object before and after it. A stale line is
    # drawn once its entity is visible.
    before = scenario.initial
    stale, drawn = before.entities.keys() - detect_objects(before), []
    for step in trace.steps:
        world = apply_subgoal(before, parse_subgoal(step["subgoal"])).state_after
        stale |= {oid for oid, entity in world.entities.items()
                  if entity is not before.entities[oid]}
        if world.held != before.held:
            stale |= {world.held, before.held} - {None}
        redrawn = stale & detect_objects(world)
        drawn += redrawn
        stale -= redrawn
        before = world
    return sorted(drawn)


def test_a_later_episode_draws_only_the_lines_of_what_its_steps_changed(
        monkeypatch, mini7_gateway):
    # The first episode draws the lines of what the initial state shows, and
    # keeps them on it; a later one draws only the lines its steps made stale,
    # and those of entities the initial state does not show (pick_watch and
    # examine_book go to another zone). A fresh load, so no earlier test has
    # drawn the initial states' lines.
    scenarios = load_tasks(asset_path("tasks/mini7.json")).scenarios
    draw = world_module._scene_line
    drawn = []

    def counting(world, entity):
        drawn.append(entity.id)
        return draw(world, entity)

    monkeypatch.setattr(world_module, "_scene_line", counting)
    for scenario in scenarios:
        first = run_episode(scenario, mini7_gateway, EpisodeConfig(seed=1))
        assert set(drawn) >= detect_objects(scenario.initial), scenario.id
        drawn.clear()
        second = run_episode(scenario, mini7_gateway, EpisodeConfig(seed=1))
        assert second.steps == first.steps and drawn, scenario.id
        assert sorted(drawn) == _lines_to_draw(scenario, second), scenario.id
        drawn.clear()


def _reads_per_step(raw: dict) -> list[int]:
    # entities read by each step of the core (Navigate inserted) plus the
    # detect_objects and render_scene that follow it in an episode
    scenario = Scenario.from_dict(raw)
    steps = core_with_navigation(scenario)
    reads = [0]
    initial = scenario.initial
    world = WorldState(CountingEntities(initial.entities, reads), initial.agent_zone,
                       initial.held)
    world.index()  # built once, on the scenario's initial state
    per_step = []
    for step in steps:
        reads[0] = 0
        world = apply_subgoal(world, step).state_after
        render_scene(world)
        per_step.append(reads[0])
    return per_step


def test_a_step_reads_no_more_entities_with_1000_storage_distractors(mini7):
    for scenario_id in (s.id for s in mini7.scenarios):
        plain = _reads_per_step(_with_storage_distractors(scenario_id, 0))
        assert plain and all(plain), scenario_id
        assert _reads_per_step(_with_storage_distractors(scenario_id, 1000)) == plain, \
            scenario_id
