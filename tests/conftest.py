from __future__ import annotations

import json
import random

import pytest

from askplan import asset_path
from askplan.cli import TaskSet, load_tasks
from askplan.gateway import ScriptedGateway, load_script
from askplan.plans import ActionKind, Subgoal


@pytest.fixture(scope="session")
def mini7() -> TaskSet:
    return load_tasks(asset_path("tasks/mini7.json"))


@pytest.fixture(scope="session")
def bread_scenario(mini7):
    return next(s for s in mini7.scenarios if s.id == "heat_bread")


def raw_scenario(scenario_id: str) -> dict:
    """A fresh copy of one scenario's JSON object in the bundled mini7 file,
    for building malformed variants of it."""
    data = json.loads(asset_path("tasks/mini7.json").read_text("utf-8"))
    return next(s for s in data["scenarios"] if s["id"] == scenario_id)


@pytest.fixture()
def mini7_gateway() -> ScriptedGateway:
    return ScriptedGateway(load_script(asset_path("scripts/mini7.json")),
                           script_path="scripts/mini7.json")


@pytest.fixture()
def recovery_gateway() -> ScriptedGateway:
    return ScriptedGateway(load_script(asset_path("scripts/bread_recovery.json")),
                           script_path="scripts/bread_recovery.json")


@pytest.fixture()
def noisy_gateway() -> ScriptedGateway:
    return ScriptedGateway(load_script(asset_path("scripts/bread_noisy.json")),
                           script_path="scripts/bread_noisy.json")


_OBJECTS = ("bread", "knife", "mug", "pan", "tomato", "ladle", "book", "watch")
_RECEPTACLES = ("fridge", "microwave", "counter", "sink", "sofa", "safe")
_PLAIN_ACTIONS = (
    ActionKind.PICKUP, ActionKind.TOGGLE_ON, ActionKind.TOGGLE_OFF,
    ActionKind.OPEN, ActionKind.CLOSE, ActionKind.SLICE,
)


def random_subgoal(rng: random.Random, allow_navigate: bool = True) -> Subgoal:
    actions = _PLAIN_ACTIONS + ((ActionKind.NAVIGATE,) if allow_navigate else ())
    if rng.random() < 0.3:
        return Subgoal(ActionKind.PUT, rng.choice(_OBJECTS), rng.choice(_RECEPTACLES))
    return Subgoal(rng.choice(actions), rng.choice(_OBJECTS))
