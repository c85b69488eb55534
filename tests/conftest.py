from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path
from typing import Optional

import pytest

from askplan import asset_path
from askplan import world
from askplan.cli import EXIT_OK, TaskSet, load_tasks, main
from askplan.gateway import ScriptedGateway, load_script
from askplan.inputs import MalformedInput
from askplan.plans import ActionKind, Subgoal
from askplan.world import Scenario, apply_subgoal, new_world


@pytest.fixture(scope="session")
def mini7() -> TaskSet:
    return load_tasks(asset_path("tasks/mini7.json"))


@pytest.fixture(scope="session")
def bread_scenario(mini7):
    return next(s for s in mini7.scenarios if s.id == "heat_bread")


# the bundled scripts by name; a bread script scripts heat_bread alone, so it
# runs on that scenario alone
SCRIPTS = tuple(sorted(path.stem for path in asset_path("scripts").glob("*.json")))
_BREAD_ONLY = frozenset({"bread_recovery", "bread_noisy"})


def run_script(out: Path, script: str, seed: int, noise: Optional[str] = None,
               flags: tuple[str, ...] = (), edit=None, script_path: Optional[Path] = None) -> Path:
    """The trace file of a scripted ``run`` into ``out`` over mini7, or over
    heat_bread alone for a bread script: with ``--noise`` when ``noise`` is
    given and the other run ``flags``, each scenario changed by ``edit`` and
    ``script_path`` in place of the bundled script, when given."""
    data = json.loads(asset_path("tasks/mini7.json").read_text("utf-8"))
    if script in _BREAD_ONLY:
        data["scenarios"] = [s for s in data["scenarios"] if s["id"] == "heat_bread"]
    if edit is not None:
        for scenario in data["scenarios"]:
            edit(scenario)
    out.mkdir(parents=True, exist_ok=True)
    tasks = out / "tasks.json"
    tasks.write_text(json.dumps(data), "utf-8")
    noise_flags = () if noise is None else ("--noise", noise)
    assert main(["run", "--tasks", str(tasks),
                 "--script", str(script_path or asset_path(f"scripts/{script}.json")),
                 "--seed", str(seed), "--out", str(out), *noise_flags, *flags]) == EXIT_OK
    return out / "traces.jsonl"


@pytest.fixture(scope="session")
def scripted_run(tmp_path_factory):
    """The trace file of ``run_script`` by script, seed, ``--noise`` value and
    other run flags, made once per session."""
    runs: dict[tuple, Path] = {}

    def traces(script: str, seed: int, noise: Optional[str] = None,
               flags: tuple[str, ...] = ()) -> Path:
        key = (script, seed, noise, flags)
        if key not in runs:
            runs[key] = run_script(tmp_path_factory.mktemp(script), *key)
        return runs[key]

    return traces


def perfbench_module(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by its path so
    that perfbench stays off ``sys.path``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def _vocab(raw: dict) -> list[str]:
    return sorted(entity["id"] for entity in raw["entities"])


def walk_scenes() -> list[tuple[str, Scenario, list[str]]]:
    """(label, scenario, the ids a walk names) for mini7, mini7 with the
    benchmark's 300 distractors per scenario (walks name the mini7 ids,
    since no step can touch a distractor) and gen_swaps seeds 0-9."""
    mini7_raw = json.loads(asset_path("tasks/mini7.json").read_text("utf-8"))
    scaled_raw = perfbench_module("gen_scaled").add_distractors(mini7_raw, 1)
    scenes = [(f"mini7 {raw['id']}", Scenario.from_dict(raw), _vocab(raw))
              for raw in mini7_raw["scenarios"]]
    scenes += [(f"scaled {raw['id']}", Scenario.from_dict(raw), _vocab(plain))
               for raw, plain in zip(scaled_raw["scenarios"], mini7_raw["scenarios"])]
    swaps = perfbench_module("gen_swaps")
    for seed in range(10):
        scenes += [(f"swaps {seed} {raw['id']}", Scenario.from_dict(raw), _vocab(raw))
                   for raw in swaps.generate(seed)[0]["scenarios"]]
    return scenes


def random_walk(rng: random.Random, vocab: list[str], length: int = 40) -> list[Subgoal]:
    """``length`` random subgoals, most of them naming ids of ``vocab``, so
    that failures, carries and appliance effects all occur."""
    steps = []
    for _ in range(length):
        sg = random_subgoal(rng)
        if rng.random() < 0.85:
            sg = Subgoal(sg.action, rng.choice(vocab), rng.choice(vocab)
                         if sg.action is ActionKind.PUT else None)
        steps.append(sg)
    return steps


def entity_chain(raws: list):
    """The entities the field-by-field chain makes of a scenario's entity
    list, by id, or None when it refuses the list: the reference for the
    whole-list passes of ``world._accepted_entities``."""
    try:
        return world._read_entities(raws)
    except MalformedInput:
        return None


def shallowest_refused_depth(refused) -> int:
    """The least nesting depth at which ``refused(depth)`` holds, found by
    bisection up to 100 000, where it must hold. The depth at which the JSON
    decoder gives up depends on the Python version and on the stack below
    the call, one frame more or less included, so a test finds it rather
    than pinning it. A result strictly between 1 and 100 000 has been
    called with, and held, and the depth below it has been called with,
    and did not hold."""
    low, high = 1, 100_000
    assert refused(high)
    while low < high:
        middle = (low + high) // 2
        if refused(middle):
            high = middle
        else:
            low = middle + 1
    return low


def core_with_navigation(scenario: Scenario) -> list[Subgoal]:
    # Cores omit Navigate steps (they are controller-level); insert the zone
    # move a low-level controller would perform before each interaction.
    world, steps = new_world(scenario), []
    for sg in scenario.gt.core:
        anchor = sg.receptacle if sg.action is ActionKind.PUT else sg.object
        moves = [] if world.entities[anchor].zone == world.agent_zone else \
            [Subgoal(ActionKind.NAVIGATE, anchor)]
        for step in moves + [sg]:
            result = apply_subgoal(world, step)
            assert result.success, f"{step} failed: {result.detail}"
            world = result.state_after
            steps.append(step)
    return steps


class CountingEntities(dict):
    """An entity dict that counts the entities read through it. A copy shares
    the count, so every successor ``WorldState.after`` builds counts too. The
    copy itself is not counted: for a plain dict ``after`` takes it in C,
    without reading an entity, so what is counted is what the step's own
    code reads."""

    def __init__(self, entities: dict, reads: list[int]):
        super().__init__(entities)
        self.reads = reads

    def __getitem__(self, key):
        self.reads[0] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads[0] += 1
        return super().get(key, default)

    def values(self):
        self.reads[0] += len(self)
        return super().values()

    def items(self):
        self.reads[0] += len(self)
        return super().items()

    def __iter__(self):
        self.reads[0] += len(self)
        return super().__iter__()

    def copy(self):
        return CountingEntities(dict(dict.items(self)), self.reads)
