"""Symbolic household environment: object state machine, zone-based visibility,
scene rendering, and goal-condition checks.

The environment stands in for a 3D household simulator at the granularity a
subgoal planner cares about: what is where, what is open/on/sliced/heated/
chilled/clean, and which objects the agent can currently see. Transitions are
functional (a fresh state is returned) and fully deterministic given the
state's noise seed and step counter, so episodes replay bit-for-bit.

Appliance semantics are keyed by entity category: a ``microwave`` heats its
heatable contents when toggled on, a ``fridge`` chills its coolable contents
when closed, and a ``faucet`` cleans cleanable objects inside the receptacle
the faucet is attached to (its ``container``) when toggled on. Slicing
requires holding an entity whose category contains ``knife``.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

from .planeval import GtAnnotation
from .plans import ActionKind, Subgoal


class InvalidScenario(ValueError):
    pass


class FailReason(str, Enum):
    OK = "ok"
    PRECONDITION_VIOLATED = "precondition_violated"
    TARGET_NOT_VISIBLE = "target_not_visible"
    HAND_OCCUPIED = "hand_occupied"
    HAND_EMPTY = "hand_empty"
    RECEPTACLE_CLOSED = "receptacle_closed"
    OBJECT_TOO_HEAVY = "object_too_heavy"
    CONTROLLER_NOISE = "controller_noise"


# state flag -> capability flag that must also be set
FLAG_IMPLICATIONS = {
    "is_open": "openable",
    "is_on": "toggleable",
    "is_sliced": "sliceable",
    "is_heated": "heatable",
    "is_chilled": "coolable",
    "is_clean": "cleanable",
}

_BOOL_FLAGS = (
    "pickupable", "openable", "is_open", "toggleable", "is_on",
    "sliceable", "is_sliced", "heatable", "is_heated", "coolable",
    "is_chilled", "cleanable", "is_clean", "is_receptacle", "heavy",
)


@dataclass
class ObjectEntity:
    id: str
    category: str
    zone: str
    container: Optional[str] = None
    pickupable: bool = False
    openable: bool = False
    is_open: bool = False
    toggleable: bool = False
    is_on: bool = False
    sliceable: bool = False
    is_sliced: bool = False
    heatable: bool = False
    is_heated: bool = False
    coolable: bool = False
    is_chilled: bool = False
    cleanable: bool = False
    is_clean: bool = False
    is_receptacle: bool = False
    heavy: bool = False

    @staticmethod
    def from_dict(data: dict) -> "ObjectEntity":
        known = {f.name for f in fields(ObjectEntity)}
        unknown = set(data) - known
        if unknown:
            raise InvalidScenario(f"unknown entity fields: {sorted(unknown)}")
        return ObjectEntity(**data)


@dataclass
class WorldState:
    entities: dict[str, ObjectEntity]
    agent_zone: str
    held: Optional[str] = None
    step_count: int = 0
    noise_seed: int = 0
    noise_p: float = 0.0

    def copy(self) -> "WorldState":
        return copy.deepcopy(self)


@dataclass(frozen=True)
class GoalCondition:
    """One of located(object, receptacle), in_zone(object, zone), state(object, flag, value)."""

    kind: str
    object: str
    receptacle: Optional[str] = None
    zone: Optional[str] = None
    flag: Optional[str] = None
    value: Optional[bool] = None

    @staticmethod
    def from_dict(data: dict) -> "GoalCondition":
        if not isinstance(data, dict):
            raise InvalidScenario(f"a goal condition must be a JSON object, got {data!r}")
        kind = data.get("type")
        if kind == "located":
            return GoalCondition("located", data["object"], receptacle=data["receptacle"])
        if kind == "in_zone":
            return GoalCondition("in_zone", data["object"], zone=data["zone"])
        if kind == "state":
            return GoalCondition("state", data["object"], flag=data["flag"],
                                 value=bool(data["value"]))
        raise InvalidScenario(f"unknown goal condition type: {kind!r}")


@dataclass
class Scenario:
    """One benchmark task: initial world, instruction, goal, ground truth, noise."""

    id: str
    task_type: str
    instruction: str
    initial: WorldState
    goal: tuple[GoalCondition, ...]
    gt: GtAnnotation
    noise: float = 0.0

    @property
    def vocabulary(self) -> set[str]:
        return set(self.initial.entities)

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        entities = {}
        for raw in data.get("entities", []):
            entity = ObjectEntity.from_dict(raw)
            if entity.id in entities:
                raise InvalidScenario(f"duplicate entity id {entity.id!r}")
            entities[entity.id] = entity
        initial = WorldState(
            entities=entities,
            agent_zone=data["agent_zone"],
            held=data.get("held"),
        )
        goal = tuple(GoalCondition.from_dict(c) for c in data.get("goal", []))
        scenario = Scenario(
            id=data["id"],
            task_type=data.get("task_type", "unknown"),
            instruction=data.get("instruction", ""),
            initial=initial,
            goal=goal,
            gt=GtAnnotation.from_dict(data["gt"]),
            noise=float(data.get("noise", 0.0)),
        )
        validate_scenario(scenario)
        return scenario


@dataclass(frozen=True)
class ExecutionResult:
    success: bool
    reason: FailReason
    state_after: WorldState
    detail: str = ""

    def __post_init__(self) -> None:
        if self.success != (self.reason is FailReason.OK):
            raise ValueError("success must hold exactly when the reason is ok")


@dataclass(frozen=True)
class SceneSnapshot:
    description: str
    visible_ids: frozenset[str]


def validate_scenario(scenario: Scenario) -> None:
    """Raise InvalidScenario with a detail message on any invariant violation."""
    if not isinstance(scenario.instruction, str) or not scenario.instruction.strip():
        raise InvalidScenario("instruction must be a non-empty string")
    if not 0.0 <= scenario.noise <= 1.0:
        raise InvalidScenario(f"noise must be in [0, 1], got {scenario.noise}")
    world = scenario.initial
    for entity in world.entities.values():
        for state_flag, capability in FLAG_IMPLICATIONS.items():
            if getattr(entity, state_flag) and not getattr(entity, capability):
                raise InvalidScenario(
                    f"{entity.id}: {state_flag} set without {capability}")
        if entity.container is not None:
            parent = world.entities.get(entity.container)
            if parent is None:
                raise InvalidScenario(
                    f"{entity.id}: container {entity.container!r} does not exist")
            if not parent.is_receptacle:
                raise InvalidScenario(
                    f"{entity.id}: container {entity.container!r} is not a receptacle")
            if parent.zone != entity.zone:
                raise InvalidScenario(
                    f"{entity.id}: zone differs from container {parent.id!r}")
            chain = {entity.id}
            while parent is not None:
                if parent.id in chain:
                    raise InvalidScenario(f"{entity.id}: containment cycle through {parent.id!r}")
                chain.add(parent.id)
                parent = world.entities.get(parent.container)
    if world.held is not None:
        holder = world.entities.get(world.held)
        if holder is None:
            raise InvalidScenario(f"held object {world.held!r} does not exist")
        if holder.container is not None:
            raise InvalidScenario(f"held object {world.held!r} has a container")
    if not scenario.goal:
        raise InvalidScenario("goal must have at least one condition")
    for cond in scenario.goal:
        if cond.object not in world.entities:
            raise InvalidScenario(f"goal references missing object {cond.object!r}")
        if cond.kind == "located" and cond.receptacle not in world.entities:
            raise InvalidScenario(f"goal references missing receptacle {cond.receptacle!r}")
        if cond.kind == "state" and cond.flag not in _BOOL_FLAGS:
            raise InvalidScenario(f"goal references unknown flag {cond.flag!r}")


def new_world(scenario: Scenario) -> WorldState:
    """Fresh world for one episode: deep copy of the initial state, step 0."""
    world = scenario.initial.copy()
    world.step_count = 0
    world.noise_p = scenario.noise
    return world


def noise_draw(seed: int, step: int) -> float:
    """Deterministic pseudo-random draw in [0, 1) keyed by (seed, step)."""
    digest = hashlib.sha256(f"{seed}:{step}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def _visible(world: WorldState, entity_id: str) -> bool:
    entity = world.entities.get(entity_id)
    if entity is None:
        return False
    if entity_id == world.held:
        return True
    if entity.zone != world.agent_zone:
        return False
    seen = {entity_id}
    while entity.container is not None:
        parent = world.entities.get(entity.container)
        if parent is None or (parent.openable and not parent.is_open):
            return False
        if parent.id in seen:  # defensive; containment cycles are invalid
            return False
        seen.add(parent.id)
        entity = parent
    return True


def detect_objects(world: WorldState) -> set[str]:
    """Ids the agent's detector reports: same-zone entities not hidden inside a
    closed container, plus whatever is held."""
    found = {eid for eid in world.entities if _visible(world, eid)}
    if world.held is not None:
        found.add(world.held)
    return found


def _sync_zone(world: WorldState, entity_id: str, zone: str) -> None:
    # Moves an entity and (recursively) anything it contains.
    world.entities[entity_id].zone = zone
    for other in world.entities.values():
        if other.container == entity_id and other.zone != zone:
            _sync_zone(world, other.id, zone)


def _fail(state: WorldState, reason: FailReason, detail: str) -> ExecutionResult:
    return ExecutionResult(False, reason, state, detail)


def apply_subgoal(world: WorldState, sg: Subgoal) -> ExecutionResult:
    """Execute one subgoal against a copy of the world.

    The controller noise draw happens before any semantics; a failed step
    leaves everything unchanged except the step counter. Never raises on a
    well-formed subgoal: unknown names come back as target_not_visible.
    """
    state = world.copy()
    state.step_count += 1
    if noise_draw(world.noise_seed, world.step_count) < world.noise_p:
        return _fail(state, FailReason.CONTROLLER_NOISE, "controller malfunction")

    target = state.entities.get(sg.object)
    if target is None:
        return _fail(state, FailReason.TARGET_NOT_VISIBLE,
                     f"no object named {sg.object!r} in the environment")

    if sg.action is ActionKind.NAVIGATE:
        state.agent_zone = target.zone
        if state.held is not None:
            _sync_zone(state, state.held, state.agent_zone)
        return ExecutionResult(True, FailReason.OK, state)

    if not _visible(state, target.id):
        return _fail(state, FailReason.TARGET_NOT_VISIBLE, f"{sg.object} is not visible")

    if sg.action is ActionKind.PICKUP:
        if state.held is not None:
            return _fail(state, FailReason.HAND_OCCUPIED,
                         f"already holding {state.held}")
        if not target.pickupable:
            return _fail(state, FailReason.PRECONDITION_VIOLATED,
                         f"{sg.object} is not pickupable")
        if target.heavy:
            return _fail(state, FailReason.OBJECT_TOO_HEAVY, f"{sg.object} is too heavy")
        target.container = None
        state.held = target.id
        _sync_zone(state, target.id, state.agent_zone)
        return ExecutionResult(True, FailReason.OK, state)

    if sg.action is ActionKind.PUT:
        if state.held is None:
            return _fail(state, FailReason.HAND_EMPTY, "nothing is held")
        if state.held != sg.object:
            return _fail(state, FailReason.PRECONDITION_VIOLATED,
                         f"holding {state.held}, not {sg.object}")
        receptacle = state.entities.get(sg.receptacle or "")
        if receptacle is None:
            return _fail(state, FailReason.TARGET_NOT_VISIBLE,
                         f"no object named {sg.receptacle!r} in the environment")
        if receptacle.id == target.id:
            return _fail(state, FailReason.PRECONDITION_VIOLATED,
                         "cannot put an object into itself")
        if not _visible(state, receptacle.id):
            return _fail(state, FailReason.TARGET_NOT_VISIBLE,
                         f"{receptacle.id} is not visible")
        if not receptacle.is_receptacle:
            return _fail(state, FailReason.PRECONDITION_VIOLATED,
                         f"{receptacle.id} is not a receptacle")
        if receptacle.openable and not receptacle.is_open:
            return _fail(state, FailReason.RECEPTACLE_CLOSED,
                         f"{receptacle.id} is closed")
        # containment must stay acyclic: the receptacle's chain cannot pass
        # through the object being placed
        parent = receptacle
        while parent.container is not None:
            if parent.container == target.id:
                return _fail(state, FailReason.PRECONDITION_VIOLATED,
                             f"{receptacle.id} is inside {target.id}")
            parent = state.entities[parent.container]
        target.container = receptacle.id
        state.held = None
        _sync_zone(state, target.id, receptacle.zone)
        return ExecutionResult(True, FailReason.OK, state)

    if sg.action in (ActionKind.OPEN, ActionKind.CLOSE):
        if not target.openable:
            return _fail(state, FailReason.PRECONDITION_VIOLATED,
                         f"{sg.object} is not openable")
        target.is_open = sg.action is ActionKind.OPEN
        if sg.action is ActionKind.CLOSE and target.category == "fridge":
            for other in state.entities.values():
                if other.container == target.id and other.coolable:
                    other.is_chilled = True
        return ExecutionResult(True, FailReason.OK, state)

    if sg.action in (ActionKind.TOGGLE_ON, ActionKind.TOGGLE_OFF):
        if not target.toggleable:
            return _fail(state, FailReason.PRECONDITION_VIOLATED,
                         f"{sg.object} is not toggleable")
        target.is_on = sg.action is ActionKind.TOGGLE_ON
        if sg.action is ActionKind.TOGGLE_ON:
            if target.category == "microwave":
                for other in state.entities.values():
                    if other.container == target.id and other.heatable:
                        other.is_heated = True
            if target.category == "faucet" and target.container is not None:
                basin = target.container
                for other in state.entities.values():
                    if other.container == basin and other.cleanable:
                        other.is_clean = True
        return ExecutionResult(True, FailReason.OK, state)

    if sg.action is ActionKind.SLICE:
        if state.held is None:
            return _fail(state, FailReason.HAND_EMPTY, "slicing requires holding a knife")
        blade = state.entities[state.held]
        if "knife" not in blade.category:
            return _fail(state, FailReason.PRECONDITION_VIOLATED,
                         f"{blade.id} cannot slice anything")
        if not target.sliceable:
            return _fail(state, FailReason.PRECONDITION_VIOLATED,
                         f"{sg.object} is not sliceable")
        target.is_sliced = True
        return ExecutionResult(True, FailReason.OK, state)

    return _fail(state, FailReason.PRECONDITION_VIOLATED,
                 f"unhandled action {sg.action.value}")  # unreachable


def _markers(world: WorldState, entity: ObjectEntity) -> list[str]:
    markers = []
    if entity.id == world.held:
        markers.append("held")
    elif entity.container is not None:
        markers.append(f"in {entity.container}")
    if entity.openable:
        markers.append("open" if entity.is_open else "closed")
    if entity.toggleable and entity.is_on:
        markers.append("on")
    for flag, marker in (("is_sliced", "sliced"), ("is_heated", "heated"),
                         ("is_chilled", "chilled"), ("is_clean", "clean"),
                         ("heavy", "heavy")):
        if getattr(entity, flag):
            markers.append(marker)
    return markers


def render_scene(world: WorldState) -> SceneSnapshot:
    """Textual observation: the agent's zone plus every detected object with
    its state markers, sorted by id for a deterministic rendering."""
    visible = sorted(detect_objects(world))
    lines = [f"Zone: {world.agent_zone}"]
    if not visible:
        lines.append("Visible objects: none")
    else:
        lines.append("Visible objects:")
        for oid in visible:
            markers = _markers(world, world.entities[oid])
            lines.append(f"- {oid} ({', '.join(markers)})" if markers else f"- {oid}")
    return SceneSnapshot("\n".join(lines), frozenset(visible))


def _condition_holds(world: WorldState, cond: GoalCondition) -> bool:
    entity = world.entities.get(cond.object)
    if entity is None:
        return False
    if cond.kind == "located":
        return entity.container == cond.receptacle
    if cond.kind == "in_zone":
        return entity.zone == cond.zone
    return bool(getattr(entity, cond.flag)) == cond.value


def check_goal_conditions(world: WorldState, goal: tuple[GoalCondition, ...]) -> list[bool]:
    """Pure query: one boolean per condition, aligned with ``goal``."""
    return [_condition_holds(world, cond) for cond in goal]


def subgoal_effects_satisfied(world: WorldState, sg: Subgoal) -> bool:
    """Whether the state change a subgoal would make is already in place."""
    entity = world.entities.get(sg.object)
    if entity is None:
        return False
    if sg.action is ActionKind.PICKUP:
        return world.held == sg.object
    if sg.action is ActionKind.PUT:
        return entity.container == sg.receptacle
    if sg.action is ActionKind.OPEN:
        return entity.is_open
    if sg.action is ActionKind.CLOSE:
        return entity.openable and not entity.is_open
    if sg.action is ActionKind.TOGGLE_ON:
        return entity.is_on
    if sg.action is ActionKind.TOGGLE_OFF:
        return entity.toggleable and not entity.is_on
    if sg.action is ActionKind.SLICE:
        return entity.is_sliced
    if sg.action is ActionKind.NAVIGATE:
        return world.agent_zone == entity.zone
    return False
