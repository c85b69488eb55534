"""Symbolic household environment: object state machine, zone-based visibility,
scene rendering, and goal-condition checks.

The environment stands in for a 3D household simulator at the granularity a
subgoal planner cares about: what is where, what is open/on/sliced/heated/
chilled/clean, and which objects the agent can currently see. A state is the
scene alone (entities, the agent's zone, the held object), and a transition
is a pure function of a state and a subgoal. The world has no randomness:
``engine.run_episode`` draws the controller noise.

States, scenarios and entities are values: no code changes one once it is
built. A step checks its preconditions on the state it is given; a failed
step returns that state itself, and a successful one builds its successor
with ``WorldState.after``, whose entity dict shares every entity the step
does not change.

A state also keeps what it derives from its entities: a scene index, one map
from each parent to the ids directly under it (a container id, or the 1-tuple
``(zone,)`` for the entities with no container, so a zone never meets an
entity of the same name), the ids ``detect_objects`` found, the scene line
of each entity ``render_scene`` has drawn, and the sorted ids of the last
visible set it sorted. ``after`` hands the index on copy-on-write, replacing
only the buckets of an entity that changed zone or container, drops the
lines of the entities that changed, hands the sorted ids on as they are,
and starts with no visible ids. So a step reads the agent's zone and what it
moves, not the whole scene: one walk per state, down from ``(zone,)`` into
every container that is not closed, gives both the scene (``render_scene``
draws what ``detect_objects`` kept on the state) and a step's visibility
preconditions; a scene re-renders only the lines of entities that changed,
and it is re-sorted only when what is visible changed. The lines of a
scenario's initial state are drawn once, by the first ``new_world``, and
every episode of the scenario starts from them. A step's result names the
entities it changed, so a goal check after it reads only those
(``engine.GoalTracker``, which groups the goal's conditions by object).

Appliance semantics are keyed by entity category: a ``microwave`` heats its
heatable contents when toggled on, a ``fridge`` chills its coolable contents
when closed, and a ``faucet`` cleans cleanable objects inside the receptacle
the faucet is attached to (its ``container``) when toggled on. Slicing
requires holding an entity whose category contains ``knife``.

Zones change only on Navigate, which carries the held object and whatever it
contains to the agent's new zone; every other step acts inside the agent's
zone, where its target and receptacle already are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, compress, repeat
from operator import attrgetter, gt, is_not, itemgetter
from typing import NamedTuple, Optional, Union, get_args, get_type_hints

from .gateway import DecodeParams
from .inputs import NUMBER, REQUIRED, MalformedInput, checked_field, reject_unknown_keys
from .planeval import GtAnnotation
from .plans import ActionKind, Subgoal, unnamable


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

# flag action -> (state flag, value it sets); the action needs the flag's
# capability, FLAG_IMPLICATIONS[flag]
_FLAG_ACTIONS = {
    ActionKind.OPEN: ("is_open", True),
    ActionKind.CLOSE: ("is_open", False),
    ActionKind.TOGGLE_ON: ("is_on", True),
    ActionKind.TOGGLE_OFF: ("is_on", False),
    ActionKind.SLICE: ("is_sliced", True),
}

# (flag action, appliance category) -> the state flag the action sets on every
# entity directly inside the appliance's site that has the capability for it
_APPLIANCE_EFFECTS = {
    (ActionKind.CLOSE, "fridge"): "is_chilled",
    (ActionKind.TOGGLE_ON, "microwave"): "is_heated",
    (ActionKind.TOGGLE_ON, "faucet"): "is_clean",
}


class ObjectEntity(NamedTuple):
    """One object of the scene, as an immutable value: a step's successor
    state replaces it through ``WorldState.after``. A NamedTuple, because the
    world builds and replaces entities on every load and step, and a frozen
    dataclass does both several times slower."""

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


# field name -> JSON kind, in field order, so Optional[str] becomes (str, NoneType)
_ENTITY_KINDS = {name: get_args(hint) or hint
                 for name, hint in get_type_hints(ObjectEntity).items()}
_BOOL_FLAGS = frozenset(name for name, kind in _ENTITY_KINDS.items() if kind is bool)


# A scene index maps each parent to the ids directly under it. A parent is a
# container id or, for an entity with no container, the 1-tuple (zone,), which
# keeps a zone apart from an entity of the same name. Buckets are frozensets,
# so a successor's index can share every bucket it does not change.
Index = dict[str | tuple[str], frozenset[str]]


def _parent(entity: ObjectEntity) -> str | tuple[str]:
    return (entity.zone,) if entity.container is None else entity.container


def build_index(entities: dict[str, ObjectEntity]) -> Index:
    """The scene index of ``entities``, built by a scan of all of them."""
    index: dict[str | tuple[str], set[str]] = {}
    for entity in entities.values():
        index.setdefault(_parent(entity), set()).add(entity.id)
    return {parent: frozenset(ids) for parent, ids in index.items()}


def _rebucket(index: Index, entity_id: str, old: str | tuple[str], new: str | tuple[str]) -> None:
    # Moves entity_id from bucket ``old`` to bucket ``new`` in an index the
    # caller owns, replacing each bucket it changes.
    rest = index[old] - {entity_id}
    if rest:
        index[old] = rest
    else:
        del index[old]
    index[new] = index.get(new, frozenset()) | {entity_id}


@dataclass(frozen=True)
class WorldState:
    """One scene. No code writes to ``entities`` once the state is built.

    The last four fields are derived from the others, so equality ignores
    them: the state's scene ``Index``, which a state not built by ``after``
    builds on first use; the scene lines ``render_scene`` has drawn for it,
    keyed by entity id; the sorted ids of the last visible set
    ``render_scene`` sorted for it or for a state before it; and the ids
    ``detect_objects`` found for it, which no caller changes. A line
    depends on its entity and on whether that entity is held. Episodes on
    parallel threads share a scenario's initial state; two threads that
    fill a field at once write equal values."""

    entities: dict[str, ObjectEntity]
    agent_zone: str
    held: Optional[str] = None
    _index: Optional[Index] = field(default=None, compare=False, repr=False)
    _lines: dict[str, str] = field(default_factory=dict, compare=False, repr=False)
    _order: Optional[list[str]] = field(default=None, compare=False, repr=False)
    _detected: Optional[set[str]] = field(default=None, compare=False, repr=False)

    def index(self) -> Index:
        """This state's scene index, built from ``entities`` on first use."""
        if self._index is None:
            object.__setattr__(self, "_index", build_index(self.entities))
        return self._index

    def after(self, changes: dict[str, dict[str, object]], agent_zone: str,
              held: Optional[str]) -> "WorldState":
        """The successor state: ``changes`` maps an entity id to the fields
        that change on it, and every other entity is shared with this state,
        as is every index bucket and scene line the changes leave valid, and
        the sorted ids of the last visible set."""
        entities = self.entities.copy()
        shared = index = self.index()
        lines = self._lines.copy()
        if held != self.held:
            lines.pop(self.held, None)
            lines.pop(held, None)
        for entity_id, fields in changes.items():
            old = entities[entity_id]
            new = entities[entity_id] = old._replace(**fields)
            lines.pop(entity_id, None)
            if new.zone != old.zone or new.container != old.container:
                if index is shared:
                    index = dict(shared)
                _rebucket(index, entity_id, _parent(old), _parent(new))
        return WorldState(entities, agent_zone, held, index, lines, self._order)


class GoalCondition(NamedTuple):
    """That ``object``'s entity field ``field`` equals ``value``. ``kind`` is
    the JSON type it was read from: located(object, receptacle) tests the
    ``container``, in_zone(object, zone) the ``zone``, and state(object,
    flag, value) the flag."""

    kind: str
    object: str
    field: str
    value: Union[str, bool]

    @staticmethod
    def from_dict(data: object, where: str) -> "GoalCondition":
        kind = checked_field(data, "type", str, where)
        if kind not in _GOAL_FIELDS:
            raise MalformedInput(f"{where}: unknown type {kind!r}")
        fixed, extra = _GOAL_FIELDS[kind]
        reject_unknown_keys(data, {"type", "object", *extra}, where)
        return GoalCondition(kind, checked_field(data, "object", str, where), *fixed,
                             *(checked_field(data, key, key_kind, where)
                               for key, key_kind in extra.items()))


# goal type -> (the entity field it fixes, if any; the keys it takes beside
# "type" and "object", with their kinds), which together give (field, value)
_GOAL_FIELDS = {
    "located": (("container",), {"receptacle": str}),
    "in_zone": (("zone",), {"zone": str}),
    "state": ((), {"flag": str, "value": bool}),
}


@dataclass(frozen=True)
class Scenario:
    """One benchmark task: initial world, instruction, goal, ground truth, noise."""

    id: str
    task_type: str
    instruction: str
    initial: WorldState
    goal: tuple[GoalCondition, ...]
    gt: GtAnnotation
    noise: float = 0.0
    # the decode profile, built by the first episode and shared by the rest
    # (two episodes on parallel threads that build it at once write equal
    # values); see GtAnnotation._spec for why this is no cached_property
    _decode: Optional[DecodeParams] = field(default=None, init=False, compare=False,
                                            repr=False)

    @property
    def decode_profile(self) -> DecodeParams:
        """``DecodeParams.for_vocab`` of the initial entity ids: the decode
        settings of an episode that sets none. Nothing writes its
        ``token_bias``, so every episode of the scenario shares it, and every
        record its ``echo``."""
        if self._decode is None:
            object.__setattr__(self, "_decode", DecodeParams.for_vocab(set(self.initial.entities)))
        return self._decode

    @staticmethod
    def from_dict(data: object) -> "Scenario":
        """Build and invariant-check a scenario from its JSON form; raises
        MalformedInput on an ill-typed field or a broken invariant, and
        PlanParseError on a ground-truth core line that is no subgoal."""
        where = "scenario"
        reject_unknown_keys(data, _SCENARIO_FIELDS.keys(), where)
        given = {key: checked_field(data, key, kind, where, default)
                 for key, (kind, default) in _SCENARIO_FIELDS.items()}
        # the entity list is checked before the rest of the scenario: the
        # whole-list passes take a well-formed list, and the field-by-field
        # chain words the error of any other
        entities = _accepted_entities(given["entities"])
        if entities is None:
            entities = _read_entities(given["entities"])
        scenario = Scenario(
            id=given["id"],
            task_type=given["task_type"],
            instruction=given["instruction"],
            initial=WorldState(entities, given["agent_zone"], given["held"]),
            goal=tuple(GoalCondition.from_dict(raw, f"goal condition #{index}")
                       for index, raw in enumerate(given["goal"])),
            gt=GtAnnotation.from_dict(given["gt"]),
            noise=given["noise"],
        )
        validate_scenario(scenario)
        return scenario


# scenario JSON key -> (kind, default)
_SCENARIO_FIELDS = {
    "id": (str, REQUIRED),
    "task_type": (str, "unknown"),
    "instruction": (str, ""),
    "agent_zone": (str, REQUIRED),
    "held": ((str, type(None)), None),
    "entities": (list, ()),
    "goal": (list, ()),
    "gt": (dict, REQUIRED),
    "noise": (NUMBER, 0.0),
}


class ExecutionResult(NamedTuple):
    """What a step did. ``changed`` names every entity a successful step
    replaced, carried objects and appliance effects included: the keys of
    the changes it hands to ``WorldState.after``. A NamedTuple, like
    ``ObjectEntity``, because every step builds one."""

    state_after: WorldState
    reason: FailReason = FailReason.OK
    detail: str = ""
    changed: tuple[str, ...] = ()

    @property
    def success(self) -> bool:
        return self.reason is FailReason.OK


def validate_scenario(scenario: Scenario) -> None:
    """Raise MalformedInput with a detail message on any invariant violation
    of a scenario whose entities were read and checked: its instruction,
    noise, held object, goal and ground-truth core."""
    if not scenario.instruction.strip():
        raise MalformedInput("instruction must be a non-empty string")
    if not 0.0 <= scenario.noise <= 1.0:
        raise MalformedInput(f"noise must be in [0, 1], got {scenario.noise}")
    world = scenario.initial
    if world.held is not None:
        holder = world.entities.get(world.held)
        if holder is None:
            raise MalformedInput(f"held object {world.held!r} does not exist")
        if holder.container is not None:
            raise MalformedInput(f"held object {world.held!r} has a container")
        if holder.zone != world.agent_zone:
            raise MalformedInput(f"held object {world.held!r} is not in the agent's zone")
    if not scenario.goal:
        raise MalformedInput("goal must have at least one condition")
    for cond in scenario.goal:
        if cond.object not in world.entities:
            raise MalformedInput(f"goal references missing object {cond.object!r}")
        if cond.kind == "located" and cond.value not in world.entities:
            raise MalformedInput(f"goal references missing receptacle {cond.value!r}")
        if cond.kind == "state" and cond.field not in _BOOL_FLAGS:
            raise MalformedInput(f"goal references unknown flag {cond.field!r}")
    # a wildcard slot's receptacle too, so that the core is a plan of this scene
    for slot, sg in enumerate(scenario.gt.core):
        for name in (sg.object, sg.receptacle):
            if name is not None and name not in world.entities:
                raise MalformedInput(f"gt core slot {slot} {sg.text} names {name!r}, "
                                     "which is no entity of the scene")


def _read_entities(raws: list) -> dict[str, ObjectEntity]:
    """The entities of a scenario's JSON list by id; MalformedInput, worded
    for the first fault, when a rule refuses the list. The one field-by-field
    chain of the entity rules: it reads each entity in field order, naming
    it by its place, so of two faults the earlier field's is reported, and
    refuses an id an earlier entity has; then it refuses an id no subgoal
    can name; then, in scene order, an entity with a state flag but not its
    capability, or whose container is missing, is no receptacle, sits in
    another zone or closes a containment cycle."""
    entities = {}
    for index, raw in enumerate(raws):
        where = f"entity #{index}"
        reject_unknown_keys(raw, _ENTITY_KINDS.keys(), where)
        entity = ObjectEntity._make([
            checked_field(raw, name, kind, where, ObjectEntity._field_defaults.get(name, REQUIRED))
            for name, kind in _ENTITY_KINDS.items()])
        if entity.id in entities:
            raise MalformedInput(f"duplicate entity id {entity.id!r}")
        entities[entity.id] = entity
    unnamed = unnamable(entities)
    if unnamed is not None:
        raise MalformedInput(f"entity id {unnamed!r} cannot be named in a subgoal: an id is "
                             "non-empty, lowercase and holds no whitespace, '_', '-', ',', "
                             "'(' or ')'")
    for entity in entities.values():
        for state_flag, capability in FLAG_IMPLICATIONS.items():
            if getattr(entity, state_flag) and not getattr(entity, capability):
                raise MalformedInput(f"{entity.id}: {state_flag} set without {capability}")
        if entity.container is not None:
            parent = entities.get(entity.container)
            if parent is None:
                raise MalformedInput(f"{entity.id}: container {entity.container!r} does not exist")
            if not parent.is_receptacle:
                raise MalformedInput(
                    f"{entity.id}: container {entity.container!r} is not a receptacle")
            if parent.zone != entity.zone:
                raise MalformedInput(f"{entity.id}: zone differs from container {parent.id!r}")
            looped = _cycle_through(entity.id, entity.container, entities)
            if looped is not None:
                raise MalformedInput(f"{entity.id}: containment cycle through {looped!r}")
    return entities


def _cycle_through(entity_id: str, container: Optional[str],
                   entities: dict[str, ObjectEntity]) -> Optional[str]:
    """The id at which the chain of containers up from ``entity_id``, placed
    in ``container``, meets an entity already on it, or None when it ends."""
    on_chain = {entity_id}
    parent = entities.get(container)
    while parent is not None:
        if parent.id in on_chain:
            return parent.id
        on_chain.add(parent.id)
        parent = entities.get(parent.container)
    return None


# (field name, type) for each type a field's value may have: every entity
# field's kind is a type or a tuple of types
_FIELD_TYPES = frozenset((name, option) for name, kind in _ENTITY_KINDS.items()
                         for option in (kind if type(kind) is tuple else (kind,)))
_STATE_FLAG_TYPES = frozenset((flag, bool) for flag in FLAG_IMPLICATIONS)
# an entity from its JSON object merged over the defaults, once the object's
# fields are known to be entity fields of the right types: a required field
# it lacks is a KeyError. tuple.__new__ skips the keyword binding of
# ObjectEntity(**raw), which takes about 1.7 times as long per entity
_FIELD_VALUES = itemgetter(*ObjectEntity._fields)
_new_entity = partial(tuple.__new__, ObjectEntity)
# the state flags of an entity, and the capability each one needs
_STATES = attrgetter(*FLAG_IMPLICATIONS)
_CAPABILITIES = attrgetter(*FLAG_IMPLICATIONS.values())


def _accepted_entities(raws: list) -> Optional[dict[str, ObjectEntity]]:
    """The entities of a scenario's JSON list by id, when ``_read_entities``
    accepts them; None when one of its rules may fail, never a dict for a
    list that it refuses. The rules are a few passes in C over the whole
    list: one over the (field, type) pairs of the fields the items hold, and
    one each over the entities, their ids (distinct, and each one a subgoal
    can name), their state flags when any item sets one, and their
    containers when any item has one; a Python loop walks only the entities
    that have a container."""
    try:
        present = set(zip(chain.from_iterable(map(dict.keys, raws)),
                          map(type, chain.from_iterable(map(dict.values, raws)))))
        if not present <= _FIELD_TYPES:  # an unknown field or an ill-typed value
            return None
    except TypeError:  # an item that is no JSON object
        return None
    try:
        entities = [_new_entity(_FIELD_VALUES(ObjectEntity._field_defaults | raw))
                    for raw in raws]
    except KeyError:  # a required field missing
        return None
    by_id = dict(zip(map(attrgetter("id"), entities), entities))
    if len(by_id) < len(entities) or unnamable(by_id) is not None:
        return None  # a duplicate id, or one that no subgoal can name
    if not present.isdisjoint(_STATE_FLAG_TYPES) and any(map(
            gt, chain.from_iterable(map(_STATES, entities)),
            chain.from_iterable(map(_CAPABILITIES, entities)))):
        return None  # a state flag (True) above its capability (False)
    if ("container", str) in present:
        containers = map(attrgetter("container"), entities)
        for entity in compress(entities, map(is_not, containers, repeat(None))):
            parent = by_id.get(entity.container)
            if (parent is None or not parent.is_receptacle or parent.zone != entity.zone
                    or _cycle_through(entity.id, entity.container, by_id) is not None):
                return None
    return by_id


def new_world(scenario: Scenario) -> WorldState:
    """The world an episode starts in: the scenario's initial state, which no
    step changes. The first call draws the scene lines of what that state
    shows, so each episode's first step hands them on and draws only the
    lines of the entities it changes."""
    initial = scenario.initial
    if not initial._lines:
        render_scene(initial)
    return initial


def detect_objects(world: WorldState) -> set[str]:
    """Ids the agent's detector reports: same-zone entities not hidden inside a
    closed container, plus whatever is held. Walks down the scene index from
    the agent's zone, into every container that is not closed, once per
    state, which keeps the set: no caller changes it."""
    if world._detected is not None:
        return world._detected
    index = world.index()
    visible = set(index.get((world.agent_zone,), ()))
    pending = list(visible & index.keys())
    while pending:
        container = world.entities[pending.pop()]
        if container.openable and not container.is_open:
            continue
        inside = index[container.id]
        visible |= inside
        pending += inside & index.keys()
    if world.held is not None:
        visible.add(world.held)
    object.__setattr__(world, "_detected", visible)
    return visible


def apply_subgoal(world: WorldState, sg: Subgoal) -> ExecutionResult:
    """Execute one subgoal; ``world`` is not changed.

    A pure function of ``(world, sg)``. A failed step returns ``world``
    itself, and a successful one a new state that shares every entity the
    step leaves as it was. Never raises on a well-formed subgoal: unknown
    names come back as target_not_visible.
    """
    target = world.entities.get(sg.object)
    if target is None:
        return ExecutionResult(world, FailReason.TARGET_NOT_VISIBLE,
                               f"no object named {sg.object!r} in the environment")

    if sg.action is ActionKind.NAVIGATE:
        changes = {}
        if world.held is not None and target.zone != world.agent_zone:
            # the carry: the held object and everything inside it, at any depth
            index = world.index()
            pending = [world.held]
            while pending:
                carried = pending.pop()
                changes[carried] = {"zone": target.zone}
                pending += index.get(carried, ())
        return ExecutionResult(world.after(changes, target.zone, world.held), FailReason.OK,
                               "", tuple(changes))

    if target.id not in detect_objects(world):
        return ExecutionResult(world, FailReason.TARGET_NOT_VISIBLE, f"{sg.object} is not visible")

    if sg.action is ActionKind.PICKUP:
        if world.held is not None:
            return ExecutionResult(world, FailReason.HAND_OCCUPIED,
                                   f"already holding {world.held}")
        if not target.pickupable:
            return ExecutionResult(world, FailReason.PRECONDITION_VIOLATED,
                                   f"{sg.object} is not pickupable")
        if target.heavy:
            return ExecutionResult(world, FailReason.OBJECT_TOO_HEAVY, f"{sg.object} is too heavy")
        return ExecutionResult(world.after({target.id: {"container": None}}, world.agent_zone,
                                           target.id), FailReason.OK, "", (target.id,))

    if sg.action is ActionKind.PUT:
        if world.held is None:
            return ExecutionResult(world, FailReason.HAND_EMPTY, "nothing is held")
        if world.held != sg.object:
            return ExecutionResult(world, FailReason.PRECONDITION_VIOLATED,
                                   f"holding {world.held}, not {sg.object}")
        receptacle = world.entities.get(sg.receptacle)
        if receptacle is None:
            return ExecutionResult(world, FailReason.TARGET_NOT_VISIBLE,
                                   f"no object named {sg.receptacle!r} in the environment")
        if receptacle.id == target.id:
            return ExecutionResult(world, FailReason.PRECONDITION_VIOLATED,
                                   "cannot put an object into itself")
        if receptacle.id not in detect_objects(world):
            return ExecutionResult(world, FailReason.TARGET_NOT_VISIBLE,
                                   f"{receptacle.id} is not visible")
        if not receptacle.is_receptacle:
            return ExecutionResult(world, FailReason.PRECONDITION_VIOLATED,
                                   f"{receptacle.id} is not a receptacle")
        if receptacle.openable and not receptacle.is_open:
            return ExecutionResult(world, FailReason.RECEPTACLE_CLOSED,
                                   f"{receptacle.id} is closed")
        # containment must stay acyclic: the receptacle's chain cannot pass
        # through the object being placed
        if _cycle_through(target.id, receptacle.id, world.entities) is not None:
            return ExecutionResult(world, FailReason.PRECONDITION_VIOLATED,
                                   f"{receptacle.id} is inside {target.id}")
        return ExecutionResult(world.after({target.id: {"container": receptacle.id}},
                                           world.agent_zone, None), FailReason.OK, "",
                               (target.id,))

    if sg.action is ActionKind.SLICE:
        if world.held is None:
            return ExecutionResult(world, FailReason.HAND_EMPTY, "slicing requires holding a knife")
        blade = world.entities[world.held]
        if "knife" not in blade.category:
            return ExecutionResult(world, FailReason.PRECONDITION_VIOLATED,
                                   f"{blade.id} cannot slice anything")
    flag, value = _FLAG_ACTIONS[sg.action]
    capability = FLAG_IMPLICATIONS[flag]
    if not getattr(target, capability):
        return ExecutionResult(world, FailReason.PRECONDITION_VIOLATED,
                               f"{sg.object} is not {capability}")
    changes = {target.id: {flag: value}}
    effect = _APPLIANCE_EFFECTS.get((sg.action, target.category))
    # a faucet works on the receptacle it is attached to, any other appliance on itself
    site = target.container if target.category == "faucet" else target.id
    if effect is not None and site is not None:
        capability = FLAG_IMPLICATIONS[effect]
        for other_id in world.index().get(site, ()):
            if getattr(world.entities[other_id], capability):
                # merged: a cleanable faucet sits in the sink it cleans
                changes.setdefault(other_id, {})[effect] = True
    return ExecutionResult(world.after(changes, world.agent_zone, world.held), FailReason.OK, "",
                           tuple(changes))


def _scene_line(world: WorldState, entity: ObjectEntity) -> str:
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
    return f"- {entity.id} ({', '.join(markers)})" if markers else f"- {entity.id}"


def render_scene(world: WorldState) -> str:
    """Textual observation: the agent's zone plus every object
    ``detect_objects`` reports for ``world``, with its state markers, sorted
    by id for a deterministic rendering. An entity's line is drawn once per
    state and kept on it, and the visible ids are sorted only when they
    differ from the set last sorted for this state or the states before it."""
    visible = detect_objects(world)
    lines = [f"Zone: {world.agent_zone}"]
    if not visible:
        lines.append("Visible objects: none")
    else:
        lines.append("Visible objects:")
        drawn = world._lines
        for oid in visible - drawn.keys():
            drawn[oid] = _scene_line(world, world.entities[oid])
        order = world._order
        # the ids of order are distinct, so this tests set equality
        if order is None or len(order) != len(visible) or not visible.issuperset(order):
            order = sorted(visible)
            object.__setattr__(world, "_order", order)
        lines += map(drawn.__getitem__, order)
    return "\n".join(lines)


def condition_holds(world: WorldState, cond: GoalCondition) -> bool:
    """Whether ``cond`` holds in ``world``; it reads ``cond.object``'s
    fields alone."""
    # load rejects a goal over a missing object, and no step removes an entity
    return getattr(world.entities[cond.object], cond.field) == cond.value


def check_goal_conditions(world: WorldState, goal: tuple[GoalCondition, ...]) -> list[bool]:
    """Pure query: one boolean per condition, aligned with ``goal``."""
    return [condition_holds(world, cond) for cond in goal]


def subgoal_effects_satisfied(world: WorldState, sg: Subgoal) -> bool:
    """Whether the state change a subgoal would make is already in place."""
    entity = world.entities.get(sg.object)
    if entity is None:
        return False
    if sg.action is ActionKind.PICKUP:
        return world.held == sg.object
    if sg.action is ActionKind.PUT:
        return entity.container == sg.receptacle
    if sg.action is ActionKind.NAVIGATE:
        return world.agent_zone == entity.zone
    flag, value = _FLAG_ACTIONS[sg.action]
    return getattr(entity, FLAG_IMPLICATIONS[flag]) and getattr(entity, flag) == value
