"""Episode orchestration: decompose the instruction, plan, execute subgoal by
subgoal, and recover from failures by retrying or re-planning.

The recovery rule is deliberate: after a failed step, a scene-conditioned
validity check runs; when the target object has already been observed and the
verdict is valid, the failure is attributed to the controller and the step is
redone. Otherwise feedback is requested and the plan is revised, with
execution resuming at the first revised subgoal that is neither already
executed nor already satisfied in the current world. A global failure budget
bounds every episode. Controller noise is drawn here, by the episode: the
world has no randomness. The episode's trace holds every value in the form
its record writes, from the moment the value is produced.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .gateway import DecodeParams, Gateway, GatewayError, request_text
from .inputs import MAX_JSON_INT, NUMBER, MalformedInput, checked_field
from .plans import NoSubgoalsFound, Plan, Subgoal, parse_plan
from .prompting import (
    QATranscript,
    RenderedPrompt,
    Verdict,
    classify_validity,
    gen_feedback_prompt,
    gen_replan_prompt,
    gen_std_prompt,
    gen_tp_prompt,
    gen_validity_prompt,
)
from .world import (
    ExecutionResult,
    FailReason,
    Scenario,
    WorldState,
    apply_subgoal,
    check_goal_conditions,
    condition_holds,
    detect_objects,
    new_world,
    render_scene,
    subgoal_effects_satisfied,
)

TRACE_SCHEMA_VERSION = 1


class PlanningFailed(RuntimeError):
    """The decomposition or planning reply cannot be used."""


class EpisodeOutcome(str, Enum):
    SUCCESS = "success"
    BUDGET_EXHAUSTED = "budget_exhausted"
    PLAN_EXHAUSTED = "plan_exhausted"


@dataclass
class EpisodeConfig:
    """Knobs for one episode. ``use_cot`` replaces the self-QA decomposition
    stage entirely, so ``use_std`` is ignored when it is set."""

    failure_budget: int = 10
    replanning_enabled: bool = True
    use_std: bool = True
    use_cot: bool = False
    decode: Optional[DecodeParams] = None
    noise_override: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.failure_budget <= MAX_JSON_INT:
            raise ValueError(f"failure_budget must be in [1, {MAX_JSON_INT}]")
        if not 0 <= self.seed <= MAX_JSON_INT:
            raise ValueError(f"seed must be in [0, {MAX_JSON_INT}]")
        if self.noise_override is not None and not 0.0 <= self.noise_override <= 1.0:
            raise ValueError("noise override must be in [0, 1]")

    def to_echo(self, gw: Gateway) -> dict:
        """The ``config`` field of a trace record. ``run_episode`` echoes its
        resolved config, so ``noise``, ``seed`` and ``decode`` are always set."""
        echo = {key: getattr(self, name) for key, (name, _) in _ECHO_FIELDS.items()}
        echo["decode"] = {
            "temperature": self.decode.temperature,
            "max_tokens": self.decode.max_tokens,
            "token_bias": dict(self.decode.token_bias),
        }
        echo["gateway"] = gw.describe()
        return echo

    @staticmethod
    def from_echo(echo: dict) -> "EpisodeConfig":
        """Inverse of ``to_echo`` (the gateway echo is left to the caller).
        Raises MalformedInput on a missing, ill-typed or out-of-range field."""
        where = "config echo"
        decode = checked_field(echo, "decode", dict, where)
        bias = checked_field(decode, "token_bias", dict, f"{where} decode")
        for token in bias:
            checked_field(bias, token, NUMBER, f"{where} token_bias")
        fields = {name: checked_field(echo, key, kind, where)
                  for key, (name, kind) in _ECHO_FIELDS.items()}
        temperature = checked_field(decode, "temperature", NUMBER, f"{where} decode")
        max_tokens = checked_field(decode, "max_tokens", int, f"{where} decode")
        try:
            return EpisodeConfig(decode=DecodeParams(temperature, bias, max_tokens), **fields)
        except ValueError as exc:
            raise MalformedInput(f"{where}: {exc}") from exc


# the config echo's scalars, in the order from_echo checks them:
# echo key -> (EpisodeConfig field, JSON kind)
_ECHO_FIELDS = {
    "failure_budget": ("failure_budget", int),
    "replanning_enabled": ("replanning_enabled", bool),
    "use_std": ("use_std", bool),
    "use_cot": ("use_cot", bool),
    "noise": ("noise_override", NUMBER),
    "seed": ("seed", int),
}


@dataclass
class RecoveryDecision:
    # validity and feedback are the failed step's record values
    kind: str  # "redo" | "replan" | "abort"
    validity: Optional[dict] = None
    feedback: Optional[str] = None
    new_plan: Optional[Plan] = None
    reason: Optional[str] = None


@dataclass
class EpisodeTrace:
    """One episode as it ran, each field in record form (``qa`` as
    ``[question, answer]`` lists, plans as subgoal strings, ``outcome`` as its
    value, each step as its record dict), so ``to_record`` converts nothing."""

    task_id: str
    task_type: str
    instruction: str
    config: dict
    qa: Optional[QATranscript] = None
    initial_plan: Optional[list[str]] = None
    steps: list[dict] = field(default_factory=list)
    failure_count: int = 0
    outcome: str = EpisodeOutcome.PLAN_EXHAUSTED.value
    abort_reason: Optional[str] = None
    sr: int = 0
    gc: float = 0.0
    goal_conditions: list[bool] = field(default_factory=list)
    llm_log: list[dict] = field(default_factory=list)

    def to_record(self) -> dict:
        """The trace line's object; it shares the fields' values."""
        return {"schema_version": TRACE_SCHEMA_VERSION, "seed": self.config["seed"],
                **vars(self)}


def _call(gw: Gateway, stage: str, prompt: RenderedPrompt, params: DecodeParams,
          log: list[dict], scene: Optional[str] = None) -> str:
    # Request goes into the log before the call, the reply right after it
    # returns, so a crashed call still leaves its request on record.
    log.append({"direction": "req", "stage": stage, "text": request_text(prompt, scene)})
    if scene is None:
        reply = gw.complete(prompt, params)
    else:
        reply = gw.complete_multimodal(prompt, scene, params)
    log.append({"direction": "res", "stage": stage, "text": reply})
    return reply


def _parse_qa(text: str) -> QATranscript:
    turns: QATranscript = []
    question: Optional[str] = None
    answer: Optional[str] = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.lower().startswith("q:"):
            if answer is not None:
                turns.append([question, answer])
            question, answer = stripped[2:].strip(), None
        elif stripped.lower().startswith("a:"):
            if question is not None:
                answer = stripped[2:].strip()
        elif stripped and answer is not None:
            answer = f"{answer} {stripped}"
        elif stripped and question is not None:
            question = f"{question} {stripped}"
    if answer is not None:
        turns.append([question, answer])
    if not turns:
        raise PlanningFailed("no Q/A pairs found in the decomposition reply")
    return turns


def decomposition_prompt(instruction: str, cfg: EpisodeConfig) -> Optional[RenderedPrompt]:
    """The decomposition stage's prompt, or None when ``cfg`` has no
    decomposition stage."""
    if cfg.use_std or cfg.use_cot:
        return gen_std_prompt(instruction, cot=cfg.use_cot)
    return None


def decompose(instruction: str, gw: Gateway, cfg: EpisodeConfig,
              log: list[dict]) -> Optional[QATranscript]:
    """Run the decomposition stage and parse its transcript; None, with no
    model call, when ``cfg`` has no decomposition stage.

    In chain-of-thought mode the whole reply becomes a single pseudo-turn
    with an empty question. A reply with no Q/A pair, or an empty
    chain-of-thought reply, is a PlanningFailed error.
    """
    prompt = decomposition_prompt(instruction, cfg)
    if prompt is None:
        return None
    reply = _call(gw, "decompose", prompt, cfg.decode, log)
    if cfg.use_cot:
        text = reply.strip()
        if not text:
            raise PlanningFailed("empty decomposition reply")
        return [["", text]]
    return _parse_qa(reply)


def make_plan(instruction: str, qa: Optional[QATranscript], gw: Gateway,
              cfg: EpisodeConfig, log: list[dict]) -> Plan:
    """Run the planning stage; a reply with no subgoal lines at all is a
    PlanningFailed error."""
    reply = _call(gw, "plan", gen_tp_prompt(instruction, qa, cot=cfg.use_cot),
                  cfg.decode, log)
    try:
        return parse_plan(reply)
    except NoSubgoalsFound as exc:
        raise PlanningFailed(f"planner reply contained no subgoals: {exc}") from exc


def handle_failure(sg: Subgoal, scene: str, observed: set[str],
                   current_plan: Plan, instruction: str, gw: Gateway,
                   cfg: EpisodeConfig, log: list[dict]) -> RecoveryDecision:
    """Decide between redoing the failed subgoal and revising the plan.

    Redo requires both that the subgoal's object has been observed and that
    the scene-conditioned validity check comes back valid; anything else asks
    for feedback and a full revised plan.
    """
    validity = feedback = None
    try:
        raw = _call(gw, "validity", gen_validity_prompt(sg), cfg.decode, log, scene)
        verdict = classify_validity(raw)
        validity = {"verdict": verdict.value, "raw": raw}
        if sg.object in observed and verdict is Verdict.VALID:
            return RecoveryDecision("redo", validity=validity)
        feedback = _call(gw, "feedback", gen_feedback_prompt(sg, verdict),
                         cfg.decode, log, scene)
        if not feedback.strip():
            return RecoveryDecision("abort", validity=validity, reason="feedback_empty")
        replan_prompt = gen_replan_prompt(feedback, current_plan, observed,
                                          verdict, instruction)
        replan = _call(gw, "replan", replan_prompt, cfg.decode, log)
    except GatewayError as exc:
        return RecoveryDecision("abort", validity=validity, feedback=feedback,
                                reason=f"gateway_error: {exc}")
    try:
        new_plan = parse_plan(replan)
    except NoSubgoalsFound:
        return RecoveryDecision("abort", validity=validity, feedback=feedback,
                                reason="replan_unparseable")
    return RecoveryDecision("replan", validity=validity, feedback=feedback,
                            new_plan=new_plan)


def _resume_index(world: WorldState, revised: Plan, executed: list[Subgoal]) -> int:
    """First revised subgoal that still needs doing.

    Walks the revised plan, consuming the history of successfully executed
    subgoals in order; a step that matches history was done (even if its
    effect was transient, like picking up a knife that was put down again),
    and a non-matching step is skipped only while its effect already holds in
    the current world.
    """
    history_pos = 0
    index = 0
    while index < len(revised):
        sg = revised[index]
        if history_pos < len(executed) and executed[history_pos] == sg:
            history_pos += 1
            index += 1
            continue
        if subgoal_effects_satisfied(world, sg):
            index += 1
            continue
        break
    return index


def episode_score(conditions: list[bool]) -> tuple[int, float]:
    """``(sr, gc)``: whether all goal conditions hold, and their mean; ``(0, 0.0)``
    for the empty list of an ``internal_error`` record."""
    return (int(all(conditions)), sum(conditions) / len(conditions)) if conditions else (0, 0.0)


class GoalTracker:
    """The verdict of each goal condition on an episode's latest state, and
    how many do not hold. Built with ``check_goal_conditions`` of the first
    state; ``update`` then re-evaluates only the conditions on the entities a
    step changed, since a condition reads its own object's fields alone."""

    __slots__ = ("verdicts", "unmet", "_on")

    def __init__(self, world: WorldState, scenario: Scenario):
        self.verdicts = check_goal_conditions(world, scenario.goal)
        self.unmet = self.verdicts.count(False)
        self._on = scenario.goal_by_object

    def update(self, world: WorldState, changed: tuple[str, ...]) -> None:
        """Bring the verdicts to ``world``, in which only the entities
        ``changed`` names differ from the state before."""
        verdicts = self.verdicts
        for entity_id in changed:
            for position, cond in self._on.get(entity_id, ()):
                holds = condition_holds(world, cond)
                if holds != verdicts[position]:
                    verdicts[position] = holds
                    self.unmet += -1 if holds else 1


def noise_draw(seed: int, step: int) -> float:
    """Deterministic pseudo-random draw in [0, 1) keyed by (seed, step)."""
    digest = hashlib.sha256(f"{seed}:{step}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def run_episode(scenario: Scenario, gw: Gateway,
                cfg: Optional[EpisodeConfig] = None) -> EpisodeTrace:
    """Run one full episode and return its trace.

    The noise and the decode profile (by default the scenario's ``noise``
    and ``decode_profile``) are resolved first, and the trace echoes them
    with the seed. Step ``k`` (0-based, retries included) fails with
    ``controller_noise`` on an unchanged world when ``noise_draw(seed, k)``
    is below the noise; at noise 0 no draw is made. Failures of any kind
    become recorded outcomes; only an invalid configuration raises. Any other
    exception ends the trace as an ``internal_error`` that keeps what was
    recorded before it.
    """
    cfg = cfg or EpisodeConfig()
    cfg = replace(cfg,
                  noise_override=scenario.noise if cfg.noise_override is None
                  else cfg.noise_override,
                  decode=cfg.decode or scenario.decode_profile)
    trace = EpisodeTrace(
        task_id=scenario.id,
        task_type=scenario.task_type,
        instruction=scenario.instruction,
        config=cfg.to_echo(gw),
    )
    try:
        _play(scenario, gw, cfg, trace)
    except Exception as exc:  # a bug must not sink the batch or lose what was recorded
        # outcome and scores keep their defaults
        trace.abort_reason = f"internal_error: {type(exc).__name__}: {exc}"
    return trace


def _play(scenario: Scenario, gw: Gateway, cfg: EpisodeConfig, trace: EpisodeTrace) -> None:
    # The episode loop of run_episode, on a resolved config; it fills ``trace``.
    world = new_world(scenario)
    tracker = GoalTracker(world, scenario)
    log = trace.llm_log

    def finish(outcome: EpisodeOutcome, abort_reason: Optional[str] = None) -> None:
        # computes before it writes, so a crash in it leaves the defaults in place
        conditions = list(tracker.verdicts)
        sr, gc = episode_score(conditions)
        trace.outcome, trace.abort_reason = outcome.value, abort_reason
        trace.goal_conditions, trace.sr, trace.gc = conditions, sr, gc

    try:
        trace.qa = decompose(scenario.instruction, gw, cfg, log)
        current = make_plan(scenario.instruction, trace.qa, gw, cfg, log)
    except (GatewayError, PlanningFailed) as exc:
        return finish(EpisodeOutcome.PLAN_EXHAUSTED, abort_reason=str(exc))
    trace.initial_plan = [sg.text for sg in current]

    observed: set[str] = set()
    observed_ids: tuple[str, ...] = ()  # sorted(observed), redone only when it grows
    executed: list[Subgoal] = []
    noise = cfg.noise_override
    index = 0
    while index < len(current):
        sg = current[index]
        # a draw is never below a noise of 0, so none is made there
        if noise > 0 and noise_draw(cfg.seed, len(trace.steps)) < noise:
            result = ExecutionResult(world, FailReason.CONTROLLER_NOISE, "controller malfunction")
        else:
            result = apply_subgoal(world, sg)
        world = result.state_after
        visible = detect_objects(world)
        if not visible <= observed:
            observed |= visible
            observed_ids = tuple(sorted(observed))
        scene = render_scene(world, visible)
        record = {
            "subgoal": sg.text,
            "success": result.success,
            "reason": result.reason.value,
            "detail": result.detail,
            "scene": scene,
            "observed": list(observed_ids),
            # what recovery did, written after a failure
            "decision": None, "validity": None, "feedback": None, "replan": None,
        }
        trace.steps.append(record)

        if result.success:
            executed.append(sg)
            index += 1
            tracker.update(world, result.changed)
            if not tracker.unmet:
                return finish(EpisodeOutcome.SUCCESS)
            continue

        trace.failure_count += 1
        if trace.failure_count >= cfg.failure_budget:
            return finish(EpisodeOutcome.BUDGET_EXHAUSTED)
        if not cfg.replanning_enabled:
            index += 1
            continue

        decision = handle_failure(sg, scene, observed, current, scenario.instruction,
                                  gw, cfg, log)
        record.update(decision=decision.kind, validity=decision.validity,
                      feedback=decision.feedback)
        if decision.kind == "redo":
            continue
        if decision.kind == "replan":
            current = decision.new_plan
            record["replan"] = [step.text for step in current]
            index = _resume_index(world, current, executed)
            continue
        return finish(EpisodeOutcome.PLAN_EXHAUSTED, abort_reason=decision.reason)

    finish(EpisodeOutcome.PLAN_EXHAUSTED if tracker.unmet else EpisodeOutcome.SUCCESS)
