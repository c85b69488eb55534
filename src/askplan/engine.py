"""Episode orchestration: decompose the instruction, plan, execute subgoal by
subgoal, and recover from failures by retrying or re-planning.

The recovery rule is deliberate: after a failed step, a scene-conditioned
validity check runs; when the target object has already been observed and the
verdict is valid, the failure is attributed to the controller and the step is
redone. Otherwise feedback is requested and the plan is revised, with
execution resuming at the first revised subgoal that is neither already
executed nor already satisfied in the current world. A global failure budget
bounds every episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .gateway import Completion, DecodeParams, Gateway, GatewayError, request_text
from .plans import (
    NoSubgoalsFound,
    Plan,
    Subgoal,
    parse_plan,
    render_subgoal,
)
from .prompting import (
    Feedback,
    QATranscript,
    RenderedPrompt,
    Validity,
    Verdict,
    classify_validity,
    gen_cot_prompt,
    gen_feedback_prompt,
    gen_replan_prompt,
    gen_std_prompt,
    gen_tp_no_std_prompt,
    gen_tp_prompt,
    gen_validity_prompt,
)
from .world import (
    FailReason,
    SceneSnapshot,
    Scenario,
    WorldState,
    apply_subgoal,
    check_goal_conditions,
    detect_objects,
    new_world,
    render_scene,
    subgoal_effects_satisfied,
)

TRACE_SCHEMA_VERSION = 1


class PlanningFailed(RuntimeError):
    pass


class MalformedTranscript(ValueError):
    pass


class SchemaMismatch(ValueError):
    pass


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
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.failure_budget < 1:
            raise ValueError("failure_budget must be positive")
        if self.noise_override is not None and not 0.0 <= self.noise_override <= 1.0:
            raise ValueError("noise override must be in [0, 1]")

    def to_echo(self, gw: Gateway) -> dict:
        """The ``config`` field of a trace record. ``run_episode`` echoes its
        resolved config, so ``noise``, ``seed`` and ``decode`` are always set."""
        return {
            "failure_budget": self.failure_budget,
            "replanning_enabled": self.replanning_enabled,
            "use_std": self.use_std,
            "use_cot": self.use_cot,
            "noise": self.noise_override,
            "seed": self.seed,
            "decode": {
                "temperature": self.decode.temperature,
                "max_tokens": self.decode.max_tokens,
                "token_bias": dict(sorted(self.decode.token_bias.items())),
            },
            "gateway": gw.describe(),
        }

    @staticmethod
    def from_echo(echo: dict) -> "EpisodeConfig":
        """Inverse of ``to_echo`` (the gateway echo is left to the caller).
        Raises SchemaMismatch on a missing, ill-typed or out-of-range field."""
        decode = checked_field(echo, "decode", dict)
        bias = checked_field(decode, "token_bias", dict)
        for token in bias:
            checked_field(bias, token, _NUMBER)
        fields = dict(
            failure_budget=checked_field(echo, "failure_budget", int),
            replanning_enabled=checked_field(echo, "replanning_enabled", bool),
            use_std=checked_field(echo, "use_std", bool),
            use_cot=checked_field(echo, "use_cot", bool),
            noise_override=checked_field(echo, "noise", _NUMBER),
            seed=checked_field(echo, "seed", int),
        )
        temperature = checked_field(decode, "temperature", _NUMBER)
        max_tokens = checked_field(decode, "max_tokens", int)
        try:
            return EpisodeConfig(decode=DecodeParams(temperature, bias, max_tokens), **fields)
        except ValueError as exc:
            raise SchemaMismatch(f"config echo: {exc}") from exc


_NUMBER = (int, float)


def checked_field(data: object, key: str, kind: type | tuple[type, ...],
                  where: str = "config echo"):
    """``data[key]`` when ``data`` is a dict and the value is a ``kind``;
    otherwise SchemaMismatch naming ``where`` the field was read."""
    # bool is an int subclass, so a flag never passes for a number or back
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise SchemaMismatch(f"{where} field {key!r} is missing or ill-typed: {value!r}")
    return value


@dataclass
class RecoveryDecision:
    kind: str  # "redo" | "replan" | "abort"
    validity: Optional[Validity] = None
    feedback: Optional[Feedback] = None
    new_plan: Optional[Plan] = None
    reason: Optional[str] = None


@dataclass
class StepRecord:
    subgoal: Subgoal
    success: bool
    reason: FailReason
    detail: str
    scene: str
    observed: tuple[str, ...]
    decision: Optional[str] = None
    validity: Optional[Validity] = None
    feedback: Optional[str] = None
    replan: Optional[tuple[Subgoal, ...]] = None

    def to_dict(self) -> dict:
        return {
            "subgoal": render_subgoal(self.subgoal),
            "success": self.success,
            "reason": self.reason.value,
            "detail": self.detail,
            "scene": self.scene,
            "observed": list(self.observed),
            "decision": self.decision,
            "validity": None if self.validity is None else {
                "verdict": self.validity.verdict.value,
                "raw": self.validity.raw,
            },
            "feedback": self.feedback,
            "replan": None if self.replan is None else
            [render_subgoal(sg) for sg in self.replan],
        }


@dataclass
class EpisodeTrace:
    task_id: str
    task_type: str
    instruction: str
    seed: int
    config: dict
    qa: Optional[QATranscript] = None
    initial_plan: Optional[Plan] = None
    steps: list[StepRecord] = field(default_factory=list)
    failure_count: int = 0
    outcome: EpisodeOutcome = EpisodeOutcome.PLAN_EXHAUSTED
    abort_reason: Optional[str] = None
    sr: int = 0
    gc: float = 0.0
    goal_conditions: list[bool] = field(default_factory=list)
    llm_log: list[dict] = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "task_id": self.task_id,
            "task_type": self.task_type,
            "instruction": self.instruction,
            "seed": self.seed,
            "config": self.config,
            "qa": None if self.qa is None else [list(turn) for turn in self.qa.turns],
            "initial_plan": None if self.initial_plan is None else
            [render_subgoal(sg) for sg in self.initial_plan.steps],
            "steps": [step.to_dict() for step in self.steps],
            "failure_count": self.failure_count,
            "outcome": self.outcome.value,
            "abort_reason": self.abort_reason,
            "sr": self.sr,
            "gc": self.gc,
            "goal_conditions": list(self.goal_conditions),
            "llm_log": self.llm_log,
        }


def _call(gw: Gateway, stage: str, prompt: RenderedPrompt, params: DecodeParams,
          log: list[dict], scene: Optional[SceneSnapshot] = None) -> Completion:
    # Request goes into the log before the call, the reply right after it
    # returns, so a crashed call still leaves its request on record.
    log.append({"direction": "req", "stage": stage, "text": request_text(prompt, scene)})
    if scene is None:
        completion = gw.complete(prompt, params)
    else:
        completion = gw.complete_multimodal(prompt, scene, params)
    log.append({"direction": "res", "stage": stage, "text": completion.text})
    return completion


def _parse_qa(text: str) -> QATranscript:
    turns: list[tuple[str, str]] = []
    question: Optional[str] = None
    answer: Optional[str] = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.lower().startswith("q:"):
            if question is not None and answer is not None:
                turns.append((question, answer))
            question, answer = stripped[2:].strip(), None
        elif stripped.lower().startswith("a:"):
            if question is not None:
                answer = stripped[2:].strip()
        elif stripped and answer is not None:
            answer = f"{answer} {stripped}"
        elif stripped and question is not None and answer is None:
            question = f"{question} {stripped}"
    if question is not None and answer is not None:
        turns.append((question, answer))
    if not turns:
        raise MalformedTranscript("no Q/A pairs found in the decomposition reply")
    return QATranscript(tuple(turns))


def decompose(instruction: str, gw: Gateway, cfg: EpisodeConfig,
              log: list[dict]) -> QATranscript:
    """Run the decomposition stage and parse its transcript.

    In chain-of-thought mode the whole reply becomes a single pseudo-turn
    with an empty question.
    """
    prompt = gen_cot_prompt(instruction) if cfg.use_cot else gen_std_prompt(instruction)
    completion = _call(gw, "decompose", prompt, cfg.decode, log)
    if cfg.use_cot:
        text = completion.text.strip()
        if not text:
            raise MalformedTranscript("empty decomposition reply")
        return QATranscript((("", text),))
    return _parse_qa(completion.text)


def make_plan(instruction: str, qa: Optional[QATranscript], gw: Gateway,
              cfg: EpisodeConfig, log: list[dict]) -> Plan:
    """Run the planning stage; a completion with no subgoal lines at all is a
    PlanningFailed error."""
    if qa is not None:
        prompt = gen_tp_prompt(instruction, qa, cot=cfg.use_cot)
    else:
        prompt = gen_tp_no_std_prompt(instruction)
    completion = _call(gw, "plan", prompt, cfg.decode, log)
    try:
        plan, _ = parse_plan(completion.text)
    except NoSubgoalsFound as exc:
        raise PlanningFailed(f"planner reply contained no subgoals: {exc}") from exc
    return plan


def handle_failure(sg: Subgoal, scene: SceneSnapshot, observed: set[str],
                   current_plan: Plan, instruction: str, gw: Gateway,
                   cfg: EpisodeConfig, log: list[dict]) -> RecoveryDecision:
    """Decide between redoing the failed subgoal and revising the plan.

    Redo requires both that the subgoal's object has been observed and that
    the scene-conditioned validity check comes back valid; anything else asks
    for feedback and a full revised plan.
    """
    try:
        v_completion = _call(gw, "validity", gen_validity_prompt(sg), cfg.decode, log, scene)
    except GatewayError as exc:
        return RecoveryDecision("abort", reason=f"gateway_error: {exc}")
    validity = classify_validity(v_completion.text)
    if sg.object in observed and validity.verdict is Verdict.VALID:
        return RecoveryDecision("redo", validity=validity)
    try:
        f_completion = _call(gw, "feedback", gen_feedback_prompt(sg, validity),
                             cfg.decode, log, scene)
        feedback = Feedback(f_completion.text)
        replan_prompt = gen_replan_prompt(feedback, current_plan, observed,
                                          validity, instruction)
        r_completion = _call(gw, "replan", replan_prompt, cfg.decode, log)
    except GatewayError as exc:
        return RecoveryDecision("abort", validity=validity,
                                reason=f"gateway_error: {exc}")
    try:
        new_plan, _ = parse_plan(r_completion.text)
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
    while index < len(revised.steps):
        sg = revised.steps[index]
        if history_pos < len(executed) and executed[history_pos] == sg:
            history_pos += 1
            index += 1
            continue
        if subgoal_effects_satisfied(world, sg):
            index += 1
            continue
        break
    return index


def run_episode(scenario: Scenario, gw: Gateway,
                cfg: Optional[EpisodeConfig] = None) -> EpisodeTrace:
    """Run one full episode and return its trace.

    Mid-episode failures of any kind (controller, gateway, unparseable
    replies) become recorded outcomes rather than exceptions; only an invalid
    scenario or configuration raises before the loop starts.
    """
    cfg = cfg or EpisodeConfig()
    world = new_world(scenario)
    if cfg.seed is not None:
        world.noise_seed = cfg.seed
    if cfg.noise_override is not None:
        world.noise_p = cfg.noise_override
    cfg = replace(cfg, seed=world.noise_seed, noise_override=world.noise_p,
                  decode=cfg.decode or DecodeParams.for_vocab(scenario.vocabulary))
    log: list[dict] = []
    trace = EpisodeTrace(
        task_id=scenario.id,
        task_type=scenario.task_type,
        instruction=scenario.instruction,
        seed=cfg.seed,
        config=cfg.to_echo(gw),
        llm_log=log,
    )

    def finish(outcome: EpisodeOutcome, abort_reason: Optional[str] = None) -> EpisodeTrace:
        conditions = check_goal_conditions(world, scenario.goal)
        trace.outcome = outcome
        trace.abort_reason = abort_reason
        trace.goal_conditions = conditions
        trace.sr = 1 if all(conditions) else 0
        trace.gc = sum(conditions) / len(conditions)
        return trace

    try:
        qa = None
        if cfg.use_cot or cfg.use_std:
            qa = decompose(scenario.instruction, gw, cfg, log)
        trace.qa = qa
        current = make_plan(scenario.instruction, qa, gw, cfg, log)
    except (GatewayError, PlanningFailed, MalformedTranscript) as exc:
        return finish(EpisodeOutcome.PLAN_EXHAUSTED, abort_reason=str(exc))
    trace.initial_plan = current

    observed: set[str] = set()
    executed: list[Subgoal] = []
    index = 0
    while index < len(current.steps):
        sg = current.steps[index]
        result = apply_subgoal(world, sg)
        world = result.state_after
        observed |= detect_objects(world)
        scene = render_scene(world)
        record = StepRecord(
            subgoal=sg,
            success=result.success,
            reason=result.reason,
            detail=result.detail,
            scene=scene.description,
            observed=tuple(sorted(observed)),
        )
        trace.steps.append(record)

        if result.success:
            executed.append(sg)
            index += 1
            if all(check_goal_conditions(world, scenario.goal)):
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
        record.decision = decision.kind
        record.validity = decision.validity
        if decision.kind == "redo":
            continue
        if decision.kind == "replan":
            record.feedback = decision.feedback.raw
            record.replan = decision.new_plan.steps
            current = decision.new_plan
            index = _resume_index(world, current, executed)
            continue
        if decision.feedback is not None:
            record.feedback = decision.feedback.raw
        return finish(EpisodeOutcome.PLAN_EXHAUSTED, abort_reason=decision.reason)

    final = EpisodeOutcome.SUCCESS if all(check_goal_conditions(world, scenario.goal)) \
        else EpisodeOutcome.PLAN_EXHAUSTED
    return finish(final)
