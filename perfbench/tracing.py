"""Spans and counters around askplan's layer boundaries, for the traced run.

``install`` replaces each traced function on the name its caller looks it
up by: ``engine`` imports the world, prompting and plans functions by name,
``cli.run_bench`` looks up ``run_episode`` and ``dump_record`` in ``cli``,
``score_dataset`` looks up the matchers in ``planeval``, and the gateway
methods are patched on their classes. The benchmark itself calls
``cli.load_tasks``, ``cli.run_bench``, ``cli.read_traces``,
``gateway.load_script`` and ``planeval.score_dataset`` through their modules,
so those calls are traced too.

A span holds a name, its start and end, and the span it ran in. Spans stay in
memory until ``write_spans``. A span's self time is its duration minus the
part of it that its child spans cover; a span that starts on a worker thread
with nothing open there is a child of the innermost span open on the main
thread, which is where ``run_bench`` waits for its pool.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from askplan import cli, engine, gateway, planeval

WORLD = ("new_world", "apply_subgoal", "detect_objects", "render_scene",
         "check_goal_conditions", "subgoal_effects_satisfied")
PROMPTS = ("gen_std_prompt", "gen_tp_prompt", "gen_validity_prompt",
           "gen_feedback_prompt", "gen_replan_prompt")

# Every function span, in report order. Those named in SETUP_SPANS run only
# while the workload is set up and are reported per set-up; the rest are
# reported per operation.
SPANS = (
    *(f"world.{name}" for name in WORLD),
    "engine.run_episode", "engine.EpisodeTrace.to_record",
    *(f"prompting.{name}" for name in PROMPTS),
    "plans.parse_plan",
    "gateway.complete", "gateway.complete_multimodal",
    "gateway.OracleScript.reply_for", "gateway.load_script",
    "planeval.compile_relaxed_spec", "planeval.relaxed_match",
    "planeval.strict_match", "planeval.score_dataset",
    "cli.load_tasks", "cli.run_bench", "cli.dump_record", "cli.read_traces",
)
SETUP_SPANS = ("gateway.load_script", "cli.load_tasks")

# name -> (unit, better) for every per-layer metric the traced run prints.
PER_LAYER = {}
for _name in SPANS:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.ms"] = ("ms", "lower")
PER_LAYER.update({
    "world.entities_per_step": ("count", "lower"),
    "engine.redo": ("count", "lower"),
    "engine.replan": ("count", "lower"),
    "gateway.http.server_ms": ("ms", "lower"),
    "gateway.http.client_ms": ("ms", "lower"),
    "gateway.http.connections_per_call": ("count", "lower"),
    "gateway.http.requests_per_call": ("count", "lower"),
    "planeval.relaxed_match.nomatch_ms": ("ms", "lower"),
    "cli.trace_bytes": ("bytes", "lower"),
    "traced.ops_per_s": ("1/s", "higher"),
})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span, tag]
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def span(self, name: str, fn, tag=None):
        """Wrap ``fn`` in a span; ``tag(args, result)`` may label the span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            record = [name, time.perf_counter(), 0.0, parent, None]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                self.spans.append(record)
            if tag is not None:
                record[4] = tag(args, result)
            return result
        return wrapper

    def take(self) -> tuple[list[list], dict[str, float]]:
        """Return the spans and counts so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts

    def install(self) -> None:
        for name in WORLD:
            setattr(engine, name, self.span(f"world.{name}", getattr(engine, name),
                                            self._entities if name == "apply_subgoal"
                                            else None))
        for name in PROMPTS:
            setattr(engine, name, self.span(f"prompting.{name}", getattr(engine, name)))
        engine.parse_plan = self.span("plans.parse_plan", engine.parse_plan)
        engine.handle_failure = self._decisions(engine.handle_failure)
        engine.EpisodeTrace.to_record = self.span("engine.EpisodeTrace.to_record",
                                                  engine.EpisodeTrace.to_record)
        cli.run_episode = self.span("engine.run_episode", cli.run_episode)
        for cls in (gateway.ScriptedGateway, gateway.HttpGateway):
            cls.complete = self.span("gateway.complete", cls.complete)
            cls.complete_multimodal = self.span("gateway.complete_multimodal",
                                                cls.complete_multimodal)
        gateway.OracleScript.reply_for = self.span("gateway.OracleScript.reply_for",
                                                   gateway.OracleScript.reply_for)
        gateway.load_script = self.span("gateway.load_script", gateway.load_script)
        for name in ("compile_relaxed_spec", "strict_match", "score_dataset"):
            setattr(planeval, name, self.span(f"planeval.{name}", getattr(planeval, name)))
        planeval.relaxed_match = self.span(
            "planeval.relaxed_match", planeval.relaxed_match,
            lambda args, matched: None if matched else "nomatch")
        for name in ("load_tasks", "run_bench", "read_traces"):
            setattr(cli, name, self.span(f"cli.{name}", getattr(cli, name)))
        cli.dump_record = self.span("cli.dump_record", cli.dump_record, self._bytes)

    def _entities(self, args, result) -> None:
        self.count("world.entities", len(args[0].entities))

    def _bytes(self, args, line) -> None:
        self.count("cli.trace_bytes", len(line.encode("utf-8")) + 1)

    def _decisions(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            decision = fn(*args, **kwargs)
            self.count(f"engine.{decision.kind}")
            return decision
        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span, in seconds, aligned with ``spans``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[id(span[3])].append((span[1], span[2]))
    out = []
    for span in spans:
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(id(span), ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def per_layer(setup: tuple[list, dict], timed: tuple[list, dict], setups: int,
              ops: int) -> dict[str, float]:
    """Per-layer metrics from the set-up spans and the timed spans."""
    values = {name: 0.0 for name in PER_LAYER}
    for (spans, _), divisor, wanted in ((setup, setups, True), (timed, ops, False)):
        for span, own in zip(spans, self_times(spans)):
            if (span[0] in SETUP_SPANS) != wanted:
                continue
            values[f"{span[0]}.calls"] += 1 / divisor
            values[f"{span[0]}.ms"] += 1000 * own / divisor
            if span[4] == "nomatch":
                values["planeval.relaxed_match.nomatch_ms"] += 1000 * own / divisor
    counts = timed[1]
    steps = values["world.apply_subgoal.calls"] * ops
    if steps:
        values["world.entities_per_step"] = counts.get("world.entities", 0) / steps
    for name in ("engine.redo", "engine.replan", "cli.trace_bytes"):
        values[name] = counts.get(name, 0) / ops
    return values


def write_spans(spans: list[list], path) -> None:
    """One line per span: index, name, start and end in microseconds, parent
    index (-1 for none)."""
    index = {id(span): k for k, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as handle:
        for k, (name, start, end, parent, _) in enumerate(spans):
            parent_index = -1 if parent is None else index.get(id(parent), -1)
            handle.write(f"{k}\t{name}\t{start * 1e6:.1f}\t{end * 1e6:.1f}\t{parent_index}\n")
