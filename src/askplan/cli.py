"""Benchmark command line: run scenario sets against a gateway, score trace
files, replay single trace lines, and dump rendered prompts.

Exit codes: 0 on success, 2 for configuration errors (bad flags, missing or
malformed input files), 3 for I/O errors while writing results.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .engine import (
    TRACE_SCHEMA_VERSION,
    EpisodeConfig,
    EpisodeTrace,
    SchemaMismatch,
    checked_field,
    run_episode,
)
from .gateway import (
    Gateway,
    HttpGateway,
    HttpGatewayConfig,
    MalformedScript,
    ScriptedGateway,
    load_script,
)
from .planeval import AnnotationError, MissingGroundTruth, score_dataset
from .plans import PlanParseError
from .prompting import QATranscript, RenderedPrompt, gen_cot_prompt, gen_std_prompt, \
    gen_tp_no_std_prompt, gen_tp_prompt
from .world import InvalidScenario, Scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


class MalformedTaskSet(ValueError):
    def __init__(self, scenario_id: str, detail: str):
        super().__init__(f"task set invalid at scenario {scenario_id!r}: {detail}")
        self.scenario_id = scenario_id
        self.detail = detail


@dataclass
class TaskSet:
    name: str
    version: str
    scenarios: list[Scenario]


@dataclass
class RunConfig:
    episode: EpisodeConfig
    gateway: Gateway
    seed: int
    out_dir: Path
    parallelism: int = 1


def load_tasks(path: str | Path) -> TaskSet:
    """Parse a task file and invariant-check every scenario in it."""
    try:
        data = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedTaskSet("<file>", f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedTaskSet("<file>", "the root must be a JSON object")
    raw_scenarios = data.get("scenarios")
    if not isinstance(raw_scenarios, list):
        raise MalformedTaskSet("<file>", "'scenarios' must be a list")
    scenarios: list[Scenario] = []
    seen: set[str] = set()
    for index, raw in enumerate(raw_scenarios):
        if not isinstance(raw, dict):
            raise MalformedTaskSet(f"#{index}", "a scenario must be a JSON object")
        scenario_id = str(raw.get("id", "<missing id>"))
        if scenario_id in seen:
            raise MalformedTaskSet(scenario_id, "duplicate scenario id")
        seen.add(scenario_id)
        try:
            scenarios.append(Scenario.from_dict(raw))
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedTaskSet(scenario_id, str(exc)) from exc
    return TaskSet(
        name=str(data.get("name", Path(path).stem)),
        version=str(data.get("version", "0")),
        scenarios=scenarios,
    )


def episode_seed(global_seed: int, index: int) -> int:
    """Per-episode seed, stable in the task order regardless of scheduling."""
    return (global_seed * 1_000_003 + index) % 2 ** 63


def run_bench(tasks: TaskSet, cfg: RunConfig) -> Path:
    """Run every scenario and write one canonical JSON line per task, in task
    order no matter how execution interleaves. Per-episode problems land in
    the trace; only configuration errors abort the batch."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / "traces.jsonl"

    def one(pair: tuple[int, Scenario]) -> tuple[int, dict]:
        index, scenario = pair
        seed = episode_seed(cfg.seed, index)
        episode_cfg = replace(cfg.episode, seed=seed)
        try:
            record = run_episode(scenario, cfg.gateway, episode_cfg).to_record()
        except Exception as exc:  # defensive: a bug must not sink the batch
            record = EpisodeTrace(scenario.id, scenario.task_type, scenario.instruction,
                                  seed, {}, abort_reason=f"internal_error: {exc}").to_record()
        return index, record

    records: list[Optional[dict]] = [None] * len(tasks.scenarios)
    if cfg.parallelism <= 1:
        for pair in enumerate(tasks.scenarios):
            index, record = one(pair)
            records[index] = record
    else:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            for index, record in pool.map(one, enumerate(tasks.scenarios)):
                records[index] = record
    with out_path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(dump_record(record) + "\n")
    return out_path


def dump_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def read_traces(path: str | Path) -> list[dict]:
    """Parse a trace file; raises SchemaMismatch, with the line number, on a
    line that is not a schema-1 record whose scored fields are well typed."""
    records = []
    for number, line in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaMismatch(f"trace line {number} is not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise SchemaMismatch(f"trace line {number} is not a JSON object")
        if record.get("schema_version") != TRACE_SCHEMA_VERSION:
            raise SchemaMismatch(
                f"trace line {number}: schema {record.get('schema_version')!r} is not "
                f"{TRACE_SCHEMA_VERSION} (task {record.get('task_id')!r})")
        where = f"trace line {number}"
        checked_field(record, "task_id", str, where)
        checked_field(record, "sr", int, where)
        checked_field(record, "gc", (int, float), where)
        if "task_type" in record:
            checked_field(record, "task_type", str, where)
        plan = checked_field(record, "initial_plan", (list, type(None)), where)
        if not all(isinstance(line, str) for line in plan or ()):
            raise SchemaMismatch(f"{where}: initial_plan must be a list of strings")
        records.append(record)
    return records


def _build_gateway(args: argparse.Namespace) -> Gateway:
    if args.gateway == "scripted":
        if not args.script:
            raise MalformedScript("--script is required with the scripted gateway")
        return ScriptedGateway(load_script(args.script), script_path=str(args.script))
    if not args.endpoint or not args.model:
        raise MalformedScript("--endpoint and --model are required with the http gateway")
    return HttpGateway(HttpGatewayConfig(
        endpoint=args.endpoint,
        model=args.model,
        api_key_env=args.api_key_env,
        timeout_s=args.timeout,
        retries=args.retries,
    ))


def _episode_config(args: argparse.Namespace) -> EpisodeConfig:
    return EpisodeConfig(
        replanning_enabled=not args.static,
        use_std=not args.no_std,
        use_cot=args.cot,
        noise_override=args.noise,
    )


def cmd_run(args: argparse.Namespace) -> int:
    tasks = load_tasks(args.tasks)
    gateway = _build_gateway(args)
    cfg = RunConfig(
        episode=_episode_config(args),
        gateway=gateway,
        seed=args.seed,
        out_dir=Path(args.out),
        parallelism=args.parallel,
    )
    out_path = run_bench(tasks, cfg)
    for line in out_path.read_text("utf-8").splitlines():
        record = json.loads(line)
        print(f"{record['task_id']}: {record['outcome']} "
              f"sr={record['sr']} gc={record['gc']:.3f}")
    print(f"traces written to {out_path}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    records = read_traces(args.traces)
    tasks = load_tasks(args.tasks)
    gts = {scenario.id: scenario.gt for scenario in tasks.scenarios}
    report = score_dataset(records, gts)
    out_dir = Path(args.out) if args.out else Path(args.traces).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    report_path.write_text(text + "\n", "utf-8")
    if args.format == "json":
        print(text)
    else:
        print(report.format_table())
    print(f"report written to {report_path}", file=sys.stderr)
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    records = read_traces(args.traces)
    if not 1 <= args.line <= len(records):
        print(f"error: --line must be in 1..{len(records)}", file=sys.stderr)
        return EXIT_CONFIG
    record = records[args.line - 1]
    tasks = load_tasks(args.tasks)
    by_id = {scenario.id: scenario for scenario in tasks.scenarios}
    scenario = by_id.get(record.get("task_id"))
    if scenario is None:
        raise MissingGroundTruth(record.get("task_id"))
    echo = record.get("config")
    cfg = EpisodeConfig.from_echo(echo)
    gateway_echo = echo.get("gateway")
    if not isinstance(gateway_echo, dict) or gateway_echo.get("kind") != "scripted":
        print("error: only traces produced with the scripted gateway can be replayed",
              file=sys.stderr)
        return EXIT_CONFIG
    script_path = args.script or gateway_echo.get("script")
    if not script_path:
        print("error: trace does not record a script path; pass --script",
              file=sys.stderr)
        return EXIT_CONFIG
    gateway = ScriptedGateway(load_script(script_path), script_path=str(script_path))
    rerun = run_episode(scenario, gateway, cfg).to_record()
    # The recorded script path must win over the one used for this replay,
    # otherwise passing an equivalent script from another location would
    # spuriously fail the comparison.
    rerun["config"]["gateway"]["script"] = gateway_echo.get("script")
    if dump_record(rerun) == dump_record(record):
        print(f"replay of line {args.line} ({record['task_id']}): identical")
        return EXIT_OK
    print(f"replay of line {args.line} ({record['task_id']}): DIVERGED")
    for key in sorted(set(rerun) | set(record)):
        if dump_record({key: rerun.get(key)}) != dump_record({key: record.get(key)}):
            print(f"  field {key!r} differs")
    return 1


_SAMPLE_QA = QATranscript((
    ("Which sub-tasks make up the instruction?",
     "(answer produced by the decomposition stage at run time)"),
))
_SAMPLE_COT = QATranscript((
    ("", "(step-by-step decomposition produced at run time)"),
))


def _prompt_block(title: str, prompt: RenderedPrompt) -> str:
    return (f"### {title}\n[system]\n{prompt.system_text}\n[user]\n"
            f"{prompt.user_text}\n")


def cmd_prompts(args: argparse.Namespace) -> int:
    tasks = load_tasks(args.tasks)
    if not tasks.scenarios:
        print("error: task set is empty", file=sys.stderr)
        return EXIT_CONFIG
    if args.id:
        matches = [s for s in tasks.scenarios if s.id == args.id]
        if not matches:
            print(f"error: no scenario with id {args.id!r}", file=sys.stderr)
            return EXIT_CONFIG
        scenario = matches[0]
    else:
        scenario = tasks.scenarios[0]

    blocks: list[tuple[str, str]] = []
    instruction = scenario.instruction
    if args.cot:
        blocks.append(("decomposer", _prompt_block("decomposer (chain-of-thought)",
                                                   gen_cot_prompt(instruction))))
        blocks.append(("planner", _prompt_block(
            "planner", gen_tp_prompt(instruction, _SAMPLE_COT, cot=True))))
    elif args.no_std:
        blocks.append(("planner", _prompt_block(
            "planner (no decomposition)", gen_tp_no_std_prompt(instruction))))
    else:
        blocks.append(("decomposer", _prompt_block("decomposer",
                                                   gen_std_prompt(instruction))))
        blocks.append(("planner", _prompt_block(
            "planner", gen_tp_prompt(instruction, _SAMPLE_QA))))

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in blocks:
            (out_dir / f"{name}.txt").write_text(text, "utf-8")
        print(f"prompts written to {out_dir}")
    else:
        for _, text in blocks:
            print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="askplan",
        description="Run, score, replay and inspect planning episodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run every scenario in a task set")
    run_p.add_argument("--tasks", required=True, help="task set JSON file")
    run_p.add_argument("--gateway", choices=["http", "scripted"], default="scripted")
    run_p.add_argument("--script", help="oracle script (scripted gateway)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--static", action="store_true",
                       help="disable failure-driven re-planning")
    run_p.add_argument("--no-std", action="store_true", dest="no_std",
                       help="skip the self-questioning decomposition stage")
    run_p.add_argument("--cot", action="store_true",
                       help="replace self-QA decomposition with step-by-step text")
    run_p.add_argument("--noise", type=float, default=None,
                       help="override per-action controller failure probability")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--parallel", type=int, default=1)
    run_p.add_argument("--endpoint", help="chat-completion URL (http gateway)")
    run_p.add_argument("--model", help="model name (http gateway)")
    run_p.add_argument("--api-key-env", default="ASKPLAN_API_KEY",
                       help="environment variable holding the API key")
    run_p.add_argument("--timeout", type=float, default=60.0)
    run_p.add_argument("--retries", type=int, default=3)
    run_p.set_defaults(func=cmd_run)

    score_p = sub.add_parser("score", help="score a trace file against its task set")
    score_p.add_argument("--traces", required=True)
    score_p.add_argument("--tasks", required=True)
    score_p.add_argument("--format", choices=["json", "table"], default="table")
    score_p.add_argument("--out", help="directory for report.json (default: next to traces)")
    score_p.set_defaults(func=cmd_score)

    replay_p = sub.add_parser("replay", help="re-execute one trace line and compare")
    replay_p.add_argument("--traces", required=True)
    replay_p.add_argument("--tasks", required=True)
    replay_p.add_argument("--line", type=int, required=True, help="1-based trace line")
    replay_p.add_argument("--script", help="override the recorded script path")
    replay_p.set_defaults(func=cmd_replay)

    prompts_p = sub.add_parser("prompts",
                               help="dump rendered prompts without calling any model")
    prompts_p.add_argument("--tasks", required=True)
    prompts_p.add_argument("--id", help="scenario id (default: first)")
    prompts_p.add_argument("--no-std", action="store_true", dest="no_std")
    prompts_p.add_argument("--cot", action="store_true")
    prompts_p.add_argument("--out", help="directory to write prompt files into")
    prompts_p.set_defaults(func=cmd_prompts)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedTaskSet, MalformedScript, SchemaMismatch, MissingGroundTruth,
            InvalidScenario, AnnotationError, PlanParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
