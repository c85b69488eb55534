"""Benchmark command line: run scenario sets against a gateway, score trace
files, replay single trace lines, and dump rendered prompts.

Exit codes: 0 on success, 1 when ``replay`` finds a divergence, 2 for
anything wrong with a flag or an input file (missing, unreadable, not UTF-8,
not JSON, or not of the documented shape), 3 for I/O errors while writing
results.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import zip_longest
from pathlib import Path
from typing import Optional

from .engine import (
    TRACE_SCHEMA_VERSION,
    EpisodeConfig,
    decomposition_prompt,
    episode_score,
    run_episode,
)
from .gateway import (
    Gateway,
    HttpGateway,
    HttpGatewayConfig,
    ScriptedGateway,
    canonical_json,
    echo_text,
    endpoint_parts,
    load_script,
)
from .inputs import (MAX_JSON_INT, NUMBER, MalformedInput, checked_field, read_json,
                     read_json_lines, reject_unknown_keys)
from .planeval import score_dataset
from .plans import PlanParseError
from .prompting import RenderedPrompt, gen_tp_prompt
from .world import Scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


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
    """Read a task file and invariant-check every scenario in it; raises
    MalformedInput naming the scenario (or ``<file>``) at fault."""
    label = "<file>"
    scenarios: list[Scenario] = []
    seen: set[str] = set()
    try:
        data = read_json(path)
        reject_unknown_keys(data, {"name", "version", "scenarios"}, "task set")
        name = checked_field(data, "name", str, "task set", Path(path).stem)
        version = checked_field(data, "version", str, "task set", "0")
        for index, raw in enumerate(checked_field(data, "scenarios", list, "task set")):
            label = f"#{index}"  # until the id is read
            label = checked_field(raw, "id", str, "scenario")
            if label in seen:
                raise MalformedInput("duplicate scenario id")
            seen.add(label)
            scenarios.append(Scenario.from_dict(raw))
    except (MalformedInput, PlanParseError) as exc:  # PlanParseError: a gt core line
        raise MalformedInput(f"task set invalid at scenario {label!r}: {exc}") from exc
    return TaskSet(name, version, scenarios)


def episode_seed(global_seed: int, index: int) -> int:
    """Per-episode seed, stable in the task order regardless of scheduling,
    and in [0, MAX_JSON_INT] whatever the global seed."""
    return (global_seed * 1_000_003 + index) % (MAX_JSON_INT + 1)


def run_episodes(tasks: TaskSet, cfg: RunConfig) -> list[dict]:
    """Run every scenario and return the trace record of each, in task order
    no matter how execution interleaves. Per-episode problems, crashes
    included, land in the episode's own trace (see ``run_episode``); only
    configuration errors abort the batch. Each record's ``config.decode`` is
    its scenario's shared profile echo, never written (see ``dump_record``,
    which writes the same bytes for any record)."""
    def one(index: int, scenario: Scenario) -> dict:
        episode_cfg = replace(cfg.episode, seed=episode_seed(cfg.seed, index))
        return run_episode(scenario, cfg.gateway, episode_cfg).to_record()

    indices = range(len(tasks.scenarios))
    if cfg.parallelism <= 1:
        return list(map(one, indices, tasks.scenarios))
    with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
        return list(pool.map(one, indices, tasks.scenarios))


def write_traces(records: list[dict], out_dir: Path) -> Path:
    """Write one canonical JSON line per record, in order, to
    ``out_dir/traces.jsonl``, making ``out_dir`` when it is missing."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "traces.jsonl"
    write_output(out_path, "".join(dump_record(record) + "\n" for record in records))
    return out_path


def run_bench(tasks: TaskSet, cfg: RunConfig) -> Path:
    """``run_episodes``, then ``write_traces`` of their records into
    ``cfg.out_dir``; returns the trace file's path."""
    return write_traces(run_episodes(tasks, cfg), cfg.out_dir)


def dump_record(record: dict) -> str:
    """A record's trace line, without its newline. It writes the same bytes
    for any record: those of ``json.dumps(record, sort_keys=True,
    separators=(",", ":"), allow_nan=False)``. A record's ``config.decode``
    is its scenario's shared profile echo (``DecodeParams.echo``), which
    like the package's other values is never written, so while the profile
    lives its kept text is spliced in and its bias map is not encoded
    again. Any other record (read from a file, or with a copied or edited
    ``config.decode``) is encoded whole."""
    config = record.get("config")
    text = echo_text(config.get("decode")) if type(config) is dict else None
    if text is None:
        return canonical_json(record)
    return _spliced(record, "config", _spliced(config, "decode", text))


def _spliced(obj: dict, key: str, text: str) -> str:
    """``canonical_json(obj)``, given ``text``, the encoding of ``obj[key]``;
    ``key`` needs no JSON escape. A key that is no str raises the TypeError
    that the encoder's sort raises."""
    head = canonical_json({k: v for k, v in obj.items() if k < key})[:-1]
    tail = canonical_json({k: v for k, v in obj.items() if k > key})[1:]
    return (f'{head}{"," if len(head) > 1 else ""}"{key}":{text}'
            f'{"," if len(tail) > 1 else ""}{tail}')


def write_output(path: Path, text: str) -> None:
    """Replace the file at ``path`` with ``text``, in one write. The old file
    is unlinked first, not truncated in place: a reader that has it open
    keeps a complete copy, a symlink or hard link at ``path`` is replaced
    rather than written through, and ext4 starts no writeback of the old
    data that the next truncate of the file would wait for."""
    path.unlink(missing_ok=True)
    path.write_text(text, "utf-8")


# the value of a key that a JSON object lacks, or of a list item that one
# side of a comparison lacks
_ABSENT = object()


def read_traces(path: str | Path) -> list[dict]:
    """Read a trace file; raises MalformedInput, with the line number, on a
    line that is not a JSON object of schema 1 with well-typed, in-range
    scored fields, or whose ``sr`` and ``gc`` contradict its
    ``goal_conditions``, or whose ``seed`` contradicts its ``config.seed``."""
    return [record for _, record in _numbered_traces(path)]


def _numbered_traces(path: str | Path) -> list[tuple[int, dict]]:
    """(line number, record) of every non-blank line, checked as ``read_traces`` says."""
    lines = read_json_lines(path)
    for number, record in lines:
        _check_trace_line(record, number)
    return lines


def _check_trace_line(record: object, number: int) -> None:
    """Raise MalformedInput naming trace line ``number`` at the first check
    of a trace line that ``record`` fails; return when it fails none. Each
    field is tested inline, and ``checked_field`` is called only to word the
    failure of a field's type."""
    if type(record) is not dict or type(record.get("schema_version")) is not int:
        checked_field(record, "schema_version", int, f"trace line {number}")
    get = record.get
    version = get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise MalformedInput(f"trace line {number}: schema {version} is not "
                             f"{TRACE_SCHEMA_VERSION} (task {get('task_id')!r})")
    if type(get("task_id")) is not str:
        checked_field(record, "task_id", str, f"trace line {number}")
    sr, gc = get("sr"), get("gc")
    if type(sr) is not int:
        checked_field(record, "sr", int, f"trace line {number}")
    if type(gc) not in NUMBER:
        checked_field(record, "gc", NUMBER, f"trace line {number}")
    if sr not in (0, 1) or not 0.0 <= gc <= 1.0:  # a NaN gc fails too
        raise MalformedInput(f"trace line {number}: sr must be 0 or 1 and gc in [0, 1], "
                             f"got sr={sr!r}, gc={gc!r}")
    conditions = get("goal_conditions", _ABSENT)
    if conditions is not _ABSENT:
        if type(conditions) is not list or not set(map(type, conditions)) <= {bool}:
            checked_field(record, "goal_conditions", [bool], f"trace line {number}")
        if (sr, gc) != episode_score(conditions):
            raise MalformedInput(f"trace line {number}: sr={sr!r} and gc={gc!r} contradict "
                                 f"goal_conditions {conditions!r:.80}")
    # run writes both seeds; a tool that scores plans alone writes neither
    seed = get("seed", _ABSENT)
    if seed is not _ABSENT:
        if type(seed) is not int:
            checked_field(record, "seed", int, f"trace line {number}")
        echo = get("config")
        if type(echo) is dict and echo.get("seed", seed) != seed:
            raise MalformedInput(f"trace line {number}: seed {seed!r} contradicts "
                                 f"config.seed {echo['seed']!r:.40}")
    if type(get("task_type", "")) is not str:
        checked_field(record, "task_type", str, f"trace line {number}")
    plan = get("initial_plan", _ABSENT)
    if plan is not None and (type(plan) is not list or not set(map(type, plan)) <= {str}):
        checked_field(record, "initial_plan", ([str], type(None)), f"trace line {number}")


def _build_gateway(args: argparse.Namespace) -> Gateway:
    if args.gateway == "scripted":
        if not args.script:
            raise MalformedInput("--script is required with the scripted gateway")
        return ScriptedGateway(load_script(args.script), script_path=args.script)
    if not args.endpoint or not args.model:
        raise MalformedInput("--endpoint and --model are required with the http gateway")
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
    try:
        records = run_episodes(tasks, cfg)
    finally:
        gateway.close()
    out_path = write_traces(records, cfg.out_dir)
    for record in records:
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
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    write_output(report_path, text + "\n")
    if args.format == "json":
        print(text)
    else:
        print(report.format_table())
    print(f"report written to {report_path}", file=sys.stderr)
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    # --line is a line of the file, as a trace line's error numbers it
    records = dict(_numbered_traces(args.traces))
    record = records.get(args.line)
    if record is None:
        last = max(records, default=0)
        raise MalformedInput(f"trace line {args.line} is blank" if 1 <= args.line <= last
                             else f"--line must be in 1..{last}")
    tasks = load_tasks(args.tasks)
    by_id = {scenario.id: scenario for scenario in tasks.scenarios}
    scenario = by_id.get(record["task_id"])
    if scenario is None:
        raise MalformedInput(f"no ground-truth annotation for task {record['task_id']!r}")
    echo = checked_field(record, "config", dict, f"trace line {args.line}")
    cfg = EpisodeConfig.from_echo(echo)
    gateway_echo = checked_field(echo, "gateway", dict, "config echo")
    if checked_field(gateway_echo, "kind", str, "gateway echo") != "scripted":
        raise MalformedInput("only traces produced with the scripted gateway can be replayed")
    recorded_script = checked_field(gateway_echo, "script", (str, type(None)),
                                    "gateway echo", None)
    script_path = args.script or recorded_script
    if not script_path:
        raise MalformedInput("trace does not record a script path; pass --script")
    # echoes the recorded path, so a copy of the script elsewhere replays alike
    gateway = ScriptedGateway(load_script(script_path), script_path=recorded_script)
    rerun = run_episode(scenario, gateway, cfg).to_record()
    if dump_record(rerun) == dump_record(record):
        print(f"replay of line {args.line} ({record['task_id']}): identical")
        return EXIT_OK
    print(f"replay of line {args.line} ({record['task_id']}): DIVERGED")
    for key in sorted(set(rerun) | set(record)):
        path = first_difference(key, record.get(key, _ABSENT), rerun.get(key, _ABSENT))
        if path is not None:
            print(f"  field {key!r} differs, first at {path}")
    return 1


def first_difference(path: str, recorded, replayed) -> Optional[str]:
    """The path (``steps[3].reason``) where two JSON values first differ,
    walking objects in sorted key order and lists in index order; None when
    the values dump to the same bytes."""
    if isinstance(recorded, dict) and isinstance(replayed, dict):
        parts = [(f"{path}.{key}", recorded.get(key, _ABSENT), replayed.get(key, _ABSENT))
                 for key in sorted(recorded.keys() | replayed.keys())]
    elif isinstance(recorded, list) and isinstance(replayed, list):
        parts = [(f"{path}[{index}]", *pair) for index, pair in
                 enumerate(zip_longest(recorded, replayed, fillvalue=_ABSENT))]
    elif _ABSENT in (recorded, replayed) or json.dumps(recorded) != json.dumps(replayed):
        return path
    else:
        return None
    for part in parts:
        found = first_difference(*part)
        if found is not None:
            return found
    return None


_SAMPLE_QA = [
    ["Which sub-tasks make up the instruction?",
     "(answer produced by the decomposition stage at run time)"],
]
_SAMPLE_COT = [
    ["", "(step-by-step decomposition produced at run time)"],
]


def _prompt_block(title: str, prompt: RenderedPrompt) -> str:
    return (f"### {title}\n[system]\n{prompt.system_text}\n[user]\n"
            f"{prompt.user_text}\n")


def cmd_prompts(args: argparse.Namespace) -> int:
    tasks = load_tasks(args.tasks)
    if not tasks.scenarios:
        raise MalformedInput("task set is empty")
    scenario = tasks.scenarios[0]
    if args.id is not None:
        scenario = next((s for s in tasks.scenarios if s.id == args.id), None)
        if scenario is None:
            raise MalformedInput(f"no scenario with id {args.id!r}")

    cfg = EpisodeConfig(use_std=not args.no_std, use_cot=args.cot)
    instruction = scenario.instruction
    decomposer = decomposition_prompt(instruction, cfg)
    blocks = []
    qa = None
    if decomposer is not None:
        title = "decomposer (chain-of-thought)" if cfg.use_cot else "decomposer"
        qa = _SAMPLE_COT if cfg.use_cot else _SAMPLE_QA
        blocks.append(("decomposer", _prompt_block(title, decomposer)))
    planner = gen_tp_prompt(instruction, qa, cot=cfg.use_cot)
    blocks.append(("planner", _prompt_block(
        "planner" if qa else "planner (no decomposition)", planner)))

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in blocks:
            write_output(out_dir / f"{name}.txt", text)
        print(f"prompts written to {out_dir}")
    else:
        for _, text in blocks:
            print(text)
    return EXIT_OK


def probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text!r}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


def endpoint_url(text: str) -> str:
    try:
        endpoint_parts(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


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
    run_p.add_argument("--noise", type=probability, default=None,
                       help="override per-action controller failure probability")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--parallel", type=positive_int, default=1)
    run_p.add_argument("--endpoint", type=endpoint_url,
                       help="chat-completion http(s) URL (http gateway)")
    run_p.add_argument("--model", help="model name (http gateway)")
    run_p.add_argument("--api-key-env", default="ASKPLAN_API_KEY",
                       help="environment variable holding the API key")
    run_p.add_argument("--timeout", type=positive_float, default=60.0)
    run_p.add_argument("--retries", type=non_negative_int, default=3)
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
    replay_p.add_argument("--line", type=int, required=True, help="1-based line of the file")
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
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
