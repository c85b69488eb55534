from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import random
import re
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from askplan import asset_path, cli, engine, world
from askplan.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    TaskSet,
    build_parser,
    dump_record,
    episode_seed,
    first_difference,
    load_tasks,
    main,
    read_traces,
    _build_gateway,
)
from askplan.engine import EpisodeConfig
from askplan.gateway import (DecodeParams, HttpGatewayConfig, OracleScript, ScriptedGateway,
                             echo_text, load_script)
from askplan.inputs import MAX_JSON_INT, NUMBER, MalformedInput, _has_kind
from askplan.planeval import score_dataset
from askplan.plans import parse_subgoal, render_subgoal
from conftest import (SCRIPTS, entity_chain, perfbench_module, run_script,
                      shallowest_refused_depth)

MINI7 = str(asset_path("tasks/mini7.json"))
SCRIPT = str(asset_path("scripts/mini7.json"))


def run_cli(*argv) -> int:
    return main(list(argv))


# -- load_tasks ---------------------------------------------------------------


@pytest.fixture()
def entity_chain_calls(monkeypatch) -> list[list]:
    """The entity list of each call into the field-by-field entity chain,
    which words the error of an entity list that the whole-list passes do
    not take."""
    calls = []

    def counted(raws, chained=world._read_entities):
        calls.append(raws)
        return chained(raws)
    monkeypatch.setattr(world, "_read_entities", counted)
    return calls


def test_load_tasks_bundled_mini7(entity_chain_calls):
    tasks = load_tasks(MINI7)
    assert tasks.name == "mini7"
    assert len(tasks.scenarios) == 7
    assert {s.task_type for s in tasks.scenarios} == {
        "Heat", "Cool", "Clean", "Pick Two", "Stack", "Pick", "Examine"}
    assert entity_chain_calls == []


def test_load_tasks_duplicate_id(tmp_path):
    data = json.loads(Path(MINI7).read_text())
    data["scenarios"].append(data["scenarios"][0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedInput, match="task set invalid at scenario 'heat_bread': "
                                             "duplicate scenario id"):
        load_tasks(path)


def test_load_tasks_empty_list(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"name": "none", "version": "1", "scenarios": []}))
    tasks = load_tasks(path)
    assert tasks.scenarios == []


def test_load_tasks_invalid_scenario_reports_id(tmp_path):
    data = json.loads(Path(MINI7).read_text())
    data["scenarios"][0]["goal"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedInput, match="^task set invalid at scenario 'heat_bread': "):
        load_tasks(path)


def test_run_rejects_an_entity_id_that_its_own_core_cannot_name(tmp_path, capsys):
    # "(Pickup, Mug)" parses to the object "mug", which the scene lacks
    data = json.loads(Path(MINI7).read_text())
    scenario = data["scenarios"][0]
    scenario["entities"].append({"id": "Mug", "category": "mug", "zone": "kitchen",
                                 "pickupable": True})
    scenario["gt"] = {"core": ["(Pickup, Mug)"]}
    path = tmp_path / "mug.json"
    path.write_text(json.dumps(data))
    assert run_cli("run", "--tasks", str(path), "--script", SCRIPT,
                   "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: task set invalid at scenario 'heat_bread': entity id 'Mug' cannot be named "
        "in a subgoal: an id is non-empty, lowercase and holds no whitespace, '_', '-', "
        "',', '(' or ')'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scaled_task_sets_load(seed, tmp_path, entity_chain_calls):
    # the benchmark's distractor ids meet the entity-id rule, and its scenes
    # take no detour through the field-by-field entity chain
    mini7 = json.loads(Path(MINI7).read_text())
    scaled = perfbench_module("gen_scaled").add_distractors(mini7, seed)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(scaled))
    assert sum(len(s.initial.entities) for s in load_tasks(path).scenarios) == sum(
        len(s["entities"]) for s in scaled["scenarios"])
    assert entity_chain_calls == []


def _json_paths(node, prefix: tuple = ()):
    """Every path into a JSON value, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


_MINI7_DATA = json.loads(Path(MINI7).read_text())
_DELETE = object()
# NaN and the infinities are written as the bare tokens NaN, Infinity and
# -Infinity; 10**400 is beyond the range of a double
_JUNK = (_DELETE, None, True, 0, -1, 2.5, "", "abc", [], [[1]], [5], {}, {"x": 1},
         float("nan"), float("inf"), float("-inf"), 1e308, 10**400)


_type_hints = functools.cache(typing.get_type_hints)


def _has_declared_type(value, hint) -> bool:
    """Whether ``value`` has the type ``hint`` declares, dataclass and
    NamedTuple fields included, all the way down; a ``float`` field also
    takes an ``int``."""
    if dataclasses.is_dataclass(hint):
        hints = _type_hints(hint)
        return type(value) is hint and all(
            _has_declared_type(getattr(value, f.name), hints[f.name])
            for f in dataclasses.fields(hint))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(_has_declared_type(value, arg) for arg in args)
    if origin is dict:
        return type(value) is dict and all(
            _has_declared_type(key, args[0]) and _has_declared_type(item, args[1])
            for key, item in value.items())
    if origin in (tuple, list):
        if type(value) is not origin:
            return False
        if origin is tuple and args[-1] is not Ellipsis:
            return len(value) == len(args) and all(map(_has_declared_type, value, args))
        return all(_has_declared_type(item, args[0]) for item in value)
    if origin is None and hasattr(hint, "_fields"):  # a NamedTuple class
        hints = _type_hints(hint)
        return type(value) is hint and all(
            _has_declared_type(getattr(value, name), hints[name]) for name in hint._fields)
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


def _write_mutated(file: Path, data, path: tuple, value):
    """Write ``data`` with the value at ``path`` replaced by ``value`` (or
    deleted, for _DELETE) to a fresh ``file``, and return what was written.
    The old file is unlinked: rewriting one in place is several times slower
    on some filesystems."""
    data = json.loads(json.dumps(data))
    if not path:
        data = data if value is _DELETE else value
    else:
        node = data
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    file.unlink(missing_ok=True)
    file.write_text(json.dumps(data))
    return data


def _task_set_paths():
    """(path in mini7, task set, path in that set) for every JSON path of
    mini7. A path inside scenario k comes with a task set that holds only
    scenario k, so each load reads one scenario instead of seven."""
    outer = [(path, _MINI7_DATA, path) for path in _json_paths(_MINI7_DATA) if len(path) < 2]
    return outer + [(("scenarios", index, *path), {**_MINI7_DATA, "scenarios": [scenario]},
                     ("scenarios", 0, *path))
                    for index, scenario in enumerate(_MINI7_DATA["scenarios"])
                    for path in _json_paths(scenario)]


def _first_entity_list(data) -> list | None:
    """The entity list of a task set's first scenario, if it has one."""
    try:
        entities = data["scenarios"][0]["entities"]
    except (TypeError, LookupError):
        return None
    return entities if type(entities) is list else None


# Load sweep: every single mutation of mini7 either loads into well-typed
# values or is refused naming the scenario. The outcome and the message of
# each are pinned, so that a faster loader keeps every check and every
# message, and no message depends on the hash seed; and the whole-list
# entity checks agree with the field-by-field chain on every entity list of
# the sweep.
LOAD_SWEEP = Path(__file__).parent / "data" / "load_sweep.json"


def test_load_tasks_every_single_mutation_returns_or_raises_malformed(tmp_path):
    file = tmp_path / "tasks.json"
    paths = _task_set_paths()
    assert len(paths) == len(list(_json_paths(_MINI7_DATA)))
    outcomes = []
    for where, data, path in paths:
        for value in _JUNK:
            label = (f"{'.'.join(map(str, where)) or '<root>'} = "
                     f"{'<deleted>' if value is _DELETE else repr(value)}")
            written = _write_mutated(file, data, path, value)
            try:
                tasks = load_tasks(file)
                outcome = "accepted"
            except MalformedInput as exc:
                outcome = str(exc).replace(str(file), "<file>")
                assert outcome.startswith("task set invalid at scenario "), label
            else:
                assert _has_declared_type(tasks, TaskSet), label
            raws = _first_entity_list(written)
            if raws is not None:
                assert world._accepted_entities(raws) == entity_chain(raws), label
            outcomes.append([label, outcome])
    digest = hashlib.sha256(json.dumps(outcomes).encode("utf-8")).hexdigest()
    assert {"mutations": len(outcomes),
            "accepted": sum(outcome == "accepted" for _, outcome in outcomes),
            "sha256": digest} == json.loads(LOAD_SWEEP.read_text("utf-8"))


_SCRIPT_DATA = json.loads(Path(SCRIPT).read_text())


def test_load_script_every_single_mutation_returns_or_raises_malformed(tmp_path):
    file = tmp_path / "script.json"
    for path in _json_paths(_SCRIPT_DATA):
        for value in _JUNK:
            data = _write_mutated(file, _SCRIPT_DATA, path, value)
            try:
                script = load_script(file)
            except MalformedInput as exc:
                assert str(exc).startswith(f"{file}: "), (path, value)
                continue
            assert _has_declared_type(script, OracleScript), (path, value)
            # nothing was coerced: every field holds its JSON value as written
            assert data.get("mode", "strict") == "strict" and script.fallback_reply is None
            assert [{"reply": entry.reply,
                     **({"exact": entry.exact} if entry.exact is not None
                        else {"contains_all": list(entry.contains_all)})}
                    for entry in script.entries] == data["entries"], (path, value)


def test_episode_seed_stable():
    assert episode_seed(42, 3) == episode_seed(42, 3)
    assert episode_seed(42, 3) != episode_seed(42, 4)


@pytest.mark.parametrize("global_seed", [0, 42, -1, -10**6, 9 * 10**9, 10**10, 10**40],
                         ids=["0", "42", "-1", "-10**6", "9*10**9", "10**10", "10**40"])
def test_episode_seed_is_a_seed_every_json_reader_reads_exactly(global_seed):
    for index in (0, 6):
        seed = episode_seed(global_seed, index)
        assert 0 <= seed <= MAX_JSON_INT
        assert EpisodeConfig(seed=seed).seed == seed
    # a seed that reduces to itself keeps its episode seeds
    if 0 <= global_seed * 1_000_003 + 6 <= MAX_JSON_INT:
        assert episode_seed(global_seed, 6) == global_seed * 1_000_003 + 6


@pytest.mark.parametrize("seed", [-1, MAX_JSON_INT + 1, 10**400],
                         ids=["-1", "2**53", "10**400"])
def test_an_episode_seed_out_of_range_is_a_value_error(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        EpisodeConfig(seed=seed)


# -- run ----------------------------------------------------------------------


def test_run_writes_one_trace_per_scenario(tmp_path, capsys):
    code = run_cli("run", "--tasks", MINI7, "--gateway", "scripted",
                   "--script", SCRIPT, "--seed", "42", "--out", str(tmp_path))
    assert code == EXIT_OK
    lines = (tmp_path / "traces.jsonl").read_text().splitlines()
    assert len(lines) == 7
    records = [json.loads(line) for line in lines]
    assert [r["task_id"] for r in records] == [
        "heat_bread", "cool_tomato", "clean_ladle", "picktwo_remotes",
        "stack_plate", "pick_watch", "examine_book"]
    assert all(r["sr"] == 1 for r in records)


# the stdout of `run` on mini7, by its flags, before the line naming the trace file
RUN_SUMMARIES = {
    ("--seed", "42"): [
        "heat_bread: success sr=1 gc=1.000",
        "cool_tomato: success sr=1 gc=1.000",
        "clean_ladle: success sr=1 gc=1.000",
        "picktwo_remotes: success sr=1 gc=1.000",
        "stack_plate: success sr=1 gc=1.000",
        "pick_watch: success sr=1 gc=1.000",
        "examine_book: success sr=1 gc=1.000",
    ],
    ("--noise", "0.3", "--seed", "7"): [
        "heat_bread: plan_exhausted sr=0 gc=0.667",
        "cool_tomato: plan_exhausted sr=0 gc=0.000",
        "clean_ladle: success sr=1 gc=1.000",
        "picktwo_remotes: success sr=1 gc=1.000",
        "stack_plate: plan_exhausted sr=0 gc=0.000",
        "pick_watch: plan_exhausted sr=0 gc=0.000",
        "examine_book: plan_exhausted sr=0 gc=0.000",
    ],
}


@pytest.mark.parametrize("flags", RUN_SUMMARIES, ids=" ".join)
def test_run_prints_its_summary_from_the_records_without_reading_the_trace_file_back(
        flags, tmp_path, capsys, monkeypatch):
    opened = []

    def recording(opener):
        def open_recorded(file, mode="r", *args, **kwargs):
            opened.append((str(file), mode))
            return opener(file, mode, *args, **kwargs)
        return open_recorded

    monkeypatch.setattr("builtins.open", recording(open))
    monkeypatch.setattr(Path, "open", recording(Path.open))
    assert run_cli("run", "--tasks", MINI7, "--script", SCRIPT, *flags,
                   "--out", str(tmp_path)) == EXIT_OK
    traces = tmp_path / "traces.jsonl"
    assert capsys.readouterr().out == "".join(
        f"{line}\n" for line in [*RUN_SUMMARIES[flags], f"traces written to {traces}"])
    assert [mode for file, mode in opened if file == str(traces)] == ["w"]


def test_run_deterministic_across_invocations(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script",
                   SCRIPT, "--seed", "42", "--out", str(out_a)) == EXIT_OK
    assert run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script",
                   SCRIPT, "--seed", "42", "--out", str(out_b)) == EXIT_OK
    assert (out_a / "traces.jsonl").read_bytes() == (out_b / "traces.jsonl").read_bytes()


def test_run_parallelism_does_not_change_output(tmp_path):
    # Scheduling: four threads that switch every microsecond write the serial
    # run's bytes from memos as cold as a fresh process has them: each run
    # loads its tasks afresh, so no scene line is drawn, and parse_subgoal's
    # lines are dropped before each parallel run. Seven short episodes barely
    # overlap on four threads, so the task file holds mini7's scenarios eight
    # times over, and each parallel run is made five times.
    data = json.loads(Path(MINI7).read_text("utf-8"))
    data["scenarios"] = [dict(scenario, id=f"{scenario['id']}-{copy}")
                         for copy in range(8) for scenario in data["scenarios"]]
    tasks = tmp_path / "tasks.json"
    tasks.write_text(json.dumps(data), "utf-8")

    def traces(noise: str, parallel: str) -> bytes:
        out = tmp_path / noise / parallel
        assert run_cli("run", "--tasks", str(tasks), "--script", SCRIPT, "--seed", "7",
                       "--noise", noise, "--parallel", parallel, "--out", str(out)) == EXIT_OK
        return (out / "traces.jsonl").read_bytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for noise in ("0", "0.3"):
            serial = traces(noise, "1")
            for _ in range(5):
                parse_subgoal.cache_clear()
                assert traces(noise, "4") == serial, noise
    finally:
        sys.setswitchinterval(interval)


def test_run_missing_script_is_config_error(tmp_path):
    code = run_cli("run", "--tasks", MINI7, "--gateway", "scripted",
                   "--script", str(tmp_path / "nope.json"), "--seed", "1",
                   "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert not (tmp_path / "traces.jsonl").exists()


def test_an_unreadable_input_is_named_with_the_os_reason_alone(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = run_cli("run", "--tasks", str(missing), "--script", SCRIPT, "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: task set invalid at scenario '<file>': "
                                       f"{missing}: not readable (No such file or directory)\n")


@pytest.mark.parametrize("kind", ["tasks", "script", "traces"])
def test_an_input_nested_past_the_decoders_limit_is_one_input_error(kind, tmp_path, capsys):
    # at 100 000 levels, and at the shallowest depth the decoder refuses
    file = tmp_path / f"nested.{'jsonl' if kind == 'traces' else 'json'}"
    argv = {"tasks": ("run", "--tasks", str(file), "--script", SCRIPT,
                      "--out", str(tmp_path / "out")),
            "script": ("run", "--tasks", MINI7, "--script", str(file),
                       "--out", str(tmp_path / "out")),
            "traces": ("score", "--traces", str(file), "--tasks", MINI7)}[kind]

    def refused(depth: int) -> bool:
        file.write_text("[" * depth + "]" * depth + "\n")
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and err.count("\n") == 1 and err.startswith("error: "), err
        return ": not valid JSON (" in err

    assert 1 < shallowest_refused_depth(refused) < 100_000
    assert not (tmp_path / "out").exists()


def test_run_scripted_without_script_flag_is_config_error(tmp_path):
    code = run_cli("run", "--tasks", MINI7, "--gateway", "scripted",
                   "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_CONFIG


def test_run_static_flag_records_config(tmp_path):
    run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script", SCRIPT,
            "--seed", "1", "--static", "--out", str(tmp_path))
    record = json.loads((tmp_path / "traces.jsonl").read_text().splitlines()[0])
    assert record["config"]["replanning_enabled"] is False


def test_run_noise_override_applies_to_every_episode(tmp_path):
    run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script", SCRIPT,
            "--seed", "1", "--static", "--noise", "1.0", "--out", str(tmp_path))
    records = [json.loads(line) for line in
               (tmp_path / "traces.jsonl").read_text().splitlines()]
    assert all(r["config"]["noise"] == 1.0 for r in records)
    assert all(r["sr"] == 0 for r in records)
    assert all(step["reason"] == "controller_noise"
               for r in records for step in r["steps"])


def test_run_http_gateway_requires_endpoint_and_model(tmp_path):
    code = run_cli("run", "--tasks", MINI7, "--gateway", "http",
                   "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("given", [("--endpoint", "http://127.0.0.1:9/v1"), ("--model", "m")],
                         ids=["endpoint-only", "model-only"])
def test_run_http_gateway_requires_both_endpoint_and_model(given, tmp_path, capsys):
    code = run_cli("run", "--tasks", MINI7, "--gateway", "http", *given, "--retries", "0",
                   "--timeout", "1", "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "--endpoint and --model are required" in capsys.readouterr().err
    assert not (tmp_path / "traces.jsonl").exists()


def _option_help(command: str) -> dict[str, typing.Optional[str]]:
    """Each option of one ``askplan`` command, by flag, with its help text."""
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    return {flag: action.help for action in commands[command]._actions
            for flag in action.option_strings}


def test_a_flag_that_two_commands_take_has_one_help_text():
    run, prompts = _option_help("run"), _option_help("prompts")
    for flag in ("--tasks", "--no-std", "--cot"):
        assert run[flag] and run[flag] == prompts[flag], flag
    assert {_option_help(command)["--tasks"] for command in ("score", "replay")} == \
        {run["--tasks"]}


def test_run_noise_zero_is_in_range(tmp_path):
    assert run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script", SCRIPT,
                   "--seed", "1", "--noise", "0", "--out", str(tmp_path)) == EXIT_OK
    records = [json.loads(line) for line in
               (tmp_path / "traces.jsonl").read_text().splitlines()]
    assert [r["config"]["noise"] for r in records] == [0.0] * 7
    assert not any(step["reason"] == "controller_noise"
                   for r in records for step in r["steps"])


def test_run_http_gateway_against_stub(tmp_path):
    # the stub answers every chat request with canned prose, so decomposition
    # fails; the batch must still complete with recorded per-episode outcomes
    from test_gateway import _serving, _StubHandler

    with _serving(_StubHandler) as endpoint:
        argv = ["run", "--tasks", MINI7, "--gateway", "http",
                "--endpoint", endpoint, "--model", "stub-model",
                "--timeout", "5", "--retries", "0",
                "--seed", "1", "--out", str(tmp_path)]
        code = run_cli(*argv)
    assert code == EXIT_OK
    assert _build_gateway(build_parser().parse_args(argv)).config == \
        HttpGatewayConfig(endpoint, "stub-model", timeout_s=5.0, retries=0)
    records = [json.loads(line) for line in
               (tmp_path / "traces.jsonl").read_text().splitlines()]
    assert len(records) == 7
    assert all(r["outcome"] == "plan_exhausted" for r in records)
    assert all("no Q/A pairs" in r["abort_reason"] for r in records)
    assert all(r["config"]["gateway"]["kind"] == "http" for r in records)


def test_run_never_prints_secrets(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ASKPLAN_API_KEY", "super-secret-key")
    run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script", SCRIPT,
            "--seed", "1", "--out", str(tmp_path))
    out = capsys.readouterr()
    assert "super-secret-key" not in out.out + out.err
    assert "super-secret-key" not in (tmp_path / "traces.jsonl").read_text()


# -- score --------------------------------------------------------------------


@pytest.fixture()
def trace_dir(tmp_path):
    run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script", SCRIPT,
            "--seed", "42", "--out", str(tmp_path))
    return tmp_path


def test_score_emits_report(trace_dir, capsys):
    code = run_cli("score", "--traces", str(trace_dir / "traces.jsonl"),
                   "--tasks", MINI7, "--format", "table")
    assert code == EXIT_OK
    report = json.loads((trace_dir / "report.json").read_text())
    assert report["n_episodes"] == 7
    assert report["sr_pct"] == 100.0
    assert report["strict_hlp_pct"] <= report["relaxed_hlp_pct"]
    table = capsys.readouterr().out
    assert "RelaxedHLP" in table
    assert "Heat" in table


def test_score_json_format(trace_dir, capsys):
    run_cli("score", "--traces", str(trace_dir / "traces.jsonl"),
            "--tasks", MINI7, "--format", "json")
    printed = json.loads(capsys.readouterr().out)
    assert printed["n_episodes"] == 7


def test_score_empty_trace_file(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    traces.write_text("")
    code = run_cli("score", "--traces", str(traces), "--tasks", MINI7,
                   "--format", "json")
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_episodes"] == 0
    assert report["sr_pct"] is None


def test_score_unknown_task_id(trace_dir, tmp_path, capsys):
    records = [json.loads(line) for line in
               (trace_dir / "traces.jsonl").read_text().splitlines()]
    records[0]["task_id"] = "ghost_task"
    mangled = tmp_path / "mangled.jsonl"
    mangled.write_text("\n".join(json.dumps(r) for r in records))
    capsys.readouterr()
    code = run_cli("score", "--traces", str(mangled), "--tasks", MINI7,
                   "--format", "json")
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "error: no ground-truth annotation for task 'ghost_task'\n"


def test_score_schema_mismatch(trace_dir, tmp_path):
    records = [json.loads(line) for line in
               (trace_dir / "traces.jsonl").read_text().splitlines()]
    records[0]["schema_version"] = 999
    mangled = tmp_path / "mangled.jsonl"
    mangled.write_text("\n".join(json.dumps(r) for r in records))
    code = run_cli("score", "--traces", str(mangled), "--tasks", MINI7,
                   "--format", "json")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("scores", [
    {},  # a line without goal_conditions, as score-only traces are written
    {"sr": 0, "gc": 0.0, "goal_conditions": []},  # an internal_error line
    {"sr": 0, "gc": 1 / 3, "goal_conditions": [False, True, False]},
    {"sr": 1, "gc": 1.0, "goal_conditions": [True, True]},
])
def test_read_traces_takes_scores_that_agree_with_their_goal_conditions(scores, tmp_path):
    traces = tmp_path / "traces.jsonl"
    traces.write_text(_first_trace_with(lambda record: record.update(scores)) + "\n")
    assert read_traces(traces)[0] == json.loads(traces.read_text())


# JSON Lines ends a line at "\n" alone. str.splitlines also breaks at U+2028,
# U+2029 and U+0085, which a JSON string may hold raw.
@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"],
                         ids=["U+2028", "U+2029", "U+0085"])
def test_a_unicode_line_separator_inside_a_string_reads_back(separator, tmp_path):
    record = json.loads(_first_trace_with(_set(("task_id",), f"heat{separator}bread")))
    traces = tmp_path / "traces.jsonl"
    traces.write_text(json.dumps(record, ensure_ascii=False) + "\n", "utf-8")
    assert separator in traces.read_text("utf-8")
    assert read_traces(traces) == [record]


def test_a_crlf_trace_file_reads_as_its_lf_copy(scripted_run, tmp_path):
    traces = scripted_run("mini7", 0, "0.3")
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(traces.read_bytes().replace(b"\n", b"\r\n"))
    assert read_traces(crlf) == read_traces(traces)


def test_a_bad_line_is_numbered_by_newlines_alone(tmp_path):
    # a raw U+2028 in a string, a blank line of JSON whitespace, and a "\r"
    # between two tokens, which is JSON whitespace too
    record = json.loads(_first_trace_with(_set(("task_id",), "heat\u2028bread")))
    good = json.dumps(record, ensure_ascii=False)
    spaced = good.replace(": ", ":\r", 1)
    traces = tmp_path / "traces.jsonl"
    traces.write_bytes("\r\n".join([good, " \r", spaced, "not json", good]).encode())
    with pytest.raises(MalformedInput) as exc:
        read_traces(traces)
    assert str(exc.value) == (f"{traces} line 4: not valid JSON "
                              "(Expecting value: line 1 column 1 (char 0))")


# Trace-line sweep: every single mutation of a mini7 trace line either reads
# back as written or is refused with the line's number. The outcome and the
# message of each are pinned, so that a faster reader keeps every check and
# every message.
TRACE_LINE_SWEEP = Path(__file__).parent / "data" / "trace_line_sweep.json"
# each scored number at its bounds and just past them
_SCORE_BOUNDS = [(("gc",), 0.0), (("gc",), 1.0), (("gc",), 1.0000000000000002),
                 (("sr",), 2), (("sr",), True), (("sr",), 1.0)]


def _trace_line_mutations(record: dict) -> list[tuple[str, dict, tuple, object]]:
    """(label, line, path, value) for every junk value at the root of the
    trace line ``record``, at each of its fields, at its config.seed and at
    its first goal condition and plan step; and for each score bound, on the
    line and on the line without goal_conditions."""
    bare = {key: value for key, value in record.items() if key != "goal_conditions"}
    paths = [(), *((key,) for key in record),
             ("config", "seed"), ("goal_conditions", 0), ("initial_plan", 0)]
    cases = [(record, path, value) for path in paths for value in _JUNK]
    cases += [(line, path, value) for line in (record, bare) for path, value in _SCORE_BOUNDS]
    return [(f"{'' if line is record else 'without goal_conditions: '}"
             f"{'.'.join(map(str, path)) or '<root>'} = "
             f"{'<deleted>' if value is _DELETE else repr(value)}", line, path, value)
            for line, path, value in cases]


def test_trace_line_sweep(scripted_run, tmp_path):
    record = json.loads(scripted_run("mini7", 0, "0").read_text("utf-8").splitlines()[0])
    file = tmp_path / "traces.jsonl"
    outcomes = []
    for label, line, path, value in _trace_line_mutations(record):
        data = _write_mutated(file, line, path, value)
        try:
            assert read_traces(file) == [data], label
            outcome = "accepted"
        except MalformedInput as exc:
            outcome = str(exc).replace(str(file), "<file>")
            # a NaN or an infinity is refused by the JSON reader, before any field is read
            assert outcome.startswith(("trace line 1", "<file> line 1: not valid JSON")), outcome
        outcomes.append([label, outcome])
    digest = hashlib.sha256(json.dumps(outcomes).encode("utf-8")).hexdigest()
    assert {"mutations": len(outcomes),
            "accepted": sum(outcome == "accepted" for _, outcome in outcomes),
            "sha256": digest} == json.loads(TRACE_LINE_SWEEP.read_text("utf-8"))


def test_reading_the_trace_file_of_a_run_calls_checked_field_zero_times(
        scripted_run, monkeypatch, tmp_path):
    # checked_field only words a refused field, so reading the lines run
    # writes never calls it: mini7, and mini7 with gen_scaled's distractors
    scaled = tmp_path / "scaled.json"
    mini7_raw = json.loads(Path(MINI7).read_text("utf-8"))
    scaled.write_text(json.dumps(perfbench_module("gen_scaled").add_distractors(mini7_raw, 1)),
                      "utf-8")
    assert run_cli("run", "--tasks", str(scaled), "--script", SCRIPT,
                   "--out", str(tmp_path)) == EXIT_OK
    runs = [scripted_run("mini7", 0, "0.3"), tmp_path / "traces.jsonl"]
    calls = []
    monkeypatch.setattr(cli, "checked_field", lambda *args: calls.append(args))
    for traces in runs:
        assert len(read_traces(traces)) == 7, traces
    assert calls == []


# Trace-line order: the report of a trace set does not depend on the order of
# its lines, nor on where the file is cut in two before it is scored as one
# stream. Over each bundled script, at seeds 0 and 1, at noise 0 and 0.3,
# each script's runs concatenated and then all of them. A script runs with
# the flags whose prompts it answers: mini7_ablations those of --no-std.
ORDER_SCRIPTS = {script: ("--no-std",) if script == "mini7_ablations" else ()
                 for script in SCRIPTS}


def order_run(scripted_run, script: str, seed: int, noise: str) -> Path:
    return scripted_run(script, seed, noise, ORDER_SCRIPTS[script])


@pytest.mark.parametrize("scripts", [(script,) for script in ORDER_SCRIPTS]
                         + [tuple(ORDER_SCRIPTS)])
def test_score_does_not_depend_on_line_order_or_cuts(scripts, scripted_run, mini7, tmp_path):
    lines = [line for script in scripts for seed in (0, 1) for noise in ("0", "0.3")
             for line in order_run(scripted_run, script, seed, noise).read_text(
                 "utf-8").splitlines()]
    gts = {scenario.id: scenario.gt for scenario in mini7.scenarios}

    def written(name: str, part: list[str]) -> Path:
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in part), "utf-8")
        return path

    expected = score_dataset(read_traces(written("file.jsonl", lines)), gts)
    assert expected.n_episodes == len(lines)
    rng = random.Random(len(lines))
    for _ in range(20):
        shuffled = written("shuffled.jsonl", rng.sample(lines, len(lines)))
        assert score_dataset(read_traces(shuffled), gts) == expected
    for cut in range(1, len(lines)):
        head, tail = written("head.jsonl", lines[:cut]), written("tail.jsonl", lines[cut:])
        assert score_dataset(itertools.chain(read_traces(head), read_traces(tail)),
                             gts) == expected
        assert score_dataset(itertools.chain(read_traces(tail), read_traces(head)),
                             gts) == expected


def test_reversed_noisy_mini7_run_scores_the_same(scripted_run, mini7):
    # Adding its gc values with a plain sum reads gc_pct 38.09523809523809
    # in file order and 38.095238095238095 reversed.
    records = read_traces(scripted_run("mini7", 0, "0.3"))
    gts = {scenario.id: scenario.gt for scenario in mini7.scenarios}
    forward, backward = score_dataset(records, gts), score_dataset(records[::-1], gts)
    assert forward == backward
    assert forward.gc_pct == pytest.approx(38.095238095238095)


# Navigate insertion: Navigate steps are the controller's, so a Navigate
# toward each step's object, put before every line of each initial plan,
# leaves both verdicts and so the report unchanged. Over the same runs.
def test_navigate_steps_in_initial_plans_leave_the_report_unchanged(scripted_run, mini7, tmp_path):
    records = [record for script in ORDER_SCRIPTS for seed in (0, 1) for noise in ("0", "0.3")
               for record in read_traces(order_run(scripted_run, script, seed, noise))]
    gts = {scenario.id: scenario.gt for scenario in mini7.scenarios}
    expected = score_dataset(records, gts)
    assert expected.strict_hlp_pct and expected.relaxed_hlp_pct

    def navigated(plan: list[str]) -> list[str]:
        return [step for line in plan
                for step in (f"(Navigate, {parse_subgoal(line).object})", line)]

    traces = tmp_path / "navigated.jsonl"
    traces.write_text("".join(
        dump_record({**record, "initial_plan": record["initial_plan"] and navigated(
            record["initial_plan"])}) + "\n" for record in records), "utf-8")
    assert score_dataset(read_traces(traces), gts) == expected


# Scenario-order relations: the order of a scenario's goal conditions reaches
# only the order of its trace's goal_conditions, and the order of its entities
# reaches nothing. Over the same runs as the line-order relation above.


def _edited_run(script: str, seed: int, noise: str, edit, out: Path,
                edit_script=None) -> Path:
    """The trace file of the ``order_run`` configuration, run on a copy of
    its task file in which ``edit`` has changed each scenario, and on a copy
    of its script that ``edit_script`` returns changed, when given."""
    script_path = None
    if edit_script is not None:
        out.mkdir()
        script_path = out / "script.json"
        script_path.write_text(json.dumps(edit_script(json.loads(
            asset_path(f"scripts/{script}.json").read_text("utf-8")))), "utf-8")
    return run_script(out, script, seed, noise, ORDER_SCRIPTS[script], edit, script_path)


def _shuffled(rng: random.Random, n: int) -> list[int]:
    """A random order of range(n) that moves something when n > 1."""
    order = list(range(n))
    while n > 1 and order == sorted(order):
        rng.shuffle(order)
    return order


@pytest.mark.parametrize("script", ORDER_SCRIPTS)
def test_goal_order_permutes_goal_conditions_alone(script, scripted_run, tmp_path):
    rng = random.Random(script)
    moved = 0
    for seed, noise, draw in itertools.product((0, 1), ("0", "0.3"), range(3)):
        orders = {}

        def reorder(scenario):
            order = orders[scenario["id"]] = _shuffled(rng, len(scenario["goal"]))
            scenario["goal"] = [scenario["goal"][k] for k in order]

        edited = read_traces(_edited_run(script, seed, noise, reorder,
                                         tmp_path / f"{seed}-{noise}-{draw}"))
        records = read_traces(order_run(scripted_run, script, seed, noise))
        assert [r["task_id"] for r in edited] == [r["task_id"] for r in records]
        for record, got in zip(records, edited):
            order = orders[record["task_id"]]
            assert (got["sr"], got["gc"]) == (record["sr"], record["gc"])
            assert got["goal_conditions"] == [record["goal_conditions"][k] for k in order]
            moved += order != sorted(order)
    assert moved


@pytest.mark.parametrize("script", ORDER_SCRIPTS)
def test_entity_order_leaves_the_trace_bytes_unchanged(script, scripted_run, tmp_path):
    rng = random.Random(script)
    for seed, noise, draw in itertools.product((0, 1), ("0", "0.3"), range(3)):

        def reorder(scenario):
            order = _shuffled(rng, len(scenario["entities"]))
            scenario["entities"] = [scenario["entities"][k] for k in order]

        # the config echo names the script, never the task file, so the
        # bytes match without normalising a path
        edited = _edited_run(script, seed, noise, reorder, tmp_path / f"{seed}-{noise}-{draw}")
        assert edited.read_bytes() == order_run(scripted_run, script, seed, noise).read_bytes(), \
            (seed, noise, draw)


# Renaming: a consistent renaming of entity ids across the task file, the
# script and the annotations gives the same traces under that renaming. Ids
# alone are renamed, never categories, which the world keys appliances on.
# Each new name is found in no input, prompt or trace text, so mapping it
# back is exact. It has its id's length, so the message of a script miss,
# which cuts the request at 120 characters, cuts at the same place; the cut
# may fall inside a name, so the cut is checked against the logged request
# and the request put in its place before mapping back. The program sorts
# scene lines, observed ids and decode biases by id, so what it sorts is
# re-sorted before the comparison; some line must need it, or the renaming
# moved nothing. Over the same runs as the line-order relation.
SCRIPT_MISS = "gateway_error: no script entry matches request: "
PROMPTS = "".join(path.read_text("utf-8")
                  for path in sorted(asset_path("prompts").iterdir()))


def _renaming(rng: random.Random, ids: set[str], corpus: str) -> dict[str, str]:
    names: dict[str, str] = {}
    for old in sorted(ids):
        new = old
        while new in corpus or any(new in name or name in new for name in names.values()):
            new = "".join(rng.choice("jqvxz") for _ in old)
        names[old] = new
    return names


def _substituted(value, pattern: "re.Pattern[str]", names: dict[str, str], skip=()):
    """``value`` with each match of ``pattern`` in its strings and keys
    replaced by what ``names`` maps it to, the values of keys in ``skip``
    left as they are."""
    if isinstance(value, str):
        return pattern.sub(lambda match: names[match[0]], value)
    if isinstance(value, list):
        return [_substituted(item, pattern, names, skip) for item in value]
    if isinstance(value, dict):
        return {_substituted(key, pattern, names): item if key in skip
                else _substituted(item, pattern, names, skip) for key, item in value.items()}
    return value


def _uncut(record: dict) -> dict:
    """``record`` with the request a script miss cut replaced by the whole
    request, the last one logged."""
    reason = record["abort_reason"] or ""
    if reason.startswith(SCRIPT_MISS):
        request = record["llm_log"][-1]["text"]
        assert reason == f"{SCRIPT_MISS}{request[:120]!r}..."
        record = {**record, "abort_reason": SCRIPT_MISS + request}
    return record


def _resorted(record: dict) -> dict:
    """``record`` with what the program sorts by id put in string order: the
    object lines of every scene, the observed ids of every step and every
    replan prompt, in the steps, the model-call log and an uncut abort
    reason. ``token_bias`` is a dict, whose equality ignores order."""

    def text(value: str) -> str:
        lines = value.split("\n")
        for k, line in enumerate(lines):
            if line == "Visible objects:":
                end = k + 1
                while end < len(lines) and lines[end].startswith("- "):
                    end += 1
                lines[k + 1:end] = sorted(lines[k + 1:end])
            elif line.startswith("Objects observed so far: "):
                head, _, ids = line.partition(": ")
                lines[k] = f"{head}: {', '.join(sorted(ids.split(', ')))}"
        return "\n".join(lines)

    record = json.loads(json.dumps(record))
    for step in record["steps"]:
        step["scene"], step["observed"] = text(step["scene"]), sorted(step["observed"])
    for call in record["llm_log"]:
        call["text"] = text(call["text"])
    record["abort_reason"] = record["abort_reason"] and text(record["abort_reason"])
    return record


@pytest.mark.parametrize("script", ORDER_SCRIPTS)
def test_renaming_entity_ids_renames_the_traces(script, scripted_run, tmp_path):
    rng = random.Random(script)
    tasks = json.loads(Path(MINI7).read_text("utf-8"))
    ids = {entity["id"] for scenario in tasks["scenarios"] for entity in scenario["entities"]}
    bundled = str(asset_path(f"scripts/{script}.json"))
    reordered = 0
    for seed, noise, draw in itertools.product((0, 1), ("0", "0.3"), range(2)):
        original = order_run(scripted_run, script, seed, noise)
        corpus = "\n".join((json.dumps(tasks), Path(bundled).read_text("utf-8"), PROMPTS,
                            original.read_text("utf-8")))
        names = _renaming(rng, ids, corpus)
        forward = re.compile(r"\b(?:" + "|".join(sorted(names, key=len, reverse=True)) + r")\b")
        back = {new: old for old, new in names.items()}
        backward = re.compile("|".join(back))

        def rename(scenario):
            scenario.update(_substituted(scenario, forward, names, skip={"category"}))

        renamed = _edited_run(script, seed, noise, rename, tmp_path / f"{seed}-{noise}-{draw}",
                              lambda data: _substituted(data, forward, names))
        records, got = read_traces(original), read_traces(renamed)
        assert len(got) == len(records)
        for record, line in zip(records, got):
            record, mapped = _uncut(record), _substituted(_uncut(line), backward, back)
            assert mapped["config"]["gateway"]["script"] == str(renamed.parent / "script.json")
            mapped["config"]["gateway"]["script"] = bundled
            reordered += mapped != record
            assert _resorted(mapped) == _resorted(record), (seed, noise, draw, record["task_id"])
    assert reordered


def test_score_of_generated_swap_groups_matches_their_kinds(tmp_path, capsys):
    """Swap groups of up to 20 slots, beyond the 8-slot enumeration oracle.
    Each generated trace line's kind fixes its verdicts: strict for
    ``canonical`` lines alone, relaxed for ``canonical`` and ``reorder``
    lines."""
    tasks, traces, records = perfbench_module("gen_swaps").write(7, tmp_path)
    scenarios = json.loads(tasks.read_text("utf-8"))["scenarios"]
    assert max(len(scenario["gt"]["core"]) for scenario in scenarios) == 20
    assert run_cli("score", "--traces", str(traces), "--tasks", str(tasks),
                   "--format", "json") == EXIT_OK
    report = json.loads(capsys.readouterr().out)

    def shares(group: list[dict]) -> tuple[float, float]:
        kinds = [record["kind"] for record in group]
        return (100.0 * sum(kind == "canonical" for kind in kinds) / len(kinds),
                100.0 * sum(kind in ("canonical", "reorder") for kind in kinds) / len(kinds))

    assert (report["strict_hlp_pct"], report["relaxed_hlp_pct"]) == shares(records)
    by_type: dict[str, list[dict]] = {}
    for record in records:
        by_type.setdefault(record["task_type"], []).append(record)
    assert [row["task_type"] for row in report["per_type"]] == sorted(by_type)
    for row in report["per_type"]:
        assert (row["strict_hlp_pct"], row["relaxed_hlp_pct"]) == shares(by_type[row["task_type"]])


# -- pinned traces ------------------------------------------------------------

# The digests pin the trace bytes of these runs; a change that alters them
# changes the trace format, and replay of older traces with it.
DIGESTS = Path(__file__).parent / "data" / "trace_digests.json"

# name -> (script, --noise value, other run flags); every run uses seed 42
PINNED_RUNS = {
    "mini7": ("mini7", None, ()),
    "mini7-static": ("mini7", None, ("--static",)),
    "mini7-no-std": ("mini7", None, ("--no-std",)),
    "mini7-cot": ("mini7", None, ("--cot",)),
    "bread-recovery": ("bread_recovery", None, ()),
    "bread-noisy": ("bread_noisy", "0.3", ()),
    "mini7-ablations-no-std": ("mini7_ablations", None, ("--no-std",)),
    "mini7-ablations-cot": ("mini7_ablations", None, ("--cot",)),
}


def pinned_run(name: str, out: Path) -> Path:
    """Run one pinned configuration into ``out`` and return its trace file."""
    script, noise, flags = PINNED_RUNS[name]
    return run_script(out, script, 42, noise, flags)


def normalised_digest(traces: Path) -> str:
    """sha256 of a trace file with each recorded script path cut to its file
    name, so the digest does not depend on where the package lives."""
    text = ""
    for line in traces.read_text("utf-8").splitlines():
        record = json.loads(line)
        gateway = record["config"]["gateway"]
        gateway["script"] = Path(gateway["script"]).name
        text += dump_record(record) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def pinned_traces(scripted_run) -> dict[str, Path]:
    return {name: scripted_run(script, 42, noise, flags)
            for name, (script, noise, flags) in PINNED_RUNS.items()}


def test_pinned_trace_digests(pinned_traces):
    expected = json.loads(DIGESTS.read_text("utf-8"))
    assert {name: normalised_digest(path) for name, path in pinned_traces.items()} == expected


# sha256 of the report.json that `score` writes for each pinned run
REPORT_DIGESTS = Path(__file__).parent / "data" / "report_digests.json"


def test_pinned_report_digests(pinned_traces, tmp_path, capsys):
    digests = {}
    for name, traces in pinned_traces.items():
        out = tmp_path / name
        assert run_cli("score", "--traces", str(traces), "--tasks", MINI7,
                       "--out", str(out)) == EXIT_OK
        digests[name] = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    assert digests == json.loads(REPORT_DIGESTS.read_text("utf-8"))


def test_the_ablation_script_reaches_sr_100_under_either_ablation(pinned_traces, tmp_path):
    # mini7.json answers neither ablation's prompts, so its --no-std and --cot
    # runs end every episode at the first model call
    for name in ("mini7-ablations-no-std", "mini7-ablations-cot"):
        out = tmp_path / name
        assert run_cli("score", "--traces", str(pinned_traces[name]), "--tasks", MINI7,
                       "--out", str(out)) == EXIT_OK
        report = json.loads((out / "report.json").read_text("utf-8"))
        assert (report["n_episodes"], report["sr_pct"]) == (7, 100.0), name


def test_config_echo_round_trip(pinned_traces):
    for name, traces in pinned_traces.items():
        for record in read_traces(traces):
            echo = record["config"]
            script = echo["gateway"]["script"]
            gw = ScriptedGateway(load_script(script), script_path=script)
            assert EpisodeConfig.from_echo(echo).to_echo(gw) == echo, name


def test_every_episode_config_field_but_decode_is_in_the_echo_table_once():
    # a field left out of the table takes its default on both sides of the
    # round trip, so only this catches it
    echoed = [name for name, _ in engine._ECHO_FIELDS.values()]
    assert sorted(echoed) == sorted(field.name for field in dataclasses.fields(EpisodeConfig)
                                    if field.name != "decode")


# -- replay -------------------------------------------------------------------


def test_replay_line_identical(trace_dir, capsys):
    code = run_cli("replay", "--traces", str(trace_dir / "traces.jsonl"),
                   "--tasks", MINI7, "--line", "1", "--script", SCRIPT)
    assert code == EXIT_OK
    assert "identical" in capsys.readouterr().out


def test_replay_every_line(pinned_traces, capsys):
    for name, traces in pinned_traces.items():
        count = len(traces.read_text("utf-8").splitlines())
        for line in range(1, count + 1):
            assert run_cli("replay", "--traces", str(traces), "--tasks", MINI7,
                           "--line", str(line)) == EXIT_OK, (name, line)
            assert "identical" in capsys.readouterr().out, (name, line)


def test_replay_every_line_of_a_noisy_mini7_run(scripted_run, capsys):
    # Of the pinned runs, only bread-noisy draws noise, and over one scenario.
    traces = scripted_run("mini7", 7, "0.3")
    count = len(traces.read_text("utf-8").splitlines())
    assert count == 7
    for line in range(1, count + 1):
        assert run_cli("replay", "--traces", str(traces), "--tasks", MINI7,
                       "--line", str(line)) == EXIT_OK, line
        assert "identical" in capsys.readouterr().out, line


def test_a_noisy_ablation_run_recovers_by_redo_and_by_replan_and_replays(scripted_run, capsys):
    # seed 7 is RUN_SUMMARIES' noisy run, in which mini7.json, answering no
    # recovery prompt, ends 5 of 7 episodes at their first validity prompt
    traces = scripted_run("mini7_ablations", 7, "0.3", ("--no-std",))
    capsys.readouterr()
    records = read_traces(traces)
    assert len(records) == 7
    assert {"redo", "replan"} <= {step["decision"] for record in records
                                  for step in record["steps"]}
    for line in range(1, len(records) + 1):
        assert run_cli("replay", "--traces", str(traces), "--tasks", MINI7,
                       "--line", str(line)) == EXIT_OK, line
        assert "identical" in capsys.readouterr().out, line


def _numeric_paths(node, prefix=()):
    """Every JSON path under ``node`` that holds a number (not a boolean)."""
    if type(node) is dict:
        for key, child in node.items():
            yield from _numeric_paths(child, (*prefix, key))
    elif type(node) in (int, float):
        yield prefix


def test_replay_rejects_every_non_finite_or_inexact_number_in_the_config_echo(
        pinned_traces, tmp_path, capsys):
    record = json.loads(pinned_traces["mini7"].read_text("utf-8").splitlines()[0])
    paths = list(_numeric_paths(record["config"], ("config",)))
    assert {path[:3] for path in paths} == {
        ("config", "failure_budget"), ("config", "noise"), ("config", "seed"),
        ("config", "decode", "temperature"), ("config", "decode", "max_tokens"),
        ("config", "decode", "token_bias")}
    cases = [(path, value) for path in paths
             for value in (float("nan"), float("inf"), float("-inf"), 10**400)]
    cases += [(("config", "seed"), -1), (("config", "seed"), 2**53)]
    traces = tmp_path / "traces.jsonl"
    for path, value in cases:
        _write_mutated(traces, record, path, value)
        assert run_cli("replay", "--traces", str(traces), "--tasks", MINI7,
                       "--line", "1") == EXIT_CONFIG, (path, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (path, value)
    # the unmutated line replays
    _write_mutated(traces, record, ("config", "seed"), record["config"]["seed"])
    assert run_cli("replay", "--traces", str(traces), "--tasks", MINI7, "--line", "1") == EXIT_OK


def test_replay_line_out_of_range(trace_dir, capsys):
    code = run_cli("replay", "--traces", str(trace_dir / "traces.jsonl"),
                   "--tasks", MINI7, "--line", "99", "--script", SCRIPT)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --line must be in 1..7\n"


def test_replay_numbers_a_line_as_the_file_and_its_errors_do(trace_dir, tmp_path, capsys):
    # a blank line after line 1 is skipped but counted, so that file line 3
    # is the one a trace-line error names as line 3, the second record
    lines = (trace_dir / "traces.jsonl").read_text("utf-8").splitlines()
    blanked = tmp_path / "blanked.jsonl"
    blanked.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n", "utf-8")
    task_ids = [json.loads(line)["task_id"] for line in lines]
    for number, task_id in [(1, task_ids[0]), (3, task_ids[1]), (8, task_ids[6])]:
        assert run_cli("replay", "--traces", str(blanked), "--tasks", MINI7,
                       "--line", str(number)) == EXIT_OK, number
        assert capsys.readouterr().out == f"replay of line {number} ({task_id}): identical\n"
    for number, error in [(2, "trace line 2 is blank"), (9, "--line must be in 1..8"),
                          (0, "--line must be in 1..8")]:
        assert run_cli("replay", "--traces", str(blanked), "--tasks", MINI7,
                       "--line", str(number)) == EXIT_CONFIG, number
        assert capsys.readouterr().err == f"error: {error}\n"
    mangled = json.loads(lines[1])
    mangled["sr"] = 2
    blanked.write_text("\n".join([lines[0], "", json.dumps(mangled), *lines[2:]]), "utf-8")
    assert run_cli("score", "--traces", str(blanked), "--tasks", MINI7) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: trace line 3: sr must be 0 or 1")


def test_replay_detects_divergence(trace_dir, tmp_path, capsys):
    records = [json.loads(line) for line in
               (trace_dir / "traces.jsonl").read_text().splitlines()]
    # sr would have to agree with goal_conditions, so an unchecked count differs
    records[0]["failure_count"] = 5
    # a nested field names its first differing path, and no later one
    records[0]["steps"][3]["reason"] = "tampered"
    records[0]["steps"][5]["reason"] = "tampered too"
    records[0]["llm_log"][1]["text"] += "!"
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records))
    code = run_cli("replay", "--traces", str(tampered), "--tasks", MINI7,
                   "--line", "1", "--script", SCRIPT)
    assert code == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out
    assert out.splitlines()[1:] == [
        "  field 'failure_count' differs, first at failure_count",
        "  field 'llm_log' differs, first at llm_log[1].text",
        "  field 'steps' differs, first at steps[3].reason",
    ]


@pytest.mark.parametrize("recorded, replayed, found", [
    ({"a": [1, {"b": 2}]}, {"a": [1, {"b": 2}]}, None),
    ({"a": [1, {"b": 2}]}, {"a": [1, {"b": 3}]}, "x.a[1].b"),
    ({"a": 1, "c": 1}, {"a": 1, "b": None, "c": 2}, "x.b"),  # a key only one side has
    ([1, 2], [1, 2, 3], "x[2]"),
    ({"a": 1}, {"a": 1.0}, "x.a"),  # the dumped bytes differ
    ({"a": 1}, {"a": True}, "x.a"),
    ({"a": [1]}, {"a": {"0": 1}}, "x.a"),
])
def test_first_difference(recorded, replayed, found):
    assert first_difference("x", recorded, replayed) == found


def test_replay_with_a_copy_of_the_script_at_another_path(pinned_traces, tmp_path, capsys):
    copy = tmp_path / "elsewhere" / "copy.json"
    copy.parent.mkdir()
    copy.write_bytes(Path(SCRIPT).read_bytes())
    traces = pinned_traces["mini7"]
    assert read_traces(traces)[0]["config"]["gateway"]["script"] != str(copy)
    assert run_cli("replay", "--traces", str(traces), "--tasks", MINI7,
                   "--line", "1", "--script", str(copy)) == EXIT_OK
    assert "identical" in capsys.readouterr().out


# -- a crash inside one episode -------------------------------------------------

CRASH_VICTIM = "cool_tomato"


def _crash_in_step(monkeypatch, victim: dict) -> None:
    # "(Pickup, tomato)" is step 3 of the victim and no step of any other task
    apply_subgoal = engine.apply_subgoal

    def crashing(world, sg):
        if render_subgoal(sg) == "(Pickup, tomato)":
            raise RuntimeError("injected crash in (Pickup, tomato)")
        return apply_subgoal(world, sg)

    monkeypatch.setattr(engine, "apply_subgoal", crashing)


def _crash_in_model_call(monkeypatch, victim: dict) -> None:
    # the victim's planning call raises something that is no GatewayError
    complete = ScriptedGateway.complete

    def crashing(self, prompt, params):
        if prompt.system_text.startswith("You are a household robot's task planner") \
                and victim["instruction"] in prompt.user_text:
            raise KeyError("injected crash in the planning call")
        return complete(self, prompt, params)

    monkeypatch.setattr(ScriptedGateway, "complete", crashing)


@pytest.mark.parametrize("inject, steps, log_entries, reason", [
    # decompose and plan, request and reply each
    (_crash_in_step, 3, 4,
     "internal_error: RuntimeError: injected crash in (Pickup, tomato)"),
    # the planning request has no reply
    (_crash_in_model_call, 0, 3,
     "internal_error: KeyError: 'injected crash in the planning call'"),
], ids=["step", "model-call"])
def test_crash_in_one_episode_is_recorded_in_its_own_line(inject, steps, log_entries, reason,
                                                          tmp_path, monkeypatch, capsys):
    plain_path = pinned_run("mini7", tmp_path / "plain")
    plain = plain_path.read_text("utf-8").splitlines()
    victim_index = [json.loads(line)["task_id"] for line in plain].index(CRASH_VICTIM)
    expected = json.loads(plain[victim_index])
    inject(monkeypatch, expected)

    out = tmp_path / "crashed"
    assert run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script", SCRIPT,
                   "--seed", "42", "--out", str(out), "--parallel", "2") == EXIT_OK
    crashed = (out / "traces.jsonl").read_text("utf-8").splitlines()
    assert len(crashed) == len(plain)
    assert [line for k, line in enumerate(crashed) if k != victim_index] == \
        [line for k, line in enumerate(plain) if k != victim_index]

    record = json.loads(crashed[victim_index])
    assert record["outcome"] == "plan_exhausted"
    assert record["abort_reason"] == reason
    assert record["sr"] == 0 and record["gc"] == 0 and record["goal_conditions"] == []
    assert record["config"] == expected["config"]
    assert record["seed"] == expected["seed"]
    assert record["qa"] == expected["qa"]
    assert record["initial_plan"] == (expected["initial_plan"] if steps else None)
    assert record["steps"] == expected["steps"][:steps]
    assert record["llm_log"] == expected["llm_log"][:log_entries]

    capsys.readouterr()
    assert run_cli("replay", "--traces", str(out / "traces.jsonl"), "--tasks", MINI7,
                   "--line", str(victim_index + 1)) == EXIT_OK
    assert "identical" in capsys.readouterr().out


# -- the types in a trace record ------------------------------------------------


def first_non_plain(value, path: str = "record") -> typing.Optional[str]:
    """The path of the first key or value in ``value`` whose type is not
    exactly dict, list, str, int, float, bool or None; None when there is
    none. A str enum, a tuple or a subgoal dumps to JSON, so only its type
    gives it away."""
    if type(value) is dict:
        for key, item in value.items():
            found = (f"{path} key {key!r}" if type(key) is not str
                     else first_non_plain(item, f"{path}.{key}"))
            if found is not None:
                return found
        return None
    if type(value) is list:
        for index, item in enumerate(value):
            found = first_non_plain(item, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    return None if type(value) in (str, int, float, bool, type(None)) else path


@pytest.mark.parametrize("name", [*PINNED_RUNS, "internal-error"])
def test_trace_records_hold_only_plain_json_types(name, tmp_path, monkeypatch):
    # the records run_bench hands to dump_record, as to_record returned them
    records = []

    def dump(record: dict) -> str:
        records.append(record)
        return dump_record(record)

    monkeypatch.setattr(cli, "dump_record", dump)
    if name == "internal-error":
        _crash_in_step(monkeypatch, {})
        pinned_run("mini7", tmp_path)
        assert any((r["abort_reason"] or "").startswith("internal_error") for r in records)
    else:
        pinned_run(name, tmp_path)
    if name == "bread-recovery":
        assert any(step["replan"] for step in records[0]["steps"])
    assert records
    assert [first_non_plain(record) for record in records] == [None] * len(records)


# -- the bytes of a trace line --------------------------------------------------


def plain_dump(record: dict) -> str:
    """The encoding every trace line has, which ``dump_record`` must match."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)


@pytest.fixture(scope="module")
def scaled_tasks(tmp_path_factory) -> Path:
    """mini7 with gen_scaled's seed-1 distractors: about 310 ids a scenario,
    each biased in its decode profile."""
    path = tmp_path_factory.mktemp("scaled") / "scaled.json"
    mini7_raw = json.loads(Path(MINI7).read_text("utf-8"))
    path.write_text(json.dumps(perfbench_module("gen_scaled").add_distractors(mini7_raw, 1)),
                    "utf-8")
    return path


def _echoed(record: dict) -> bool:
    """Whether ``dump_record`` splices a kept echo text into ``record``."""
    return echo_text(record["config"]["decode"]) is not None


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_every_pinned_record_is_dumped_as_its_plain_encoding(name, tmp_path, monkeypatch):
    # compared while the run's scenarios, and so their profiles, are alive
    dumped = []

    def dump(record: dict) -> str:
        line = dump_record(record)
        dumped.append((_echoed(record), line == plain_dump(record)))
        return line

    monkeypatch.setattr(cli, "dump_record", dump)
    traces = pinned_run(name, tmp_path)
    assert dumped and dumped == [(True, True)] * len(dumped)
    read_back = read_traces(traces)
    assert not any(map(_echoed, read_back))
    assert [dump_record(record) for record in read_back] == list(map(plain_dump, read_back))


@pytest.mark.parametrize("parallelism", [1, 4])
def test_every_record_of_a_scaled_run_is_dumped_as_its_plain_encoding(
        parallelism, scaled_tasks, tmp_path):
    tasks = load_tasks(scaled_tasks)
    gw = ScriptedGateway(load_script(SCRIPT), script_path=SCRIPT)
    records = cli.run_episodes(tasks, cli.RunConfig(EpisodeConfig(), gw, 1, tmp_path,
                                                    parallelism))
    assert len(records) == 7 and all(map(_echoed, records))
    assert min(len(r["config"]["decode"]["token_bias"]) for r in records) > 300
    lines = [dump_record(record) for record in records]
    assert lines == list(map(plain_dump, records))
    read_back = read_traces(cli.write_traces(records, tmp_path))
    assert [dump_record(record) for record in read_back] == list(map(plain_dump, read_back)) \
        == lines
    # an edited copy of the shared echo is encoded whole
    record = records[0]
    decode = record["config"]["decode"]
    edited = {**record, "config": {**record["config"], "decode": {
        **decode, "token_bias": {**decode["token_bias"], "bread": 0.5}}}}
    assert not _echoed(edited)
    assert dump_record(edited) == plain_dump(edited) != lines[0]


def test_a_spliced_record_is_its_plain_encoding_at_every_key_position():
    profile = DecodeParams.for_vocab({"bread", "knife"})
    echo = profile.echo
    records = [
        {"config": {"decode": echo}},  # nothing before or after either key
        {"a": 1, "config": {"a": [], "decode": echo, "z": None}, "z": "x"},
        # text that looks like the spliced keys, before them
        {"a\"config": {"decode": None}, "config": {"decode": echo, "seed": 3}},
        {"config": {"decode": echo, "gateway": {"decode": echo}}, "echo": [echo, echo]},
    ]
    for record in records:
        assert _echoed(record)
        assert dump_record(record) == plain_dump(record), record
    for record in ({1: 0, "config": {"decode": echo}}, {"config": {"decode": echo, 1: 0}}):
        with pytest.raises(TypeError):
            plain_dump(record)
        with pytest.raises(TypeError):
            dump_record(record)
    for config in (None, [echo], "decode"):  # no config object: encoded whole
        assert dump_record({"config": config}) == plain_dump({"config": config})


def test_profiles_echoed_by_many_threads_at_once_dump_their_plain_bytes():
    # threads that build one echo at once each keep their own; every record
    # still dumps its plain bytes, and each profile ends with its echo known
    profiles = [DecodeParams.for_vocab({"bread", f"cup{i}"}) for i in range(300)]

    def dump_all(worker: int) -> list[bool]:
        records = [{"config": {"decode": p.echo}, "seed": worker} for p in profiles]
        return [dump_record(r) == plain_dump(r) for r in records]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(dump_all, w) for w in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[True] * len(profiles)] * 8
    assert all(echo_text(p.echo) == plain_dump(p.echo) for p in profiles)


def test_replay_every_line_of_a_scaled_run(scaled_tasks, tmp_path, capsys):
    # each rerun's line is spliced, and the recorded line it must equal is not
    assert run_cli("run", "--tasks", str(scaled_tasks), "--script", SCRIPT,
                   "--noise", "0.3", "--out", str(tmp_path)) == EXIT_OK
    traces = tmp_path / "traces.jsonl"
    count = len(traces.read_text("utf-8").splitlines())
    assert count == 7
    for line in range(1, count + 1):
        assert run_cli("replay", "--traces", str(traces), "--tasks", str(scaled_tasks),
                       "--line", str(line)) == EXIT_OK, line
        assert "identical" in capsys.readouterr().out, line


def _holds(value, target) -> bool:
    """Whether ``target`` itself is ``value`` or inside it."""
    if value is target:
        return True
    if type(value) is dict:
        return any(_holds(item, target) for item in value.values())
    if type(value) in (list, tuple):
        return any(_holds(item, target) for item in value)
    return False


def test_a_profile_is_encoded_once_however_many_of_its_records_are_dumped(
        scaled_tasks, tmp_path, monkeypatch):
    # two runs of one scaled scenario, four episodes each, the second in
    # parallel; every JSON encoding in the process is watched
    scenario = load_tasks(scaled_tasks).scenarios[0]
    bias = scenario.decode_profile.token_bias
    encodes = []
    iterencode = json.JSONEncoder.iterencode

    def watched(self, value, *args, **kwargs):
        encodes.append(_holds(value, bias))
        return iterencode(self, value, *args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", watched)
    gw = ScriptedGateway(load_script(SCRIPT), script_path=SCRIPT)
    tasks = TaskSet("one", "0", [scenario] * 4)
    records = []
    for parallelism in (1, 4):
        run = cli.run_episodes(tasks, cli.RunConfig(EpisodeConfig(), gw, 0, tmp_path,
                                                     parallelism))
        cli.write_traces(run, tmp_path / str(parallelism))
        records += run
    assert len(records) == 8 and encodes.count(True) == 1
    # no per-episode copy: every record holds the profile's one echo
    assert all(r["config"]["decode"] is scenario.decode_profile.echo for r in records)
    assert all(r["config"]["decode"]["token_bias"] is bias for r in records)


# -- prompts ------------------------------------------------------------------


def test_prompts_default_contains_qa_markers(tmp_path):
    out = tmp_path / "prompts"
    code = run_cli("prompts", "--tasks", MINI7, "--id", "heat_bread",
                   "--out", str(out))
    assert code == EXIT_OK
    decomposer = (out / "decomposer.txt").read_text()
    planner = (out / "planner.txt").read_text()
    assert "Q:" in decomposer
    assert "things to discover" in decomposer
    assert "Follow the template" in planner


def test_prompts_no_std_lacks_qa_lines(tmp_path):
    out = tmp_path / "prompts"
    code = run_cli("prompts", "--tasks", MINI7, "--id", "heat_bread", "--no-std",
                   "--out", str(out))
    assert code == EXIT_OK
    assert not (out / "decomposer.txt").exists()
    planner = (out / "planner.txt").read_text()
    assert planner.splitlines()[0] == "### planner (no decomposition)"
    assert "Q:" not in planner
    assert "put a heated slice of bread in the fridge" in planner


def test_prompts_cot_contains_marker(tmp_path):
    out = tmp_path / "prompts"
    code = run_cli("prompts", "--tasks", MINI7, "--id", "heat_bread", "--cot",
                   "--out", str(out))
    assert code == EXIT_OK
    decomposer = (out / "decomposer.txt").read_text()
    assert decomposer.splitlines()[0] == "### decomposer (chain-of-thought)"
    assert "Let's think step by step" in decomposer
    assert "Q:" not in decomposer
    planner = (out / "planner.txt").read_text()
    assert planner.splitlines()[0] == "### planner"
    assert "step-by-step decomposition" in planner


# sha256 of what `prompts --id heat_bread` prints for each flag combination
PROMPT_DIGESTS = Path(__file__).parent / "data" / "prompt_digests.json"
PROMPT_FLAGS = {"default": (), "no-std": ("--no-std",), "cot": ("--cot",),
                "no-std-cot": ("--no-std", "--cot")}


def test_pinned_prompt_digests(capsys):
    digests = {}
    for name, flags in PROMPT_FLAGS.items():
        capsys.readouterr()
        assert run_cli("prompts", "--tasks", MINI7, "--id", "heat_bread", *flags) == EXIT_OK
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digests == json.loads(PROMPT_DIGESTS.read_text("utf-8"))


def test_prompts_unknown_id(capsys):
    code = run_cli("prompts", "--tasks", MINI7, "--id", "ghost")
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: no scenario with id 'ghost'\n"


def test_prompts_empty_id_is_an_unknown_id(capsys):
    assert run_cli("prompts", "--tasks", MINI7, "--id", "") == EXIT_CONFIG
    assert capsys.readouterr().err == "error: no scenario with id ''\n"


def test_prompts_on_an_empty_task_set_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"scenarios": []}))
    assert run_cli("prompts", "--tasks", str(path)) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: task set is empty\n"


def test_prompts_stdout_when_no_out(capsys):
    code = run_cli("prompts", "--tasks", MINI7)
    assert code == EXIT_OK
    assert "things to discover" in capsys.readouterr().out


# -- output files ---------------------------------------------------------------


def _write_traces(tmp_path: Path, variant: int) -> Path:
    out = tmp_path / "out"
    assert run_cli("run", "--tasks", MINI7, "--script", SCRIPT, "--seed", str(42 + variant),
                   "--out", str(out)) == EXIT_OK
    return out / "traces.jsonl"


def _write_report(tmp_path: Path, variant: int) -> Path:
    traces = tmp_path / "run" / "out" / "traces.jsonl"
    if not traces.exists():
        _write_traces(tmp_path / "run", 0)
    lines = traces.read_text().splitlines(keepends=True)
    part = tmp_path / f"part{variant}.jsonl"
    part.write_text("".join(lines[:3] if variant else lines))  # variant 1: three episodes
    out = tmp_path / "out"
    assert run_cli("score", "--traces", str(part), "--tasks", MINI7, "--out", str(out)) == EXIT_OK
    return out / "report.json"


def _write_prompts(tmp_path: Path, variant: int) -> Path:
    out = tmp_path / "out"
    assert run_cli("prompts", "--tasks", MINI7, "--id", ["heat_bread", "cool_tomato"][variant],
                   "--out", str(out)) == EXIT_OK
    return out / "planner.txt"


# each writes its output file into tmp_path/out; variants 0 and 1 differ in bytes
OUTPUT_WRITERS = {"run": _write_traces, "score": _write_report, "prompts": _write_prompts}


@pytest.mark.parametrize("command", sorted(OUTPUT_WRITERS))
def test_a_rerun_replaces_the_output_and_an_open_reader_keeps_the_old_bytes(command, tmp_path,
                                                                             capsys):
    write = OUTPUT_WRITERS[command]
    path = write(tmp_path, 0)
    old = path.read_bytes()
    with path.open("rb") as reader:
        write(tmp_path, 1)
        assert reader.read() == old
    assert path.read_bytes() != old


@pytest.mark.parametrize("command", sorted(OUTPUT_WRITERS))
def test_a_rerun_with_the_same_flags_writes_the_same_bytes(command, tmp_path, capsys):
    write = OUTPUT_WRITERS[command]
    first = write(tmp_path, 0).read_bytes()
    assert write(tmp_path, 0).read_bytes() == first


def test_a_rerun_replaces_a_symlink_instead_of_writing_through_it(tmp_path, capsys):
    target = tmp_path / "elsewhere.jsonl"
    target.write_text("kept\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "traces.jsonl").symlink_to(target)
    path = _write_traces(tmp_path, 0)
    assert not path.is_symlink()
    assert len(path.read_text().splitlines()) == 7
    assert target.read_text() == "kept\n"


def _raise_malformed(*args):
    raise MalformedInput("injected while the episodes run")


@pytest.mark.parametrize("fail", ["missing script", "during the episodes"])
def test_a_run_that_exits_2_leaves_the_previous_traces_in_place(fail, tmp_path, monkeypatch,
                                                                capsys):
    path = _write_traces(tmp_path, 0)
    old = path.read_bytes()
    script = SCRIPT
    if fail == "missing script":
        script = str(tmp_path / "nope.json")
    else:
        monkeypatch.setattr(cli, "run_episode", _raise_malformed)
    assert run_cli("run", "--tasks", MINI7, "--script", script,
                   "--out", str(path.parent)) == EXIT_CONFIG
    assert path.read_bytes() == old


def test_a_directory_at_the_traces_path_is_one_io_error_line(tmp_path, capsys):
    (tmp_path / "traces.jsonl").mkdir()
    code = run_cli("run", "--tasks", MINI7, "--script", SCRIPT, "--out", str(tmp_path))
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("i/o error: ")
    assert "Traceback" not in err


# -- exit codes ---------------------------------------------------------------


def test_missing_tasks_file_is_config_error(tmp_path):
    code = run_cli("run", "--tasks", str(tmp_path / "none.json"),
                   "--gateway", "scripted", "--script", SCRIPT,
                   "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("flag", ["--tasks", "--script"])
def test_directory_as_input_file_is_config_error(flag, tmp_path, capsys):
    files = {"--tasks": MINI7, "--script": SCRIPT, flag: str(tmp_path)}
    code = run_cli("run", "--tasks", files["--tasks"], "--script", files["--script"],
                   "--seed", "1", "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def _mini7_with(change) -> str:
    data = json.loads(Path(MINI7).read_text())
    change(data)
    return json.dumps(data)


def _first_trace_with(change) -> str:
    record = {"schema_version": 1, "task_id": "heat_bread", "sr": 0, "gc": 0.0,
              "initial_plan": None, "config": {
        "failure_budget": 10, "replanning_enabled": True, "use_std": True,
        "use_cot": False, "noise": 0.0, "seed": 1,
        "decode": {"temperature": 0.0, "max_tokens": 512, "token_bias": {}},
        "gateway": {"kind": "scripted", "script": SCRIPT},
    }}
    change(record)
    return json.dumps(record)


def _script_with(change) -> str:
    data = json.loads(Path(SCRIPT).read_text())
    change(data)
    return json.dumps(data)


def _set(path: tuple, value):
    def change(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return change


def _with_entity(entity_id: str):
    def change(data):
        data["scenarios"][0]["entities"].append(
            {"id": entity_id, "category": "vase", "zone": "kitchen"})
    return change


def _drop(path: tuple):
    def change(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return change


class Inputs(typing.NamedTuple):
    """The files of one case: text or bytes, or None for the bundled one
    (for the trace file, an empty one)."""
    command: str
    tasks: str | bytes | None = None
    traces: str | bytes | None = None
    script: str | bytes | None = None


NOT_UTF8 = b'{"name": "caf\xe9"}'
# one slot over the bound, which keeps the matcher's recursion in its limit
OVERLONG_CORE = ["(Open, fridge)", "(Close, fridge)"] * 400 + ["(Open, fridge)"]

MALFORMED_INPUTS = {
    "task-root-array": ("run", "[]", None),
    "scenario-not-object": ("run", '{"scenarios": [5]}', None),
    "scenarios-not-list": ("run", '{"scenarios": {}}', None),
    "noise-not-number": ("run", _mini7_with(_set(("scenarios", 0, "noise"), "abc")), None),
    "floating-one-element": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "floating"), [[1]])), None),
    "floating-cycle": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "floating"), [[1, 2], [2, 1]])), None),
    "floating-self-anchor": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "floating"), [[1, 1]])), None),
    "floating-twice": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "floating"), [[9, 8], [9, 7]])), None),
    # an id that no subgoal line can name, on an entity that no goal or core
    # line refers to
    "entity-id-uppercase": ("run", _mini7_with(_with_entity("Mug")), None),
    "entity-id-underscore": ("run", _mini7_with(_with_entity("desk_lamp")), None),
    "entity-id-comma": ("run", _mini7_with(_with_entity("a,b")), None),
    "entity-id-duplicate": ("run", _mini7_with(
        lambda data: data["scenarios"][0]["entities"].append(
            dict(data["scenarios"][0]["entities"][1]))), None),
    "held-missing": ("run", _mini7_with(_set(("scenarios", 0, "held"), "ghost")), None),
    "held-in-container": ("run", _mini7_with(lambda data: (  # the knife, on the counter
        _set(("scenarios", 0, "entities", 1, "container"), "counter")(data),
        _set(("scenarios", 0, "held"), "knife")(data))), None),
    "containment-self": ("run", _mini7_with(
        _set(("scenarios", 0, "entities", 2, "container"), "microwave")), None),
    "containment-cycle": ("run", _mini7_with(lambda data: (  # microwave <-> fridge
        _set(("scenarios", 0, "entities", 2, "container"), "fridge")(data),
        _set(("scenarios", 0, "entities", 3, "container"), "microwave")(data))), None),
    "trace-not-json": ("score", None, "not json\n"),
    "trace-not-object-score": ("score", None, "[1]\n"),
    "trace-not-object-replay": ("replay", None, "[1]\n"),
    "trace-fields-missing": ("score", None, '{"schema_version": 1}\n'),
    "trace-sr-missing": ("score", None, '{"schema_version": 1, "task_id": "heat_bread"}\n'),
    "trace-plan-not-list": ("score", None, _first_trace_with(_set(("initial_plan",), 5))),
    "trace-plan-unknown-action": ("score", None, _first_trace_with(
        _set(("initial_plan",), ["(Fly, mug)"]))),
    "trace-sr-not-int": ("score", None, _first_trace_with(_set(("sr",), "x"))),
    "trace-sr-out-of-range": ("score", None, _first_trace_with(_set(("sr",), 5))),
    "trace-gc-negative": ("score", None, _first_trace_with(_set(("gc",), -3.0))),
    "trace-gc-above-one": ("score", None, _first_trace_with(_set(("gc",), 1.5))),
    "trace-gc-nan": ("score", None, _first_trace_with(_set(("gc",), float("nan")))),
    # sr and gc are what run_episode makes of goal_conditions, when present
    "trace-sr-contradicts-conditions": ("score", None, _first_trace_with(lambda record: (
        record.update(sr=1, gc=0.5, goal_conditions=[True, False])))),
    "trace-gc-contradicts-conditions": ("score", None, _first_trace_with(lambda record: (
        record.update(sr=0, gc=0.25, goal_conditions=[True, False])))),
    "trace-condition-not-boolean": ("score", None, _first_trace_with(lambda record: (
        record.update(sr=1, gc=1.0, goal_conditions=[True, 1])))),
    "trace-no-conditions-sr-one": ("score", None, _first_trace_with(lambda record: (
        record.update(sr=1, gc=1.0, goal_conditions=[])))),
    # the seed run writes at the top of a line is its config echo's
    "trace-seed-contradicts-echo": ("score", None, _first_trace_with(_set(("seed",), 2))),
    "echo-missing-seed": ("replay", None, _first_trace_with(_drop(("config", "seed")))),
    "echo-noise-not-number": ("replay", None, _first_trace_with(
        _set(("config", "noise"), "abc"))),
    "echo-bias-not-number": ("replay", None, _first_trace_with(
        _set(("config", "decode", "token_bias"), {"bread": "x"}))),
    "echo-budget-zero": ("replay", None, _first_trace_with(
        _set(("config", "failure_budget"), 0))),
    "echo-noise-out-of-range": ("replay", None, _first_trace_with(
        _set(("config", "noise"), 1.5))),
    "echo-temperature-nan": ("replay", None, _first_trace_with(
        _set(("config", "decode", "temperature"), float("nan")))),
    "echo-bias-nan": ("replay", None, _first_trace_with(
        _set(("config", "decode", "token_bias"), {"bread": float("nan")}))),
    "echo-bias-infinity": ("replay", None, _first_trace_with(
        _set(("config", "decode", "token_bias"), {"bread": float("inf")}))),
    "echo-temperature-infinity": ("replay", None, _first_trace_with(
        _set(("config", "decode", "temperature"), float("inf")))),
    "echo-bias-huge-integer": ("replay", None, _first_trace_with(
        _set(("config", "decode", "token_bias"), {"bread": 10**400}))),
    # 2**53 - 1 is the largest integer every JSON reader reads exactly
    "echo-max-tokens-huge-integer": ("replay", None, _first_trace_with(
        _set(("config", "decode", "max_tokens"), 10**400))),
    "echo-max-tokens-above-exact-integers": ("replay", None, _first_trace_with(
        _set(("config", "decode", "max_tokens"), 2**53))),
    "echo-budget-huge-integer": ("replay", None, _first_trace_with(
        _set(("config", "failure_budget"), 10**400))),
    "echo-budget-above-exact-integers": ("replay", None, _first_trace_with(
        _set(("config", "failure_budget"), 2**53))),
    # NaN is no JSON number, even in a field that score never reads
    "trace-unread-field-nan": ("score", None, _first_trace_with(_set(("qa",), float("nan")))),
    # more digits than Python converts to an int by default
    "trace-integer-too-long": ("score", None, _first_trace_with(_set(("sr",), 0)).replace(
        '"sr": 0', '"sr": ' + "1" * 5000)),
    "echo-not-object": ("replay", None, _first_trace_with(_set(("config",), []))),
    "echo-script-number": ("replay", None, _first_trace_with(
        _set(("config", "gateway", "script"), 5))),
    "echo-script-list": ("replay", None, _first_trace_with(
        _set(("config", "gateway", "script"), ["a"]))),
    "echo-script-object": ("replay", None, _first_trace_with(
        _set(("config", "gateway", "script"), {}))),
    "trace-task-unknown": ("replay", None, _first_trace_with(_set(("task_id",), "ghost"))),
    "echo-kind-http": ("replay", None, _first_trace_with(
        _set(("config", "gateway", "kind"), "http"))),
    "echo-script-null": ("replay", None, _first_trace_with(
        _set(("config", "gateway", "script"), None))),
    "task-not-utf8": ("run", NOT_UTF8, None),
    "script-not-utf8": ("run", None, None, NOT_UTF8),
    "trace-not-utf8": ("score", None, NOT_UTF8 + b"\n"),
    "task-type-list": ("run", _mini7_with(
        _set(("scenarios", 0, "task_type"), ["Heat"])), None),
    "goal-value-string": ("run", _mini7_with(
        _set(("scenarios", 0, "goal", 0, "value"), "false")), None),
    "floating-float": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "floating"), [[9.7, 8]])), None),
    "entity-flag-string": ("run", _mini7_with(
        _set(("scenarios", 0, "entities", 0, "pickupable"), "no")), None),
    "entity-unknown-field": ("run", _mini7_with(
        _set(("scenarios", 0, "entities", 0, "colour"), "red")), None),
    "script-entries-empty": ("run", None, None, '{"entries": []}'),
    "script-reply-null": ("run", None, None, _script_with(
        _set(("entries", 0, "reply"), None))),
    "task-root-scenario": ("run", _mini7_with(_set(("scenario",), [])), None),
    "scenario-goall": ("run", _mini7_with(_set(("scenarios", 0, "goall"), [])), None),
    "goal-key-of-other-type": ("run", _mini7_with(  # goal 0 is a state goal
        _set(("scenarios", 0, "goal", 0, "receptacle"), "fridge")), None),
    "gt-floatng": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "floatng"), [[9, 8]])), None),
    "script-entry-contians-all": ("run", None, None, _script_with(
        _set(("entries", 0, "contians_all"), ["bread"]))),
    "script-stray-fallback-reply": ("run", None, None, _script_with(
        _set(("fallback_reply",), "fallback"))),
    # scenario 0's core has 13 steps, so 13 is the first index out of range
    "wildcard-at-core-length": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "wildcards"), [13])), None),
    "floating-slot-at-core-length": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "floating"), [[13, 8]])), None),
    "floating-anchor-at-core-length": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "floating"), [[9, 13]])), None),
    "swap-end-at-core-length": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "swap_groups"), [[[0, 0], [12, 13]]])), None),
    # every core slot names entities of its own scene
    "core-unknown-object": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "core", 0), "(Pickup, ghost)")), None),
    "core-unknown-receptacle": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "core", 0), "(Put, bread, nowhere)")), None),
    "core-over-the-slot-bound": ("score", _mini7_with(
        _set(("scenarios", 0, "gt"), {"core": OVERLONG_CORE})),
        _first_trace_with(_set(("initial_plan",), OVERLONG_CORE))),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(name, tmp_path, capsys):
    case = Inputs(*MALFORMED_INPUTS[name])

    def written(content, file_name: str, bundled: str) -> str:
        if content is None:
            return bundled
        path = tmp_path / file_name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        return str(path)

    tasks = written(case.tasks, "tasks.json", MINI7)
    script = written(case.script, "script.json", SCRIPT)
    traces = written(case.traces or "", "traces.jsonl", "")
    command = case.command
    argv = {
        "run": ("run", "--tasks", tasks, "--script", script, "--seed", "1",
                "--out", str(tmp_path / "out")),
        "score": ("score", "--traces", str(traces), "--tasks", tasks),
        "replay": ("replay", "--traces", str(traces), "--tasks", tasks, "--line", "1"),
    }[command]
    assert run_cli(*argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("value, kind, expected", [
    ([True], [int], False), ([1], [bool], False), ([1.0], [int], False),
    ([1, 2], [int], True), ([True, False], [bool], True), ([1, True], [int], False),
    ([[1]], [[int]], True), ([[True]], [[int]], False), ([[1], [2, True]], [[int]], False),
    ([], [str], True), ([[]], [[str]], True), ("ab", [str], False), ((1,), [int], False),
    (["a", None], [str], False), ([None], [type(None)], True),
    (["a"], ([str], type(None)), True), (None, ([str], type(None)), True),
    ([1.5, 2], [NUMBER], True), ([1.5, True], [NUMBER], False),
])
def test_list_kinds_are_exact(value, kind, expected):
    assert _has_kind(value, kind) is expected


@pytest.mark.parametrize("flag, value", [
    ("--noise", "2"), ("--noise", "nan"), ("--timeout", "0"), ("--timeout", "nan"),
    ("--timeout", "inf"),
    ("--parallel", "0"), ("--parallel", "-1"), ("--parallel", "1.5"), ("--retries", "-1"),
    ("--endpoint", "notaurl"), ("--endpoint", "http://h:99999/x"), ("--endpoint", "ftp://h/x"),
    ("--endpoint", "http://[::1/x"),
])
def test_run_out_of_range_flag_exits_2(flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--tasks", MINI7, "--gateway", "http",
                "--endpoint", "http://127.0.0.1:9/v1", "--model", "m",
                flag, value, "--out", str(tmp_path))
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "traces.jsonl").exists()


def test_unwritable_out_dir_is_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory")
    code = run_cli("run", "--tasks", MINI7, "--gateway", "scripted",
                   "--script", SCRIPT, "--seed", "1",
                   "--out", str(blocker / "sub"))
    assert code == EXIT_IO
