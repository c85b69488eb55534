from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askplan import asset_path
from askplan.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    MalformedTaskSet,
    dump_record,
    episode_seed,
    load_tasks,
    main,
    read_traces,
)
from askplan.engine import EpisodeConfig
from askplan.gateway import ScriptedGateway, load_script

MINI7 = str(asset_path("tasks/mini7.json"))
SCRIPT = str(asset_path("scripts/mini7.json"))


def run_cli(*argv) -> int:
    return main(list(argv))


# -- load_tasks ---------------------------------------------------------------


def test_load_tasks_bundled_mini7():
    tasks = load_tasks(MINI7)
    assert tasks.name == "mini7"
    assert len(tasks.scenarios) == 7
    assert {s.task_type for s in tasks.scenarios} == {
        "Heat", "Cool", "Clean", "Pick Two", "Stack", "Pick", "Examine"}


def test_load_tasks_duplicate_id(tmp_path):
    data = json.loads(Path(MINI7).read_text())
    data["scenarios"].append(data["scenarios"][0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedTaskSet):
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
    with pytest.raises(MalformedTaskSet) as err:
        load_tasks(path)
    assert err.value.scenario_id == "heat_bread"


def _json_paths(node, prefix: tuple = ()):
    """Every path into a JSON value, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


_MINI7_DATA = json.loads(Path(MINI7).read_text())
_DELETE = object()
_JUNK = (_DELETE, None, True, 0, -1, 2.5, "", "abc", [], [[1]], [5], {}, {"x": 1})


def _mutate(data, path: tuple, value):
    """Replace (or delete) the value at ``path``; a path that no longer
    resolves leaves ``data`` as it is."""
    if value is not _DELETE:
        value = json.loads(json.dumps(value))  # junk values are shared
    if not path:
        return data if value is _DELETE else value
    node = data
    try:
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    except (LookupError, TypeError):
        pass
    return data


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "tasks.json"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(_json_paths(_MINI7_DATA))),
                          st.sampled_from(_JUNK)), min_size=1, max_size=3))
def test_load_tasks_fuzz_returns_or_raises_malformed(fuzz_file, mutations):
    data = json.loads(json.dumps(_MINI7_DATA))
    for path, value in mutations:
        data = _mutate(data, path, value)
    fuzz_file.write_text(json.dumps(data))
    try:
        load_tasks(fuzz_file)
    except MalformedTaskSet:
        pass


def test_episode_seed_stable():
    assert episode_seed(42, 3) == episode_seed(42, 3)
    assert episode_seed(42, 3) != episode_seed(42, 4)


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


def test_run_deterministic_across_invocations(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script",
                   SCRIPT, "--seed", "42", "--out", str(out_a)) == EXIT_OK
    assert run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script",
                   SCRIPT, "--seed", "42", "--out", str(out_b)) == EXIT_OK
    assert (out_a / "traces.jsonl").read_bytes() == (out_b / "traces.jsonl").read_bytes()


def test_run_parallelism_does_not_change_output(tmp_path):
    out_a, out_b = tmp_path / "p1", tmp_path / "p4"
    run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script", SCRIPT,
            "--seed", "7", "--out", str(out_a), "--parallel", "1")
    run_cli("run", "--tasks", MINI7, "--gateway", "scripted", "--script", SCRIPT,
            "--seed", "7", "--out", str(out_b), "--parallel", "4")
    assert (out_a / "traces.jsonl").read_bytes() == (out_b / "traces.jsonl").read_bytes()


def test_run_missing_script_is_config_error(tmp_path):
    code = run_cli("run", "--tasks", MINI7, "--gateway", "scripted",
                   "--script", str(tmp_path / "nope.json"), "--seed", "1",
                   "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert not (tmp_path / "traces.jsonl").exists()


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


def test_run_http_gateway_against_stub(tmp_path):
    # the stub answers every chat request with canned prose, so decomposition
    # fails; the batch must still complete with recorded per-episode outcomes
    from test_gateway import _serving, _StubHandler

    with _serving(_StubHandler) as endpoint:
        code = run_cli("run", "--tasks", MINI7, "--gateway", "http",
                       "--endpoint", endpoint, "--model", "stub-model",
                       "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_OK
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


def test_score_unknown_task_id(trace_dir, tmp_path):
    records = [json.loads(line) for line in
               (trace_dir / "traces.jsonl").read_text().splitlines()]
    records[0]["task_id"] = "ghost_task"
    mangled = tmp_path / "mangled.jsonl"
    mangled.write_text("\n".join(json.dumps(r) for r in records))
    code = run_cli("score", "--traces", str(mangled), "--tasks", MINI7,
                   "--format", "json")
    assert code == EXIT_CONFIG


def test_score_schema_mismatch(trace_dir, tmp_path):
    records = [json.loads(line) for line in
               (trace_dir / "traces.jsonl").read_text().splitlines()]
    records[0]["schema_version"] = 999
    mangled = tmp_path / "mangled.jsonl"
    mangled.write_text("\n".join(json.dumps(r) for r in records))
    code = run_cli("score", "--traces", str(mangled), "--tasks", MINI7,
                   "--format", "json")
    assert code == EXIT_CONFIG


# -- pinned traces ------------------------------------------------------------

# The digests pin the trace bytes of these runs; a change that alters them
# changes the trace format, and replay of older traces with it.
DIGESTS = Path(__file__).parent / "data" / "trace_digests.json"

# name -> (script, heat_bread only, extra run flags); every run uses seed 42
PINNED_RUNS = {
    "mini7": ("mini7", False, ()),
    "mini7-static": ("mini7", False, ("--static",)),
    "mini7-no-std": ("mini7", False, ("--no-std",)),
    "mini7-cot": ("mini7", False, ("--cot",)),
    "bread-recovery": ("bread_recovery", True, ()),
    "bread-noisy": ("bread_noisy", True, ("--noise", "0.3")),
}


def pinned_run(name: str, out: Path) -> Path:
    """Run one pinned configuration into ``out`` and return its trace file."""
    script, bread_only, flags = PINNED_RUNS[name]
    tasks = Path(MINI7)
    if bread_only:
        data = json.loads(tasks.read_text())
        data["scenarios"] = [s for s in data["scenarios"] if s["id"] == "heat_bread"]
        tasks = out / "heat_bread.json"
        tasks.write_text(json.dumps(data))
    assert run_cli("run", "--tasks", str(tasks), "--gateway", "scripted",
                   "--script", str(asset_path(f"scripts/{script}.json")),
                   "--seed", "42", "--out", str(out), *flags) == EXIT_OK
    return out / "traces.jsonl"


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
def pinned_traces(tmp_path_factory) -> dict[str, Path]:
    return {name: pinned_run(name, tmp_path_factory.mktemp(name)) for name in PINNED_RUNS}


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


def test_config_echo_round_trip(pinned_traces):
    for name, traces in pinned_traces.items():
        for record in read_traces(traces):
            echo = record["config"]
            script = echo["gateway"]["script"]
            gw = ScriptedGateway(load_script(script), script_path=script)
            assert EpisodeConfig.from_echo(echo).to_echo(gw) == echo, name


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


def test_replay_line_out_of_range(trace_dir):
    code = run_cli("replay", "--traces", str(trace_dir / "traces.jsonl"),
                   "--tasks", MINI7, "--line", "99", "--script", SCRIPT)
    assert code == EXIT_CONFIG


def test_replay_detects_divergence(trace_dir, tmp_path, capsys):
    records = [json.loads(line) for line in
               (trace_dir / "traces.jsonl").read_text().splitlines()]
    records[0]["sr"] = 0
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records))
    code = run_cli("replay", "--traces", str(tampered), "--tasks", MINI7,
                   "--line", "1", "--script", SCRIPT)
    assert code == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out
    assert "'sr'" in out


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
    assert "Q:" not in planner
    assert "put a heated slice of bread in the fridge" in planner


def test_prompts_cot_contains_marker(tmp_path):
    out = tmp_path / "prompts"
    code = run_cli("prompts", "--tasks", MINI7, "--id", "heat_bread", "--cot",
                   "--out", str(out))
    assert code == EXIT_OK
    decomposer = (out / "decomposer.txt").read_text()
    assert "Let's think step by step" in decomposer
    assert "Q:" not in decomposer
    planner = (out / "planner.txt").read_text()
    assert "step-by-step decomposition" in planner


def test_prompts_unknown_id(tmp_path):
    code = run_cli("prompts", "--tasks", MINI7, "--id", "ghost")
    assert code == EXIT_CONFIG


def test_prompts_stdout_when_no_out(capsys):
    code = run_cli("prompts", "--tasks", MINI7)
    assert code == EXIT_OK
    assert "things to discover" in capsys.readouterr().out


# -- exit codes ---------------------------------------------------------------


def test_missing_tasks_file_is_config_error(tmp_path):
    code = run_cli("run", "--tasks", str(tmp_path / "none.json"),
                   "--gateway", "scripted", "--script", SCRIPT,
                   "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_CONFIG


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


def _set(path: tuple, value):
    def change(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return change


def _drop(path: tuple):
    def change(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return change


# (command, task file text or None for mini7, trace file text or None)
MALFORMED_INPUTS = {
    "task-root-array": ("run", "[]", None),
    "scenario-not-object": ("run", '{"scenarios": [5]}', None),
    "scenarios-not-list": ("run", '{"scenarios": {}}', None),
    "noise-not-number": ("run", _mini7_with(_set(("scenarios", 0, "noise"), "abc")), None),
    "floating-one-element": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "floating"), [[1]])), None),
    "floating-cycle": ("run", _mini7_with(
        _set(("scenarios", 0, "gt", "floating"), [[1, 2], [2, 1]])), None),
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
    "echo-missing-seed": ("replay", None, _first_trace_with(_drop(("config", "seed")))),
    "echo-noise-not-number": ("replay", None, _first_trace_with(
        _set(("config", "noise"), "abc"))),
    "echo-bias-not-number": ("replay", None, _first_trace_with(
        _set(("config", "decode", "token_bias"), {"bread": "x"}))),
    "echo-budget-zero": ("replay", None, _first_trace_with(
        _set(("config", "failure_budget"), 0))),
    "echo-not-object": ("replay", None, _first_trace_with(_set(("config",), []))),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(name, tmp_path, capsys):
    command, task_text, trace_text = MALFORMED_INPUTS[name]
    tasks = MINI7
    if task_text is not None:
        tasks = str(tmp_path / "tasks.json")
        Path(tasks).write_text(task_text)
    traces = tmp_path / "traces.jsonl"
    traces.write_text(trace_text or "")
    argv = {
        "run": ("run", "--tasks", tasks, "--script", SCRIPT, "--seed", "1",
                "--out", str(tmp_path / "out")),
        "score": ("score", "--traces", str(traces), "--tasks", tasks),
        "replay": ("replay", "--traces", str(traces), "--tasks", tasks, "--line", "1"),
    }[command]
    assert run_cli(*argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_unwritable_out_dir_is_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory")
    code = run_cli("run", "--tasks", MINI7, "--gateway", "scripted",
                   "--script", SCRIPT, "--seed", "1",
                   "--out", str(blocker / "sub"))
    assert code == EXIT_IO
