"""The traced benchmark (``perfbench/run.py --trace 1``) patches askplan
functions and methods by name; a rename on the askplan side must fail here
rather than only in a benchmark run. The check runs in a subprocess so the
patches never leak into the other tests."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
import workloads  # the benchmark's other importer of askplan names
from askplan import asset_path, cli, engine, gateway

tracer = tracing.Tracer()
tracer.install()
tasks = cli.load_tasks(asset_path("tasks/mini7.json"))
scenario = next(s for s in tasks.scenarios if s.id == "heat_bread")
gw = gateway.ScriptedGateway(gateway.load_script(asset_path("scripts/bread_recovery.json")))
trace = engine.run_episode(scenario, gw)
spans, counts = tracer.take()
names = {span[0] for span in spans}
assert trace.sr == 1, trace.abort_reason
assert counts["engine.replan"] == 1, counts
assert {"world.apply_subgoal", "world.render_scene", "plans.parse_plan",
        "prompting.gen_replan_prompt", "gateway.complete",
        "gateway.complete_multimodal"} <= names, names
print("ok")
"""


def test_tracer_installs_and_traces_an_episode():
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_a_committed_benchmark_line_is_a_correct_run_with_no_failed_operation(path):
    """Each ``BENCH_*.json`` at the repository root is the last line that
    ``perfbench/run.py`` printed: one JSON object, of a correct run in which
    no operation failed."""
    line = json.loads(path.read_text("utf-8"))
    assert isinstance(line, dict) and line.get("correct") is True and line.get("failed") == 0
