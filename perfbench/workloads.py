"""The four workloads. Each makes its inputs from the seed, sets itself up
(the part ``setup_s`` times), verifies its references once, and yields
rounds of operations, each paired with the check of its output.

The checks rest on properties and on computations made apart from the
program, never on a stored copy of an earlier output:

* every mini7 episode succeeds; the recovery episode succeeds after exactly
  one replan; the noisy episode succeeds after exactly the redos that the
  noise draws of its seed predict, computed here from the published
  ``sha256("<seed>:<step>")`` rule;
* on every record ``sr`` is ``all(goal_conditions)`` and ``gc`` their mean;
* every pass's report shows SR 100 and the RelaxedHLP worked out apart from
  the matcher;
* the HTTP records equal the scripted ones but for the gateway echo, and
  their traces are byte-identical at parallelism 1 and 2;
* distractors change no episode, and hidden distractors never show;
* the swap-block verdicts are known by construction and agree with
  ``enumerate_valid_plans`` where that is small enough to run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import count, permutations
from pathlib import Path
from typing import Callable

import requests

import gen_scaled
import gen_swaps
from askplan import cli, gateway, planeval
from askplan.engine import EpisodeConfig
from askplan.plans import render_subgoal

ROOT = Path(__file__).resolve().parent.parent
ASSETS = "src/askplan"
MINI7_TASKS = f"{ASSETS}/tasks/mini7.json"
SCRIPTS = {name: f"{ASSETS}/scripts/{name}.json"
           for name in ("mini7", "bread_recovery", "bread_noisy")}
NOISE_P = 0.15
NOISY_REDOS = 2
STUB_DELAY_MS = 4.0
HTTP_PARALLELISM = 2


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def noise_failures(seed: int, draws: int = 20) -> list[int]:
    """Steps among the first ``draws`` whose controller draw fails at NOISE_P."""
    return [step for step in range(draws)
            if int.from_bytes(hashlib.sha256(f"{seed}:{step}".encode()).digest()[:8], "big")
            / 2.0 ** 64 < NOISE_P]


def noisy_run_seed(seed: int) -> int:
    """The first run seed from ``seed * 1000`` on whose single-episode run has
    exactly NOISY_REDOS controller failures, all within its first ten steps,
    so that every seed does the same work."""
    return next(candidate for candidate in count(seed * 1000)
                if len(failures := noise_failures(cli.episode_seed(candidate, 0)))
                == NOISY_REDOS and failures[-1] < 10)


def decisions(record: dict) -> list[str]:
    return [step["decision"] for step in record["steps"] if step["decision"]]


def check_record(record: dict, kind: str) -> None:
    """Properties every episode of ``kind`` (mini7, recovery, noisy) has."""
    task = record["task_id"]
    conditions = record["goal_conditions"]
    expect(bool(conditions), f"{task}: no goal conditions")
    expect(record["sr"] == int(all(conditions)), f"{task}: sr disagrees with its conditions")
    expect(math.isclose(record["gc"], sum(conditions) / len(conditions)),
           f"{task}: gc is not the mean of its conditions")
    expect(record["outcome"] == "success" and record["sr"] == 1 and record["gc"] == 1.0,
           f"{task} ({kind}): {record['outcome']} sr={record['sr']} gc={record['gc']}")
    if kind == "mini7":
        expect(decisions(record) == [], f"{task}: recovered without a failure")
    elif kind == "recovery":
        expect(decisions(record) == ["replan"], f"{task}: decisions {decisions(record)}")
    else:
        predicted = len(noise_failures(record["seed"]))
        expect(decisions(record) == ["redo"] * predicted
               and record["failure_count"] == predicted,
               f"{task}: decisions {decisions(record)}, {predicted} failures predicted")


@dataclass
class Run:
    """One ``run_bench`` call: a task set, a gateway and its episode config."""
    name: str
    kind: str
    tasks: cli.TaskSet
    gateway: object
    config: EpisodeConfig = field(default_factory=EpisodeConfig)
    parallelism: int = 1

    def __call__(self, seed: int, out: Path, parallelism: int | None = None) -> Path:
        return cli.run_bench(self.tasks, cli.RunConfig(
            self.config, self.gateway, seed, out / self.name,
            self.parallelism if parallelism is None else parallelism))


def _subset(tasks: cli.TaskSet, task_id: str) -> cli.TaskSet:
    return cli.TaskSet(task_id, tasks.version, [s for s in tasks.scenarios if s.id == task_id])


def _scripted(name: str) -> gateway.ScriptedGateway:
    return gateway.ScriptedGateway(gateway.load_script(ROOT / SCRIPTS[name]),
                                   script_path=SCRIPTS[name])


def _suite_runs(tasks: cli.TaskSet, gateways: dict, parallelism: int = 1) -> list[Run]:
    """mini7, then heat_bread with the recovery script, then (when given)
    heat_bread with the noisy script under a noise override."""
    bread = _subset(tasks, "heat_bread")
    runs = [Run("mini7", "mini7", tasks, gateways["mini7"], parallelism=parallelism),
            Run("recovery", "recovery", bread, gateways["bread_recovery"],
                parallelism=parallelism)]
    if "bread_noisy" in gateways:
        runs.append(Run("noisy", "noisy", bread, gateways["bread_noisy"],
                        EpisodeConfig(noise_override=NOISE_P)))
    return runs


def score_pass(run: Run, seed: int, out: Path, gts: dict) -> tuple:
    """One operation of mini7-scripted and http-loopback: a ``run_bench``
    pass, its traces read back and scored."""
    path = run(seed, out)
    records = cli.read_traces(path)
    return path, records, planeval.score_dataset(records, gts)


def check_pass(run: Run, records: list[dict], report, gts: dict) -> None:
    """Every episode of the pass has the properties of its kind, and the
    report shows SR 100 and the RelaxedHLP worked out apart from the
    matcher: the mini7 plans all realise their annotations; a plan equal to
    the annotated core realises it (the noisy run), and a plan with another
    number of steps cannot (the recovery run leaves out opening the fridge)."""
    expect(len(records) == len(run.tasks.scenarios), f"{run.name}: record count")
    for record in records:
        check_record(record, run.kind)
    relaxed = 100.0
    if run.kind != "mini7":
        (record,) = records
        plan = record["initial_plan"]
        core = [render_subgoal(step) for step in gts[record["task_id"]].core]
        expect(plan == core or len(plan) != len(core), f"{run.name}: verdict unknown")
        relaxed = 100.0 if plan == core else 0.0
    expect(report.sr_pct == 100.0 and report.relaxed_hlp_pct == relaxed,
           f"{run.name}: SR {report.sr_pct}, RelaxedHLP {report.relaxed_hlp_pct}, "
           f"expected 100.0 and {relaxed}")


Op = tuple[Callable[[], object], Callable[[object], None]]


class Workload:
    """Made from a seed and an output directory. ``setup`` is what
    ``setup_s`` times; ``verify`` makes the reference outputs once;
    ``round`` gives the operations of one round, each with its check."""

    def setup(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        pass

    def round(self) -> list[Op]:
        raise NotImplementedError

    def stats(self) -> dict | None:
        """The loopback stub's counters, for workloads that run one."""
        return None

    def close(self) -> None:
        pass


# One mini7-scripted round: the mini7 pass once and each bread pass twice.
# The mini7 pass (seven episodes) costs about three bread passes (one episode
# each), so it is a cluster of its own holding 20 % of the round: p90 lies in
# its middle, and the median 62 % of the way into the bread passes.
MINI7_ROUND = ("mini7", "recovery", "noisy", "recovery", "noisy")


class Mini7Scripted(Workload):
    """One operation: a pass with the scripted gateway (mini7, recovery or
    noisy), its traces read back and scored."""

    ROUND = MINI7_ROUND

    def __init__(self, seed: int, out: Path):
        self.out = out
        self.run_seed = noisy_run_seed(seed)
        self.first: dict[str, bytes] = {}

    def setup(self) -> None:
        tasks = cli.load_tasks(ROOT / MINI7_TASKS)
        self.gts = {s.id: s.gt for s in tasks.scenarios}
        self.runs = {run.name: run for run in
                     _suite_runs(tasks, {name: _scripted(name) for name in SCRIPTS})}

    def _compare(self, run: Run, path: Path, records: list[dict]) -> None:
        output = path.read_bytes()
        expect(self.first.setdefault(run.name, output) == output,
               f"{run.name}: traces differ between passes")

    def _check(self, run: Run):
        def check(result) -> None:
            path, records, report = result
            check_pass(run, records, report, self.gts)
            self._compare(run, path, records)
        return check

    def round(self) -> list[Op]:
        return [(lambda run=self.runs[name]: score_pass(run, self.run_seed, self.out, self.gts),
                 self._check(self.runs[name]))
                for name in self.ROUND]


def _strip_gateway(record: dict) -> dict:
    config = dict(record["config"])
    config.pop("gateway")
    return {**record, "config": config}


# One http-loopback round: the mini7 pass once and the recovery pass four
# times. The mini7 pass costs about two recovery passes, so p90 lies in the
# middle of the mini7 passes and the median 62 % of the way into the recovery
# passes.
HTTP_ROUND = ("mini7", "recovery", "recovery", "recovery", "recovery")


class HttpLoopback(Mini7Scripted):
    """One operation: the mini7 or the recovery pass through ``HttpGateway``
    at parallelism 2 against the loopback stub, its traces read back and
    scored."""

    ROUND = HTTP_ROUND

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        # requests would send even loopback calls to a proxy named in the
        # environment
        for key in ("NO_PROXY", "no_proxy"):
            os.environ[key] = ",".join(filter(None, (os.environ.get(key), "127.0.0.1")))
        self.stub = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "stub_server.py"),
             "--delay-ms", str(STUB_DELAY_MS),
             "--route", f"/mini7={ROOT / SCRIPTS['mini7']}",
             "--route", f"/bread_recovery={ROOT / SCRIPTS['bread_recovery']}"],
            stdout=subprocess.PIPE, text=True)
        line = self.stub.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("the stub server did not start")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def close(self) -> None:
        self.stub.terminate()
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub.stdout.close()

    def stats(self) -> dict:
        return requests.get(f"{self.base}/stats", timeout=10).json()

    def setup(self) -> None:
        self.tasks = cli.load_tasks(ROOT / MINI7_TASKS)
        self.gts = {s.id: s.gt for s in self.tasks.scenarios}
        self.runs = {run.name: run for run in _suite_runs(self.tasks, {
            name: gateway.HttpGateway(gateway.HttpGatewayConfig(
                endpoint=f"{self.base}/{name}", model="stub"))
            for name in ("mini7", "bread_recovery")}, HTTP_PARALLELISM)}

    def verify(self) -> None:
        """Reference outputs: the records of the scripted gateway, and the
        same passes at parallelism 1."""
        scripted = _suite_runs(self.tasks, {name: _scripted(name)
                                            for name in ("mini7", "bread_recovery")})
        self.scripted = {run.name: [_strip_gateway(r) for r in cli.read_traces(
            run(self.run_seed, self.out / "scripted"))] for run in scripted}
        self.serial = {name: run(self.run_seed, self.out / "serial", 1).read_bytes()
                       for name, run in self.runs.items()}

    def _compare(self, run: Run, path: Path, records: list[dict]) -> None:
        expect([_strip_gateway(r) for r in records] == self.scripted[run.name],
               f"{run.name}: http records differ from the scripted ones")
        expect(path.read_bytes() == self.serial[run.name],
               f"{run.name}: traces at parallelism 2 differ from parallelism 1")


# One scaled round: the four long episodes (heat_bread, cool_tomato, the
# recovery and the noisy run, 12-15 steps) once each, and the five short ones
# (2-6 steps) three or four times each. A long episode costs about twice a
# short one, so the long ones form a cluster of their own holding 20 % of the
# round: p90 lies in its middle, and the median 62 % of the way into the
# short episodes.
SCALED_ROUND = ("heat_bread", "stack_plate", "picktwo_remotes", "pick_watch", "examine_book",
                "recovery", "clean_ladle", "stack_plate", "picktwo_remotes", "pick_watch",
                "cool_tomato", "examine_book", "clean_ladle", "stack_plate", "picktwo_remotes",
                "noisy", "pick_watch", "examine_book", "clean_ladle", "clean_ladle")


class ScaledScenes(Workload):
    """One operation: one episode of a scenario with gen_scaled.DISTRACTORS
    inert distractors, its trace read back."""

    def __init__(self, seed: int, out: Path):
        self.out = out
        self.run_seed = noisy_run_seed(seed)
        plain = json.loads((ROOT / MINI7_TASKS).read_text("utf-8"))
        scaled = gen_scaled.add_distractors(plain, seed)
        self.tasks_path = out / "scaled_tasks.json"
        self.tasks_path.write_text(json.dumps(scaled, indent=1) + "\n", "utf-8")
        self.hidden = {s["id"]: {e["id"] for e in s["entities"]
                                 if e["zone"].startswith("storage")}
                       for s in scaled["scenarios"]}

    def _episodes(self, tasks: cli.TaskSet, gateways: dict) -> dict[str, Run]:
        episodes = {s.id: Run(s.id, "mini7", _subset(tasks, s.id), gateways["mini7"])
                    for s in tasks.scenarios}
        for run in _suite_runs(tasks, gateways)[1:]:
            episodes[run.name] = run
        return episodes

    def setup(self) -> None:
        tasks = cli.load_tasks(self.tasks_path)
        self.episodes = self._episodes(tasks, {name: _scripted(name) for name in SCRIPTS})

    def verify(self) -> None:
        """Reference records: the same episodes without distractors."""
        plain = cli.load_tasks(ROOT / MINI7_TASKS)
        gateways = {name: _scripted(name) for name in SCRIPTS}
        self.plain = {name: cli.read_traces(run(self.run_seed, self.out / "plain"))[0]
                      for name, run in self._episodes(plain, gateways).items()}

    def _op(self, run: Run):
        return lambda: cli.read_traces(run(self.run_seed, self.out))[0]

    def _check(self, name: str):
        def check(record: dict) -> None:
            check_record(record, self.episodes[name].kind)
            plain = self.plain[name]
            for key in ("outcome", "sr", "gc", "goal_conditions", "initial_plan"):
                expect(record[key] == plain[key], f"{name}: distractors changed {key}")
            expect(decisions(record) == decisions(plain),
                   f"{name}: distractors changed the recovery decisions")
            hidden = self.hidden[record["task_id"]]
            for step in record["steps"]:
                shown = {line[2:].split(" ", 1)[0] for line in step["scene"].splitlines()
                         if line.startswith("- ")}
                expect(not hidden & (shown | set(step["observed"])),
                       f"{name}: a distractor from another zone was seen")
        return check

    def round(self) -> list[Op]:
        return [(self._op(self.episodes[name]), self._check(name)) for name in SCALED_ROUND]


def _interleavings(core: list[str]) -> set[tuple[str, ...]]:
    """Distinct orders of the Pickup/Put steps of ``core`` in which, at every
    point, no object has been put more often than picked up."""
    valid = set()
    for order in set(permutations(core)):
        held = Counter()
        for step in order:
            action, obj = step.strip("()").split(", ")[:2]
            held[obj] += 1 if action == "Pickup" else -1
            if held[obj] < 0:
                break
        else:
            valid.add(order)
    return valid


class ScoreSwaps(Workload):
    """One operation: read the generated trace file, score it, write the
    report."""

    def __init__(self, seed: int, out: Path):
        self.out = out
        self.tasks_path, self.traces_path, records = gen_swaps.write(seed, out)
        self.records = records
        self.expected = self._expected(records)

    @staticmethod
    def _expected(records: list[dict]) -> dict:
        """Report percentages computed from the verdicts by construction."""
        def pct(rows, key):
            return 100.0 * sum(row[key] for row in rows) / len(rows)

        rows = [{"type": r["task_type"], "sr": r["sr"], "gc": r["gc"],
                 "strict": r["kind"] == "canonical",
                 "relaxed": r["kind"] in ("canonical", "reorder")} for r in records]
        groups = {None: rows}
        for row in rows:
            groups.setdefault(row["type"], []).append(row)
        return {name: (len(group), pct(group, "sr"), pct(group, "gc"),
                       pct(group, "strict"), pct(group, "relaxed"))
                for name, group in groups.items()}

    def setup(self) -> None:
        tasks = cli.load_tasks(self.tasks_path)
        self.gts = {s.id: s.gt for s in tasks.scenarios}

    def verify(self) -> None:
        """Cross-check every spec of at most 8 slots against the brute-force
        ``enumerate_valid_plans``, and that against an enumeration made here:
        the distinct orders of the core's steps in which no object is put
        more often than it has been picked up."""
        checked = 0
        for task_id, gt in self.gts.items():
            if len(gt.core) > 8:
                continue
            valid = {tuple(render_subgoal(step) for step in plan) for plan in
                     planeval.enumerate_valid_plans(planeval.compile_relaxed_spec(gt))}
            expect(valid == _interleavings([render_subgoal(step) for step in gt.core]),
                   f"{task_id}: enumerate_valid_plans disagrees with the interleavings")
            for record in self.records:
                if record["task_id"] == task_id:
                    expect((tuple(record["initial_plan"]) in valid)
                           == (record["kind"] in ("canonical", "reorder")),
                           f"{task_id}: {record['kind']} plan disagrees with enumeration")
            checked += 1
        expect(checked >= 2, "too few specs small enough to enumerate")

    def _op(self):
        report = planeval.score_dataset(cli.read_traces(self.traces_path), self.gts)
        (self.out / "report.json").write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n", "utf-8")
        return report

    def _check(self, report) -> None:
        got = {None: (report.n_episodes, report.sr_pct, report.gc_pct,
                      report.strict_hlp_pct, report.relaxed_hlp_pct)}
        for row in report.per_type:
            got[row.task_type] = (row.n_episodes, row.sr_pct, row.gc_pct,
                                  row.strict_hlp_pct, row.relaxed_hlp_pct)
        expect(got.keys() == self.expected.keys(), "report task types")
        for name, values in self.expected.items():
            expect(all(math.isclose(a, b) for a, b in zip(got[name], values)),
                   f"report row {name or 'overall'}: {got[name]} != {values}")

    def round(self) -> list[Op]:
        return [(self._op, self._check)]


WORKLOADS = {
    "mini7-scripted": Mini7Scripted,
    "scaled-scenes": ScaledScenes,
    "http-loopback": HttpLoopback,
    "score-swaps": ScoreSwaps,
}
