"""askplan benchmark: one workload per process, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload mini7-scripted --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 25    # every workload, one process each

With ``--workload`` the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the raw wall times beside the scaled ones. Without
``--workload``, each workload runs in a fresh child process and a table of
all of them is printed. Outputs go to ``.perfbench_out/`` at the root of the
checkout. See perfbench/README.md.

Reference speed. The processor this was written on changes speed by up to 2x
from one minute to the next, and the guest cannot see it: CPU time and wall
time agree. So every timing is scaled to a reference speed. Between timed
pieces of work (set-ups and operations) the benchmark times a fixed reference
computation (deep copies and JSON round trips of a small dict, the kind of
work askplan does), and multiplies each piece's wall time by
``REFERENCE_MS / <mean of the references around it>`` (four for an operation,
two for a piece of set-ups). A time in ms is then
the time the work takes on a processor on which the reference takes exactly
REFERENCE_MS. The reference uses only the standard library, so no change to
askplan can move it.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("mini7-scripted", "scaled-scenes", "http-loopback", "score-swaps")
SETUP_PIECES = 25  # timed pieces of set-up per run, spread over it; setup_s is their median
SETUP_BATCH = 10  # set-ups in one timed piece, so that a piece lasts over 10 ms
MIN_OPS = 100  # a run goes on past --seconds until it holds this many operations
REFERENCE_MS = 3.0
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

_REFERENCE_DATA = {f"k{i}": {"id": i, "name": "x" * (i % 7), "flags": [True, False, i],
                             "sub": {"a": i, "b": [i, i + 1]}} for i in range(60)}


def reference_s() -> float:
    """Wall time of one reference computation. The collector is off while it
    runs, so its cost does not depend on the heap the workload holds."""
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    for _ in range(3):
        json.loads(json.dumps(copy.deepcopy(_REFERENCE_DATA), sort_keys=True))
    elapsed = time.perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


def timed(work, references: list[float]) -> tuple[float, object]:
    """Raw wall time of ``work()`` and its result. A reference computation
    runs after it (and before it, when ``references`` is empty), and its time
    is appended to ``references``."""
    if not references:
        references.append(reference_s())
    started = time.perf_counter()
    result = work()
    raw = time.perf_counter() - started
    references.append(reference_s())
    return raw, result


def scaled(raw: list[float], references: list[float]) -> list[float]:
    """Each time in ``raw`` at reference speed. Piece k ran between
    references k and k + 1; the speed there is the mean of the references
    from k - 1 to k + 2, which follows the processor's changes of speed and
    smooths the jitter of a single reference."""
    return [time * REFERENCE_MS / 1000 / statistics.fmean(references[max(0, k - 1):k + 3])
            for k, time in enumerate(raw)]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, CheckFailed  # needs askplan on sys.path
    import tracing

    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[name](seed, out)
    correct, failed, raw, references, setups = True, 0, [], [], []

    def set_up() -> None:
        """One timed piece of SETUP_BATCH set-ups, with reference computations
        before and after it; appends (raw time of one set-up, mean reference
        time) to ``setups``."""
        before = reference_s()
        started = time.perf_counter()
        for _ in range(SETUP_BATCH):
            workload.setup()
        elapsed = time.perf_counter() - started
        setups.append((elapsed / SETUP_BATCH, (before + reference_s()) / 2))

    try:
        for _ in range(20):  # warm the reference up
            reference_s()
        set_up()
        if tracer:
            setup_spans = tracer.take()
        workload.verify()
        for op, check in workload.round():  # warm-up
            check(op())
        if tracer:
            tracer.take()
            stats_before = workload.stats()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or len(raw) + failed < MIN_OPS:
            for op, check in workload.round():
                try:
                    op_raw, result = timed(op, references)
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                raw.append(op_raw)
                try:
                    check(result)
                except CheckFailed as exc:
                    print(f"check failed: {exc}", file=sys.stderr)
                    correct = False
            # the other set-up pieces are spread over the run, so that their
            # median does not rest on the processor's speed in one moment
            if len(setups) < SETUP_PIECES \
                    and time.perf_counter() - started >= len(setups) * seconds / SETUP_PIECES:
                set_up()
        while len(setups) < SETUP_PIECES:
            set_up()
        if tracer:
            timed_spans = tracer.take()
            stats_after = workload.stats()
    finally:
        workload.close()

    attempted = len(raw) + failed
    setup_raw = [setup for setup, _ in setups]
    setup_scaled = [setup * REFERENCE_MS / 1000 / reference for setup, reference in setups]
    figures = {"raw": end_to_end(setup_raw, raw),
               "scaled": end_to_end(setup_scaled, scaled(raw, references))}
    for key, unit in END_TO_END.items():
        print(f"# {name} {key:<12} {figures['scaled'][key]:>12.4f} {unit:<4}"
              f" raw {figures['raw'][key]:>12.4f}")
    if not trace:
        metrics, units = figures["scaled"], END_TO_END
    else:
        metrics = tracing.per_layer(setup_spans, timed_spans, SETUP_BATCH, len(raw))
        metrics["traced.ops_per_s"] = figures["scaled"]["ops_per_s"]
        metrics.update(http_metrics(timed_spans[0], stats_before, stats_after))
        tracing.write_spans(timed_spans[0], out / "spans.tsv")
        units = {key: unit for key, (unit, _) in tracing.PER_LAYER.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit}
                        for key, unit in units.items()}}


def end_to_end(setups: list[float], durations: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(durations) / sum(durations),
        "op_ms.p50": 1000 * statistics.median(durations),
        "op_ms.p90": 1000 * statistics.quantiles(durations, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def http_metrics(spans: list, before: dict | None, after: dict | None) -> dict:
    """Per-call figures of the client and the stub for the timed operations;
    zero where the workload runs no stub."""
    names = ("gateway.complete", "gateway.complete_multimodal")
    calls = [span for span in spans if span[0] in names]
    if before is None or not calls:
        return {}
    server_ms = after["service_ms"] - before["service_ms"]
    client_ms = 1000 * sum(span[2] - span[1] for span in calls) - server_ms
    return {
        "gateway.http.server_ms": server_ms / len(calls),
        "gateway.http.client_ms": client_ms / len(calls),
        "gateway.http.connections_per_call":
            (after["connections"] - before["connections"]) / len(calls),
        "gateway.http.requests_per_call":
            (after["requests"] - before["requests"]) / len(calls),
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; a table and one JSON line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if child.returncode != 0:
            print(f"{name}: exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(child.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:<44} {metric['value']:>14.4f} {metric['unit']}")
            merged["metrics"][f"{name}/{key}"] = metric
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="askplan benchmark")
    parser.add_argument("--workload", choices=NAMES,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    source = ROOT / "src" / "askplan" / "__init__.py"
    if not source.is_file():
        print(f"error: askplan sources not found at {source.parent}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
