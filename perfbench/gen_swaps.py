"""Generate the ``score-swaps`` inputs: a task set whose ground truth is one
swap group of interchangeable blocks per task, and a trace file of initial
plans whose strict and relaxed verdicts are known by construction.

A block is ``(Pickup, x)`` then ``(Put, x, r)``. In each task ``m`` blocks
move the same object, so they are identical and the matcher may assign them
in any order; ``d`` more blocks move distinct objects. Every trace carries
a ``kind`` that fixes its verdicts:

* ``canonical``: the core itself; matches strictly and relaxed;
* ``reorder``: another order of the blocks that yields another sequence;
  matches relaxed only;
* ``head_swap``: a block order with its first two steps exchanged; fails
  at the first step and matches neither;
* ``tail_swap``: the distinct blocks, then the identical ones, with the last
  two steps exchanged; fails only at the last block, after the matcher has
  tried every order of the identical blocks, and matches neither. The fixed
  block pattern makes the matcher's work the same for every seed.

Tail swaps are the stated minority (``TRACE_MIX``). The same seed always
gives the same files.

    python3 perfbench/gen_swaps.py --seed 1 --out-dir swaps/
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

# (identical blocks m, distinct blocks d) per task; tasks of at most 8 slots
# are small enough for the brute-force cross-check.
TASK_SHAPES = ((2, 1), (3, 1), (2, 2), (5, 2), (6, 2), (8, 2))
TRACE_MIX = (("canonical", 2), ("reorder", 13), ("head_swap", 4), ("tail_swap", 1))
OBJECTS = ("plate", "mug", "cup", "bowl", "apple", "pear", "lemon", "egg",
           "spoon", "fork", "candle", "soap", "sponge", "vase", "box", "key")
RECEPTACLES = ("shelf", "tray", "bin", "drawer", "basket", "cabinet")
ZONE = "storeroom"


def _steps(blocks: list[tuple[str, str]]) -> list[str]:
    steps = []
    for obj, receptacle in blocks:
        steps += [f"(Pickup, {obj})", f"(Put, {obj}, {receptacle})"]
    return steps


def _scenario(index: int, m: int, d: int, rng: random.Random) -> tuple[dict, list]:
    names = rng.sample(OBJECTS, 1 + d)
    receptacle = rng.choice(RECEPTACLES)
    blocks = [(names[0], receptacle)] * m + [(name, receptacle) for name in names[1:]]
    rng.shuffle(blocks)
    entities = [{"id": name, "category": name, "zone": ZONE, "pickupable": True}
                for name in names]
    entities.append({"id": receptacle, "category": receptacle, "zone": ZONE,
                     "is_receptacle": True})
    scenario = {
        "id": f"swap{index}",
        "task_type": f"Swap{m}+{d}",
        "instruction": f"put every {names[0]} and the rest on the {receptacle}",
        "agent_zone": ZONE,
        "entities": entities,
        "goal": [{"type": "located", "object": name, "receptacle": receptacle}
                 for name in names],
        "gt": {"core": _steps(blocks),
               "swap_groups": [[[2 * k, 2 * k + 1] for k in range(len(blocks))]]},
    }
    return scenario, blocks


def _plan(kind: str, blocks: list, rng: random.Random) -> list[str]:
    canonical = _steps(blocks)
    if kind == "canonical":
        return canonical
    if kind == "tail_swap":
        # The distinct blocks first, then the identical ones: the matcher
        # then does the same work for every seed.
        repeated = max(blocks, key=blocks.count)
        distinct = [block for block in blocks if block != repeated]
        order = rng.sample(distinct, len(distinct)) + [repeated] * blocks.count(repeated)
        steps = _steps(order)
        steps[-2], steps[-1] = steps[-1], steps[-2]
        return steps
    while True:
        steps = _steps(rng.sample(blocks, len(blocks)))
        if steps != canonical:
            break
    if kind == "head_swap":
        steps[0], steps[1] = steps[1], steps[0]
    return steps


def generate(seed: int) -> tuple[dict, list[dict]]:
    """Return the task set and the trace records (in file order)."""
    rng = random.Random(seed)
    scenarios, records = [], []
    for index, (m, d) in enumerate(TASK_SHAPES):
        scenario, blocks = _scenario(index, m, d, rng)
        scenarios.append(scenario)
        for kind, count in TRACE_MIX:
            for _ in range(count):
                admissible = kind in ("canonical", "reorder")
                records.append({
                    "schema_version": 1,
                    "task_id": scenario["id"],
                    "task_type": scenario["task_type"],
                    "kind": kind,
                    "initial_plan": _plan(kind, blocks, rng),
                    "sr": int(admissible),
                    "gc": 1.0 if admissible else 0.5,
                })
    rng.shuffle(records)
    return {"name": "swaps", "version": "1", "scenarios": scenarios}, records


def write(seed: int, out_dir: Path) -> tuple[Path, Path, list[dict]]:
    task_set, records = generate(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks_path = out_dir / "tasks.json"
    traces_path = out_dir / "traces.jsonl"
    tasks_path.write_text(json.dumps(task_set, indent=1) + "\n", "utf-8")
    traces_path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                           "utf-8")
    return tasks_path, traces_path, records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True,
                        help="directory for tasks.json and traces.jsonl")
    args = parser.parse_args()
    write(args.seed, Path(args.out_dir))


if __name__ == "__main__":
    main()
