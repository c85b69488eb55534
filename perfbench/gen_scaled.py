"""Add inert distractor entities to every scenario of a task file.

Half of the distractors of a scenario sit in the scenario's agent zone, so
they show up in every rendered scene there; the rest sit in storage zones
that no entity of the scenario uses, so the agent never sees them. A
distractor has no capability flags and no container, so no subgoal of a
bundled plan can touch it. The output is an ordinary task file for
``askplan.cli.load_tasks``; the same seed always gives the same file.

    python3 perfbench/gen_scaled.py --tasks src/askplan/tasks/mini7.json \\
        --seed 1 --out scaled.json
"""

from __future__ import annotations

import argparse
import json
import random
import string
from pathlib import Path

CATEGORIES = ("vase", "crate", "pillow", "basket", "candle", "towel", "bottle", "box")
STORAGE_ZONES = 3
DISTRACTORS = 300  # per scenario


def storage_zone(k: int) -> str:
    return f"storage{k}"


def add_distractors(task_set: dict, seed: int) -> dict:
    """Return a copy of ``task_set`` with DISTRACTORS distractors per scenario.

    Names have one fixed length (five seeded letters and a four-digit
    index), so every seed renders scenes of the same size.
    """
    rng = random.Random(seed)
    scaled = json.loads(json.dumps(task_set))
    for scenario in scaled["scenarios"]:
        used_zones = {entity["zone"] for entity in scenario["entities"]}
        taken = {entity["id"] for entity in scenario["entities"]}
        if any(storage_zone(k) in used_zones for k in range(STORAGE_ZONES)):
            raise ValueError(f"{scenario['id']}: a storage zone name is already in use")
        distractors = []
        for index in range(DISTRACTORS):
            name = "".join(rng.choice(string.ascii_lowercase) for _ in range(5)) + f"{index:04d}"
            if name in taken:
                raise ValueError(f"{scenario['id']}: distractor {name!r} clashes")
            zone = scenario["agent_zone"] if index < DISTRACTORS // 2 \
                else storage_zone(rng.randrange(STORAGE_ZONES))
            distractors.append({"id": name, "category": rng.choice(CATEGORIES), "zone": zone})
        rng.shuffle(distractors)
        scenario["entities"].extend(distractors)
    return scaled


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", required=True, help="task file to scale")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="scaled task file to write")
    args = parser.parse_args()
    task_set = json.loads(Path(args.tasks).read_text("utf-8"))
    scaled = add_distractors(task_set, args.seed)
    Path(args.out).write_text(json.dumps(scaled, indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    main()
