"""Regenerate ``references.json``: the stored outputs the checks compare.

Usage, from the repository root: ``python3 perfbench/make_references.py``.

* ``dumbbell``: the packet-fidelity result of the dumbbell cell, which
  ``dumbbell_packet`` must reproduce exactly and ``dumbbell_hybrid`` is
  measured against.
* ``swarm``: per swarm seed, the sorted download times of the swarm run
  in one process, which the sharded run must reproduce exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cells  # noqa: E402  (needs the program on sys.path)


def main() -> None:
    bulk = cells.WORKLOADS["dumbbell_packet"].call()()
    swarm_spec = cells.WORKLOADS["swarm_shards2"]
    swarm = {}
    for swarm_seed in range(1, swarm_spec.seed_variants + 1):
        result = swarm_spec.call(swarm_seed, shards=1)()
        swarm[str(swarm_seed)] = result.download_times_s
        print(f"swarm seed {swarm_seed}: {result.completed} completed")
    references = {
        "dumbbell": {
            "goodput_bps": bulk.goodput_bps,
            "delivered_bytes": bulk.delivered_bytes,
            "retransmits": bulk.retransmits,
        },
        "swarm": swarm,
    }
    path = HERE / "references.json"
    path.write_text(json.dumps(references, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
