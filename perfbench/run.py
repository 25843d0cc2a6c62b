"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload dumbbell_packet --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones (names and units in ``BENCHMARK.json``). Every metric is
printed by name with its unit, then the output checks, a provenance
line, and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exits 2 without a result when
the program's sources are missing and 1 when a metric is not produced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_rev(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def result_object(outcome, wanted) -> dict:
    """The run's result line: every wanted metric, in its declared unit.

    ``wanted`` is BENCHMARK.json's ``end_to_end`` or ``per_layer`` list.
    Raises ValueError when a metric is missing or in another unit.
    """
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in outcome.metrics:
            raise ValueError(f"metric {name} not produced")
        value, unit = outcome.metrics[name]
        if unit != metric["unit"]:
            raise ValueError(
                f"{name} in {unit}, BENCHMARK.json says {metric['unit']}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cells  # needs the program on sys.path

    if args.workload not in cells.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(cells.WORKLOADS)}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = config["per_layer" if args.trace else "end_to_end"]
    references = json.loads((HERE / "references.json").read_text())

    outcome = cells.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), references)
    try:
        result = result_object(outcome, wanted)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:<36} {metric['value']:>18.6g} {metric['unit']}")
    for line in outcome.checks:
        print(line)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload == "swarm_shards2",
        "params": dataclasses.asdict(cells.WORKLOADS[args.workload]),
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": _git_rev(ROOT),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
