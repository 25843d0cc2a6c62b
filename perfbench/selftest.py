"""Quick self-test of the benchmark itself (under a minute).

Usage, from the repository root: ``python3 perfbench/selftest.py``.

Runs every workload, shortened, in both modes and checks that:

* every metric BENCHMARK.json names is emitted, in its declared unit,
  with a finite value (run.py's own validation);
* the output checks ran and pass in both modes, and a wrong reference
  makes the run incorrect in both modes, so the checks are live;
* a traced run's layer self times plus ``other.self_s`` sum to its
  traced run time, and its deterministic counts repeat exactly.

Exits 0 when all hold, 1 at the first that does not.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cells  # noqa: E402  (needs the program on sys.path)
import run  # noqa: E402

SHORT = {
    "dumbbell_packet": cells.DumbbellSpec(
        fidelity="packet", duration_s=1.5, warmup_s=0.5, setup_probes=2),
    "dumbbell_hybrid": cells.DumbbellSpec(
        fidelity="hybrid", duration_s=1.5, warmup_s=0.5, setup_probes=2),
    "swarm_shards2": cells.SwarmSpec(
        leechers=6, file_bytes=128 * 1024, seed_variants=1, setup_probes=1),
    "realtime_cbr": cells.RealtimeSpec(
        probe_s=0.2, stair_probe_s=0.2, setup_probes=2),
}

#: Counts a traced run must repeat exactly on a rerun.
DETERMINISTIC = (
    "simnet.engine.events", "simnet.nic.tx_packets", "tcp.segments_sent",
    "simnet.fluid.steps", "parallel.shard.rounds",
)

LAYER_SELF_TIMES = (
    "simnet.engine.self_s", "simnet.nic.self_s", "tcp.self_s", "udp.self_s",
    "apps.self_s", "simnet.fluid.self_s", "parallel.shard.self_s",
    "realtime.self_s", "core.self_s", "other.self_s",
)


def check(ok: bool, text: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {text}", flush=True)
    if not ok:
        sys.exit(1)


def short_references() -> dict:
    """References for the shortened cells, computed the way
    make_references.py computes the full ones."""
    bulk = SHORT["dumbbell_packet"].call()()
    swarm_spec = SHORT["swarm_shards2"]
    swarm = swarm_spec.call(swarm_spec.swarm_seed(0), shards=1)()
    return {
        "dumbbell": {"goodput_bps": bulk.goodput_bps,
                     "delivered_bytes": bulk.delivered_bytes,
                     "retransmits": bulk.retransmits},
        "swarm": {str(swarm_spec.swarm_seed(0)): swarm.download_times_s},
    }


def emitted(name: str, trace: bool, references: dict, wanted: list):
    outcome = cells.run_workload(name, 0, 0.0, trace, references,
                                 spec=SHORT[name])
    try:
        result = run.result_object(outcome, wanted)
    except ValueError as exc:
        check(False, f"{name} trace={int(trace)}: {exc}")
    finite = all(math.isfinite(m["value"]) for m in result["metrics"].values())
    check(finite, f"{name} trace={int(trace)}: all {len(wanted)} metrics "
          "emitted with their units, all finite")
    return outcome, result


def main() -> None:
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    references = short_references()
    for name in SHORT:
        outcome, _ = emitted(name, False, references, config["end_to_end"])
        check(bool(outcome.checks) and outcome.correct,
              f"{name}: {len(outcome.checks)} output checks ran and pass")
        traced, result = emitted(name, True, references, config["per_layer"])
        check(bool(traced.checks) and traced.correct,
              f"{name} trace=1: {len(traced.checks)} output checks ran "
              "and pass")
        metrics = result["metrics"]
        total = sum(metrics[key]["value"] for key in LAYER_SELF_TIMES)
        span = metrics["traced.run_s"]["value"]
        check(abs(total - span) <= 1e-9 * max(1.0, span),
              f"{name}: layer self times sum to traced run time {span:.3f} s")
        if name != "realtime_cbr":  # paced: counts follow the wall clock
            _, again = emitted(name, True, references, config["per_layer"])
            check(all(again["metrics"][key] == metrics[key]
                      for key in DETERMINISTIC),
                  f"{name}: deterministic counts repeat exactly")

    wrong = json.loads(json.dumps(references))
    wrong["dumbbell"]["retransmits"] += 1
    for times in wrong["swarm"].values():
        times[0] += 1e-9
    for name in ("dumbbell_packet", "swarm_shards2"):
        for trace in (False, True):
            outcome = cells.run_workload(name, 0, 0.0, trace, wrong,
                                         spec=SHORT[name])
            check(not outcome.correct,
                  f"{name} trace={int(trace)}: a wrong reference makes the "
                  "run incorrect")
    spec = dataclasses.replace(SHORT["realtime_cbr"], probe_pps=8000)
    probe = cells.cbr_probe(spec, spec.probe_pps, spec.probe_s)
    check(probe["delivered"] == probe["due"] == 1600,
          f"realtime_cbr: {probe['delivered']} datagrams delivered of "
          f"{probe['due']} due")
    print("selftest passed")


if __name__ == "__main__":
    main()
