"""The benchmark's four workloads, their output checks and their metrics.

Each workload function takes its spec, the seed, the measuring budget in
seconds and the trace flag, and returns an :class:`Outcome`. Untraced
(``trace=False``) runs yield the end-to-end metrics. Traced runs make one
plain call and one traced call (counts, shard-mesh split, sampled self
time per layer) and yield the per-layer metrics; the ratio of the two
calls' run times is ``trace_overhead``. Both kinds of run check every
call's output the same way. Why each workload exists, and which
layer metric should move which end-to-end metric, is in ``README.md``
beside this file.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.crosstraffic import CbrSource, UdpSink
from repro.core.dilation import NetworkProfile
from repro.core.tdf import as_tdf
from repro.core.vmm import Hypervisor
from repro.harness.experiments import (
    BitTorrentResult, run_bittorrent, run_bulk,
)
from repro.realtime.driver import RealtimeConfig, RealtimeDriver
from repro.simnet.topology import Network
from repro.simnet.units import mbps, ms
from repro.udp.socket import UdpStack

from instrument import (
    LAYERS, Probe, SetupReached, host_speed_now, max_rss_kb,
)

#: An error below this is reported as this: the comparisons are exact,
#: and a metric of 0 would have no relative spread.
FIDELITY_FLOOR = 1e-9

#: The hybrid-vs-packet goodput gate of the 40 ms cell in
#: ``benchmarks/test_fluid_reduction.py``.
HYBRID_GOODPUT_GATE = 0.05

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    correct: bool
    attempted: int
    failed: int
    metrics: Metrics
    #: Human-readable check results, one line each.
    checks: List[str] = field(default_factory=list)


def _check(checks: List[str], ok: bool, text: str) -> bool:
    checks.append(f"[{'ok' if ok else 'FAIL'}] {text}")
    return ok


def _rel(measured: float, reference: float) -> float:
    return abs(measured - reference) / abs(reference)


def _setup_only(call: Callable[[], Any]) -> float:
    """Seconds from the runner call to its first engine run, then abort;
    at reference host speed, as measured just before the call."""
    probe = Probe(stop_at_setup=True)
    gc.collect()
    speed = host_speed_now()
    started = time.perf_counter()
    try:
        with probe:
            call()
    except SetupReached:
        pass
    except RuntimeError as exc:  # a sharded worker reached it
        if SetupReached.__name__ not in str(exc):
            raise
    else:
        raise RuntimeError("runner returned without running its engine")
    return (probe.first_event - started) * speed


@dataclass
class _Call:
    """One timed runner call; ``run_s`` as measured, from the first
    engine run until the call returned."""

    result: Any
    run_s: float
    probe: Probe


def _timed(call: Callable[[], Any], probe: Probe) -> _Call:
    gc.collect()
    with probe:
        result = call()
    ended = time.perf_counter()
    if getattr(result, "shard_stats", None):
        probe.take_workers(result.shard_stats)
    return _Call(result, ended - probe.first_event, probe)


def _speed_note(calls: List[_Call]) -> str:
    """One line on the host speed the measured calls ran at."""
    speeds = [call.probe.speed for call in calls]
    raw = statistics.median([call.run_s for call in calls])
    return (f"host speed {min(speeds):.3f}-{max(speeds):.3f} x reference "
            f"over {len(calls)} calls; run_s as measured: median {raw:.3f} s")


def _within(seconds: float, step: Callable[[], Any]) -> List[Any]:
    """Repeat ``step`` while another one is expected to end within
    ``seconds`` of the start, judged by the last one's duration; at least
    once. Keeps a run's length near ``seconds`` on any host speed."""
    done: List[Any] = []
    started = last = time.perf_counter()
    while True:
        done.append(step())
        now = time.perf_counter()
        if now - started + (now - last) > seconds:
            return done
        last = now


def _repeat(call: Callable[[], Any], seconds: float,
            setup_probes: int) -> Tuple[List[float], List[_Call]]:
    """Untraced calls of one runner for about ``seconds``: the set-up
    times of ``setup_probes`` set-up-only calls before each call, and the
    calls. Interleaving spreads the set-up samples over the whole run, as
    host speed drifts within it."""
    setups: List[float] = []

    def step() -> _Call:
        setups.extend(_setup_only(call) for _ in range(setup_probes))
        return _timed(call, Probe(count=True, meter=True))

    return setups, _within(seconds, step)


def _peak_rss_mb(calls: List[_Call]) -> float:
    """Peak RSS of this process plus each sharded worker's peak."""
    workers: Dict[int, int] = {}
    for call in calls:
        for shard_id, report in enumerate(call.probe.workers):
            workers[shard_id] = max(workers.get(shard_id, 0),
                                    report["maxrss_kb"])
    return (max_rss_kb() + sum(workers.values())) / 1024.0


def _end_to_end(setups: List[float], calls: List[_Call], fidelity: float,
                physical_span_s: float) -> Metrics:
    """Metrics of a batch workload (one not paced against the clock).

    Host times are medians at reference host speed (``setups`` already
    are). ``rt_max_pps`` and ``rt_busy_frac`` are the pacing figures a batch
    run implies: link transmissions per host second (the virtual packet
    rate a TDF-1 pacer could be fed before falling behind, an upper
    bound as batch runs pay no pacing overhead) and the share of the
    run's physical span it kept the host busy.
    """
    run_s = statistics.median(
        [call.run_s * call.probe.speed for call in calls])
    setup_s = statistics.median(setups)
    tx = calls[0].probe.counts["tx_packets"]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(calls), "MB"),
        "fidelity_error": (max(fidelity, FIDELITY_FLOOR), "ratio"),
        "rt_max_pps": (tx / run_s, "pkt/s"),
        "rt_busy_frac": (run_s / physical_span_s, "ratio"),
    }


# ------------------------------------------------------------- per layer


def _layer_metrics(counts: Dict[str, float], self_s: Dict[str, float],
                   sampled_s: float, overhead: float,
                   workers: List[Dict[str, Any]],
                   shard_stats: List[Dict[str, Any]],
                   pacing: Optional[Dict[str, float]] = None,
                   datagrams: int = 0,
                   swarm: Optional[Any] = None) -> Metrics:
    """Every per-layer metric; layers a workload bypasses report 0."""

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator * scale / denominator if denominator else 0.0

    layer_s = {layer: self_s.get(layer, 0.0) for layer in LAYERS}
    # "other" is everything the named layers do not cover: unmapped code
    # plus sampled time no function was charged with, so the self times
    # sum to the sampled span exactly.
    layer_s["other"] = sampled_s - sum(
        seconds for layer, seconds in layer_s.items() if layer != "other")
    events = counts.get("events", 0)
    tx = counts.get("tx_packets", 0)
    segments = counts.get("tcp.segments_sent", 0)
    drains = counts.get("fluid.drains", 0)
    shard_events = [stats["events_processed"] for stats in shard_stats]
    pacing = pacing or {}
    metrics: Metrics = {
        "simnet.engine.events": (events, "count"),
        "simnet.engine.self_s": (layer_s["simnet.engine"], "s"),
        "simnet.engine.ns_per_event":
            (per(layer_s["simnet.engine"], events, 1e9), "ns"),
        "simnet.engine.dead_entries_reaped":
            (counts.get("dead_entries_reaped", 0), "count"),
        "simnet.nic.tx_packets": (tx, "count"),
        "simnet.nic.self_s": (layer_s["simnet.nic"], "s"),
        "simnet.nic.ns_per_hop": (per(layer_s["simnet.nic"], tx, 1e9), "ns"),
        "simnet.nic.events_per_hop": (per(events, tx), "ratio"),
        "simnet.nic.drops": (counts.get("drops", 0), "count"),
        "tcp.segments_sent": (segments, "count"),
        "tcp.retransmits": (counts.get("tcp.retransmits", 0), "count"),
        "tcp.timeouts": (counts.get("tcp.timeouts", 0), "count"),
        "tcp.self_s": (layer_s["tcp"], "s"),
        "tcp.ns_per_segment": (per(layer_s["tcp"], segments, 1e9), "ns"),
        "udp.datagrams": (datagrams, "count"),
        "udp.self_s": (layer_s["udp"], "s"),
        "apps.self_s": (layer_s["apps"], "s"),
        "apps.bittorrent.connections":
            (swarm.connections_total if swarm else 0, "count"),
        "apps.bittorrent.announces":
            (swarm.tracker_announces if swarm else 0, "count"),
        "simnet.fluid.steps": (counts.get("fluid.steps", 0), "count"),
        "simnet.fluid.entries": (counts.get("fluid.entries", 0), "count"),
        "simnet.fluid.exits": (counts.get("fluid.exits", 0), "count"),
        "simnet.fluid.events_saved":
            (counts.get("fluid.events_saved", 0), "count"),
        "simnet.fluid.drain_abort_ratio":
            (per(counts.get("fluid.drain_aborts", 0), drains), "ratio"),
        "simnet.fluid.self_s": (layer_s["simnet.fluid"], "s"),
        "parallel.shard.rounds":
            (shard_stats[0]["rounds"] if shard_stats else 0, "count"),
        "parallel.shard.windows":
            (shard_stats[0]["windows"] if shard_stats else 0, "count"),
        "parallel.shard.messages":
            (sum(s["messages_in"] for s in shard_stats), "count"),
        "parallel.shard.event_imbalance": (
            per(max(shard_events), statistics.mean(shard_events))
            if shard_events else 1.0, "ratio"),
        "parallel.shard.self_s": (layer_s["parallel.shard"], "s"),
        "realtime.batches": (pacing.get("batches", 0), "count"),
        "realtime.miss_rate": (pacing.get("miss_rate", 0.0), "ratio"),
        "realtime.mean_slip_ms":
            (pacing.get("mean_slip_s", 0.0) * 1e3, "ms"),
        "realtime.max_slip_ms": (pacing.get("max_slip_s", 0.0) * 1e3, "ms"),
        "realtime.busy_s": (pacing.get("busy_s", 0.0), "s"),
        "realtime.sleep_s": (pacing.get("sleep_s", 0.0), "s"),
        "realtime.spin_s": (pacing.get("spin_s", 0.0), "s"),
        "realtime.self_s": (layer_s["realtime"], "s"),
        "core.self_s": (layer_s["core"], "s"),
        "other.self_s": (layer_s["other"], "s"),
        "traced.run_s": (sampled_s, "s"),
        "trace_overhead": (overhead, "ratio"),
    }
    # Each worker's wall time split three ways (ROADMAP item 1): compute
    # is the rest of the worker's time once its mesh pipes are timed.
    for part in ("compute_s", "serialize_s", "wait_s"):
        metrics[f"parallel.shard.{part}"] = (0.0, "s")
        for shard_id in range(2):
            metrics[f"parallel.shard.w{shard_id}.{part}"] = (0.0, "s")
    for shard_id, report in enumerate(workers):
        split = {
            "serialize_s": report["serialize_s"],
            "wait_s": report["wait_s"],
            "compute_s":
                report["wall_s"] - report["serialize_s"] - report["wait_s"],
        }
        for part, seconds in split.items():
            metrics[f"parallel.shard.w{shard_id}.{part}"] = (seconds, "s")
            total = metrics[f"parallel.shard.{part}"][0]
            metrics[f"parallel.shard.{part}"] = (total + seconds, "s")
    return metrics


def _traced(call: Callable[[], Any]) -> Tuple[List[_Call], Metrics]:
    """One plain and one traced call of a batch workload: both calls,
    for the output checks, and the traced call's per-layer metrics."""
    plain = _timed(call, Probe(count=True))
    traced = _timed(call, Probe(count=True, sample=True))
    result = traced.result
    return [plain, traced], _layer_metrics(
        traced.probe.counts, traced.probe.self_s, traced.probe.sampled_s,
        traced.run_s / plain.run_s, traced.probe.workers,
        getattr(result, "shard_stats", []),
        swarm=result if isinstance(result, BitTorrentResult) else None)


# -------------------------------------------------------------- dumbbell


@dataclass(frozen=True)
class DumbbellSpec:
    """Bulk TCP over the fig3 dumbbell; closed loop (backlogged senders)."""

    fidelity: str
    bandwidth_bps: float = mbps(100)
    rtt_s: float = ms(40)
    tdf: int = 10
    flows: int = 2
    duration_s: float = 12.0
    warmup_s: float = 1.0
    mss: int = 1460
    #: Set-up-only calls before each measured call.
    setup_probes: int = 8

    def call(self) -> Callable[[], Any]:
        perceived = NetworkProfile.from_rtt(self.bandwidth_bps, self.rtt_s)
        return lambda: run_bulk(
            perceived, tdf=self.tdf, duration_s=self.duration_s,
            warmup_s=self.warmup_s, flows=self.flows, mss=self.mss,
            fidelity=self.fidelity)

    def payload_capacity_bytes(self) -> float:
        """Most payload the bottleneck can carry over the measured span."""
        span = self.duration_s - self.warmup_s
        return (self.bandwidth_bps * self.mss / (self.mss + 40)) * span / 8


def _dumbbell_checks(spec: DumbbellSpec, reference: Dict[str, float],
                     calls: List[_Call]) -> Tuple[bool, int, List[str]]:
    """Check every call's output; returns (correct, failed, check lines).

    Packet fidelity must reproduce ``reference`` exactly; hybrid fidelity
    must repeat its first call exactly and conserve bytes. A call whose
    output misses a gate (the link's payload capacity, and for hybrid
    the 5% goodput gate against ``reference``) is one failed
    operation, not an incorrect run.
    """
    checks: List[str] = []
    correct = True
    failed = 0
    capacity = spec.payload_capacity_bytes()
    first = calls[0].result
    for index, c in enumerate(calls):
        r = c.result
        tag = f"call {index}:"
        if spec.fidelity == "packet":
            correct &= _check(
                checks,
                (r.goodput_bps, r.delivered_bytes, r.retransmits)
                == (reference["goodput_bps"], reference["delivered_bytes"],
                    reference["retransmits"]),
                f"{tag} goodput {r.goodput_bps:.1f} b/s, "
                f"{r.delivered_bytes} B, {r.retransmits} retransmits "
                "equal the reference")
        else:
            correct &= _check(
                checks,
                (r.goodput_bps, r.delivered_bytes)
                == (first.goodput_bps, first.delivered_bytes),
                f"{tag} hybrid result repeats call 0 exactly")
            correct &= _check(
                checks,
                c.probe.counts.get("fluid.conservation_failures", 0) == 0,
                f"{tag} fluid byte-conservation failures = 0")
        gates_met = _check(
            checks, r.delivered_bytes <= capacity,
            f"{tag} delivered {r.delivered_bytes} B <= payload capacity "
            f"{capacity:.0f} B")
        if spec.fidelity == "hybrid":
            gates_met &= _check(
                checks, _rel(r.goodput_bps, reference["goodput_bps"])
                <= HYBRID_GOODPUT_GATE,
                f"{tag} goodput {r.goodput_bps / 1e6:.2f} Mb/s within "
                f"{HYBRID_GOODPUT_GATE:.0%} of packet fidelity "
                f"{reference['goodput_bps'] / 1e6:.2f} Mb/s")
        failed += not gates_met
    return correct, failed, checks


def dumbbell(spec: DumbbellSpec, seed: int, seconds: float, trace: bool,
             reference: Dict[str, float]) -> Outcome:
    """Both dumbbell workloads. The input takes no seed (``seed`` unused).

    ``reference`` is the packet-fidelity result of the same cell;
    ``fidelity_error`` is the first call's goodput error against it.
    """
    call = spec.call()
    if trace:
        calls, metrics = _traced(call)
    else:
        setups, calls = _repeat(call, seconds, spec.setup_probes)
        error = _rel(calls[0].result.goodput_bps, reference["goodput_bps"])
        metrics = _end_to_end(setups, calls, error,
                              spec.duration_s * spec.tdf)
    correct, failed, checks = _dumbbell_checks(spec, reference, calls)
    if not trace:
        checks.append(_speed_note(calls))
    return Outcome(correct, len(calls), failed, metrics, checks)


# ----------------------------------------------------------------- swarm


@dataclass(frozen=True)
class SwarmSpec:
    """A one-seed BitTorrent swarm on a star, split over worker processes."""

    leechers: int = 100
    file_bytes: int = 512 * 1024
    leaf_bandwidth_bps: float = mbps(10)
    leaf_rtt_s: float = ms(20)
    delay_salt: float = 1e-6
    shards: int = 2
    tdf: int = 1
    #: The swarm's RNG seed is ``1 + seed % seed_variants``; each variant
    #: has a stored single-process reference.
    seed_variants: int = 8
    #: Set-up-only calls before each measured call.
    setup_probes: int = 8

    def swarm_seed(self, seed: int) -> int:
        return 1 + seed % self.seed_variants

    def call(self, swarm_seed: int, shards: Optional[int] = None):
        profile = NetworkProfile.from_rtt(self.leaf_bandwidth_bps,
                                          self.leaf_rtt_s)
        return lambda: run_bittorrent(
            profile, self.tdf, leechers=self.leechers,
            file_bytes=self.file_bytes, seed=swarm_seed,
            delay_salt=self.delay_salt,
            shards=self.shards if shards is None else shards)


def _swarm_checks(spec: SwarmSpec, swarm_seed: int, expected: List[float],
                  calls: List[_Call]) -> Tuple[bool, int, List[str]]:
    """Check every call's output; returns (correct, failed, check lines).
    Each leecher that did not complete is one failed operation."""
    checks: List[str] = []
    correct = True
    failed = 0
    for index, c in enumerate(calls):
        r = c.result
        correct &= _check(
            checks, r.download_times_s == expected,
            f"call {index}: {len(r.download_times_s)} sorted download times "
            f"equal the single-process reference (swarm seed {swarm_seed})")
        _check(checks, r.completed == spec.leechers,
               f"call {index}: {r.completed}/{spec.leechers} leechers "
               "completed")
        failed += spec.leechers - r.completed
    return correct, failed, checks


def swarm(spec: SwarmSpec, seed: int, seconds: float, trace: bool,
          reference: Dict[str, List[float]]) -> Outcome:
    """The sharded swarm; ``reference`` maps swarm seed -> sorted times."""
    swarm_seed = spec.swarm_seed(seed)
    expected = reference[str(swarm_seed)]
    call = spec.call(swarm_seed)
    if trace:
        calls, metrics = _traced(call)
    else:
        setups, calls = _repeat(call, seconds, spec.setup_probes)
        times = calls[0].result.download_times_s
        error = _rel(sum(times), sum(expected)) if times else 1.0
        span = calls[0].probe.counts["virtual_end"] * spec.tdf
        metrics = _end_to_end(setups, calls, error, span)
    correct, failed, checks = _swarm_checks(spec, swarm_seed, expected, calls)
    if not trace:
        checks.append(_speed_note(calls))
    return Outcome(correct, spec.leechers * len(calls), failed, metrics,
                   checks)


# -------------------------------------------------------------- realtime


@dataclass(frozen=True)
class RealtimeSpec:
    """An open-loop UDP CBR stream paced against the wall clock."""

    packet_bytes: int = 200
    link_bps: float = 1e9
    link_delay_s: float = 0.001
    tdf: int = 1
    miss_threshold_s: float = 0.020
    miss_rate_ceiling: float = 0.01
    #: The fixed-rate probe (rt_busy_frac, run_s, failed operations).
    probe_pps: int = 32000
    probe_s: float = 0.5
    #: Ceiling search: an up/down staircase on the rate axis. It doubles
    #: from the start rate until a probe fails, then steps up by
    #: ``stair_step`` after a passing probe and down after a failing one;
    #: the ceiling is the median rate at which the direction reversed.
    stair_start_pps: int = 8000
    stair_step: float = 1.05
    stair_probe_s: float = 0.5
    #: Staircase probes between consecutive fixed-rate probes.
    stair_per_fixed: int = 4
    #: Set-up-only probes before each fixed-rate probe.
    setup_probes: int = 16


def cbr_probe(spec: RealtimeSpec, pps: int, span_s: float,
              sample: bool = False, meter: bool = False) -> Dict[str, Any]:
    """Pace one CBR stream for about ``span_s`` wall seconds.

    The horizon falls half a send interval after the last datagram that
    is due, so exactly ``due`` datagrams can arrive before it. ``sample``
    and ``meter`` are :class:`Probe`'s.
    """
    interval = 1.0 / pps
    due = max(1, round(span_s * pps))
    transit = spec.link_delay_s + (spec.packet_bytes + 28) * 8 / spec.link_bps
    horizon = (due + 0.5) * interval + transit
    probe = Probe(sample=sample, meter=meter)
    gc.collect()
    with probe:
        started = time.perf_counter()
        net = Network()
        src = net.add_node("src")
        dst = net.add_node("dst")
        net.add_link(src, dst, spec.link_bps, spec.link_delay_s)
        net.finalize()
        vmm = Hypervisor(net.sim)
        tdf = as_tdf(spec.tdf)
        vmm.create_vm("src-vm", tdf=tdf, cpu_share=0.5, node=src)
        vmm.create_vm("dst-vm", tdf=tdf, cpu_share=0.5, node=dst)
        sink = UdpSink(UdpStack(dst), 9000)
        cbr = CbrSource(UdpStack(src), "dst", 9000,
                        rate_bps=pps * spec.packet_bytes * 8,
                        packet_bytes=spec.packet_bytes)
        cbr.start()
        driver = RealtimeDriver(
            net.sim, RealtimeConfig(miss_threshold_s=spec.miss_threshold_s))
        setup_s = time.perf_counter() - started
        stats = driver.run(until=horizon)
        wall_s = time.perf_counter() - started - setup_s
    cbr.stop()
    link = net.links[0]
    return {
        "pps": pps,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "due": due,
        "delivered": sink.datagrams,
        "datagrams": cbr.packets_sent,
        "events": net.sim.events_processed,
        "tx_packets": link.a_to_b.tx_packets + link.b_to_a.tx_packets,
        "drops": link.a_to_b.total_drops + link.b_to_a.total_drops,
        "sustainable": stats.miss_rate < spec.miss_rate_ceiling,
        "pacing": stats.as_dict(),
        "self_s": probe.self_s,
        "sampled_s": probe.sampled_s,
        "speed": probe.speed,
    }


class _Staircase:
    """The ceiling search's state (see :class:`RealtimeSpec`).

    Host speed swings by tens of percent from one second to the next, so
    any single search follows the swing; a staircase keeps probing around
    the threshold and its median reversal averages the swings out. Each
    reversal is recorded at reference host speed: the probe's rate over
    the host speed metered during it.
    """

    def __init__(self, spec: RealtimeSpec) -> None:
        self.spec = spec
        self.rate = spec.stair_start_pps
        self.coarse = True
        self.rising: Optional[bool] = None
        self.reversals: List[float] = []
        self.probes: List[Dict[str, Any]] = []

    def step(self) -> None:
        spec = self.spec
        probe = cbr_probe(spec, self.rate, spec.stair_probe_s, meter=True)
        self.probes.append(probe)
        up = probe["sustainable"]
        if self.coarse and not up:
            self.coarse = False
        elif not self.coarse and self.rising is not None and up != self.rising:
            self.reversals.append(self.rate / probe["speed"])
        if not self.coarse:
            self.rising = up
        factor = 2.0 if self.coarse else spec.stair_step
        rate = self.rate * factor if up else self.rate / factor
        self.rate = max(1, round(rate))

    def ceiling(self) -> float:
        """Median reversal rate; with fewer than two reversals, the
        highest rate that passed (both at reference host speed)."""
        if len(self.reversals) >= 2:
            return statistics.median(self.reversals)
        passed = [p["pps"] / p["speed"] for p in self.probes
                  if p["sustainable"]]
        return max(passed, default=0.0)


def _cbr_checks(spec: RealtimeSpec, fixed: List[Dict[str, Any]],
                searched: List[Dict[str, Any]]
                ) -> Tuple[bool, int, int, List[str]]:
    """Check every probe; returns (correct, attempted, failed, lines).

    Every probe must deliver exactly the datagrams due before its
    horizon. The attempts are the fixed-rate probes' datagrams due, and
    each one missing (or extra) at the sink is one failed operation.
    Batches that missed their deadline are reported, not failed: a
    stall of the shared host makes them, so they do not repeat from run
    to run; a program too slow for the fixed rate shows in
    ``rt_busy_frac`` and ``rt_max_pps`` instead.
    """
    checks: List[str] = []
    correct = all(p["delivered"] == p["due"] for p in fixed + searched)
    _check(checks, correct,
           f"{len(fixed) + len(searched)} probes: datagrams delivered equal "
           "datagrams due before the horizon")
    attempted = sum(p["due"] for p in fixed)
    failed = sum(min(p["due"], abs(p["delivered"] - p["due"]))
                 for p in fixed)
    batches = sum(p["pacing"]["batches"] for p in fixed)
    missed = sum(p["pacing"]["deadline_misses"] for p in fixed)
    checks.append(
        f"[info] {len(fixed)} fixed probes at {spec.probe_pps} pkt/s: "
        f"{missed} of {batches} batches missed "
        f"{spec.miss_threshold_s * 1e3:.0f} ms")
    return correct, attempted, failed, checks


def realtime(spec: RealtimeSpec, seed: int, seconds: float,
             trace: bool) -> Outcome:
    """The paced CBR workload. The input takes no seed (``seed`` unused).

    Traced, it paces the fixed rate twice for half of ``seconds`` each:
    once plain, once traced.
    """
    if trace:
        span_s = max(spec.probe_s, seconds / 2)
        plain = cbr_probe(spec, spec.probe_pps, span_s)
        traced = cbr_probe(spec, spec.probe_pps, span_s, sample=True)
        fixed = [plain, traced]
        counts = {"events": traced["events"],
                  "tx_packets": traced["tx_packets"],
                  "drops": traced["drops"]}
        # Pacing fixes the wall time, so the overhead shows in busy time.
        overhead = traced["pacing"]["busy_s"] / plain["pacing"]["busy_s"]
        metrics = _layer_metrics(
            counts, traced["self_s"], traced["sampled_s"], overhead,
            [], [], pacing=traced["pacing"], datagrams=traced["datagrams"])
        correct, attempted, failed, checks = _cbr_checks(spec, fixed, [])
        return Outcome(correct, attempted, failed, metrics, checks)
    setups: List[float] = []
    fixed: List[Dict[str, Any]] = []
    stairs = _Staircase(spec)

    def setup_only() -> float:
        speed = host_speed_now()
        return cbr_probe(spec, spec.probe_pps, 0.001)["setup_s"] * speed

    def step() -> None:
        setups.extend(setup_only() for _ in range(spec.setup_probes))
        fixed.append(cbr_probe(spec, spec.probe_pps, spec.probe_s,
                               meter=True))
        for _ in range(spec.stair_per_fixed):
            stairs.step()

    _within(seconds, step)
    searched = stairs.probes
    error = max(_rel(p["delivered"], p["due"]) for p in fixed + searched)
    metrics: Metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median([p["wall_s"] for p in fixed]), "s"),
        "peak_rss_mb": (max_rss_kb() / 1024.0, "MB"),
        "fidelity_error": (max(error, FIDELITY_FLOOR), "ratio"),
        "rt_max_pps": (stairs.ceiling(), "pkt/s"),
        "rt_busy_frac": (statistics.median(
            [p["pacing"]["busy_frac"] * p["speed"] for p in fixed]), "ratio"),
    }
    correct, attempted, failed, checks = _cbr_checks(spec, fixed, searched)
    checks.append("staircase reversals (pkt/s at reference speed): "
                  f"{[round(rate) for rate in stairs.reversals]}")
    return Outcome(correct, attempted, failed, metrics, checks)


# -------------------------------------------------------------- registry


#: Workload name -> default spec; why each exists is in BENCHMARK.json.
WORKLOADS: Dict[str, Any] = {
    "dumbbell_packet": DumbbellSpec(fidelity="packet"),
    "dumbbell_hybrid": DumbbellSpec(fidelity="hybrid"),
    "swarm_shards2": SwarmSpec(),
    "realtime_cbr": RealtimeSpec(),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 references: Dict[str, Any],
                 spec: Any = None) -> Outcome:
    """Run one named workload; ``spec`` overrides its default spec."""
    spec = spec if spec is not None else WORKLOADS[name]
    if isinstance(spec, DumbbellSpec):
        return dumbbell(spec, seed, seconds, trace, references["dumbbell"])
    if isinstance(spec, SwarmSpec):
        return swarm(spec, seed, seconds, trace, references["swarm"])
    return realtime(spec, seed, seconds, trace)

