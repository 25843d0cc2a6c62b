"""Instrumentation the benchmark wraps around the program's public layers.

Nothing here edits the program. Every hook patches a class or module
attribute for the span of one measured runner call and restores it on
exit; the program's own files are only read. Three kinds of hook exist:

* a first-event stamp on ``Simulator.run`` (set-up ends when the engine
  first runs), removed again after its first call so the event loop runs
  unwrapped;
* constructor hooks on ``Network`` and ``TcpSocket`` that keep a
  reference to each instance, so per-layer counts can be read from their
  public attributes after the run;
* a wrapper around the sharded worker entry (``repro.parallel.shard.
  _worker_main``, the only way into a worker process) that stamps and
  counts inside each worker, in a traced call also times the shard mesh
  and samples (in a metered call, meters), and returns its report through the worker's own result
  message.

Self time is attributed by source module with a wall-clock sampler: from
the first engine run on (set-up is not sampled), a ``SIGALRM`` timer
interrupts the process about every millisecond and the
wall time since the previous sample is charged to the layer of the
interrupted Python frame (``layer_of`` maps its file to the layer table
in ``README.md``; library code is charged to its nearest caller in the
program). A built-in function has no frame, so its time lands on the
function that called it, and time blocked in a sleep or a pipe read
lands on the code that blocked. Sampling keeps the traced run
within a few percent of the untraced one; a deterministic profiler
(cProfile) slowed these workloads 3.5x and charged its per-call cost to
the layers with the most calls.

Host times are reported at reference host speed. Other tenants of a
shared host slow it by tens of percent, changing within seconds, and
the run's own CPU time slows with it (no time is stolen outright). So an
untraced measured call runs a speed meter in place of the sampler:
about every 2 ms it times one fixed slice of interpreter work
(:func:`speed_kernel`) between the program's own steps. The mean over
the call, against the slice's time on the reference host
(:data:`REFERENCE_KERNEL_S`), is the host speed the call ran at.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import random
import resource
import signal
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.parallel import shard as shard_module
from repro.simnet.engine import Simulator
from repro.simnet.topology import Network
from repro.tcp.socket import TcpSocket

#: Module path inside the ``repro`` package -> layer, first prefix wins.
#: Program modules matching none count as "other" (harness, stats).
LAYER_PATHS: Tuple[Tuple[str, str], ...] = (
    ("simnet/engine.py", "simnet.engine"),
    ("simnet/fluid.py", "simnet.fluid"),
    # Off in every workload; kept out of the nic bucket so they cannot
    # hide there if a later change turns them on.
    ("simnet/schedule.py", "other"),
    ("simnet/impairments.py", "other"),
    ("simnet/trace.py", "other"),
    ("simnet/", "simnet.nic"),
    ("tcp/", "tcp"),
    ("udp/", "udp"),
    ("apps/", "apps"),
    ("workloads/", "apps"),
    ("parallel/", "parallel.shard"),
    ("realtime/", "realtime"),
    ("core/", "core"),
)

_PROGRAM = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
#: Pipe I/O and pickling of the shard mesh run in the standard library.
_MULTIPROCESSING = os.path.dirname(multiprocessing.__file__) + os.sep
_BENCHMARK = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: Layers reported with a self time, in report order ("other" last).
LAYERS = (
    "simnet.engine", "simnet.nic", "tcp", "udp", "apps", "simnet.fluid",
    "parallel.shard", "realtime", "core", "other",
)


#: Mean interval of the layer sampler; each one is drawn from 0.5x to
#: 1.5x of it.
SAMPLE_INTERVAL_S = 0.001

#: Mean interval of the host-speed meter (one kernel run, about 40 us,
#: per interval: about 2% of the host's time).
SPEED_INTERVAL_S = 0.002

#: :func:`speed_kernel`'s run time on the reference host. Host times
#: reported at reference speed are the measured times scaled by
#: :func:`host_speed`.
REFERENCE_KERNEL_S = 40e-6


class SetupReached(Exception):
    """Raised at the first engine run when a call only measures set-up."""


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to.

    None for other code (the rest of the standard library, or a
    ``<string>`` dataclass ``__init__``): the sampler charges that to
    the nearest calling frame that has a layer.
    """
    if filename.startswith(_PROGRAM):
        module = filename[len(_PROGRAM):].replace(os.sep, "/")
        for prefix, layer in LAYER_PATHS:
            if module.startswith(prefix):
                return layer
        return "other"
    if filename.startswith(_MULTIPROCESSING):
        return "parallel.shard"
    if filename.startswith(_BENCHMARK):
        return "other"
    return None


class _Alarm:
    """A ``SIGALRM`` timer that calls :meth:`_on_alarm` at random intervals.

    Intervals are drawn uniformly from 0.5x to 1.5x :attr:`interval_s`: a
    fixed period aliases with periodic work (1 ms is exactly 32 periods
    of the 32k pkt/s CBR stream, so every sample hit the same phase).
    Runs only in the main thread of the process that starts it (signal
    handlers run there); a forked worker starts its own.
    """

    interval_s = SAMPLE_INTERVAL_S

    def __init__(self) -> None:
        self._rng = random.Random(0)
        self._previous_handler: Any = None
        self._running = False

    def _arm(self) -> None:
        delay = self.interval_s * (0.5 + self._rng.random())
        signal.setitimer(signal.ITIMER_REAL, delay)

    def _handle(self, _signum, frame) -> None:
        # An alarm that fired as stop() began must not re-arm the timer:
        # once the previous handler is back, it would end the process.
        if self._running:
            self._on_alarm(frame)
            self._arm()

    def _on_alarm(self, frame) -> None:
        raise NotImplementedError

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._handle)
        self._running = True
        self._arm()

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)


class Sampler(_Alarm):
    """Wall-clock self time per layer, by time-weighted frame sampling."""

    def __init__(self) -> None:
        super().__init__()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.span_s = 0.0
        self._layers: Dict[str, Optional[str]] = {}
        self._last = 0.0
        self._started = 0.0

    def _on_alarm(self, frame) -> None:
        now = time.perf_counter()
        layers = self._layers
        layer = None
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename not in layers:
                layers[filename] = layer_of(filename)
            layer = layers[filename]
            if layer is not None:
                break
            frame = frame.f_back
        self.self_s[layer or "other"] += now - self._last
        self._last = now

    def start(self) -> None:
        self._started = self._last = time.perf_counter()
        super().start()

    def stop(self) -> None:
        super().stop()
        now = time.perf_counter()
        # The tail since the last sample is unattributed: it goes to
        # "other", so the layers still sum to the span.
        self.self_s["other"] += now - self._last
        self.span_s = now - self._started


# -------------------------------------------------------------- host speed


def speed_kernel() -> int:
    """A fixed slice of interpreter work, timed to gauge the host's speed."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(300):
        table[i & 31] = i
        total += table[i & 15]
    return total


def host_speed(kernel_s: float, kernels: int) -> float:
    """Host speed relative to the reference host, from ``kernels`` runs
    of :func:`speed_kernel` that took ``kernel_s`` in all (below 1 on a
    slower host). NaN without a run."""
    return REFERENCE_KERNEL_S * kernels / kernel_s if kernels else math.nan


def host_speed_now() -> float:
    """Host speed over the next ten back-to-back kernel runs."""
    started = time.perf_counter()
    for _ in range(10):
        speed_kernel()
    return host_speed(time.perf_counter() - started, 10)


class SpeedMeter(_Alarm):
    """Host speed while the program runs: each alarm times one
    :func:`speed_kernel` between the program's own steps, so the mean
    kernel time follows other tenants' load over exactly the measured
    interval."""

    interval_s = SPEED_INTERVAL_S

    def __init__(self) -> None:
        super().__init__()
        self.kernel_s = 0.0
        self.kernels = 0

    def _on_alarm(self, frame) -> None:
        started = time.perf_counter()
        speed_kernel()
        self.kernel_s += time.perf_counter() - started
        self.kernels += 1


def max_rss_kb() -> int:
    """This process's peak resident set, kB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ------------------------------------------------------------------ counts


def layer_counts(nets: List[Network],
                 sockets: List[TcpSocket]) -> Dict[str, float]:
    """Per-layer counts read from public attributes after a run.

    In a sharded worker every node exists but only owned interfaces ever
    transmit, so summing all interfaces is exact per worker.
    """
    counts: Dict[str, float] = defaultdict(int)
    for net in nets:
        sim = net.sim
        counts["events"] += sim.events_processed
        counts["dead_entries_reaped"] += sim.dead_entries_reaped
        counts["virtual_end"] = max(counts["virtual_end"], sim.now)
        for link in net.links:
            for iface in (link.a_to_b, link.b_to_a):
                counts["tx_packets"] += iface.tx_packets
                counts["drops"] += iface.total_drops
        for key, value in sim.counters.items():
            if key.startswith("fluid."):
                counts[key] += value
    for sock in sockets:
        counts["tcp.segments_sent"] += sock.segments_sent
        counts["tcp.retransmits"] += sock.retransmits
        counts["tcp.timeouts"] += sock.timeouts
    return dict(counts)


# --------------------------------------------------------------- shard mesh


class TimedConn:
    """A shard-mesh pipe end that splits its time into serialize and wait.

    Blocking until a peer's message is readable is *wait*; pickling,
    unpickling and the pipe copies (``Connection.send``/``recv`` once
    the message is there) are *serialize*.
    """

    def __init__(self, conn, ipc: Dict[str, float]) -> None:
        self._conn = conn
        self._ipc = ipc

    def send(self, obj: Any) -> None:
        started = time.perf_counter()
        self._conn.send(obj)
        self._ipc["serialize_s"] += time.perf_counter() - started

    def recv(self) -> Any:
        started = time.perf_counter()
        self._conn.poll(None)
        ready = time.perf_counter()
        obj = self._conn.recv()
        self._ipc["wait_s"] += ready - started
        self._ipc["serialize_s"] += time.perf_counter() - ready
        return obj


class _ReportingConn:
    """The worker's result pipe; adds the worker report to its "ok" stats."""

    def __init__(self, conn, report: Callable[[], Dict[str, Any]]) -> None:
        self._conn = conn
        self._report = report

    def send(self, message: Tuple) -> None:
        if message[0] == "ok":
            message[2]["bench"] = self._report()
        self._conn.send(message)

    def close(self) -> None:
        self._conn.close()


# -------------------------------------------------------------------- probe


class Probe:
    """Instrumentation for one runner call; use as a context manager.

    ``stop_at_setup`` ends the call at its first engine run (raising
    :class:`SetupReached` in the process that reached it). ``count``
    keeps every Network and TcpSocket built during the call. ``sample``
    makes a traced call: from its first engine run on, the process that
    runs the engine (each sharded worker, in a sharded call) attributes
    its wall time to layers, and each sharded worker times its mesh pipes.
    ``meter`` measures the host's speed over the same span instead (the
    two share the process's one ``SIGALRM`` timer).

    After the call: :attr:`first_event` (perf_counter instant of the first
    engine run in any process), :attr:`counts`, :attr:`self_s`,
    :attr:`sampled_s`, :attr:`speed` and :attr:`workers` (one report per
    shard).
    """

    def __init__(self, stop_at_setup: bool = False, count: bool = False,
                 sample: bool = False, meter: bool = False) -> None:
        if sample and meter:
            raise ValueError("sample and meter share one timer")
        self.stop_at_setup = stop_at_setup
        self.count = count
        self.sample = sample
        self.meter = meter
        self.nets: List[Network] = []
        self.sockets: List[TcpSocket] = []
        # Shared with forked workers: slot i holds worker i's first-event
        # stamp (slot 0 also serves single-process runs).
        self._stamps = multiprocessing.RawArray("d", 8)
        self._slot = 0
        self._alarm: Optional[_Alarm] = None
        self._saved: List[Tuple[Any, str, Any]] = []
        self.first_event = math.nan
        self.counts: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.sampled_s = 0.0
        self.kernel_s = 0.0
        self.kernels = 0
        self.workers: List[Dict[str, Any]] = []

    @property
    def speed(self) -> float:
        """Host speed over the metered span (see :func:`host_speed`)."""
        return host_speed(self.kernel_s, self.kernels)

    # --------------------------------------------------------- patching

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Probe":
        probe = self
        original_run = Simulator.run

        def first_run(sim, *args, **kwargs):
            # Restored before the first event executes: the event loop
            # itself runs unwrapped for the rest of the call.
            Simulator.run = original_run
            probe._stamps[probe._slot] = time.perf_counter()
            if probe.stop_at_setup:
                raise SetupReached(f"shard {probe._slot}")
            if probe.sample or probe.meter:
                probe._alarm = Sampler() if probe.sample else SpeedMeter()
                probe._alarm.start()
            return original_run(sim, *args, **kwargs)

        self._patch(Simulator, "run", first_run)
        if self.count:
            self._hook_init(Network, self.nets)
            self._hook_init(TcpSocket, self.sockets)
        self._patch(shard_module, "_worker_main",
                    functools.partial(self._worker, shard_module._worker_main))
        return self

    def _hook_init(self, cls: type, registry: List[Any]) -> None:
        original_init = cls.__init__

        def init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            registry.append(obj)

        self._patch(cls, "__init__", init)

    def _stop_alarm(self) -> Dict[str, Any]:
        """Stop this process's sampler or meter; what it measured."""
        alarm = self._alarm
        if alarm is not None:
            alarm.stop()
        sampler = alarm if isinstance(alarm, Sampler) else None
        meter = alarm if isinstance(alarm, SpeedMeter) else None
        return {
            "self_s": dict(sampler.self_s) if sampler else {},
            "sampled_s": sampler.span_s if sampler else 0.0,
            "kernel_s": meter.kernel_s if meter else 0.0,
            "kernels": meter.kernels if meter else 0,
        }

    def __exit__(self, *exc_info) -> None:
        measured = self._stop_alarm()
        self.self_s = measured["self_s"]
        self.sampled_s = measured["sampled_s"]
        self.kernel_s = measured["kernel_s"]
        self.kernels = measured["kernels"]
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()
        stamps = [stamp for stamp in self._stamps if stamp > 0.0]
        self.first_event = min(stamps) if stamps else math.nan
        if self.count:
            self.counts = layer_counts(self.nets, self.sockets)

    # ----------------------------------------------------------- workers

    def _worker(self, original, runner_name, kwargs, shard_id, shards,
                assignment, mesh, result_conn) -> None:
        """Sharded worker entry (runs in the forked child).

        The child's first engine run starts its own sampler or meter (see
        :meth:`__enter__`); the report stops it.
        """
        started = time.perf_counter()
        self._slot = shard_id
        ipc = {"serialize_s": 0.0, "wait_s": 0.0}
        if self.sample:
            mesh = {peer: TimedConn(conn, ipc) for peer, conn in mesh.items()}

        def report() -> Dict[str, Any]:
            return {
                **self._stop_alarm(),
                "wall_s": time.perf_counter() - started,
                **ipc,
                "maxrss_kb": max_rss_kb(),
                "counts": layer_counts(self.nets, self.sockets)
                if self.count else {},
            }

        original(runner_name, kwargs, shard_id, shards, assignment, mesh,
                 _ReportingConn(result_conn, report))

    def take_workers(self, shard_stats: List[Dict[str, Any]]) -> None:
        """Replace the parent's view with the sharded workers' reports.

        ``shard_stats`` is a sharded result's field of that name; each
        entry carries the report :meth:`_worker` attached to it. Counts
        and self times are summed over workers, so a sampled sharded
        call's :attr:`sampled_s` is in worker-seconds; a metered call's
        :attr:`speed` pools both workers' kernel runs.
        """
        self.workers = [stats["bench"] for stats in shard_stats]
        counts: Dict[str, float] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for worker in self.workers:
            for key, value in worker["counts"].items():
                if key == "virtual_end":
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
            for layer, seconds in worker["self_s"].items():
                self_s[layer] += seconds
        self.counts = dict(counts)
        self.self_s = dict(self_s)
        self.sampled_s = sum(worker["sampled_s"] for worker in self.workers)
        self.kernel_s = sum(worker["kernel_s"] for worker in self.workers)
        self.kernels = sum(worker["kernels"] for worker in self.workers)
