"""Execution modes, applied once beneath every scenario.

A runner in :mod:`repro.harness.experiments` is a *scenario builder*: it
builds a topology, names the link a schedule drives, the shard
assignment and merge, and the interfaces a recorder may watch, then
installs its impairments and applications and reads its result. The
five execution modes — fidelity, schedule, shards, trace and real-time
pacing — live here and nowhere else:

* :func:`scenario` wraps a builder into a runner. It rejects bad mode
  combinations before any topology exists and, for ``shards > 1``,
  forwards the call's own arguments to :func:`~repro.parallel.shard.
  run_sharded` and merges the per-shard results;
* :class:`RunContext` applies the in-engine modes around the builder's
  own steps;
* :func:`accepts` answers which runner takes which mode, read from the
  runner's signature, and :func:`apply_modes` threads the requested
  modes into figure cells for ``repro-figure`` and ``repro-trace
  capture`` alike, whose shared flags :func:`add_mode_arguments` defines.

Order of application is fixed, because the engine numbers events in
scheduling order and every golden depends on those numbers::

    schedule → localize → fluid → impairments → apps → recorder → start → driver

The schedule arms its timers before the partition so the cut lookahead
sees the schedule's minimum delay; localizing installs the shard
channels the fluid model's path check must see; impairments, applications
and the start are the builder's; the recorder attaches after the
applications exist and before the first packet moves; the driver paces
only what is already scheduled.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..parallel.shard import (
    DEFAULT_DELAY_SALT,
    InProcessShard,
    run_sharded,
)
from ..realtime.driver import RealtimeConfig, RealtimeDriver
from ..simnet.errors import ConfigurationError
from ..simnet.fluid import FluidManager
from ..simnet.schedule import ScheduleSpec
from ..simnet.topology import partition_network
from ..trace.recorder import FlightRecorder
from ..trace.spec import TraceSpec

__all__ = [
    "AXES",
    "FIDELITIES",
    "RunContext",
    "accepts",
    "add_mode_arguments",
    "apply_modes",
    "parse_modes",
    "requested_modes",
    "scenario",
]

FIDELITIES = ("packet", "hybrid")

#: The modes a figure cell may be rewritten with, each a runner keyword,
#: and the word the CLIs use for a cell that takes it.
AXES = {
    "trace": "traceable",
    "shards": "shardable",
    "fidelity": "fluid-capable",
    "schedule": "schedule-capable",
}

#: Each axis's value when the mode is off.
_OFF = {"trace": None, "shards": 1, "fidelity": "packet", "schedule": None}


def requested_modes(**modes: Any) -> Dict[str, Any]:
    """The given modes that are not off, in :data:`AXES` order."""
    return {axis: modes[axis] for axis in AXES
            if axis in modes and modes[axis] != _OFF[axis]}


# ------------------------------------------------------------- capability


def accepts(runner: str, axis: str) -> bool:
    """Whether the runner named ``runner`` takes the keyword ``axis``."""
    # Imported here: the experiments module imports this one.
    from .experiments import RUNNER_PARAMETERS

    return axis in RUNNER_PARAMETERS[runner]


def capable_runners(axis: str) -> str:
    """The runners that take ``axis``, for error messages."""
    from .experiments import RUNNER_PARAMETERS

    return ", ".join(sorted(
        name for name, params in RUNNER_PARAMETERS.items() if axis in params
    ))


def apply_modes(cells: List[Any],
                modes: Mapping[str, Any]) -> Tuple[List[Any], Dict[str, List[str]]]:
    """Thread each requested mode into every cell whose runner takes it.

    Returns the rewritten cells and, per requested axis, the keys of the
    cells that do not take it (they pass through unchanged). A rewritten
    cell is a *different* cell from its plain twin — its token covers
    the kwargs — so results never alias across modes. A sharded cell of
    a runner with a ``delay_salt`` gets the determinism default unless
    the cell sets its own (0.0 included); a cell's own schedule is
    overridden.
    """
    refused: Dict[str, List[str]] = {axis: [] for axis in modes}
    out = []
    for spec in cells:
        kwargs = dict(spec.kwargs)
        for axis, value in modes.items():
            if not accepts(spec.runner, axis):
                refused[axis].append(spec.key)
                continue
            kwargs[axis] = value
            if axis == "shards" and accepts(spec.runner, "delay_salt"):
                kwargs.setdefault("delay_salt", DEFAULT_DELAY_SALT)
        out.append(dataclasses.replace(spec, kwargs=kwargs))
    return out, refused


# -------------------------------------------------------------------- CLI


def add_mode_arguments(parser) -> None:
    """The ``--shards`` / ``--fidelity`` / ``--schedule`` flags."""
    group = parser.add_argument_group("execution modes")
    group.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="split each shardable cell across N worker processes with "
             "the conservative sharded engine (default: 1 = "
             "single-process); each cell then uses N processes, so budget "
             "jobs*shards against the core count",
    )
    group.add_argument(
        "--fidelity", choices=FIDELITIES, default="packet",
        help="engine fidelity for fluid-capable cells: 'packet' (default, "
             "bit-exact golden behaviour) or 'hybrid' (steady-state bulk "
             "flows advance in a coarse-stepped fluid model and fall back "
             "to packet level around loss, startup, tail and impairments)",
    )
    group.add_argument(
        "--schedule", metavar="SPEC", default=None,
        help="drive every schedule-capable cell's dynamic link from a "
             "virtual-time schedule: kind[:key=value,...] with kind leo or "
             "csv — e.g. 'leo:period=2.0,count=3,outage=0.05,amp=0.5,"
             "dip=0.6' or 'csv:path=traces/starlink.csv' (rows "
             "t_s,delay_s[,bandwidth_bps[,up]])",
    )


def parse_modes(args) -> Dict[str, Any]:
    """The modes a parsed command line requests, defaults left out.

    Reads the flags of :func:`add_mode_arguments` plus ``args.trace``
    (a trace spec string, or None). A given spec is parsed even when
    blank, so both CLIs accept and reject the same strings. Raises
    ``ValueError`` with a printable message.
    """
    if args.shards < 1:
        raise ValueError(f"--shards must be >= 1: {args.shards}")
    trace = TraceSpec.parse(args.trace) if args.trace is not None else None
    schedule = None
    if args.schedule is not None:
        try:
            schedule = ScheduleSpec.parse(args.schedule)
        except ConfigurationError as error:
            raise ValueError(str(error)) from None
    return requested_modes(trace=trace, shards=args.shards,
                           fidelity=args.fidelity, schedule=schedule)


# ---------------------------------------------------------------- runners


def _check(arguments: Mapping[str, Any]) -> None:
    """Reject mode combinations no engine can honour."""
    fidelity = arguments.get("fidelity", "packet")
    if fidelity not in FIDELITIES:
        raise ConfigurationError(
            f"unknown fidelity {fidelity!r}: expected 'packet' or 'hybrid'"
        )
    if arguments["shards"] == 1 and arguments["_shard"] is None:
        return
    if arguments.get("realtime"):
        # Each worker's engine is barrier-synchronised with its siblings;
        # pacing one against the wall clock would let the barrier, not the
        # deadline, decide when events fire.
        raise ConfigurationError(
            "realtime=True requires shards=1: the wall-clock driver paces "
            "a single engine"
        )
    trace = arguments.get("trace")
    if trace is not None and trace.timers:
        raise ConfigurationError(
            "trace timers=1 records engine-internal timer events and "
            "cannot be combined with shards > 1: each worker has its own "
            "engine, so the merged timer stream would be meaningless"
        )


def scenario(assign: Callable[[Mapping[str, Any]], Dict[str, int]],
             merge: Callable[[List[Any]], Any]):
    """Make a scenario builder a runner that honours every mode.

    The builder keeps its full signature (``shards`` and ``_shard``
    included) and drives a :class:`RunContext`. ``assign(arguments)``
    maps node names to shards for a sharded call, raising
    :class:`ConfigurationError` for a shard count the topology cannot
    cut; ``merge(results)`` folds per-shard results into the
    single-process result. The wrapper fills in the merged trace and the
    per-shard ``shard_stats``.
    """

    def wrap(build):
        signature = inspect.signature(build)
        names = list(signature.parameters)
        defaults = {
            name: param.default
            for name, param in signature.parameters.items()
            if param.default is not param.empty
        }

        @functools.wraps(build)
        def runner(*args, **kwargs):
            # A dict merge, not ``signature.bind``: that costs about 5% of
            # a small run's set-up. A malformed call still fails, in
            # ``build`` or, sharded, at the ``bind`` before any worker.
            arguments = {**defaults, **dict(zip(names, args)), **kwargs}
            _check(arguments)
            shards = arguments["shards"]
            if shards == 1 or arguments["_shard"] is not None:
                return build(*args, **kwargs)
            signature.bind(*args, **kwargs)
            forwarded = {
                name: value for name, value in arguments.items()
                if name not in ("shards", "_shard")
            }
            results, stats = run_sharded(
                build.__name__, forwarded, shards, assign(arguments)
            )
            merged = merge(results)
            # Each point records on exactly one shard: a stable sort of
            # the disjoint streams keeps each shard's same-instant order.
            merged.trace_events = sorted(
                (event for result in results for event in result.trace_events),
                key=lambda event: event.physical_time,
            )
            merged.shard_stats = list(stats)
            return merged

        return runner

    return wrap


class RunContext:
    """One engine's modes, applied around a scenario builder's steps.

    Constructing it, right after the topology is built, applies the
    schedule to ``scheduled_link``, localizes a sharded worker's island
    and installs the fluid model. The builder then installs its
    impairments and applications (gated on :meth:`owns`), calls
    :meth:`record`, starts its applications, and advances through the
    function :meth:`pace` returns; :meth:`finish` stamps the recording
    and pacing statistics onto the result.
    """

    def __init__(self, net, tdf, *, scheduled_link=None,
                 schedule: Optional[ScheduleSpec] = None,
                 fidelity: str = "packet",
                 trace: Optional[TraceSpec] = None,
                 realtime=False, shard=None) -> None:
        self.sim = net.sim
        #: The built :class:`~repro.simnet.schedule.LinkSchedule`, if any.
        self.schedule = (
            schedule.build(scheduled_link, tdf=tdf)
            if schedule is not None else None
        )
        if shard is None:
            shard = InProcessShard(net)
        else:
            shard.localize(
                net, partition_network(net, shard.shards, shard.assignment)
            )
        self.shard = shard
        self.owns = shard.owns
        self.all_agree = shard.all_agree
        if fidelity == "hybrid":
            # One manager per engine: flows crossing a shard cut stay
            # packet-level (the steady-state predicate rejects them).
            FluidManager(net.sim)
        self._trace = trace
        self._realtime = realtime
        self.recorder: Optional[FlightRecorder] = None
        self.driver: Optional[RealtimeDriver] = None

    def record(self, name: str, points: Mapping[str, Tuple[Any, Any]],
               clock, clock_node, label: str) -> None:
        """Attach the trace's recorder, if the call asked for one.

        ``points`` maps each trace point to ``(interface, owning node)``;
        the recorder stamps virtual time from ``clock``, which belongs to
        ``clock_node``. Attachments happen only on the owning shard, so a
        merged sharded trace has no duplicates.
        """
        trace = self._trace
        if trace is None:
            return
        recorder = FlightRecorder(
            capacity=trace.capacity, clock=clock,
            name=f"{name}:{trace.point}", packet_kinds=trace.kinds,
        )
        interface, owner = points[trace.point]
        if self.owns(owner):
            recorder.attach_interface(interface)
        if self.owns(clock_node):
            recorder.attach_clock(clock, label=label)
        if trace.timers:
            recorder.attach_engine(self.sim)
        self.recorder = recorder

    def record_socket(self, sock) -> None:
        """Attach a started socket when the trace asks for TCP events."""
        if self.recorder is not None and self._trace.tcp:
            self.recorder.attach_socket(sock)

    def pace(self) -> Callable[[float], None]:
        """The function that advances the engine to a physical instant.

        Batch runs advance through the shard context; a paced run builds
        its :class:`~repro.realtime.driver.RealtimeDriver` here, after the
        applications started, with the recorder riding along so deadline
        misses land in the trace.
        """
        realtime = self._realtime
        if not realtime:
            return self.shard.advance
        config = realtime if isinstance(realtime, RealtimeConfig) else None
        self.driver = RealtimeDriver(self.sim, config=config,
                                     recorder=self.recorder)
        return self.driver.run

    def finish(self, result):
        """Stamp the recording and the pacing statistics onto ``result``."""
        if self.recorder is not None:
            result.trace_events = self.recorder.snapshot()
        if self.driver is not None:
            result.realtime_stats = self.driver.stats.as_dict()
        return result
