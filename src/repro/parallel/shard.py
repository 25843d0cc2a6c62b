"""Conservative parallel simulation: one engine per shard, barrier-synced.

The engine executes one event at a time on one core; the paper's
"emulation capacity beyond one machine" pitch therefore dies at Python
single-core speed. This module splits one experiment across worker
*processes*: the topology is partitioned into islands
(:func:`repro.simnet.topology.partition_network`), each worker runs a full
:class:`~repro.simnet.engine.Simulator` over its island, and the workers
advance in **conservative windows** — the classic null-message/LBTS
argument with link propagation delay as lookahead:

* every barrier round, each shard advertises ``N`` = the earliest thing it
  could still do (its next local event, its earliest staged inbound
  arrival, or the earliest arrival sitting in an unsent outbox — the last
  term is what makes in-flight packets bound the horizon);
* the global minimum ``M = min(N_i)`` is computed by *every* worker from a
  full-mesh exchange (there is no coordinator on the hot path); no event
  anywhere exists before ``M``, and any packet a future event emits
  arrives no earlier than ``M + L`` where ``L`` is the minimum lookahead
  over all cut edges;
* each shard may therefore execute every event strictly below
  ``G = M + L`` without ever receiving a message from the past.

Windows repeat until the driver's target time is inside the safe horizon,
at which point all shards run inclusively to the target. Every worker
executes the *same* driver code on the same floats, so all workers compute
identical targets and identical window sequences — the mesh exchange can
never pair mismatched rounds (and carries a round tag to fail loudly if it
somehow did).

Determinism (the event-for-event identity the trace diff pins)
--------------------------------------------------------------
Cross-scheduler delivery is the only place parallelism could reorder
events. The single-process engine breaks same-timestamp ties by event
*creation order*, and creation order between two same-time deliveries is
decided by when their creators executed: a delivery whose transmit
completed earlier was created earlier. So every shipped packet carries
the ordering key ``(arrival_time, tx_finish_time, channel_id,
channel_seq)`` — ``tx_finish_time`` reproduces creator-execution order
across engines, ``channel_id`` is the link direction's global
construction index, and ``channel_seq`` the sender's per-direction FIFO
counter. Arrivals are *staged* in a heap and injected into the
destination engine only at window starts, in exactly that key order —
never in IPC arrival order. Because a window is only injected once it is
complete (any not-yet-received packet arrives at or after the next
grant), the injected sequence is a pure function of the simulation, not
of process scheduling.

Intra-shard links go through the same staging discipline (a
:class:`_LocalChannel` that never touches a pipe), so same-timestamp
deliveries from different links merge under the same key on every shard
count. A delivery whose arrival falls inside the *current* window is
scheduled immediately instead, reproducing the single-process engine's
creation-order seq for short-delay hops. When even the transmit times
tie, the channel id decides — which matches the single-process order for
structurally-symmetric bursts (a swarm's simultaneous tracker announces
land on the hub at float-identical times having left float-identical
transmitters; their single-process creation order is peer construction
order, which is link construction order, which is channel order).

*Timer-vs-arrival* ties — a periodic timer firing at a bit-equal copy of
an old arrival time (timers are armed at ``arrival + exact constant``) —
are resolved through the engine's tie-rank channel: the single-process
tie-break is creation order, and a cross-shard delivery is re-*created*
in the destination engine at its injection window, so its creation *seq*
says "just now" while the timer's says "windows ago". Injection therefore
passes ``tie_key=tx_finish`` to :meth:`Simulator.call_at` — the
delivery's original creation instant — and the engine orders
same-timestamp events by ``(rank, seq)`` where a plain event's rank is
its local scheduling instant. Ranks thus equal creation instants on every
path (timers inductively, deliveries by construction: an in-window or
single-process delivery is scheduled *at* its transmit-finish instant),
so the sharded engine reproduces single-process creation order exactly
whenever creation instants differ as floats. This closed the measured
+169-event (~1e-4 relative) drift at 250 leechers; salted sharded swarms
are pinned event-for-event identical by the flight-recorder diff from 4
through 250 leechers, and on every bulk topology.

What remains is deliberately *bounded*: events whose creation instants
are themselves bit-equal fall back to seq order, which across shards is
injection-key order — ``(channel_id, channel_seq)`` — not single-process
creation *genealogy*. For two equal-float, equal-tx-finish deliveries the
single-process discriminator regresses through the ancestry of their
transmit events (back-to-back NIC busy runs chain each transmit's
creation to the previous one), and reproducing that across processes
would mean shipping unbounded ancestor-time chains with every packet. A
perfectly symmetric topology (every leaf the same delay) phase-locks real
traffic onto exactly such ties; experiment builders therefore expose a
deterministic per-link ``delay_salt`` that perturbs propagation delays at
the nanosecond scale, making bit-equal cross-shard creation instants
measure-zero and the bounded key exact. (Apps that cannot accept salted
link delays can instead salt their *timer periods* — see the swarm's
``timer_salt`` — which de-phase-locks the timer-vs-arrival class the same
way; the harness default is link salt because it also covers
delivery-vs-delivery ties.) Unsalted symmetric runs still merge
*aggregates* exactly (event counts are conserved 1:1, byte totals are
order-free) but may reorder same-float deliveries; the flight-recorder
divergence gates in CI run salted.

Wall-clock: a *full* barrier round costs two pipe transfers per mesh
peer, O(shards²) total. YAWNS-style batching (see
:meth:`ShardContext.advance`) grants up to ``window_batch`` consecutive
lookahead windows per full round in busy regions, separated only by
neighbor-pair outbox swaps that are O(cut degree); the
``shard.windows_per_round`` counter says how often the batch path ran.
Sparse regions fall back to one global-min window per round, which jumps
idle gaps in one hop. ``REPRO_SHARD_WINDOW_BATCH`` (default 8, minimum 1)
caps the batch size; 1 restores the unbatched engine.
"""

from __future__ import annotations

import heapq
import math
import os
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..simnet.errors import ConfigurationError

__all__ = [
    "DEFAULT_DELAY_SALT",
    "InProcessShard",
    "ShardContext",
    "run_sharded",
]

#: Relative per-link delay spread given to sharded cells of runners that
#: take a ``delay_salt`` and whose spec does not choose its own
#: (nanoseconds at the swarm's 10 ms leaf delay): a perfectly symmetric
#: star phase-locks onto bit-equal cross-channel timestamps whose
#: single-process tie order no bounded merge key reproduces (see the
#: module docstring), so the harness runs sharded swarms symmetry-broken
#: by default.
DEFAULT_DELAY_SALT = 1e-6


# ----------------------------------------------------------------- channels


class _LocalChannel:
    """A same-shard directed link, routed through the ordering domain.

    Keeping intra-shard deliveries on the same ``(arrival, tx_finish,
    channel, seq)`` key as cross-shard ones is what makes same-time
    arrivals from different links merge identically on every shard count —
    see the module docstring's determinism argument.
    """

    __slots__ = ("_ctx", "channel_id", "_target", "_seq")

    def __init__(self, ctx: "ShardContext", channel_id: int, target) -> None:
        self._ctx = ctx
        self.channel_id = channel_id
        self._target = target
        self._seq = 0

    def send(self, arrival: float, packet) -> None:
        ctx = self._ctx
        if arrival <= ctx._window_limit:
            # Arrives inside the window being executed: schedule natively,
            # exactly where the single-process engine would have.
            ctx.sim.call_at(arrival, self._target._deliver, packet)
        else:
            self._seq += 1
            heapq.heappush(
                ctx._staged,
                (arrival, ctx.sim.now, self.channel_id, self._seq, packet),
            )


class _RemoteChannel:
    """A directed cut edge: ships (arrival, packet) to the owning shard."""

    __slots__ = ("_ctx", "channel_id", "_box", "_seq")

    def __init__(self, ctx: "ShardContext", channel_id: int,
                 to_shard: int) -> None:
        self._ctx = ctx
        self.channel_id = channel_id
        self._box = ctx._outbox[to_shard]
        self._seq = 0

    def send(self, arrival: float, packet) -> None:
        self._seq += 1
        self._box.append(
            (arrival, self._ctx.sim.now, self.channel_id, self._seq, packet)
        )


class _ForeignChannel:
    """Egress of a non-owned node: transmitting through it is a bug.

    Non-owned nodes exist (the whole topology is built in every worker so
    routing tables and float arithmetic are identical) but must stay
    silent — they have no applications and receive no deliveries. A send
    here means ownership gating failed somewhere; fail loudly rather than
    corrupt determinism.
    """

    __slots__ = ("_name", "_owner")

    def __init__(self, name: str, owner: int) -> None:
        self._name = name
        self._owner = owner

    def send(self, arrival: float, packet) -> None:
        raise RuntimeError(
            f"interface {self._name!r} transmitted in a shard that does not "
            f"own its node (owner: shard {self._owner}); non-owned nodes "
            "must be silent"
        )


# ------------------------------------------------------------ shard context


class ShardContext:
    """One worker's view of a sharded run: channels, staging, barrier.

    The mode layer (:class:`repro.harness.modes.RunContext`) calls
    :meth:`localize` after the runner built the full topology (installing
    a channel on every directed link); the run is then driven through
    :meth:`advance` / :meth:`all_agree` instead of ``net.run`` — the same
    call sequence on every worker.
    """

    def __init__(
        self,
        shard_id: int,
        shards: int,
        assignment: Dict[str, int],
        mesh: Dict[int, Any],
    ) -> None:
        self.shard_id = shard_id
        self.shards = shards
        self.assignment = dict(assignment)
        #: peer shard id -> duplex Connection, in increasing-peer order
        #: (the deadlock-free handshake below relies on this ordering).
        self._mesh = dict(sorted(mesh.items()))
        self.sim = None
        self.lookahead_s = math.inf
        #: Min-heap of (arrival, tx_finish, channel_id, channel_seq,
        #: packet): inbound cross-shard packets plus beyond-window local
        #: deliveries. The (channel_id, channel_seq) pair is unique, so
        #: packets are never compared.
        self._staged: List[Tuple[float, float, int, int, Any]] = []
        #: Unsent outbound packets per destination shard. Channels hold a
        #: reference to these lists — cleared in place, never replaced.
        self._outbox: Dict[int, List[Tuple[float, float, int, int, Any]]] = {
            peer: [] for peer in self._mesh
        }
        #: channel_id -> destination Interface (for injection).
        self._targets: Dict[int, Any] = {}
        #: Inclusive time bound of the window currently executing; local
        #: sends at or below it are scheduled natively (see _LocalChannel).
        self._window_limit = -math.inf
        self._round = 0
        #: Shards sharing a cut edge with this one (sorted; filled by
        #: :meth:`localize`). Mid-batch boundary swaps pair only these —
        #: the full mesh is touched once per round, not once per window.
        self._neighbors: List[int] = []
        #: Max lookahead windows granted per barrier round (YAWNS
        #: batching); identical in every worker because the environment is
        #: inherited. 1 restores the one-window-per-round PR 6 behaviour.
        raw_batch = os.environ.get("REPRO_SHARD_WINDOW_BATCH", "").strip()
        self.window_batch = max(1, int(raw_batch) if raw_batch else 8)
        #: Events executed as of the previous full exchange / windows run
        #: since then — the density guard's inputs (see :meth:`advance`).
        self._events_at_exchange = 0
        self._windows_since_exchange = 0
        self._dense = True
        # Barrier counters (mirrored into sim.counters as shard.*).
        self.rounds = 0
        self.windows = 0
        self.messages_in = 0
        self.messages_out = 0
        self.barrier_wait_s = 0.0

    # ------------------------------------------------------------- topology

    def owns(self, node) -> bool:
        """Whether this shard owns ``node`` (a Node or a node name)."""
        name = getattr(node, "name", node)
        return self.assignment[name] == self.shard_id

    def localize(self, net, partition) -> None:
        """Install a channel on every directed link of the built topology.

        Owned-to-owned edges get a :class:`_LocalChannel`, owned-to-foreign
        a :class:`_RemoteChannel`, and foreign egresses a poison channel.
        ``channel_id`` is assigned in link construction order, forward
        direction first — identically in every worker, which is what makes
        it a valid global tie key.
        """
        self.sim = net.sim
        self.lookahead_s = partition.lookahead_s
        assignment = partition.assignment
        neighbors = set()
        channel_id = 0
        for link in net.links:
            for iface in (link.a_to_b, link.b_to_a):
                src_shard = assignment[iface.node.name]
                dst_shard = assignment[iface.peer.node.name]
                if dst_shard == self.shard_id:
                    self._targets[channel_id] = iface.peer
                    if src_shard != self.shard_id:
                        neighbors.add(src_shard)
                if src_shard == self.shard_id:
                    if dst_shard == self.shard_id:
                        iface.egress_channel = _LocalChannel(
                            self, channel_id, iface.peer
                        )
                    else:
                        neighbors.add(dst_shard)
                        iface.egress_channel = _RemoteChannel(
                            self, channel_id, dst_shard
                        )
                else:
                    iface.egress_channel = _ForeignChannel(
                        iface.name, src_shard
                    )
                channel_id += 1
        # Links are duplex, so the cut-neighbor relation is symmetric and
        # every worker derives the same pairing from the same assignment.
        self._neighbors = sorted(neighbors)

    # -------------------------------------------------------------- barrier

    def _advert(self) -> float:
        """Earliest thing this shard could still do (its ``N`` value).

        Includes the earliest unsent outbox arrival: a packet in flight
        must bound the global minimum or a grant could skip past it.
        """
        peek = self.sim.peek_time()
        advert = peek if peek is not None else math.inf
        staged = self._staged
        if staged and staged[0][0] < advert:
            advert = staged[0][0]
        for box in self._outbox.values():
            for item in box:
                if item[0] < advert:
                    advert = item[0]
        return advert

    def _handshake(self, payload: Tuple) -> List[Tuple]:
        """One full-mesh exchange; returns the peers' payloads.

        Peers are visited in increasing id; toward a higher id we send
        first, toward a lower id we receive first. The pairwise operations
        then chain acyclically, so the exchange can never deadlock however
        large a pickled bundle is relative to the pipe buffer.
        """
        replies = []
        started = time.perf_counter()
        for peer, conn in self._mesh.items():
            if peer > self.shard_id:
                conn.send(payload)
                replies.append(conn.recv())
            else:
                reply = conn.recv()
                conn.send(payload)
                replies.append(reply)
        self.barrier_wait_s += time.perf_counter() - started
        return replies

    def _exchange(self) -> float:
        """One full barrier round: swap adverts + outboxes, return global min.

        The payload also carries each shard's events-executed-since-last-
        round so every worker computes the same *density* verdict: batching
        fixed-width windows only pays when the region is busy (see
        :meth:`advance`), and the verdict must be a pure function of shared
        data or the workers' window sequences would diverge.
        """
        self._round += 1
        tag = self._round
        advert = self._advert()
        lowest = advert
        executed = self.sim.events_processed
        delta = executed - self._events_at_exchange
        self._events_at_exchange = executed
        total_delta = delta
        started = time.perf_counter()
        for peer, conn in self._mesh.items():
            box = self._outbox[peer]
            if peer > self.shard_id:
                conn.send((tag, advert, delta, box))
                self.messages_out += len(box)
                box.clear()  # in place: channels hold this list
                peer_tag, peer_advert, peer_delta, bundle = conn.recv()
            else:
                peer_tag, peer_advert, peer_delta, bundle = conn.recv()
                conn.send((tag, advert, delta, box))
                self.messages_out += len(box)
                box.clear()
            if peer_tag != tag:
                raise RuntimeError(
                    f"shard {self.shard_id} barrier desync with shard "
                    f"{peer}: round {tag}, peer answered {peer_tag}"
                )
            if peer_advert < lowest:
                lowest = peer_advert
            total_delta += peer_delta
            if bundle:
                self.messages_in += len(bundle)
                staged = self._staged
                for item in bundle:
                    heapq.heappush(staged, item)
        self.barrier_wait_s += time.perf_counter() - started
        self.rounds += 1
        # Dense enough to batch iff the span since the previous round
        # averaged at least one event per window globally; sparse regions
        # keep the one-window round whose global-min grant can jump an
        # idle gap in one hop, which fixed-width windows cannot.
        self._dense = total_delta >= self._windows_since_exchange
        self._windows_since_exchange = 0
        return lowest

    def _swap_boundary(self, window: int) -> None:
        """Ship outboxes to cut neighbors at a mid-batch window boundary.

        Packets sent during sub-window ``w`` arrive no earlier than the
        start of sub-window ``w + 1`` (every cut edge's delay is at least
        the lookahead), so shipping at each boundary is sufficient; an
        empty bundle is the null message that licenses the receiver to
        proceed. Only neighbors swap — this is the part of a round that is
        O(cut degree), not O(shards²) — with the same low/high
        send-first/receive-first ordering as the full mesh.
        """
        tag = (self._round, window)
        started = time.perf_counter()
        for peer in self._neighbors:
            conn = self._mesh[peer]
            box = self._outbox[peer]
            if peer > self.shard_id:
                conn.send((tag, box))
                self.messages_out += len(box)
                box.clear()
                peer_tag, bundle = conn.recv()
            else:
                peer_tag, bundle = conn.recv()
                conn.send((tag, box))
                self.messages_out += len(box)
                box.clear()
            if peer_tag != tag:
                raise RuntimeError(
                    f"shard {self.shard_id} window-boundary desync with "
                    f"shard {peer}: expected {tag}, peer answered {peer_tag}"
                )
            if bundle:
                self.messages_in += len(bundle)
                staged = self._staged
                for item in bundle:
                    heapq.heappush(staged, item)
        self.barrier_wait_s += time.perf_counter() - started

    def _inject(self, limit: float) -> None:
        """Schedule every staged arrival at or below ``limit``, in key order.

        The heap pops in ``(arrival, tx_finish, channel_id, channel_seq)``
        order, so the engine assigns seqs — and therefore same-time tie
        order — as a pure function of the simulation, never of IPC
        interleaving. Each delivery is injected with ``tie_key=tx_finish``,
        its *original* creation instant: the engine then ranks it against
        same-timestamp local events (periodic timers armed windows ago
        especially) exactly where single-process creation order would have
        put it, no matter which window re-created it here.
        """
        staged = self._staged
        if not staged or staged[0][0] > limit:
            return
        sim = self.sim
        targets = self._targets
        pop = heapq.heappop
        while staged and staged[0][0] <= limit:
            arrival, tx, channel_id, _seq, packet = pop(staged)
            sim.call_at(
                arrival, targets[channel_id]._deliver, packet, tie_key=tx
            )

    # ---------------------------------------------------------------- drive

    def advance(self, until: float) -> None:
        """Run this shard's engine to physical time ``until`` (inclusive).

        Conservative loop with YAWNS-style window batching: each full
        round establishes the global minimum next-event time ``M``; every
        event strictly below ``M + L`` is safe, and by induction sub-window
        ``w`` (events strictly below ``M + (w+1)·L``) is safe once the
        sends of sub-windows ``0..w-1`` have been shipped — they arrive no
        earlier than the start of the window after the one that sent them.
        So a busy region runs up to ``window_batch`` fixed-width windows
        per round, paying only a cheap neighbor-only outbox swap per
        boundary instead of a full-mesh advert exchange per window. Sparse
        regions (the density verdict from :meth:`_exchange`) fall back to
        one window per round because there the global-min grant jumps idle
        gaps that a fixed-width march would crawl across.

        Once the target is inside the horizon the final window runs
        inclusively to it — any event executed there sits at ``t >= M``,
        so packets it emits arrive at ``t + L' >= M + L > until`` and
        belong to a later ``advance``.
        """
        sim = self.sim
        lookahead = self.lookahead_s
        while True:
            lowest = self._exchange()
            batch = self.window_batch if self._dense else 1
            for window in range(batch):
                if window:
                    self._swap_boundary(window)
                horizon = lowest + (window + 1) * lookahead
                if horizon > until:
                    limit = until
                else:
                    # Execute strictly below the grant: run() is inclusive
                    # of its bound, so bound at the float just below it.
                    limit = math.nextafter(horizon, -math.inf)
                self._inject(limit)
                self._window_limit = limit
                sim.run(until=limit)
                self.windows += 1
                self._windows_since_exchange += 1
                if limit == until:
                    self._publish_counters()
                    return

    def all_agree(self, flag: bool) -> bool:
        """Consensus barrier: AND of ``flag`` across all shards.

        Drivers use this for global predicates (e.g. "is the whole swarm
        complete?") so every worker takes identical control-flow decisions.
        """
        self._round += 1
        tag = -self._round  # negative tags mark consensus rounds
        agreed = bool(flag)
        for peer_tag, peer_flag in self._handshake((tag, bool(flag))):
            if peer_tag != tag:
                raise RuntimeError(
                    f"shard {self.shard_id} consensus desync: round {-tag}, "
                    f"peer answered {peer_tag}"
                )
            agreed = agreed and peer_flag
        return agreed

    # ---------------------------------------------------------- observation

    def _publish_counters(self) -> None:
        counters = self.sim.counters
        counters["shard.rounds"] = self.rounds
        counters["shard.windows"] = self.windows
        counters["shard.windows_per_round"] = round(
            self.windows / self.rounds) if self.rounds else 0
        counters["shard.messages_in"] = self.messages_in
        counters["shard.messages_out"] = self.messages_out
        counters["shard.barrier_wait_ms"] = int(self.barrier_wait_s * 1000)

    def stats(self) -> Dict[str, Any]:
        """Per-shard barrier accounting, returned to the parent process."""
        if self.sim is not None:
            self._publish_counters()
        return {
            "shard": self.shard_id,
            "rounds": self.rounds,
            "windows": self.windows,
            "windows_per_round":
                round(self.windows / self.rounds, 3) if self.rounds else 0.0,
            "messages_in": self.messages_in,
            "messages_out": self.messages_out,
            "barrier_wait_s": self.barrier_wait_s,
            "events_processed":
                self.sim.events_processed if self.sim is not None else 0,
        }


class InProcessShard:
    """The ``shards=1`` context: today's engine, byte-for-byte.

    ``owns`` everything, ``advance`` is ``net.run``, consensus is the
    local predicate. Runners drive this and a real :class:`ShardContext`
    through one code path, so the single-process goldens cannot drift.
    """

    shard_id = 0
    shards = 1

    def __init__(self, net) -> None:
        self._net = net

    def owns(self, node) -> bool:
        return True

    def advance(self, until: float) -> None:
        self._net.run(until=until)

    def all_agree(self, flag: bool) -> bool:
        return bool(flag)

    def stats(self) -> Optional[Dict[str, Any]]:
        return None


# -------------------------------------------------------------- orchestration


def _worker_main(
    runner_name: str,
    kwargs: Dict[str, Any],
    shard_id: int,
    shards: int,
    assignment: Dict[str, int],
    mesh: Dict[int, Any],
    result_conn,
) -> None:
    """Worker process entry: run one shard of the experiment."""
    try:
        import itertools

        from ..harness.experiments import RUNNERS
        from ..simnet import packet as _packet

        # Packet uids come from a module-global counter; under the fork
        # start method the worker inherits the parent's position. Restart
        # it at a per-shard base so worker uid streams are reproducible
        # run-to-run (uids are debugging handles, never semantic — trace
        # diffing normalises them away).
        _packet._packet_ids = itertools.count(1 + shard_id * 10**9)

        ctx = ShardContext(shard_id, shards, assignment, mesh)
        result = RUNNERS[runner_name](**kwargs, shards=shards, _shard=ctx)
        result_conn.send(("ok", result, ctx.stats()))
    except BaseException:
        try:
            result_conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        try:
            result_conn.close()
        except Exception:  # pragma: no cover - defensive
            pass


def run_sharded(
    runner_name: str,
    kwargs: Dict[str, Any],
    shards: int,
    assignment: Dict[str, int],
) -> Tuple[List[Any], List[Dict[str, Any]]]:
    """Parent-side orchestration: spawn one worker per shard, collect.

    Builds the full-mesh pipe topology, starts the workers, and waits for
    every per-shard result. The parent is *not* on the barrier hot path —
    workers synchronise peer-to-peer; the parent only watches for results
    and failures (a worker that raises reports its traceback; a worker
    that dies hard is caught by exit-code polling, and either way all
    siblings are terminated so a mesh partner's death can never hang the
    run).

    Returns ``(results, stats)``, both indexed by shard id; the caller
    (:func:`repro.harness.modes.scenario`) owns the merge.
    """
    import multiprocessing

    if shards < 2:
        raise ConfigurationError(
            f"run_sharded needs at least 2 shards, got {shards}"
        )
    methods = multiprocessing.get_all_start_methods()
    mp_ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    pair_conns = {}
    for low in range(shards):
        for high in range(low + 1, shards):
            pair_conns[(low, high)] = mp_ctx.Pipe(duplex=True)
    workers = []
    result_conns = []
    for shard_id in range(shards):
        mesh = {}
        for (low, high), (conn_low, conn_high) in pair_conns.items():
            if low == shard_id:
                mesh[high] = conn_low
            elif high == shard_id:
                mesh[low] = conn_high
        parent_conn, child_conn = mp_ctx.Pipe(duplex=False)
        worker = mp_ctx.Process(
            target=_worker_main,
            args=(runner_name, kwargs, shard_id, shards, assignment, mesh,
                  child_conn),
            name=f"repro-shard-{shard_id}",
        )
        worker.start()
        child_conn.close()
        workers.append(worker)
        result_conns.append(parent_conn)
    for conn_low, conn_high in pair_conns.values():
        conn_low.close()
        conn_high.close()

    outcomes: List[Optional[Tuple[Any, Dict[str, Any]]]] = [None] * shards
    pending = set(range(shards))
    failure = None
    try:
        while pending and failure is None:
            for shard_id in sorted(pending):
                conn = result_conns[shard_id]
                if conn.poll(0.05):
                    try:
                        message = conn.recv()
                    except EOFError:
                        failure = (
                            f"shard {shard_id} exited without reporting "
                            "a result"
                        )
                        break
                    if message[0] == "ok":
                        outcomes[shard_id] = (message[1], message[2])
                        pending.discard(shard_id)
                    else:
                        failure = f"shard {shard_id} failed:\n{message[1]}"
                        break
                elif workers[shard_id].exitcode not in (None, 0):
                    failure = (
                        f"shard {shard_id} died with exit code "
                        f"{workers[shard_id].exitcode}"
                    )
                    break
    finally:
        if pending:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
        for worker in workers:
            worker.join()
        for conn in result_conns:
            conn.close()
    if failure is not None:
        raise RuntimeError(f"sharded {runner_name} failed: {failure}")
    results = [outcome[0] for outcome in outcomes]  # type: ignore[index]
    stats = [outcome[1] for outcome in outcomes]  # type: ignore[index]
    return results, stats
