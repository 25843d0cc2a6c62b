"""Unit tests for the token bucket and shaped interfaces."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.errors import ConfigurationError
from repro.simnet.link import Link
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.simnet.shaper import ShapedInterface, TokenBucket


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(Simulator(), 1000, 5000)
        assert bucket.tokens == 5000

    def test_consume_and_refill(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate_bytes_per_s=1000, burst_bytes=5000)
        assert bucket.try_consume(5000)
        assert not bucket.try_consume(1)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert bucket.tokens == pytest.approx(2000)

    def test_refill_caps_at_burst(self):
        sim = Simulator()
        bucket = TokenBucket(sim, 1000, 5000)
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert bucket.tokens == 5000

    def test_time_until(self):
        sim = Simulator()
        bucket = TokenBucket(sim, 1000, 5000)
        bucket.consume(5000)
        assert bucket.time_until(1000) == pytest.approx(1.0)
        assert bucket.time_until(0) == 0.0

    def test_overdraft_rejected(self):
        bucket = TokenBucket(Simulator(), 1000, 5000)
        with pytest.raises(ConfigurationError):
            bucket.consume(6000)

    @pytest.mark.parametrize("rate,burst", [(0, 100), (-1, 100), (100, 0)])
    def test_validation(self, rate, burst):
        with pytest.raises(ConfigurationError):
            TokenBucket(Simulator(), rate, burst)


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.times = []

    def deliver(self, packet):
        self.times.append(self.sim.now)


class TestShapedInterface:
    def build(self, shaper_rate_bytes, burst=None):
        sim = Simulator()
        a, b = Node(sim, "a"), Node(sim, "b")
        link = Link(sim, a, b, bandwidth_bps=1e9, delay_s=0.0)  # fast wire
        shaped = ShapedInterface(sim, link.a_to_b, shaper_rate_bytes, burst)
        a.set_route("b", shaped)
        sink = Sink(sim)
        b.register_protocol("raw", sink)
        return sim, a, shaped, sink

    def test_burst_passes_immediately(self):
        sim, a, shaped, sink = self.build(shaper_rate_bytes=1000, burst=5000)
        for _ in range(5):
            a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1000))
        sim.run()
        # All five fit the initial burst; arrive back-to-back at wire speed.
        assert len(sink.times) == 5
        assert sink.times[-1] < 0.001

    def test_sustained_rate_enforced(self):
        sim, a, shaped, sink = self.build(shaper_rate_bytes=1000, burst=1000)
        for _ in range(5):
            a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1000))
        sim.run()
        # First packet uses the initial burst; each further packet waits a
        # full second of token accumulation.
        assert len(sink.times) == 5
        gaps = [b - a for a, b in zip(sink.times, sink.times[1:])]
        for gap in gaps:
            assert gap == pytest.approx(1.0, rel=0.01)

    def test_backlog_counter(self):
        sim, a, shaped, sink = self.build(shaper_rate_bytes=1000, burst=1000)
        for _ in range(3):
            a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1000))
        assert shaped.backlog == 2  # one consumed the burst, two wait
        sim.run()
        assert shaped.backlog == 0
        assert shaped.shaped_packets == 3

    def test_default_burst_sized_from_rate(self):
        sim = Simulator()
        a, b = Node(sim, "a"), Node(sim, "b")
        link = Link(sim, a, b, 1e9, 0.0)
        shaped = ShapedInterface(sim, link.a_to_b, 1_000_000)
        assert shaped.bucket.burst == pytest.approx(10_000)  # 10 ms worth

    def test_finite_backlog_drops_excess(self):
        sim, a, shaped, sink = self.build(shaper_rate_bytes=1000, burst=1000)
        shaped.max_backlog_packets = 2
        for _ in range(10):
            a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1000))
        # 1 in flight + 2 queued kept.
        assert shaped.interface.drops.get("shaper", 0) == 7
        sim.run()
        assert len(sink.times) == 3

    def test_no_event_pingpong_at_token_boundaries(self):
        """Float residue in the lazy refill must not generate storms of
        sub-nanosecond resume events (regression test)."""
        sim, a, shaped, sink = self.build(shaper_rate_bytes=125_000, burst=3000)
        for _ in range(100):
            a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=997))
        sim.run()
        assert len(sink.times) == 100
        # ~1 enqueue + ~1 resume + 2 link events per packet; a ping-pong
        # regression would be tens of thousands.
        assert sim.events_processed < 1000


class TestShaperDropTaxonomy:
    """Backlog-overflow drops must be first-class taxonomy citizens."""

    def build(self):
        sim = Simulator()
        a, b = Node(sim, "a"), Node(sim, "b")
        link = Link(sim, a, b, bandwidth_bps=1e9, delay_s=0.0)
        shaped = ShapedInterface(sim, link.a_to_b, 1000, 1000)
        shaped.max_backlog_packets = 2
        a.set_route("b", shaped)
        sink = Sink(sim)
        b.register_protocol("raw", sink)
        return sim, a, shaped, sink

    def test_overflow_charged_to_interface_taxonomy(self):
        sim, a, shaped, sink = self.build()
        for _ in range(10):
            a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1000))
        # 1 in flight + 2 queued kept; the drops land in the wrapped
        # interface's taxonomy under the "shaper" reason, mirrored into the
        # engine counters.
        assert shaped.interface.drops.get("shaper", 0) == 7
        assert shaped.interface.drops == {"shaper": 7}
        assert shaped.interface.total_drops == 7
        assert sim.counters["drop.shaper"] == 7
        sim.run()
        assert len(sink.times) == 3

    def test_overflow_visible_to_flow_monitor(self):
        from repro.stats.flows import FlowMonitor

        sim, a, shaped, sink = self.build()
        monitor = FlowMonitor()
        monitor.watch(shaped.interface)
        for _ in range(10):
            a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1000))
        sim.run()
        assert monitor.drops_by_reason() == {"shaper": 7}
        assert monitor.interface_drops()[shaped.interface.name] == {"shaper": 7}
        assert monitor.total_drops() == 7

    def test_no_overflow_no_taxonomy_entry(self):
        sim, a, shaped, sink = self.build()
        a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1000))
        sim.run()
        assert shaped.interface.drops.get("shaper", 0) == 0
        assert shaped.interface.drops == {}
        assert "drop.shaper" not in sim.counters
