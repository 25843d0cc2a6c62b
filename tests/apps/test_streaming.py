"""Tests for the media streaming workload and jitter buffer."""

import random

import pytest

from repro.apps.streaming import JitterBufferSink, MediaSource
from repro.core.vmm import Hypervisor
from repro.simnet.errors import ConfigurationError
from repro.simnet.topology import Network
from repro.simnet.units import mbps, ms
from repro.udp.socket import UdpStack
from tests.helpers import drop_where


def build_path(delay=ms(20), jitter=None, jitter_seed=5, tdf=None,
               bandwidth=mbps(10)):
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    link = net.add_link(a, b, bandwidth, delay)
    if jitter is not None:
        link.a_to_b.jitter_s = jitter
        link.a_to_b._jitter_rng = random.Random(jitter_seed)
    net.finalize()
    vm = None
    if tdf is not None:
        vmm = Hypervisor(net.sim)
        vmm.create_vm("vma", tdf=tdf, cpu_share=0.5, node=a)
        vm = vmm.create_vm("vmb", tdf=tdf, cpu_share=0.5, node=b)
    return net, UdpStack(a), UdpStack(b), vm


def test_clean_path_all_frames_on_time():
    net, ua, ub, _ = build_path()
    sink = JitterBufferSink(ub, 5004, playout_delay_s=0.060)
    source = MediaSource(ua, "b", 5004, total_frames=100)
    source.start()
    net.run(until=5.0)
    sink.finalize(source.frames_sent)
    assert source.frames_sent == 100
    assert sink.received == 100
    assert sink.on_time == 100
    assert sink.late == 0
    assert sink.lost == 0
    assert sink.playable_fraction() == 1.0
    # One-way delay = propagation + serialisation of a 172+28 byte packet.
    assert sink.delay.mean == pytest.approx(0.020, rel=0.05)


def test_tight_playout_deadline_marks_late():
    # Deadline shorter than the path delay: everything arrives, all late.
    net, ua, ub, _ = build_path(delay=ms(50))
    sink = JitterBufferSink(ub, 5004, playout_delay_s=0.010)
    source = MediaSource(ua, "b", 5004, total_frames=20)
    source.start()
    net.run(until=3.0)
    sink.finalize(source.frames_sent)
    assert sink.late == 20
    assert sink.on_time == 0
    assert all(miss > 0 for miss in sink.late_by)


def test_jitter_makes_some_frames_late():
    net, ua, ub, _ = build_path(delay=ms(30), jitter=ms(15))
    sink = JitterBufferSink(ub, 5004, playout_delay_s=0.038)
    source = MediaSource(ua, "b", 5004, total_frames=300)
    source.start()
    net.run(until=10.0)
    sink.finalize(source.frames_sent)
    assert sink.received == 300
    assert 0 < sink.late < 300  # jitter pushes a fraction past the deadline
    # A deeper buffer absorbs the same jitter.
    net2, ua2, ub2, _ = build_path(delay=ms(30), jitter=ms(15))
    deep = JitterBufferSink(ub2, 5004, playout_delay_s=0.100)
    source2 = MediaSource(ua2, "b", 5004, total_frames=300)
    source2.start()
    net2.run(until=10.0)
    deep.finalize(source2.frames_sent)
    assert deep.late == 0


def test_lost_frames_counted():
    net, ua, ub, _ = build_path()
    link = net.links[0]
    drop_where(link.a_to_b, lambda p: p.payload.payload.seq % 10 == 3)
    sink = JitterBufferSink(ub, 5004)
    source = MediaSource(ua, "b", 5004, total_frames=100)
    source.start()
    net.run(until=5.0)
    sink.finalize(source.frames_sent)
    assert sink.lost == 10
    assert sink.received == 90


def test_dilated_stream_statistics_match_baseline():
    """The figure-5 claim, app-level: playout statistics of a dilated
    stream over the rescaled (including jitter!) path match TDF 1."""
    def run(tdf):
        net, ua, ub, vm = build_path(
            delay=ms(30) * tdf, jitter=ms(10) * tdf, jitter_seed=9, tdf=tdf,
            bandwidth=mbps(10) / tdf,  # the full physical rescale
        )
        sink = JitterBufferSink(ub, 5004, playout_delay_s=0.040)
        source = MediaSource(ua, "b", 5004, total_frames=200)
        source.start()
        horizon = 6.0 if vm is None else vm.clock.to_physical(6.0)
        net.run(until=horizon)
        sink.finalize(source.frames_sent)
        return sink

    base = run(1)
    dilated = run(10)
    assert dilated.received == base.received
    # Frames whose jitter lands exactly on the deadline flip with the last
    # ulp of the scaled jitter draw; allow a couple of boundary frames.
    assert abs(dilated.on_time - base.on_time) <= 4
    assert abs(dilated.late - base.late) <= 4
    assert dilated.delay.mean == pytest.approx(base.delay.mean, rel=1e-6)


def test_source_stop():
    net, ua, ub, _ = build_path()
    sink = JitterBufferSink(ub, 5004)
    source = MediaSource(ua, "b", 5004)
    source.start()
    net.run(until=0.5)
    source.stop()
    at_stop = source.frames_sent
    net.run(until=2.0)
    assert source.frames_sent == at_stop


def test_validation():
    net, ua, ub, _ = build_path()
    with pytest.raises(ConfigurationError):
        MediaSource(ua, "b", 5004, frame_interval_s=0)
    with pytest.raises(ConfigurationError):
        MediaSource(ua, "b", 5004, frame_bytes=0)
    with pytest.raises(ConfigurationError):
        JitterBufferSink(ub, 5005, playout_delay_s=0)
