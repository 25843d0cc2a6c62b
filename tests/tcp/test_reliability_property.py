"""Property-based reliability: TCP must deliver everything, exactly once,
in order, under arbitrary (non-total) loss patterns.

The loss model drops the first copy of a pseudo-random subset of data
segments and a subset of ACKs; retransmissions always pass, so delivery is
eventually possible and the stack has no excuse.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.units import mbps, ms
from repro.tcp import TcpOptions
from tests.helpers import Collector, drop_where, two_hosts


def run_with_random_loss(seed, data_loss, ack_loss, total_bytes, sack):
    net, a, b, sa, sb, link = two_hosts(
        bandwidth_bps=mbps(20), delay_s=ms(5),
        tcp_options=TcpOptions(sack=sack),
    )
    events = Collector()
    sb.listen(80, events.on_accept, on_data=events.on_data,
              on_message=events.on_message)
    rng = random.Random(seed)
    dropped_data = set()
    dropped_acks = set()

    def drop_forward(packet):
        segment = packet.payload
        if segment.length == 0:
            return False
        if segment.seq in dropped_data:
            return False  # retransmission: let it through
        if rng.random() < data_loss:
            dropped_data.add(segment.seq)
            return True
        return False

    def drop_reverse(packet):
        segment = packet.payload
        key = (segment.ack, segment.uid)
        if rng.random() < ack_loss and key not in dropped_acks:
            dropped_acks.add(key)
            return True
        return False

    drop_where(link.a_to_b, drop_forward)
    drop_where(link.b_to_a, drop_reverse)
    client = sa.connect("b", 80)
    chunk = 10_000
    for index in range(total_bytes // chunk):
        client.send(chunk, message=index)
    net.run(until=300.0)
    return events, client, len(dropped_data)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    data_loss=st.sampled_from([0.02, 0.1, 0.3]),
    ack_loss=st.sampled_from([0.0, 0.1]),
    sack=st.booleans(),
)
def test_property_exactly_once_in_order_delivery(seed, data_loss, ack_loss, sack):
    total = 200_000
    events, client, dropped = run_with_random_loss(
        seed, data_loss, ack_loss, total, sack
    )
    assert events.total_bytes == total
    # Message markers are the in-order witness: 0, 1, 2, ... exactly once.
    assert events.messages == list(range(total // 10_000))


def test_heavy_loss_still_completes():
    events, client, dropped = run_with_random_loss(
        seed=1, data_loss=0.5, ack_loss=0.2, total_bytes=100_000, sack=True
    )
    assert events.total_bytes == 100_000
    assert dropped > 10
