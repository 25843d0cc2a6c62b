"""Integration tests: full TCP connections over the substrate."""

import pytest

from repro.simnet.units import mbps, ms
from repro.tcp import ESTABLISHED, CLOSED, TIME_WAIT, TcpOptions
from tests.helpers import Collector, drop_where, two_hosts


def test_handshake_establishes_both_ends():
    net, a, b, sa, sb, _ = two_hosts()
    server_events = Collector()
    client_events = Collector()
    sb.listen(80, server_events.on_accept)
    client = sa.connect("b", 80, on_connected=client_events.on_connected)
    net.run(until=1.0)
    assert client.state == ESTABLISHED
    assert len(server_events.accepted) == 1
    assert server_events.accepted[0].state == ESTABLISHED
    assert client_events.connected == [client]


def test_small_transfer_delivers_bytes_and_messages():
    net, a, b, sa, sb, _ = two_hosts()
    server_events = Collector()
    sb.listen(
        80, server_events.on_accept,
        on_data=server_events.on_data, on_message=server_events.on_message,
    )
    client = sa.connect("b", 80)
    client.send(5000, message={"kind": "hello"})
    net.run(until=2.0)
    assert server_events.total_bytes == 5000
    assert server_events.messages == [{"kind": "hello"}]


def test_multi_segment_transfer_exact_byte_count():
    net, a, b, sa, sb, _ = two_hosts()
    server_events = Collector()
    sb.listen(80, server_events.on_accept, on_data=server_events.on_data)
    client = sa.connect("b", 80)
    total = 1_000_000
    client.send(total)
    net.run(until=30.0)
    assert server_events.total_bytes == total


def test_bulk_throughput_approaches_bottleneck():
    """A long flow should fill most of a 10 Mbps pipe."""
    net, a, b, sa, sb, _ = two_hosts(bandwidth_bps=mbps(10), delay_s=ms(10))
    server_events = Collector()
    sb.listen(80, server_events.on_accept, on_data=server_events.on_data)
    client = sa.connect("b", 80)
    client.send(12_500_000)  # 100 Mb = ~10 s at line rate
    net.run(until=4.0)  # warm-up: slow-start overshoot and its recovery
    at_warmup = server_events.total_bytes
    net.run(until=9.0)
    goodput = (server_events.total_bytes - at_warmup) * 8 / 5.0
    assert goodput > 0.85 * mbps(10)
    assert goodput <= mbps(10)


def test_bidirectional_transfer():
    net, a, b, sa, sb, _ = two_hosts()
    a_events, b_events = Collector(), Collector()

    def on_accept(server_sock):
        b_events.accepted.append(server_sock)
        server_sock.send(30_000)

    sb.listen(80, on_accept, on_data=b_events.on_data)
    client = sa.connect("b", 80, on_data=a_events.on_data)
    client.send(20_000)
    net.run(until=5.0)
    assert b_events.total_bytes == 20_000
    assert a_events.total_bytes == 30_000


def test_two_parallel_connections_demuxed_independently():
    net, a, b, sa, sb, _ = two_hosts()
    per_socket = {}

    def on_accept(sock):
        per_socket[sock.remote_port] = 0

    def on_data(sock, n):
        per_socket[sock.remote_port] += n

    sb.listen(80, on_accept, on_data=on_data)
    c1 = sa.connect("b", 80)
    c2 = sa.connect("b", 80)
    c1.send(10_000)
    c2.send(20_000)
    net.run(until=5.0)
    assert sorted(per_socket.values()) == [10_000, 20_000]
    assert c1.local_port != c2.local_port


def test_fin_teardown_reaches_closed():
    net, a, b, sa, sb, _ = two_hosts(tcp_options=TcpOptions(msl=0.1))
    server_events = Collector()

    def on_close_server(sock):
        server_events.closed.append(sock)
        sock.close()  # close our side too

    sb.listen(80, server_events.on_accept, on_close=on_close_server)
    client_events = Collector()
    client = sa.connect("b", 80, on_close=client_events.on_close)
    client.send(1000)
    client.close()
    net.run(until=10.0)
    assert len(server_events.closed) == 1
    server_sock = server_events.accepted[0]
    assert server_sock.state == CLOSED
    assert client.state == CLOSED
    assert sa.connection_count() == 0
    assert sb.connection_count() == 0


def test_connect_to_closed_port_resets():
    net, a, b, sa, sb, _ = two_hosts()
    events = Collector()
    client = sa.connect("b", 9999, on_error=events.on_error)
    net.run(until=2.0)
    assert len(events.errors) == 1
    assert client.state == CLOSED
    assert sb.resets_sent == 1


def test_send_after_close_rejected():
    net, a, b, sa, sb, _ = two_hosts()
    sb.listen(80, lambda s: None)
    client = sa.connect("b", 80)
    net.run(until=1.0)
    client.close()
    with pytest.raises(Exception):
        client.send(100)


def test_loss_recovery_via_fast_retransmit():
    """Drop one data segment; the flow must still deliver everything."""
    net, a, b, sa, sb, link = two_hosts(bandwidth_bps=mbps(10), delay_s=ms(5))
    events = Collector()
    sb.listen(80, events.on_accept, on_data=events.on_data)

    dropped = []

    def drop_fifth_data(packet):
        segment = packet.payload
        if segment.length > 0 and not dropped and segment.seq > 5 * 1460:
            dropped.append(segment.seq)
            return True
        return False

    drop_where(link.a_to_b, drop_fifth_data)
    client = sa.connect("b", 80)
    client.send(300_000)
    net.run(until=20.0)
    assert dropped, "loss injector never fired"
    assert events.total_bytes == 300_000
    assert client.retransmits >= 1


def test_recovery_from_burst_loss():
    """Drop a whole burst; NewReno partial ACKs must fill all holes."""
    net, a, b, sa, sb, link = two_hosts(bandwidth_bps=mbps(10), delay_s=ms(5))
    events = Collector()
    sb.listen(80, events.on_accept, on_data=events.on_data)

    state = {"count": 0}

    def drop_burst(packet):
        segment = packet.payload
        if segment.length > 0 and 20_000 < segment.seq < 40_000 and state["count"] < 8:
            state["count"] += 1
            return True
        return False

    drop_where(link.a_to_b, drop_burst)
    client = sa.connect("b", 80)
    client.send(300_000)
    net.run(until=30.0)
    assert state["count"] > 0
    assert events.total_bytes == 300_000


def test_rto_recovers_from_total_ack_blackout():
    """Drop ACKs for a while: sender must RTO, back off, and finish."""
    net, a, b, sa, sb, link = two_hosts(bandwidth_bps=mbps(10), delay_s=ms(5))
    events = Collector()
    sb.listen(80, events.on_accept, on_data=events.on_data)

    def drop_acks_early(packet):
        return net.sim.now < 1.0

    drop_where(link.b_to_a, drop_acks_early)
    client = sa.connect("b", 80)
    client.send(100_000)
    net.run(until=60.0)
    assert events.total_bytes == 100_000
    assert client.timeouts >= 1


def test_syn_retransmission_on_lost_syn():
    net, a, b, sa, sb, link = two_hosts()
    events = Collector()
    sb.listen(80, events.on_accept)

    state = {"dropped": False}

    def drop_first_syn(packet):
        if packet.payload.syn and not state["dropped"]:
            state["dropped"] = True
            return True
        return False

    drop_where(link.a_to_b, drop_first_syn)
    client = sa.connect("b", 80)
    net.run(until=10.0)
    assert client.state == ESTABLISHED
    assert len(events.accepted) == 1


def test_give_up_after_max_retries():
    net, a, b, sa, sb, link = two_hosts()
    events = Collector()
    drop_where(link.a_to_b, lambda packet: True)  # black hole
    client = sa.connect("b", 80, on_error=events.on_error)
    net.run(until=10_000.0)
    assert client.state == CLOSED
    assert len(events.errors) == 1


def test_message_markers_survive_loss():
    """A message riding a dropped segment arrives via the retransmission."""
    net, a, b, sa, sb, link = two_hosts(bandwidth_bps=mbps(10), delay_s=ms(5))
    events = Collector()
    sb.listen(80, events.on_accept, on_message=events.on_message)

    state = {"dropped": False}

    def drop_one(packet):
        segment = packet.payload
        if segment.length > 0 and segment.messages and not state["dropped"]:
            state["dropped"] = True
            return True
        return False

    drop_where(link.a_to_b, drop_one)
    client = sa.connect("b", 80)
    for index in range(10):
        client.send(1000, message=f"msg{index}")
    net.run(until=20.0)
    assert state["dropped"]
    assert events.messages == [f"msg{index}" for index in range(10)]


def test_rtt_estimator_converges_to_path_rtt():
    net, a, b, sa, sb, _ = two_hosts(bandwidth_bps=mbps(100), delay_s=ms(20))
    events = Collector()
    sb.listen(80, events.on_accept, on_data=events.on_data)
    client = sa.connect("b", 80)
    client.send(500_000)
    net.run(until=10.0)
    # Path RTT is 40 ms + serialisation/queueing; srtt should be close.
    assert client.rtt.srtt == pytest.approx(0.040, rel=0.5)


def test_flavors_all_complete_transfer():
    for flavor in ("tahoe", "reno", "newreno", "cubic"):
        net, a, b, sa, sb, link = two_hosts(
            bandwidth_bps=mbps(10), delay_s=ms(5),
            tcp_options=TcpOptions(flavor=flavor),
        )
        events = Collector()
        sb.listen(80, events.on_accept, on_data=events.on_data)

        state = {"count": 0}

        def drop_some(packet, state=state):
            segment = packet.payload
            if segment.length > 0 and state["count"] < 3 and 50_000 < segment.seq < 60_000:
                state["count"] += 1
                return True
            return False

        drop_where(link.a_to_b, drop_some)
        client = sa.connect("b", 80)
        client.send(200_000)
        net.run(until=60.0)
        assert events.total_bytes == 200_000, flavor


def test_listener_stop_listening():
    net, a, b, sa, sb, _ = two_hosts()
    events = Collector()
    sb.listen(80, events.on_accept)
    sb.stop_listening(80)
    client = sa.connect("b", 80, on_error=events.on_error)
    net.run(until=2.0)
    assert events.accepted == []
    assert len(events.errors) == 1


def test_time_wait_then_closed():
    options = TcpOptions(msl=0.05)
    net, a, b, sa, sb, _ = two_hosts(tcp_options=options)
    events = Collector()

    def on_close_server(sock):
        sock.close()

    sb.listen(80, events.on_accept, on_close=on_close_server)
    client = sa.connect("b", 80)
    client.send(100)
    client.close()
    net.run(until=0.5)
    # Client initiated close; it must pass through TIME_WAIT to CLOSED.
    assert client.state in (TIME_WAIT, CLOSED)
    net.run(until=5.0)
    assert client.state == CLOSED
