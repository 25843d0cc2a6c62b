"""Shared fixtures/builders for integration tests."""

from repro.simnet.impairments import FunctionLoss, ImpairmentChain
from repro.simnet.link import Link
from repro.simnet.queues import DropTailQueue
from repro.simnet.topology import Network
from repro.tcp.stack import TcpStack


def two_hosts(
    bandwidth_bps=10e6,
    delay_s=0.010,
    queue_packets=100,
    tcp_options=None,
):
    """Two directly linked hosts with TCP stacks installed.

    Returns ``(net, host_a, host_b, stack_a, stack_b, link)``.
    """
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    link = net.add_link(
        a, b, bandwidth_bps, delay_s,
        queue_factory=lambda: DropTailQueue(capacity_packets=queue_packets),
    )
    net.finalize()
    stack_a = TcpStack(a, default_options=tcp_options)
    stack_b = TcpStack(b, default_options=tcp_options)
    return net, a, b, stack_a, stack_b, link


def drop_where(interface, predicate):
    """Drop every packet ``predicate`` picks on ``interface``'s egress,
    charged as ``"injected"``."""
    interface.set_impairments(ImpairmentChain([FunctionLoss(predicate)]))


class Collector:
    """Callback recorder for socket events."""

    def __init__(self):
        self.connected = []
        self.data = []
        self.messages = []
        self.closed = []
        self.errors = []
        self.accepted = []

    def on_connected(self, sock):
        self.connected.append(sock)

    def on_data(self, sock, n):
        self.data.append(n)

    def on_message(self, sock, message):
        self.messages.append(message)

    def on_close(self, sock):
        self.closed.append(sock)

    def on_error(self, sock, error):
        self.errors.append(error)

    def on_accept(self, sock):
        self.accepted.append(sock)

    @property
    def total_bytes(self):
        return sum(self.data)
