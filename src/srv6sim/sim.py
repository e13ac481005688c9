"""Deterministic discrete-event network simulator.

Single-threaded event loop over integer-nanosecond timestamps. Links add
serialization, seeded Gaussian jitter (truncated at zero) and an optional
netem-style extra delay per direction; delivery order per link direction
is FIFO. Identical (config, seed) runs produce byte-identical traces.
"""

from __future__ import annotations

import math
import struct
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, NamedTuple

from .behaviors import DROP_HOP_LIMIT, Drop, DropReason, Forward, LocalDeliver
from .dataplane import Node
from .fib import fnv1a64
from .packet import Address, Packet, Udp, make_udp_packet

_MASK64 = 0xFFFFFFFFFFFFFFFF

# generated payloads start with this magic so traces can recover flow ids
FLOW_MAGIC = b"\x9c\x6f"
_FLOW_IDS = struct.Struct(">HI")  # (flow, seq), right after the magic
_FLOW_HEAD = struct.Struct(">2sHI")  # magic, flow, seq
_TRACE_CHUNK = 4096  # write_trace's rows per write: bounds the text held at once


class SimError(Exception):
    pass


class UnknownLink(SimError):
    pass


class InsufficientData(SimError):
    pass


class Rng:
    """splitmix64 generator with a Box-Muller gaussian on top."""

    __slots__ = ("state", "_spare")

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self._spare = None

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def gauss(self, mu: float, sigma: float) -> float:
        if self._spare is not None:
            z, self._spare = self._spare, None
            return mu + sigma * z
        u1 = 1.0 - self.random()  # (0, 1]
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return mu + sigma * r * math.cos(2.0 * math.pi * u2)


def stream_rng(seed: int, name: str) -> Rng:
    """Independent deterministic stream for a named component."""
    return Rng(fnv1a64(name.encode() + seed.to_bytes(8, "big")))


class TraceRecord(NamedTuple):
    """Column names of a trace row. ``Simulation.trace`` holds plain
    tuples in this order; ``TraceRecord._make(row)`` reads one by name."""

    time_ns: int
    node: str
    direction: str  # ingress | egress | drop
    flow: int | None
    seq: int | None
    size: int


class _LinkDir:
    __slots__ = ("qdisc_extra_ns", "busy_until", "last_delivery")

    def __init__(self):
        self.qdisc_extra_ns = 0
        self.busy_until = 0
        self.last_delivery = 0


class Link:
    """Bidirectional link; per-direction FIFO, shared jitter stream."""

    def __init__(
        self,
        link_id: str,
        a: str,
        b: str,
        bandwidth_bps: int,
        delay_mean_ns: int,
        delay_stddev_ns: int,
        rng: Rng,
    ):
        if bandwidth_bps <= 0:
            raise SimError(f"link {link_id}: bandwidth must be positive")
        # no delay is negative, so a delivery never precedes its transmit
        if delay_mean_ns < 0 or delay_stddev_ns < 0:
            raise SimError(f"link {link_id}: delays must not be negative")
        self.id = link_id
        self.a = a
        self.b = b
        self.bandwidth_bps = bandwidth_bps
        self.delay_mean_ns = delay_mean_ns
        self.delay_stddev_ns = delay_stddev_ns
        self.rng = rng
        self.dirs = {a: _LinkDir(), b: _LinkDir()}
        self.delivered = 0

    def transmit(self, sender: str, size_bytes: int, now: int) -> int:
        """Occupy the sender-side direction and return the delivery time."""
        d = self.dirs[sender]
        start = now if now > d.busy_until else d.busy_until
        ser = size_bytes * 8 * 1_000_000_000 // self.bandwidth_bps  # serialization time
        d.busy_until = start + ser
        if self.delay_stddev_ns > 0:
            delay = int(self.rng.gauss(self.delay_mean_ns, self.delay_stddev_ns))
            if delay < 0:
                delay = 0
        else:
            delay = self.delay_mean_ns
        delivery = start + ser + delay + d.qdisc_extra_ns
        if delivery < d.last_delivery:  # FIFO per direction
            delivery = d.last_delivery
        d.last_delivery = delivery
        return delivery


@dataclass
class UdpStream:
    """Constant-rate UDP source injected at a node."""

    src_node: str
    src: Address
    dst: Address
    rate_pps: int
    payload_size: int
    count: int
    flow: int = 1
    src_port: int = 49152
    dst_port: int = 33434
    flow_label: int = 0
    start_ns: int = 0
    # payload_size - 8 zero octets, rebuilt by build when the size changes
    _tail: bytes = field(default=b"", init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rate_pps <= 0:
            raise SimError("rate_pps must be positive")
        if self.payload_size < 8:
            raise SimError("payload_size must be at least 8")

    def build(self, seq: int) -> Packet:
        flow = self.flow
        tail = self._tail
        if len(tail) != self.payload_size - 8:
            tail = self._tail = bytes(self.payload_size - 8)
        payload = _FLOW_HEAD.pack(FLOW_MAGIC, flow, seq) + tail
        p = make_udp_packet(
            self.src, self.dst, payload, self.src_port, self.dst_port, 64, self.flow_label
        )
        p.trace_ids = (flow, seq)  # what trace_ids(p) would parse back
        return p


def trace_ids(p: Packet) -> tuple[int | None, int | None]:
    """Recover (flow, seq) from a generated payload, if present."""
    tp = p.transport
    if isinstance(tp, Udp) and len(tp.payload) >= 8 and tp.payload[:2] == FLOW_MAGIC:
        return _FLOW_IDS.unpack_from(tp.payload, 2)
    return None, None


class Statistics:
    """Run counters. The simulation counts injected packets and drop
    reasons here; every other map is built, at each read, from the Node
    and Link objects that count it, so it is current at any instant. A map
    holds its nonzero entries (the event maps hold every node), and in
    each a missing key reads as 0 without being written anywhere."""

    def __init__(self, nodes: dict[str, Node], links: dict[str, Link]):
        self.injected = 0
        self.drop_reasons: Counter[str] = Counter()
        self._nodes = nodes
        self._links = links

    @staticmethod
    def _nonzero(owners: dict, counter: str) -> dict[str, int]:
        return defaultdict(int, {k: n for k, o in owners.items() if (n := getattr(o, counter))})

    delivered = property(lambda self: self._nonzero(self._nodes, "delivered"))
    forwarded = property(lambda self: self._nonzero(self._nodes, "forwarded"))
    dropped = property(lambda self: self._nonzero(self._nodes, "dropped"))
    link_delivered = property(lambda self: self._nonzero(self._links, "delivered"))

    @property
    def events_emitted(self) -> dict[str, int]:
        return defaultdict(int, {nid: node.events.emitted for nid, node in self._nodes.items()})

    @property
    def events_dropped(self) -> dict[str, int]:
        return defaultdict(int, {nid: node.events.dropped for nid, node in self._nodes.items()})

    @property
    def total_delivered(self) -> int:
        return sum(node.delivered for node in self._nodes.values())

    @property
    def total_dropped(self) -> int:
        return sum(node.dropped for node in self._nodes.values())

    def summary(self) -> str:
        lines = [f"injected\t{self.injected}"]
        for name, counter in (
            ("delivered", self.delivered),
            ("forwarded", self.forwarded),
            ("dropped", self.dropped),
            ("events_emitted", self.events_emitted),
            ("events_dropped", self.events_dropped),
        ):
            for key in sorted(counter):
                lines.append(f"{name}[{key}]\t{counter[key]}")
        for key in sorted(self.drop_reasons):
            lines.append(f"drop_reason[{key}]\t{self.drop_reasons[key]}")
        return "\n".join(lines) + "\n"


class Daemon:
    """In-simulation task on a grid of instants, origin + k * interval_ns,
    where origin is the later of start_ns and the clock when the daemon is
    added; subclasses override tick().

    A periodic daemon ticks at every grid instant. A daemon whose tick
    only drains its node's event queue sets ``drains`` and, as the one
    perf-buffer reader sleeping in poll(), ticks only when the queue has
    events: an emit wakes it for the first grid instant at or after the
    emit, and a tick does not re-arm itself.
    """

    # set by Simulation.add_daemon for a daemon that drains a queue:
    # asks for a tick if the queue holds events
    wake: Callable[[], None] | None = None

    def __init__(
        self, daemon_id: str, interval_ns: int, start_ns: int = 0,
        node: str | None = None, drains: bool = False,
    ):
        self.id = daemon_id
        self.interval_ns = interval_ns
        self.start_ns = start_ns
        self.node = node
        self.drains = drains

    def tick(self, sim: "Simulation", now: int) -> None:  # pragma: no cover
        raise NotImplementedError


class _Alarm:
    """A daemon's one timer. A periodic daemon's alarm re-arms itself one
    interval on, after each tick's own pushes (an interval of 0 ticks
    once); a queue-woken daemon's alarm is armed by each emit, as the
    queue calls it. It holds the simulation, which holds it, weakly."""

    __slots__ = ("sim", "daemon", "queue", "origin", "last", "armed")

    def __init__(self, sim: "Simulation", daemon: Daemon, queue, origin: int):
        self.sim = weakref.ref(sim)
        self.daemon = daemon
        self.queue = queue  # None for a periodic daemon
        self.origin = origin
        self.last = origin - daemon.interval_ns  # the grid instant of the last tick
        self.armed = False

    def __call__(self) -> None:
        if self.armed or not self.queue:
            return
        self.armed = True
        now = self.sim().clock
        interval = self.daemon.interval_ns
        t = self.origin if now <= self.origin else now + (self.origin - now) % interval
        # An emit exactly at a grid instant is drained at that instant,
        # after the event that emitted it, unless the daemon already
        # ticked there: an emit during or after that tick waits one
        # interval, as it would for a daemon polling every interval.
        if t == self.last:
            t += interval
        self.sim()._schedule(t, ("wake", self))

    def fire(self, now: int) -> None:
        self.armed = False
        self.last = now
        sim = self.sim()
        daemon = self.daemon
        daemon.tick(sim, now)
        if self.queue is None and daemon.interval_ns > 0:
            sim._schedule(now + daemon.interval_ns, ("wake", self))


class Simulation:
    def __init__(self, seed: int = 0):
        self.seed = seed
        self.clock = 0
        self.nodes: dict[str, Node] = {}
        self.links: dict[str, Link] = {}
        self.daemons: dict[str, Daemon] = {}
        self.handlers: dict[Address, object] = {}
        self.trace: list[tuple] = []  # rows in TraceRecord column order
        self.stats = Statistics(self.nodes, self.links)
        self.addr_to_node: dict[Address, str] = {}
        self._heap: list = []
        self._seq = 0
        self._until = 0  # the running run_until's horizon; stop_at lowers it

    # -- construction --------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.id in self.nodes:
            raise SimError(f"duplicate node id {node.id!r}")
        node.index = len(self.nodes)
        self.nodes[node.id] = node
        for addr in node.addresses:
            self.addr_to_node[addr] = node.id
        return node

    def add_link(
        self,
        link_id: str,
        a: str,
        b: str,
        bandwidth_bps: int,
        delay_mean_ns: int,
        delay_stddev_ns: int = 0,
    ) -> Link:
        if link_id in self.links:
            raise SimError(f"duplicate link id {link_id!r}")
        if a not in self.nodes or b not in self.nodes:
            raise SimError(f"link {link_id!r}: add nodes {a!r} and {b!r} first")
        link = Link(
            link_id, a, b, bandwidth_bps, delay_mean_ns, delay_stddev_ns,
            stream_rng(self.seed, f"link:{link_id}"),
        )
        node_a, node_b = self.nodes[a], self.nodes[b]
        self.links[link_id] = link
        node_a.ports[link_id] = (link, node_b)
        node_b.ports[link_id] = (link, node_a)
        return link

    def add_daemon(self, daemon: Daemon) -> None:
        if daemon.id in self.daemons:
            raise SimError(f"duplicate daemon id {daemon.id!r}")
        origin = max(daemon.start_ns, self.clock)
        if not daemon.drains:
            self._schedule(origin, ("wake", _Alarm(self, daemon, None, origin)))
        elif daemon.interval_ns <= 0:
            raise SimError(f"daemon {daemon.id!r}: a queue-woken daemon needs a positive interval")
        elif daemon.node not in self.nodes:
            raise SimError(f"daemon {daemon.id!r}: unknown node {daemon.node!r}")
        else:
            queue = self.nodes[daemon.node].events
            if queue.reader is not None:  # each would take the other's events
                raise SimError(f"daemon {daemon.id!r}: node {daemon.node!r}'s event "
                               f"queue is already read by daemon {queue.reader.id!r}")
            queue.reader = daemon
            daemon.wake = _Alarm(self, daemon, queue, origin)
            daemon.wake()  # events queued before the daemon was added
        self.daemons[daemon.id] = daemon

    def add_stream(self, stream: UdpStream) -> None:
        if stream.count > 0:  # a stream added after its start begins now
            self._schedule(max(stream.start_ns, self.clock), ("gen", stream, 0))

    def bind(self, addr: Address, handler) -> None:
        """Register a local-delivery handler (socket analog) for an address."""
        self.handlers[addr] = handler

    def set_qdisc_delay(self, node_id: str, link_id: str, delay_ns: int) -> None:
        link = self.links.get(link_id)
        if link is None or node_id not in link.dirs:
            raise UnknownLink(f"{link_id!r} at node {node_id!r}")
        if delay_ns < 0:
            raise SimError(f"qdisc delay on {link_id!r} at node {node_id!r} must not be negative")
        link.dirs[node_id].qdisc_extra_ns = delay_ns

    # -- event plumbing -------------------------------------------------------

    def _schedule(self, t: int, event: tuple) -> None:
        self._seq += 1
        heappush(self._heap, (t, self._seq, event))

    def send(self, node_id: str, packet: Packet) -> None:
        """Immediately originate a packet at a node (daemon/handler use)."""
        self._local_output(self.nodes[node_id], packet)

    # -- execution ------------------------------------------------------------

    def run_until(self, t_ns: int) -> Statistics:
        """Process every event with time <= t_ns; the clock ends at t_ns,
        or earlier if a handler or daemon calls stop_at."""
        if t_ns < self.clock:
            raise SimError("run_until target precedes current clock")
        self._until = t_ns
        heap = self._heap
        deliver = self._process_deliver
        while heap and heap[0][0] <= self._until:
            time_ns, _, event = heappop(heap)
            self.clock = time_ns
            kind = event[0]
            if kind == "deliver":
                deliver(event[1], event[2], event[3], event[4])
            elif kind == "gen":
                self._process_gen(event[1], event[2])
            elif kind == "wake":
                event[1].fire(time_ns)
        self.clock = self._until
        return self.stats

    def stop_at(self, t_ns: int) -> None:
        """End the running run_until at t_ns: events up to t_ns still run.
        Clamped to the clock, and never later than the run's target."""
        self._until = min(self._until, max(t_ns, self.clock))

    def _process_gen(self, stream: UdpStream, seq: int) -> None:
        self._local_output(self.nodes[stream.src_node], stream.build(seq))
        seq += 1
        if seq < stream.count:  # one gap later
            self._seq += 1
            heappush(self._heap, (self.clock + 1_000_000_000 // stream.rate_pps, self._seq,
                                  ("gen", stream, seq)))

    def _process_deliver(self, link: Link, node: Node, p: Packet, size: int) -> None:
        # the packet does not change on the link: the size and trace ids
        # of its egress row still hold
        link.delivered += 1
        flow, seq = p.trace_ids
        self.trace.append((self.clock, node.id, "ingress", flow, seq, size))
        decision = node.process_ingress(p, self.clock)
        self._apply(node, p, decision)
        # as icmpv6_send: the error leaves after the drop, as any originated packet
        if decision is DROP_HOP_LIMIT and (error := node.time_exceeded(p)) is not None:
            self._local_output(node, error)

    def _apply(self, node: Node, p: Packet, decision) -> None:
        kind = type(decision)
        if kind is Forward:
            port = node.ports.get(decision.link)
            if port is None:
                self._drop(node, DropReason.BAD_EGRESS_LINK, p)
                return
            link, peer = port
            node_id = node.id
            # the egress row and the delivery event, inline: no link delay is
            # negative, and every builder and behaviour keeps payload_length
            node.forwarded += 1
            size = p.headers[0][0].payload_length + 40
            flow, seq = p.trace_ids
            now = self.clock
            self.trace.append((now, node_id, "egress", flow, seq, size))
            delivery = link.transmit(node_id, size, now)
            self._seq += 1
            heappush(self._heap, (delivery, self._seq, ("deliver", link, peer, p, size)))
        elif kind is Drop:
            self._drop(node, decision.reason, p)
        elif kind is LocalDeliver:
            node.delivered += 1
            handler = self.handlers.get(p.headers[0][0].dst)
            if handler is not None:
                handler(p, self.clock)

    def _drop(self, node: Node, reason: DropReason, p: Packet) -> None:
        node.dropped += 1
        self.stats.drop_reasons[reason.value] += 1
        flow, seq = p.trace_ids
        size = p.headers[0][0].payload_length + 40
        self.trace.append((self.clock, node.id, "drop", flow, seq, size))

    def _local_output(self, node: Node, p: Packet) -> None:
        """The one way a packet enters the network: count and send a packet
        a node originates (a generated one, an ICMP error, or one a daemon
        or handler sends), with no hop-limit decrement, setting its trace
        ids unless its builder did."""
        self.stats.injected += 1
        if p.trace_ids is None:
            p.trace_ids = trace_ids(p)
        self._apply(node, p, node.output(p, self.clock))


# ---------------------------------------------------------------------------
# Trace analysis.

def sink_arrivals(trace: list[tuple], flow: int) -> list[tuple]:
    # the sink is the node where arrivals exceed departures (egress+drop):
    # transit nodes re-emit or drop everything they receive. One pass
    # counts the balance and keeps each node's ingress rows.
    balance: dict[str, int] = defaultdict(int)
    ingress: dict[str, list[tuple]] = defaultdict(list)
    for r in trace:
        if r[3] == flow:
            if r[2] == "ingress":
                balance[r[1]] += 1
                ingress[r[1]].append(r)
            else:
                balance[r[1]] -= 1
    sinks = [n for n, surplus in balance.items() if surplus > 0]
    if len(sinks) != 1:
        raise InsufficientData(
            f"flow {flow}: cannot identify a unique sink (candidates {sorted(sinks)})"
        )
    return ingress[sinks[0]]


def reorder_fraction(trace: list[tuple], flow: int, arrivals: list[tuple] | None = None) -> float:
    """Fraction of packets arriving at the sink after a higher sequence
    number was already seen. A caller of both metrics passes the flow's
    sink_arrivals to each, so the trace is scanned once."""
    records = sink_arrivals(trace, flow) if arrivals is None else arrivals
    if len(records) < 2:
        raise InsufficientData(f"flow {flow}: fewer than 2 sink arrivals")
    late = 0
    max_seq = -1
    for _, _, _, _, seq, _ in records:
        if seq < max_seq:
            late += 1
        else:
            max_seq = seq
    return late / len(records)


UDP_PLAIN_OVERHEAD = 48  # IPv6 + UDP headers of a decapsulated packet
GAP_THRESHOLD = 3  # triple-duplicate-ack analog
STALL_PENALTY_NS = 30_000_000


def goodput_estimate(trace: list[tuple], flow: int, arrivals: list[tuple] | None = None) -> float:
    """Reorder-sensitive goodput in bits/second.

    Every arrival whose jump past the expected next sequence exceeds
    GAP_THRESHOLD charges one STALL_PENALTY_NS; delivered payload bits
    are divided by duration plus total penalties. arrivals: as in
    reorder_fraction.
    """
    records = sink_arrivals(trace, flow) if arrivals is None else arrivals
    if len(records) < 2:
        raise InsufficientData(f"flow {flow}: fewer than 2 sink arrivals")
    bits = 0
    stalls = 0
    first, last = TraceRecord._make(records[0]), TraceRecord._make(records[-1])
    expected = first.seq  # next in-order sequence (cumulative-ack point)
    pending: set[int] = set()
    for _, _, _, _, seq, size in records:
        bits += max(0, size - UDP_PLAIN_OVERHEAD) * 8
        if seq - expected > GAP_THRESHOLD:
            stalls += 1
        pending.add(seq)
        while expected in pending:
            pending.discard(expected)
            expected += 1
    duration = last.time_ns - first.time_ns
    total_ns = duration + stalls * STALL_PENALTY_NS
    if total_ns <= 0:
        raise InsufficientData("zero observation window")
    return bits / (total_ns / 1e9)


def write_trace(trace: list[tuple], path) -> None:
    """Tab-separated UTF-8 export: time_ns, node, direction, flow, seq, size."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(0, len(trace), _TRACE_CHUNK):
            fh.write("".join([
                f"{t}\t{node}\t{direction}\t{'-' if flow is None else flow}\t"
                f"{'-' if seq is None else seq}\t{size}\n"
                for t, node, direction, flow, seq, size in trace[i : i + _TRACE_CHUNK]
            ]))
