"""The three network functions built on the program API, with their
companion daemons: passive delay measurement, hybrid-access link
aggregation with delay compensation, and ECMP nexthop discovery."""

from __future__ import annotations

import itertools
import math
import struct
import weakref
from dataclasses import dataclass, field

from .packet import (
    Address,
    Packet,
    SegmentRoutingHeader,
    Tlv,
    Udp,
    encode_tlvs,
    first_tlvs,
    make_srh_udp_packet,
    make_udp_packet,
    ntop,
    validate_srh,
)
from .programs import (
    HelperError,
    Outcome,
    Program,
    ProgramContext,
    emit_event,
    helper_action,
    helper_ecmp_nexthops,
    helper_push_encap,
    helper_timestamp,
    map_get,
    map_put,
    register_program,
)
from .behaviors import EndDT6
from .dataplane import ICMP_TIME_EXCEEDED, TIME_EXCEEDED_QUOTE_AT
from .sim import Daemon, Simulation

# Local experiment TLV codes; the SRH registry assigns none for these.
TLV_TYPE_DM = 1
TLV_TYPE_CONTROLLER = 2

DM_EVENT_LEN = 38  # path_id:4 tx:8 rx:8 ctrl_addr:16 ctrl_port:2
_U64 = struct.Struct(">Q")  # dm_counter values
_WRR_STATE = struct.Struct(">III")  # wrr_state values: cursor, count_a, count_b
DM_RATIO = 100  # dm_transit's default probing ratio, 1:N
ROUTE_ID = 0  # the default route_id of dm_transit and wrr, their map key


def dm_tlv(tx_ts_ns: int) -> Tlv:
    return Tlv(TLV_TYPE_DM, _U64.pack(tx_ts_ns))


def controller_tlv(addr: Address, port: int) -> Tlv:
    return Tlv(TLV_TYPE_CONTROLLER, addr + struct.pack(">H", port))


def _pushable(name: str, srh: SegmentRoutingHeader) -> None:
    """Reject, at instantiation, a path SRH that helper_push_encap would
    refuse on every packet; both programs push it as "encaps", with no room."""
    if bad := validate_srh(srh):
        raise ValueError(f"{name}: {bad}")


def read_dm_tlv(srh: SegmentRoutingHeader, tlvs: dict | None = None) -> int | None:
    tlv = (first_tlvs(srh) if tlvs is None else tlvs).get(TLV_TYPE_DM)
    if tlv is None or tlv.length != 8:
        return None
    return _U64.unpack(tlv.value)[0]


def read_controller_tlv(
    srh: SegmentRoutingHeader, tlvs: dict | None = None
) -> tuple[Address, int] | None:
    tlv = (first_tlvs(srh) if tlvs is None else tlvs).get(TLV_TYPE_CONTROLLER)
    if tlv is None or tlv.length != 18:
        return None
    return bytes(tlv.value[:16]), struct.unpack(">H", tlv.value[16:])[0]


@dataclass(slots=True)
class DelayRecord:
    path_id: int
    tx_ts_ns: int
    rx_ts_ns: int
    owd_ns: int
    controller: tuple[Address, int]


def encode_dm_event(
    path_id: int, tx_ns: int, rx_ns: int, ctrl: tuple[Address, int]
) -> bytes:
    return struct.pack(">IQQ", path_id, tx_ns, rx_ns) + ctrl[0] + struct.pack(
        ">H", ctrl[1]
    )


def decode_dm_event(payload: bytes) -> DelayRecord | None:
    if len(payload) != DM_EVENT_LEN:
        return None
    path_id, tx, rx = struct.unpack_from(">IQQ", payload)
    addr = bytes(payload[20:36])
    (port,) = struct.unpack_from(">H", payload, 36)
    return DelayRecord(path_id, tx, rx, rx - tx, (addr, port))


# ---------------------------------------------------------------------------
# Delay-measurement programs.

DM_COUNTER_MAP = "dm_counter"


@register_program("dm_transit")
def dm_transit_factory(params: dict) -> Program:
    """Transit program sampling every Nth packet toward a route into a
    DM-stamped SRv6 encapsulation; all other packets pass untouched."""
    ratio = int(params.get("ratio", DM_RATIO))
    if ratio < 1:
        raise ValueError("probing ratio must be >= 1")
    ctrl_addr: Address = params["controller_addr"]
    ctrl_port = int(params.get("controller_port", 9000))
    outer_src: Address | None = params.get("outer_src")
    key = struct.pack(">I", int(params.get("route_id", ROUTE_ID)))
    ctrl_tlv = controller_tlv(ctrl_addr, ctrl_port)
    # a private template, checked with the 32 octets of TLVs run() fills in;
    # each probe stamps it and helper_push_encap pushes a copy
    path_srh: SegmentRoutingHeader = params["path_srh"].copy()
    path_srh.tlv_bytes = encode_tlvs(dm_tlv(0), ctrl_tlv)
    _pushable("path_srh", path_srh)
    ok = Outcome.OK  # read once: an enum class attribute read is slow

    def run(ctx: ProgramContext) -> Outcome:
        raw = map_get(ctx, DM_COUNTER_MAP, key)
        counter = _U64.unpack(raw)[0] if raw else 0
        map_put(ctx, DM_COUNTER_MAP, key, _U64.pack(counter + 1))
        if counter % ratio != 0:
            return ok
        path_srh.tlv_bytes = encode_tlvs(dm_tlv(helper_timestamp(ctx)), ctrl_tlv)
        try:
            helper_push_encap(ctx, "encaps", path_srh, outer_src)
        except HelperError:
            pass  # a failed probe must never harm the underlying traffic
        return ok

    run.maps = {DM_COUNTER_MAP: (4, 8)}
    return run


@register_program("end_dm")
def end_dm_factory(params: dict) -> Program:
    """Path-end delay measurement.

    At the last segment (one-way mode) the TX/RX timestamps and the
    controller coordinates are emitted to the node's event queue, the
    outer header is decapsulated and the inner packet forwarded. With
    segments remaining (two-way mode) the probe is forwarded toward the
    next segment with its DM TLV intact.
    """
    path_id = int(params.get("path_id", 0))
    table = int(params.get("table", 0))

    def run(ctx: ProgramContext) -> Outcome:
        srh = ctx.packet.outer_srh
        if srh is None:
            return Outcome.DROP
        tlvs = first_tlvs(srh)  # one walk for both TLVs
        tx = read_dm_tlv(srh, tlvs)
        ctrl = read_controller_tlv(srh, tlvs)
        if tx is None or ctrl is None:
            return Outcome.DROP
        if srh.segments_left > 0:
            return Outcome.OK  # two-way probe: leave the TLVs alone
        rx = helper_timestamp(ctx)
        emit_event(ctx, encode_dm_event(path_id, tx, rx, ctrl))
        try:
            helper_action(ctx, EndDT6(table))
        except HelperError:
            return Outcome.DROP
        return Outcome.REDIRECT

    return run


class OwdCollector(Daemon):
    """Drains delay events and relays each to its controller as a UDP
    datagram with the event payload carried verbatim."""

    def __init__(self, daemon_id: str, node: str, interval_ns: int = 50_000_000):
        super().__init__(daemon_id, interval_ns, node=node, drains=True)
        self.malformed = 0

    def tick(self, sim: Simulation, now: int) -> None:
        node = sim.nodes[self.node]
        for payload in node.events.drain():
            rec = decode_dm_event(payload)  # read only for its controller
            if rec is None:
                self.malformed += 1
                continue
            addr, port = rec.controller
            pkt = make_udp_packet(node.addresses[0], addr, payload, src_port=9000, dst_port=port)
            sim.send(self.node, pkt)


class DelayCollector:
    """Controller-side socket handler accumulating DelayRecords."""

    def __init__(self):
        self.records: list[DelayRecord] = []
        self.malformed = 0

    def __call__(self, p: Packet, now: int) -> None:
        if not isinstance(p.transport, Udp):
            return
        rec = decode_dm_event(p.transport.payload)
        if rec is None:
            self.malformed += 1
        else:
            self.records.append(rec)


# ---------------------------------------------------------------------------
# Hybrid access: interleaved WRR over two paths.

WRR_STATE_MAP = "wrr_state"


def iwrr_schedule(weight_a: int, weight_b: int) -> tuple[int, ...]:
    """Interleaved WRR cycle: round r serves every path with weight >= r."""
    if weight_a < 1 or weight_b < 1:
        raise ValueError("weights must be positive")
    out = []
    for r in range(1, max(weight_a, weight_b) + 1):
        if weight_a >= r:
            out.append(0)
        if weight_b >= r:
            out.append(1)
    return tuple(out)


def reduce_weights(weight_a: int, weight_b: int) -> tuple[int, int]:
    g = math.gcd(weight_a, weight_b)
    return weight_a // g, weight_b // g


@register_program("wrr")
def wrr_factory(params: dict) -> Program:
    """Per-packet interleaved weighted round-robin across two path SRHs,
    with the cursor and per-path counts persisted in a map."""
    srh_a: SegmentRoutingHeader = params["srh_a"].copy()
    srh_b: SegmentRoutingHeader = params["srh_b"].copy()
    wa, wb = params.get("weights", (1, 1))
    wa, wb = reduce_weights(int(wa), int(wb))
    outer_src: Address | None = params.get("outer_src")
    schedule = iwrr_schedule(wa, wb)
    key = struct.pack(">I", int(params.get("route_id", ROUTE_ID)))
    _pushable("srh_a", srh_a)
    _pushable("srh_b", srh_b)
    ok = Outcome.OK  # read once: an enum class attribute read is slow

    def run(ctx: ProgramContext) -> Outcome:
        # a map fault is a program error, reported by run_program
        raw = map_get(ctx, WRR_STATE_MAP, key)
        if raw:
            cursor, count_a, count_b = _WRR_STATE.unpack(raw)
        else:
            cursor, count_a, count_b = 0, 0, 0
        pick = schedule[cursor % len(schedule)]
        cursor = (cursor + 1) % len(schedule)
        if pick == 0:
            count_a += 1
        else:
            count_b += 1
        map_put(ctx, WRR_STATE_MAP, key, _WRR_STATE.pack(cursor, count_a, count_b))
        try:
            helper_push_encap(ctx, "encaps", srh_a if pick == 0 else srh_b, outer_src)
        except HelperError:
            return Outcome.DROP
        return ok

    run.maps = {WRR_STATE_MAP: (4, 12)}
    return run


def wrr_counts(node, route_id: int = ROUTE_ID) -> tuple[int, int]:
    """Per-path packet counts accumulated by the scheduler state map;
    (0, 0) before wrr has scheduled a packet."""
    raw = map_get(node, WRR_STATE_MAP, struct.pack(">I", route_id))
    if not raw:
        return 0, 0
    _, count_a, count_b = _WRR_STATE.unpack(raw)
    return count_a, count_b


# ---------------------------------------------------------------------------
# Two-way delay probing and delay compensation.

@dataclass
class CompensatorState:
    alpha: float = 0.3
    ewma: dict[str, float] = field(default_factory=dict)
    applied_delay_ns: int = 0
    fast_link: str | None = None


def compensator_update(
    state: CompensatorState, link: str, twd_sample_ns: float
) -> CompensatorState:
    """Fold one two-way-delay sample into the per-link EWMA and recompute
    the delay to apply on the faster link: half the EWMA difference."""
    if twd_sample_ns < 0:
        twd_sample_ns = 0
    prev = state.ewma.get(link)
    if prev is None:
        state.ewma[link] = float(twd_sample_ns)
    else:
        state.ewma[link] = state.alpha * twd_sample_ns + (1 - state.alpha) * prev
    if len(state.ewma) >= 2:
        fast = min(state.ewma, key=lambda k: (state.ewma[k], k))
        slow = max(state.ewma, key=lambda k: (state.ewma[k], k))
        state.fast_link = fast
        state.applied_delay_ns = max(
            0, int((state.ewma[slow] - state.ewma[fast]) / 2)
        )
    return state


@dataclass
class ProbeLink:
    link: str
    dm_sid: Address      # per-link End.DM SID on the far end
    return_addr: Address  # per-link local address the probe returns to


TWD_PROBE_PORT = 9100  # a probe's UDP ports and the port its controller TLV names


class TwdProber(Daemon):
    """Aggregation-box daemon: sends a two-way probe per link each
    interval, updates the EWMA difference and (when compensation is on)
    delays the faster link's egress by half the difference.

    The delay applied on a link's egress, which only the link direction
    holds, is subtracted from that link's samples before the EWMA update
    so the measurement tracks the intrinsic link delay rather than the
    compensator's own output.
    """

    def __init__(
        self,
        daemon_id: str,
        node: str,
        links: list[ProbeLink],
        interval_ns: int = 100_000_000,
        alpha: float = 0.3,
        compensate: bool = True,
    ):
        if len(links) != 2:
            raise ValueError("TwdProber aggregates exactly two links")
        super().__init__(daemon_id, interval_ns, node=node)
        self.links = links
        self.compensate = compensate
        self.state = CompensatorState(alpha=alpha)
        self.history: list[tuple[int, str, int]] = []
        self.sent = 0
        self.received = 0

    def setup(self, sim: Simulation) -> None:
        for pl in self.links:
            sim.bind(pl.return_addr, self._receiver(weakref.proxy(sim), pl))  # no cycle

    def _receiver(self, sim: Simulation, pl: ProbeLink):
        def on_probe(p: Packet, now: int) -> None:
            srh = p.outer_srh
            if srh is None:
                return
            tx = read_dm_tlv(srh)
            if tx is None:
                return
            self.received += 1
            sample = (now - tx) - sim.links[pl.link].dirs[self.node].qdisc_extra_ns
            compensator_update(self.state, pl.link, sample)
            if self.compensate and self.state.fast_link is not None:
                for other in self.links:
                    target = (
                        self.state.applied_delay_ns
                        if other.link == self.state.fast_link
                        else 0
                    )
                    sim.set_qdisc_delay(self.node, other.link, target)
                self.history.append(
                    (now, self.state.fast_link, self.state.applied_delay_ns)
                )

        return on_probe

    def tick(self, sim: Simulation, now: int) -> None:
        node = sim.nodes[self.node]
        final_addr = node.addresses[0]
        for pl in self.links:
            probe = make_srh_udp_packet(
                final_addr, [final_addr, pl.return_addr, pl.dm_sid],
                encode_tlvs(dm_tlv(now), controller_tlv(final_addr, TWD_PROBE_PORT)),
                b"\x00" * 8, TWD_PROBE_PORT, TWD_PROBE_PORT,
            )
            self.sent += 1
            sim.send(self.node, probe)


# ---------------------------------------------------------------------------
# ECMP nexthop discovery (modified traceroute support).

@register_program("end_oamp")
def end_oamp_factory(params: dict) -> Program:
    """Report the ECMP nexthops for the probe's final segment via an
    event (hop id, count, addresses); the probe itself terminates here."""

    def run(ctx: ProgramContext) -> Outcome:
        srh = ctx.packet.outer_srh
        if srh is None:
            return Outcome.DROP
        if read_controller_tlv(srh) is None:
            return Outcome.DROP
        target = srh.segments[0]
        hop_id = ctx.dataplane.index
        try:
            nexthops = helper_ecmp_nexthops(ctx, target)
        except HelperError:
            emit_event(ctx, struct.pack(">IH", hop_id, 0))
            return Outcome.DROP
        payload = struct.pack(">IH", hop_id, len(nexthops))
        for addr, _link in nexthops:
            payload += addr
        emit_event(ctx, payload)
        return Outcome.DROP

    return run


def decode_oamp_event(payload: bytes) -> tuple[int, list[Address]] | None:
    if len(payload) < 6:
        return None
    hop_id, count = struct.unpack_from(">IH", payload)
    if len(payload) != 6 + 16 * count:
        return None
    addrs = [bytes(payload[6 + 16 * i : 22 + 16 * i]) for i in range(count)]
    return hop_id, addrs


OAMP_REPLY_PORT = 33500  # a discovery probe's source port and both ports of its reply


class OampResponder(Daemon):
    """Converts nexthop-discovery events into UDP replies to the prober.

    The pinned event layout carries no reply address, so the responder is
    pointed at the prober out of band (the traceroute driver sets it).
    """

    def __init__(self, daemon_id: str, node: str, interval_ns: int = 1_000_000):
        super().__init__(daemon_id, interval_ns, node=node, drains=True)
        self.reply_addr = None

    @property
    def reply_addr(self) -> Address | None:
        return self._reply_addr

    @reply_addr.setter
    def reply_addr(self, addr: Address | None) -> None:
        self._reply_addr = addr
        if addr is not None and self.wake is not None:
            self.wake()  # events left queued until a prober registered

    def tick(self, sim: Simulation, now: int) -> None:
        if self.reply_addr is None:
            return  # leave events queued until a prober registers
        node = sim.nodes[self.node]
        for payload in node.events.drain():
            pkt = make_udp_packet(
                node.addresses[0], self.reply_addr, payload,
                src_port=OAMP_REPLY_PORT, dst_port=OAMP_REPLY_PORT,
            )
            sim.send(self.node, pkt)


# ---------------------------------------------------------------------------
# Modified traceroute.

@dataclass
class HopResult:
    node: str
    depth: int
    method: str  # local | oamp | icmp
    nexthop_addrs: list[Address]
    nexthop_nodes: list[str]


@dataclass
class TracerouteResult:
    src: str
    target: Address
    hops: dict[str, HopResult]
    reached: bool
    unknown_probes: int = 0

    def render(self) -> str:
        lines = []
        for hop in sorted(self.hops.values(), key=lambda h: (h.depth, h.node)):
            nexthops = ", ".join(
                f"{ntop(a)} ({n})" for a, n in zip(hop.nexthop_addrs, hop.nexthop_nodes)
            )
            lines.append(f"{hop.depth:2d}  {hop.node:<12} [{hop.method}]  -> {nexthops}")
        status = "reached" if self.reached else "NOT reached"
        lines.append(f"target {ntop(self.target)}: {status}")
        return "\n".join(lines)


# The prober reads its replies on a grid of this step, counted from each send.
PROBE_STEP_NS = 1_000_000
MAX_DEPTH = 16  # hops explored from the source
# a probe's id opens its payload, past the quoted IPv6 and UDP headers
_PROBE_ID_AT = TIME_EXCEEDED_QUOTE_AT + 48


def multipath_traceroute(
    sim: Simulation,
    src: str,
    target: Address,
    oamp_sids: dict[str, Address],
    flow_keys: int = 32,
    timeout_ns: int = 3_000_000_000,
) -> TracerouteResult:
    """Breadth-first multipath discovery from src toward target.

    Hops with a nexthop-discovery SID are asked directly for their ECMP
    set with one SRH probe; other hops fall back to hop-limited probes
    over a spread of flow keys, reading the time-exceeded sources. Each
    probe waits up to timeout_ns: the simulation runs to the end of the
    PROBE_STEP_NS step in which its reply arrives, or to the timeout.
    """
    src_node = sim.nodes[src]
    prober_addr = src_node.addresses[0]
    target_node = sim.addr_to_node.get(target)
    # ("oamp", hop id) -> nexthop addresses; ("icmp", probe id) -> the node
    # that sent the time-exceeded. The first reply for a key is kept.
    replies: dict[tuple[str, int], list[Address] | str] = {}
    awaited: tuple[str, int] | None = None
    sent_at = 0

    def on_reply(p: Packet, now: int) -> None:
        tp = p.transport
        if isinstance(tp, Udp):
            decoded = decode_oamp_event(tp.payload)
            if decoded is None:
                return
            key, value = ("oamp", decoded[0]), decoded[1]
        elif isinstance(tp, bytes) and len(tp) >= _PROBE_ID_AT + 4 and tp[0] == ICMP_TIME_EXCEEDED:
            key = ("icmp", struct.unpack_from(">I", tp, _PROBE_ID_AT)[0])
            value = sim.addr_to_node.get(p.outer_header.src, "?")
        else:
            return
        replies.setdefault(key, value)
        if key == awaited:
            steps = max(1, -(-(now - sent_at) // PROBE_STEP_NS))
            sim.stop_at(sent_at + steps * PROBE_STEP_NS)

    # the nodes asked by OAMP probe, each with a responder pointed at the prober;
    # a node whose events another daemon (a collector) reads is probed by ICMP
    asked = {}
    for node_id, sid in oamp_sids.items():
        responder = sim.nodes[node_id].events.reader
        if responder is None:
            responder = OampResponder(f"oamp_responder:{node_id}", node_id)
            sim.add_daemon(responder)
        elif not isinstance(responder, OampResponder):
            continue
        responder.reply_addr = prober_addr
        asked[node_id] = sid

    probe_ids = itertools.count(1)
    unknown = 0

    def ask(key: tuple[str, int], probe: Packet):
        """Send probe from src and wait for the reply under key; None on timeout."""
        nonlocal awaited, sent_at, unknown
        awaited, sent_at = key, sim.clock
        sim.send(src, probe)
        sim.run_until(sent_at + timeout_ns)
        awaited = None  # a late reply must not cut a later run short
        reply = replies.get(key)
        if reply is None:
            unknown += 1
        return reply

    def icmp_sweep() -> list[list[str | None]]:
        """One path per flow key: src, then the node that answered each
        hop limit, up to the target or the first timeout (None)."""
        paths = []
        for label in range(flow_keys):
            path: list[str | None] = [src]
            for ttl in range(1, MAX_DEPTH + 1):
                pid = next(probe_ids)
                # flow identity (label) stays fixed across the TTL sweep so every
                # probe of one key follows the same ECMP path; ports never vary
                probe = make_udp_packet(
                    prober_addr, target, struct.pack(">I", pid) + bytes(12),
                    src_port=49152, dst_port=33434, hop_limit=ttl, flow_label=label,
                )
                path.append(ask(("icmp", pid), probe))
                if path[-1] is None or path[-1] == target_node:
                    break
            paths.append(path)
        return paths

    hops: dict[str, HopResult] = {}
    frontier: list[tuple[str, int]] = [(src, 0)]
    visited = {src}
    swept = None  # the ICMP sweep's paths, once an ICMP hop needs them
    previous = sim.handlers.get(prober_addr)  # restored after: on_reply holds sim
    sim.bind(prober_addr, on_reply)
    try:
        while frontier:
            hop, depth = frontier.pop(0)
            if hop == target_node or depth >= MAX_DEPTH:
                continue
            if depth == 0:
                # local FIB query at the probing host
                nexthops = [a for a, _ in src_node.fib_ecmp_list(target)]
                method = "local"
            elif hop in asked:
                probe = make_srh_udp_packet(
                    prober_addr, [target, asked[hop]],
                    encode_tlvs(controller_tlv(prober_addr, OAMP_REPLY_PORT)),
                    struct.pack(">I", next(probe_ids)) + bytes(4), OAMP_REPLY_PORT, 33434,
                )
                nexthops = ask(("oamp", sim.nodes[hop].index), probe) or []
                method = "oamp"
            else:
                if swept is None:
                    swept = icmp_sweep()
                nexts = {p[depth + 1] for p in swept if depth + 1 < len(p) and p[depth] == hop}
                nexthops = [sim.nodes[n].addresses[0] for n in sorted(nexts - {None})]
                method = "icmp"
            nh_nodes = [sim.addr_to_node.get(a, ntop(a)) for a in nexthops]
            hops[hop] = HopResult(hop, depth, method, nexthops, nh_nodes)
            for nh in nh_nodes:
                if nh in sim.nodes and nh not in visited:
                    visited.add(nh)
                    frontier.append((nh, depth + 1))
    finally:
        if previous is None:
            del sim.handlers[prober_addr]
        else:
            sim.bind(prober_addr, previous)
    reached = src == target_node or any(target_node in h.nexthop_nodes for h in hops.values())
    return TracerouteResult(src, target, hops, reached, unknown)
