"""Shared helpers for the test suite: seeded random packet generation, a
few tiny topology builders, a decoder of queued delay events, the hex
dump format of the golden vectors, a deep packet copy, SRH octets
assembled by hand, and references of optimised code: copy-then-patch SRH
pushes, a TLV walk and the first_tlvs built on it, the per-row trace
writer and the two-pass sink scan."""

from __future__ import annotations

import random
import struct
from collections import defaultdict

from srv6sim.behaviors import DEFAULT_HOP_LIMIT, End, EndProgram
from srv6sim.dataplane import Node
from srv6sim.fib import FibEntry
from srv6sim.programs import EventQueue, Outcome
from srv6sim.packet import (
    PROTO_IPV6,
    PROTO_ROUTING,
    PROTO_UDP,
    ROUTING_TYPE_SRH,
    TLV_PAD1,
    InvariantViolation,
    Ipv6Header,
    Packet,
    ParseError,
    SegmentRoutingHeader,
    Tlv,
    Udp,
    encode_tlvs,
    pton,
    udp_checksum,
)
from srv6sim.sim import InsufficientData
from srv6sim.usecases import DelayRecord, decode_dm_event


def rand_addr(rng: random.Random) -> bytes:
    return rng.getrandbits(128).to_bytes(16, "big")


def rand_tlv_region(rng: random.Random) -> bytes:
    tlvs = []
    for _ in range(rng.randrange(0, 3)):
        tlvs.append(Tlv(rng.randrange(1, 250), rng.randbytes(rng.randrange(0, 12))))
    return encode_tlvs(*tlvs)


def rand_srh(rng: random.Random, next_header: int) -> SegmentRoutingHeader:
    nseg = rng.randrange(1, 5)
    segments = [rand_addr(rng) for _ in range(nseg)]
    return SegmentRoutingHeader(
        segments=segments,
        segments_left=rng.randrange(0, nseg),
        next_header=next_header,
        flags=rng.randrange(256),
        tag=rng.randrange(65536),
        tlv_bytes=rand_tlv_region(rng),
    )


def random_packet(rng: random.Random) -> Packet:
    """A structurally valid packet: 1-3 stacked IPv6 headers, optional
    SRH chains, UDP or opaque transport."""
    depth = rng.choices((1, 2, 3), weights=(6, 3, 1))[0]
    if rng.random() < 0.9:
        transport: Udp | bytes = Udp(
            rng.randrange(65536), rng.randrange(65536), rng.randbytes(rng.randrange(0, 65))
        )
        last_proto = PROTO_UDP
    else:
        transport = rng.randbytes(rng.randrange(1, 33))
        last_proto = rng.choice((58, 6, 132))
    headers = []
    for level in range(depth):
        inner_proto = PROTO_IPV6 if level + 1 < depth else last_proto
        nsrh = rng.choices((0, 1, 2), weights=(4, 5, 1))[0]
        srhs = []
        for j in range(nsrh):
            nxt = PROTO_ROUTING if j + 1 < nsrh else inner_proto
            srhs.append(rand_srh(rng, nxt))
        hdr = Ipv6Header(
            src=rand_addr(rng),
            dst=rand_addr(rng),
            next_header=PROTO_ROUTING if srhs else inner_proto,
            hop_limit=rng.randrange(2, 256),
            traffic_class=rng.randrange(256),
            flow_label=rng.randrange(1 << 20),
        )
        headers.append((hdr, srhs))
    return with_lengths(Packet(headers=headers, transport=transport))


def with_lengths(p: Packet) -> Packet:
    """Set a hand-built packet's lengths from its structure, as a builder
    does: each payload_length covers what follows its header. Returns p."""
    tp = p.transport
    if isinstance(tp, Udp):
        follows = 8 + len(tp.payload)
    else:
        follows = len(tp)
    for hdr, srhs in reversed(p.headers):
        follows += sum(s.wire_length for s in srhs)
        hdr.payload_length = follows
        follows += 40
    return p


def copy_packet(p: Packet) -> Packet:
    """A deep copy sharing no mutable part with p: new headers, new SRHs,
    a new Udp; its trace ids are unset, as on a freshly built packet."""
    headers = []
    for hdr, srhs in p.headers:
        h = Ipv6Header(
            src=hdr.src, dst=hdr.dst, next_header=hdr.next_header,
            hop_limit=hdr.hop_limit, traffic_class=hdr.traffic_class,
            flow_label=hdr.flow_label, payload_length=hdr.payload_length,
        )
        headers.append((h, [s.copy() for s in srhs]))
    tp = p.transport
    if isinstance(tp, Udp):
        tp = Udp(tp.src_port, tp.dst_port, tp.payload)
    return Packet(headers=headers, transport=tp)


def random_sr_packet(rng: random.Random, sid: bytes, min_left: int = 1) -> Packet:
    """Single-header packet addressed to `sid` with an outer SRH whose
    segments_left >= min_left."""
    nseg = rng.randrange(min_left + 1, min_left + 4)
    segments = [rand_addr(rng) for _ in range(nseg)]
    sl = rng.randrange(min_left, nseg)
    srh = SegmentRoutingHeader(
        segments=segments,
        segments_left=sl,
        next_header=PROTO_UDP,
        flags=rng.randrange(256),
        tag=rng.randrange(65536),
        tlv_bytes=rand_tlv_region(rng),
    )
    hdr = Ipv6Header(
        src=rand_addr(rng),
        dst=sid,
        next_header=PROTO_ROUTING,
        hop_limit=rng.randrange(8, 256),
        flow_label=rng.randrange(1 << 20),
    )
    return with_lengths(Packet(
        headers=[(hdr, [srh])],
        transport=Udp(rng.randrange(65536), rng.randrange(65536), rng.randbytes(32)),
    ))


def srh_wire(srh: SegmentRoutingHeader) -> bytes:
    """The SRH's wire octets, whatever its fields and TLV region hold."""
    fixed = struct.pack(
        ">BBBBBBH", srh.next_header, srh.hdr_ext_len, ROUTING_TYPE_SRH,
        srh.segments_left, srh.last_entry, srh.flags, srh.tag,
    )
    return fixed + b"".join(srh.segments) + srh.tlv_bytes


def udp_wire_through(src: bytes, dst: bytes, srh: SegmentRoutingHeader) -> bytes:
    """The octets of an empty UDP datagram from src to dst through srh, which
    must end its chain in UDP, assembled by hand: encode_packet refuses an
    invalid SRH."""
    csum = udp_checksum(Packet([(Ipv6Header(src, dst), [])], Udp(49152, 33434)))
    udp = struct.pack(">HHHH", 49152, 33434, 8, csum)
    v6 = struct.pack(
        ">IHBB16s16s", 6 << 28, srh.wire_length + len(udp), PROTO_ROUTING, 64, src, dst
    )
    return v6 + srh_wire(srh) + udp


def format_hex_dump(data: bytes) -> str:
    """Offset-prefixed hex lines, 16 octets per line."""
    lines = []
    for base in range(0, len(data), 16):
        chunk = data[base : base + 16]
        lines.append(f"{base:04x}: " + " ".join(f"{x:02x}" for x in chunk))
    return "\n".join(lines) + "\n"


def parse_hex_dump(text: str) -> bytes:
    """Inverse of format_hex_dump; ignores blank and comment lines."""
    out = bytearray()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        _, _, rest = line.partition(":")
        out.extend(int(tok, 16) for tok in rest.split())
    return bytes(out)


def owd_collector_drain(queue: EventQueue) -> tuple[list[DelayRecord], int]:
    """Decode all queued delay events; returns (records, malformed count)."""
    records = []
    malformed = 0
    for payload in queue.drain():
        rec = decode_dm_event(payload)
        if rec is None:
            malformed += 1
        else:
            records.append(rec)
    return records, malformed


SID_END = pton("fd00:72::e")


def _noop_program(ctx) -> Outcome:
    return Outcome.OK


def owd_scenario_raw(
    ratio=1, count=300, rate_pps=1000, rtt_ms=30.0, stddev_ms=0.0,
    bw_mbps=50, seed=3, duration_ms=2000,
) -> dict:
    """S1 -- R -- S2 with a delay-monitored R->S2 link: the transit program
    at R samples and stamps, the path-end program at S2 reports."""
    return {
        "name": "owd-oracle",
        "seed": seed,
        "duration_ms": duration_ms,
        "nodes": [
            {"id": "S1", "addresses": ["2001:db8:1::1"]},
            {"id": "R", "addresses": ["2001:db8::1"]},
            {"id": "S2", "addresses": ["2001:db8:2::1"]},
        ],
        "links": [
            {"id": "l01", "endpoints": ["S1", "R"], "bandwidth_mbps": 1000,
             "rtt_mean_ms": 0.2, "rtt_stddev_ms": 0},
            {"id": "l12", "endpoints": ["R", "S2"], "bandwidth_mbps": bw_mbps,
             "rtt_mean_ms": rtt_ms, "rtt_stddev_ms": stddev_ms},
        ],
        "fib": [
            {"node": "S1", "prefix": "::/0", "nexthops": [{"via": "2001:db8::1", "link": "l01"}]},
            {"node": "R", "prefix": "2001:db8:1::/64", "nexthops": [{"via": "2001:db8:1::1", "link": "l01"}]},
            {"node": "R", "prefix": "2001:db8:2::/64", "nexthops": [{"via": "2001:db8:2::1", "link": "l12"}]},
            {"node": "R", "prefix": "fd00:73::/32", "nexthops": [{"via": "2001:db8:2::1", "link": "l12"}]},
            {"node": "S2", "prefix": "::/0", "nexthops": [{"via": "2001:db8::1", "link": "l12"}]},
        ],
        "sids": [
            {"node": "S2", "sid": "fd00:73::d",
             "behavior": {"type": "end_program", "program": "end_dm",
                          "params": {"path_id": 1, "table": 0}}},
        ],
        "transits": [
            {"node": "R", "prefix": "2001:db8:2::/64",
             "behavior": {"type": "program", "program": "dm_transit",
                          "params": {"ratio": ratio,
                                     "path_srh": {"segments": ["fd00:73::d", "2001:db8:2::1"]},
                                     "controller_addr": "2001:db8:1::1",
                                     "controller_port": 9000,
                                     "path_id": 1, "route_id": 1,
                                     "outer_src": "2001:db8::1"}}},
        ],
        "daemons": [],
        "generators": [
            {"src_node": "S1", "dst": "2001:db8:2::1", "rate_pps": rate_pps,
             "payload_size": 64, "count": count, "flow": 1},
        ],
    }


def end_vs_noop_nodes() -> tuple[Node, Node]:
    """Two identically routed nodes, one with native End at the test SID,
    one with the empty program behind End.BPF."""
    nodes = []
    for behavior in (End(), EndProgram("noop")):
        node = Node("R", [pton("2001:db8::1")])
        node.fib_insert(FibEntry(pton("2001:db8::"), 32, [(pton("2001:db8::99"), "l0")]))
        node.fib_insert(
            FibEntry(
                b"\x00" * 16, 0,
                [(pton("2001:db8::a"), "l1"), (pton("2001:db8::b"), "l2")],
            )
        )
        node.add_program("noop", _noop_program)
        node.add_sid(SID_END, behavior)
        nodes.append(node)
    return nodes[0], nodes[1]


# ---------------------------------------------------------------------------
# The SRH pushes as copy-then-patch references: the template copied whole,
# then each field the push changes written, lengths from wire_length.

def _reference_splice(p: Packet, new: SegmentRoutingHeader) -> Packet:
    hdr, srhs = p.headers[0]
    new.next_header = PROTO_ROUTING if srhs else hdr.next_header
    srhs.insert(0, new)
    hdr.next_header = PROTO_ROUTING
    hdr.dst = new.segments[new.segments_left]
    hdr.payload_length += new.wire_length
    return p


def reference_insert_srh(p: Packet, srh: SegmentRoutingHeader) -> Packet:
    return _reference_splice(p, srh.copy())


def reference_t_insert(p: Packet, srh: SegmentRoutingHeader) -> Packet:
    if p.headers[0][1]:
        raise InvariantViolation("t_insert on a packet already carrying an SRH")
    new = srh.copy()
    new.segments.insert(0, p.headers[0][0].dst)
    new.segments_left = len(srh.segments)
    return _reference_splice(p, new)


def reference_encapsulate(p: Packet, srh: SegmentRoutingHeader, src: bytes) -> Packet:
    new = srh.copy()
    new.next_header = PROTO_IPV6
    hdr = Ipv6Header(
        src=src, dst=new.segments[new.segments_left], next_header=PROTO_ROUTING,
        hop_limit=DEFAULT_HOP_LIMIT,
        payload_length=new.wire_length + 40 + p.headers[0][0].payload_length,
    )
    p.headers.insert(0, (hdr, [new]))
    return p


# ---------------------------------------------------------------------------
# Straightforward forms of the TLV read, the trace export and the sink scan.

def walk_tlvs(region: bytes):
    """Yield a Tlv for each record of region, raising ParseError at the
    offset of a record that overruns it: the oracle of the walks that
    validate_srh and first_tlvs inline."""
    off, end = 0, len(region)
    while off < end:
        t = region[off]
        if t == TLV_PAD1:
            yield Tlv(TLV_PAD1)
            off += 1
            continue
        if off + 2 > end:
            raise ParseError(off, "TLV header truncated")
        length = region[off + 1]
        if off + 2 + length > end:
            raise ParseError(off, "TLV value runs past region end")
        yield Tlv(t, bytes(region[off + 2 : off + 2 + length]))
        off += 2 + length


def reference_first_tlvs(srh: SegmentRoutingHeader) -> dict[int, Tlv]:
    found: dict[int, Tlv] = {}
    try:
        for tlv in walk_tlvs(srh.tlv_bytes):
            found.setdefault(tlv.type, tlv)
    except ParseError:
        pass
    return found


def reference_write_trace(trace: list[tuple], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for time_ns, node, direction, flow, seq, size in trace:
            flow = "-" if flow is None else flow
            seq = "-" if seq is None else seq
            fh.write(f"{time_ns}\t{node}\t{direction}\t{flow}\t{seq}\t{size}\n")


def reference_sink_ingress(trace: list[tuple], flow: int) -> list[tuple]:
    balance: dict[str, int] = defaultdict(int)
    for _, node, direction, row_flow, _, _ in trace:
        if row_flow == flow:
            balance[node] += 1 if direction == "ingress" else -1
    sinks = [n for n, surplus in balance.items() if surplus > 0]
    if len(sinks) != 1:
        raise InsufficientData(
            f"flow {flow}: cannot identify a unique sink (candidates {sorted(sinks)})"
        )
    sink = sinks[0]
    return [r for r in trace if r[3] == flow and r[1] == sink and r[2] == "ingress"]
