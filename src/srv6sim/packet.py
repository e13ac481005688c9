"""IPv6/SRH packet model, byte codec and validation.

Packets are stacks of IPv6 headers, each optionally followed by one or
more Segment Routing Headers (routing type 4), terminated by a UDP
transport or an opaque payload. Segment lists are stored in reverse path
order: ``segments[0]`` is the final segment and the active segment is
``segments[segments_left]``.
"""

from __future__ import annotations

import logging
import socket
import struct
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

Address = bytes  # 16 octets, network order

PROTO_UDP = 17
PROTO_IPV6 = 41
PROTO_ROUTING = 43
PROTO_ICMPV6 = 58

ROUTING_TYPE_SRH = 4

TLV_PAD1 = 0
TLV_PADN = 4

_V6_HDR = struct.Struct(">IHBB16s16s")
_SRH_HDR = struct.Struct(">BBBBBBH")
_UDP_HDR = struct.Struct(">HHHH")
# the IPv6 pseudo-header (RFC 8200 §8.1) and a UDP header with a zero checksum
_UDP_PSEUDO = struct.Struct(">16s16sI3xBHHH2x")


class PacketError(Exception):
    pass


class InvariantViolation(PacketError):
    pass


class ParseError(PacketError):
    def __init__(self, offset: int, reason: str):
        super().__init__(f"offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class NoTransport(PacketError):
    pass


def pton(text: str) -> Address:
    """Parse an IPv6 address string into 16 octets."""
    return socket.inet_pton(socket.AF_INET6, text)


def ntop(addr: Address) -> str:
    """Render 16 octets as a compressed IPv6 address string."""
    return socket.inet_ntop(socket.AF_INET6, addr)


@dataclass(slots=True)
class Ipv6Header:
    src: Address
    dst: Address
    next_header: int = PROTO_UDP
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0
    payload_length: int = 0

    def check(self) -> None:
        if not (0 <= self.traffic_class <= 0xFF):
            raise InvariantViolation("traffic_class out of range")
        if not (0 <= self.flow_label <= 0xFFFFF):
            raise InvariantViolation("flow_label out of range")
        if not (0 <= self.hop_limit <= 0xFF):
            raise InvariantViolation("hop_limit out of range")
        if len(self.src) != 16 or len(self.dst) != 16:
            raise InvariantViolation("addresses must be 16 octets")


@dataclass(slots=True)
class SegmentRoutingHeader:
    segments: list[Address]
    segments_left: int
    next_header: int = PROTO_UDP
    flags: int = 0
    tag: int = 0
    tlv_bytes: bytes = b""

    @property
    def last_entry(self) -> int:
        return len(self.segments) - 1

    @property
    def hdr_ext_len(self) -> int:
        # length in 8-octet units, excluding the first 8 octets
        return 2 * len(self.segments) + len(self.tlv_bytes) // 8

    @property
    def wire_length(self) -> int:
        return 8 + 16 * len(self.segments) + len(self.tlv_bytes)

    def copy(self) -> "SegmentRoutingHeader":
        return SegmentRoutingHeader(
            list(self.segments), self.segments_left, self.next_header,
            self.flags, self.tag, self.tlv_bytes,
        )


@dataclass(slots=True)
class Tlv:
    type: int
    value: bytes = b""

    @property
    def length(self) -> int:
        return len(self.value)

    def encode(self) -> bytes:
        if self.type == TLV_PAD1:
            return b"\x00"
        return bytes((self.type, len(self.value))) + self.value


def encode_tlvs(*tlvs: Tlv) -> bytes:
    """Serialize TLVs, padding the region to a multiple of 8."""
    raw = b"".join(t.encode() for t in tlvs)
    short = (-len(raw)) % 8
    if short == 1:
        raw += Tlv(TLV_PAD1).encode()
    elif short > 1:
        raw += Tlv(TLV_PADN, b"\x00" * (short - 2)).encode()
    return raw


def first_tlvs(srh: SegmentRoutingHeader) -> dict[int, Tlv]:
    """First TLV of each type in srh's TLV region, pads included; a broken
    walk keeps those before it. A Tlv is built only for each kept record."""
    region = srh.tlv_bytes
    end = len(region)
    found: dict[int, Tlv] = {}
    off = 0
    while off < end:
        t = region[off]
        if t == TLV_PAD1:
            stop = off + 1
        elif off + 2 > end or (stop := off + 2 + region[off + 1]) > end:
            break
        if t not in found:  # a Pad1's slice is empty
            found[t] = Tlv(t, region[off + 2 : stop])
        off = stop
    return found


@dataclass(slots=True)
class SrhViolation:
    code: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}" if self.detail else self.code


def validate_srh(srh: SegmentRoutingHeader, room: int = 0) -> SrhViolation | None:
    """The one SRH check, seg6_validate_srh's analog, run wherever an SRH
    enters; returns the first violation found, or None. room is the
    number of segments a push adds, which must still fit hdr_ext_len.

    The TLV region must parse as a terminating walk and multi-octet
    padding must use PadN: a run of two or more Pad1 octets (e.g. space
    grown but never filled) is rejected as RawFillInvalid.
    """
    segments = srh.segments
    if not segments:
        return SrhViolation("NoSegments")
    for seg in segments:
        if len(seg) != 16:
            return SrhViolation("BadSegment", "segment not 16 octets")
    last_entry = len(segments) - 1
    if not (0 <= srh.segments_left <= last_entry):
        return SrhViolation(
            "SegmentsLeftOutOfRange",
            f"segments_left {srh.segments_left} > last_entry {last_entry}",
        )
    if not (0 <= srh.flags <= 0xFF) or not (0 <= srh.tag <= 0xFFFF):
        return SrhViolation("FieldOutOfRange", "flags or tag")
    region = srh.tlv_bytes
    end = len(region)
    if 2 * (len(segments) + room) + end // 8 > 0xFF:
        return SrhViolation("SizeOverflow", "hdr_ext_len > 255")
    if end % 8 != 0:
        return SrhViolation("TlvRegionMisaligned", str(end))
    off = pad1_run = 0
    while off < end:
        if region[off] == TLV_PAD1:
            pad1_run += 1
            if pad1_run > 1:
                return SrhViolation("RawFillInvalid", "run of Pad1 octets; use PadN")
            off += 1
            continue
        pad1_run = 0
        if off + 2 > end:
            return SrhViolation("TlvWalkOverrun", "TLV header truncated")
        off += 2 + region[off + 1]
        if off > end:
            return SrhViolation("TlvWalkOverrun", "TLV value runs past region end")
    return None


@dataclass(slots=True)
class Udp:
    src_port: int
    dst_port: int
    payload: bytes = b""


@dataclass(slots=True)
class Packet:
    # one (IPv6 header, routing headers) layer per encapsulation; End.B6
    # stacks a second SRH under the same IPv6 header
    headers: list[tuple[Ipv6Header, list[SegmentRoutingHeader]]]
    transport: Udp | bytes
    # (flow, seq) of the trace, set where the packet is originated: by its
    # builder (the generator, an ICMP error) or Simulation._local_output;
    # the transport never changes after construction, so it stays valid
    trace_ids: tuple[int | None, int | None] | None = field(default=None, compare=False)

    @property
    def outer_header(self) -> Ipv6Header:
        return self.headers[0][0]

    @property
    def outer_srh(self) -> SegmentRoutingHeader | None:
        srhs = self.headers[0][1]
        return srhs[0] if srhs else None

    def wire_size(self) -> int:
        # each layer's wire length, summed in one loop
        headers = self.headers
        n = 40 * len(headers)
        for _, srhs in headers:
            for s in srhs:
                n += 8 + 16 * len(s.segments) + len(s.tlv_bytes)
        tp = self.transport
        if type(tp) is Udp:
            return n + 8 + len(tp.payload)
        return n + len(tp)


def make_udp_packet(
    src: Address,
    dst: Address,
    payload: bytes = b"",
    src_port: int = 49152,
    dst_port: int = 33434,
    hop_limit: int = 64,
    flow_label: int = 0,
    traffic_class: int = 0,
) -> Packet:
    """Plain single-header UDP packet with a consistent header chain."""
    # positional: every generated packet is made here
    hdr = Ipv6Header(src, dst, PROTO_UDP, hop_limit, traffic_class, flow_label, 8 + len(payload))
    return Packet([(hdr, [])], Udp(src_port, dst_port, payload))


def make_srh_udp_packet(
    src: Address, segments: list[Address], tlv_bytes: bytes,
    payload: bytes, src_port: int, dst_port: int,
) -> Packet:
    """UDP packet through an SRH of segments in reverse visit order."""
    srh = SegmentRoutingHeader(segments, len(segments) - 1, PROTO_UDP, tlv_bytes=tlv_bytes)
    plen = srh.wire_length + 8 + len(payload)
    hdr = Ipv6Header(src, segments[-1], PROTO_ROUTING, payload_length=plen)
    return Packet([(hdr, [srh])], Udp(src_port, dst_port, payload))


def _ones_complement_sum(data: bytes) -> int:
    """RFC 1071 end-around-carry sum of data's 16-bit words. As 2**16 is 1
    mod 0xFFFF, it is the number the words spell, mod 0xFFFF, except that
    a nonzero multiple of 0xFFFF sums to 0xFFFF."""
    n = int.from_bytes(data + b"\x00" if len(data) % 2 else data, "big")
    return n % 0xFFFF or (0xFFFF if n else 0)


def udp_checksum(p: Packet) -> int:
    """UDP checksum over the IPv6 pseudo-header, header and payload.

    Computed against the innermost IPv6 header; a zero result is encoded
    as 0xFFFF per the UDP-over-IPv6 rules.
    """
    udp = p.transport
    if not isinstance(udp, Udp):
        raise NoTransport("packet has no UDP transport")
    inner = p.headers[-1][0]
    ulen = 8 + len(udp.payload)
    head = _UDP_PSEUDO.pack(inner.src, inner.dst, ulen, PROTO_UDP, udp.src_port, udp.dst_port, ulen)
    total = _ones_complement_sum(head + udp.payload)
    csum = (~total) & 0xFFFF
    return csum if csum else 0xFFFF


def check_packet(p: Packet) -> None:
    """Raise InvariantViolation on any SRH validate_srh refuses and any
    broken type, chain or length invariant, innermost layer first: each
    header's payload_length must be the structural size of what follows it."""
    headers = p.headers
    if not headers:
        raise InvariantViolation("packet needs at least one IPv6 header")
    tp = p.transport
    if isinstance(tp, Udp):
        follows = 8 + len(tp.payload)  # octets after the current layer's SRHs
        expected: int | None = PROTO_UDP
    else:
        follows = len(tp)
        expected = None  # opaque transport: any protocol code is carried as-is
    for i in range(len(headers) - 1, -1, -1):
        hdr, srhs = headers[i]
        hdr.check()
        if srhs:
            if hdr.next_header != PROTO_ROUTING:
                raise InvariantViolation(
                    f"header {i} next_header {hdr.next_header} != 43 before SRH"
                )
            for j, srh in enumerate(srhs):
                bad = validate_srh(srh)
                if bad is not None:
                    raise InvariantViolation(f"SRH {i}.{j}: {bad}")
                want = PROTO_ROUTING if j + 1 < len(srhs) else expected
                if want is not None and srh.next_header != want:
                    raise InvariantViolation(
                        f"SRH {i}.{j} next_header {srh.next_header} != {want}"
                    )
                follows += srh.wire_length
        elif expected is not None and hdr.next_header != expected:
            raise InvariantViolation(
                f"header {i} next_header {hdr.next_header} != {expected}"
            )
        if hdr.payload_length != follows:
            raise InvariantViolation(
                f"header {i} payload_length {hdr.payload_length} != {follows}"
            )
        follows += 40
        expected = PROTO_IPV6


def encode_packet(p: Packet) -> bytes:
    """Serialize to wire bytes without writing into p. The packet must pass
    check_packet; its payload lengths are written as it keeps them, and the
    UDP length and checksum and the SRH routing type exist only here."""
    check_packet(p)
    if isinstance(p.transport, Udp):
        udp = p.transport
        tail = _UDP_HDR.pack(udp.src_port, udp.dst_port, 8 + len(udp.payload), udp_checksum(p))
        tail += udp.payload
    else:
        tail = bytes(p.transport)

    out = tail
    for hdr, srhs in reversed(p.headers):
        for srh in reversed(srhs):
            out = _SRH_HDR.pack(
                srh.next_header, srh.hdr_ext_len, ROUTING_TYPE_SRH, srh.segments_left,
                srh.last_entry, srh.flags, srh.tag,
            ) + b"".join(srh.segments) + srh.tlv_bytes + out
        out = _V6_HDR.pack(
            (6 << 28) | (hdr.traffic_class << 20) | hdr.flow_label,
            hdr.payload_length, hdr.next_header, hdr.hop_limit, hdr.src, hdr.dst,
        ) + out
    return out


def _parse_srh(buf: bytes, off: int) -> tuple[SegmentRoutingHeader, int]:
    if off + 8 > len(buf):
        raise ParseError(off, "SRH truncated")
    nh, hel, rtype, sl, le, flags, tag = _SRH_HDR.unpack_from(buf, off)
    if rtype != ROUTING_TYPE_SRH:
        raise ParseError(off + 2, f"bad routing_type {rtype}")
    total = 8 * (hel + 1)
    if off + total > len(buf):
        raise ParseError(off, "SRH length exceeds buffer")
    nseg = le + 1
    if 8 + 16 * nseg > total:
        raise ParseError(off, "hdr_ext_len too small for segment list")
    segs = [
        bytes(buf[off + 8 + 16 * i : off + 24 + 16 * i]) for i in range(nseg)
    ]
    tlv_start = off + 8 + 16 * nseg
    srh = SegmentRoutingHeader(
        segments=segs, segments_left=sl, next_header=nh,
        flags=flags, tag=tag, tlv_bytes=bytes(buf[tlv_start : off + total]),
    )
    if bad := validate_srh(srh):
        raise ParseError(off, str(bad))
    return srh, off + total


def decode_packet(b: bytes) -> Packet:
    """Parse wire bytes into a Packet, with no trace ids. An SRH that
    validate_srh refuses raises ParseError at the SRH's first octet.
    UDP checksums are verified warn-only (logged), so replayed or fuzzed
    byte streams stay usable, and not kept: encode_packet computes them.
    """
    headers: list[tuple[Ipv6Header, list[SegmentRoutingHeader]]] = []
    off = 0
    while True:
        if off + 40 > len(b):
            raise ParseError(off, "IPv6 header truncated")
        vtf, plen, nh, hlim, src, dst = _V6_HDR.unpack_from(b, off)
        version = vtf >> 28
        if version != 6:
            raise ParseError(off, f"bad version {version}")
        hdr = Ipv6Header(
            src=bytes(src), dst=bytes(dst), next_header=nh, hop_limit=hlim,
            traffic_class=(vtf >> 20) & 0xFF, flow_label=vtf & 0xFFFFF,
            payload_length=plen,
        )
        off += 40
        if plen != len(b) - off:
            raise ParseError(off - 36, f"payload_length {plen} != {len(b) - off}")
        srhs: list[SegmentRoutingHeader] = []
        while nh == PROTO_ROUTING:
            srh, off = _parse_srh(b, off)
            srhs.append(srh)
            nh = srh.next_header
        headers.append((hdr, srhs))
        if nh == PROTO_IPV6:
            continue
        if nh == PROTO_UDP:
            if off + 8 > len(b):
                raise ParseError(off, "UDP header truncated")
            sport, dport, ulen, csum = _UDP_HDR.unpack_from(b, off)
            if ulen != len(b) - off:
                raise ParseError(off + 4, f"UDP length {ulen} != {len(b) - off}")
            payload = bytes(b[off + 8 :])
            pkt = Packet(headers=headers, transport=Udp(sport, dport, payload))
            ref = udp_checksum(pkt)
            if csum != ref:  # 0 too: RFC 8200 8.1 forbids it over IPv6
                log.warning("UDP checksum mismatch: got %#06x want %#06x", csum, ref)
            return pkt
        # opaque transport, carried as raw octets
        return Packet(headers=headers, transport=bytes(b[off:]))
