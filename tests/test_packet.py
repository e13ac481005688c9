import random
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srv6sim.behaviors import encapsulate
from srv6sim.packet import (
    TLV_PAD1,
    TLV_PADN,
    PROTO_ICMPV6,
    InvariantViolation,
    Ipv6Header,
    NoTransport,
    Packet,
    ParseError,
    SegmentRoutingHeader,
    SrhViolation,
    Tlv,
    Udp,
    check_packet,
    decode_packet,
    encode_packet,
    encode_tlvs,
    first_tlvs,
    make_srh_udp_packet,
    make_udp_packet,
    pton,
    udp_checksum,
    validate_srh,
    _ones_complement_sum,
)
from util import (
    copy_packet,
    format_hex_dump,
    parse_hex_dump,
    random_packet,
    reference_first_tlvs,
    udp_wire_through,
    walk_tlvs,
    with_lengths,
)

VECTOR_DIR = Path(__file__).parent / "vectors"

S1 = pton("2001:db8:1::1")
S2 = pton("2001:db8:2::1")


def reference_ones_complement_sum(data: bytes) -> int:
    """Independent RFC 1071 reference: 16-bit words added one by one with
    end-around carry; kept deliberately separate from the implementation
    under test."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return total


def reference_checksum(pseudo_and_data: bytes) -> int:
    c = (~reference_ones_complement_sum(pseudo_and_data)) & 0xFFFF
    return c if c else 0xFFFF


def reference_udp_checksum(p: Packet) -> int:
    inner = p.headers[-1][0]
    udp = p.transport
    ulen = 8 + len(udp.payload)
    blob = (
        inner.src
        + inner.dst
        + struct.pack(">IHBB", ulen, 0, 0, 17)
        + struct.pack(">HHHH", udp.src_port, udp.dst_port, ulen, 0)
        + udp.payload
    )
    return reference_checksum(blob)


# ---------------------------------------------------------------------------
# Sizes and field arithmetic.

def test_srh_sizes_two_segments_no_tlv():
    srh = SegmentRoutingHeader(segments=[S1, S2], segments_left=1)
    assert srh.wire_length == 40
    assert srh.hdr_ext_len == 4
    assert srh.last_entry == 1


def test_srh_sizes_with_tlv_region():
    srh = SegmentRoutingHeader(segments=[S1, S2], segments_left=1, tlv_bytes=b"\x04\x06" + b"\x00" * 6)
    assert srh.wire_length == 48
    assert srh.hdr_ext_len == 5


def test_active_segment_is_reverse_indexed():
    srh = SegmentRoutingHeader(segments=[S2, S1], segments_left=1)
    assert srh.segments[srh.segments_left] == S1
    srh.segments_left = 0
    assert srh.segments[srh.segments_left] == S2


@pytest.mark.parametrize("layer", [0, 1])
def test_a_stale_length_is_rejected_and_encode_rewrites_none(layer):
    p = encapsulate(make_udp_packet(S1, S2, b"payload"), SegmentRoutingHeader([S2], 0), S1)
    check_packet(p)
    p.headers[layer][0].payload_length += 8
    lengths = [h.payload_length for h, _ in p.headers]
    for check in (check_packet, encode_packet):
        with pytest.raises(InvariantViolation, match=f"header {layer} payload_length"):
            check(p)
    assert [h.payload_length for h, _ in p.headers] == lengths


# ---------------------------------------------------------------------------
# Golden vectors (offset-prefixed hex dumps built by an independent encoder).

def _vector(name: str) -> bytes:
    return parse_hex_dump((VECTOR_DIR / f"{name}.hex").read_text())


def test_hex_dump_roundtrip():
    rng = random.Random(2)
    blob = rng.randbytes(77)
    assert parse_hex_dump(format_hex_dump(blob)) == blob


def test_vector_plain_udp():
    raw = _vector("plain-udp")
    p = decode_packet(raw)
    hdr = p.outer_header
    assert (hdr.src, hdr.dst, hdr.next_header, hdr.hop_limit) == (S1, S2, 17, 64)
    assert hdr.payload_length == 13
    assert p.transport == Udp(0x1234, 0x5678, b"hello")
    assert udp_checksum(p) == 0xF7DE
    assert encode_packet(p) == raw


def test_vector_srh_two_segments():
    raw = _vector("srh-two-segments")
    p = decode_packet(raw)
    srh = p.outer_srh
    assert srh is not None
    assert srh.segments == [S2, pton("fd00:72::e")]
    assert (srh.segments_left, srh.last_entry, srh.tag) == (1, 1, 5)
    assert srh.hdr_ext_len == 8
    assert validate_srh(srh) is None
    tlvs = list(walk_tlvs(srh.tlv_bytes))
    assert [t.type for t in tlvs] == [1, 2, 4]
    assert tlvs[0].value == struct.pack(">Q", 1_500_000)
    assert udp_checksum(p) == 0xB6BB
    assert encode_packet(p) == raw


def test_vector_encap_two_headers():
    raw = _vector("encap-two-headers")
    p = decode_packet(raw)
    assert len(p.headers) == 2
    outer, inner = p.headers[0][0], p.headers[1][0]
    assert outer.next_header == 43
    assert p.headers[0][1][0].next_header == 41
    assert inner.src == S1 and inner.dst == S2
    assert udp_checksum(p) == 0x07D2
    assert encode_packet(p) == raw


# ---------------------------------------------------------------------------
# Round-trip property.

def test_roundtrip_seeded_random_packets():
    rng = random.Random(0xC0DEC)
    for _ in range(1000):
        p = random_packet(rng)
        raw = encode_packet(p)
        back = decode_packet(raw)
        assert back == p
        assert p.wire_size() == len(raw)


def test_roundtrip_checksum_stable():
    rng = random.Random(7)
    p = random_packet(rng)
    while not isinstance(p.transport, Udp):
        p = random_packet(rng)
    raw = encode_packet(p)
    back = decode_packet(raw)
    assert udp_checksum(back) == udp_checksum(p)


def four_packet_kinds() -> dict[str, Packet]:
    tlv = encode_tlvs(Tlv(9, b"\x01\x02\x03\x04\x05\x06"))
    encapsulated = make_udp_packet(S1, S2, b"inner", flow_label=7)
    encapsulate(encapsulated, SegmentRoutingHeader([S2, S1], 1), pton("2001:db8::e"))
    icmp = Ipv6Header(S1, S2, PROTO_ICMPV6)
    return {
        "udp": make_udp_packet(S1, S2, b"hello", traffic_class=3, flow_label=0x12345),
        "srh": make_srh_udp_packet(S1, [S2, pton("fd00:72::e")], tlv, b"x" * 9, 4000, 5000),
        "encapsulated": encapsulated,
        "opaque": with_lengths(Packet([(icmp, [])], b"\x03\x00\x00\x00opaque")),
    }


def test_encode_leaves_every_field_unchanged():
    for kind, p in four_packet_kinds().items():
        before = repr(p)  # every field, the trace ids too
        raw = encode_packet(p)
        assert repr(p) == before, kind
        assert encode_packet(p) == raw, kind


def test_copy_is_equal_and_shares_no_mutable_part():
    for kind, p in four_packet_kinds().items():
        c = copy_packet(p)
        assert c == p and repr(c.transport) == repr(p.transport), kind
        assert encode_packet(c) == encode_packet(p), kind
        for (h, srhs), (hc, srhs_c) in zip(p.headers, c.headers):
            assert hc is not h and srhs_c is not srhs
            assert all(a is not b and a.segments is not b.segments for a, b in zip(srhs, srhs_c))
        assert (c.transport is p.transport) == isinstance(p.transport, bytes), kind


# ---------------------------------------------------------------------------
# Decode errors.

def test_decode_truncated_header():
    with pytest.raises(ParseError):
        decode_packet(b"\x60" + b"\x00" * 20)


def test_decode_bad_version():
    raw = bytearray(encode_packet(make_udp_packet(S1, S2, b"x")))
    raw[0] = 0x40
    with pytest.raises(ParseError, match="version"):
        decode_packet(bytes(raw))


def test_decode_stale_udp_length():
    raw = bytearray(encode_packet(make_udp_packet(S1, S2, b"hello")))
    struct.pack_into(">H", raw, 44, 14)  # the UDP length: 13 octets follow
    with pytest.raises(ParseError) as exc:
        decode_packet(bytes(raw))
    assert exc.value.offset == 44
    assert exc.value.reason == "UDP length 14 != 13"


def test_decode_bad_routing_type():
    p = make_srh_udp_packet(S1, [S2], b"", b"x", 49152, 33434)
    raw = bytearray(encode_packet(p))
    raw[42] = 99  # routing_type octet
    with pytest.raises(ParseError, match="routing_type"):
        decode_packet(bytes(raw))


def test_decode_hdr_ext_len_smaller_than_segment_list():
    p = make_srh_udp_packet(S1, [S1, S2], b"", b"x", 49152, 33434)
    raw = bytearray(encode_packet(p))
    raw[41] = 2  # hdr_ext_len: implies 24 octets < 8 + 32
    with pytest.raises(ParseError):
        decode_packet(bytes(raw))


def test_decode_tlv_walk_overrun():
    tlv = encode_tlvs(Tlv(9, b"\x01\x02\x03\x04\x05\x06"))
    p = make_srh_udp_packet(S1, [S2], tlv, b"x", 49152, 33434)
    raw = bytearray(encode_packet(p))
    # corrupt the TLV length so the value runs past the region end
    raw[40 + 8 + 16 + 1] = 200
    with pytest.raises(ParseError) as exc:
        decode_packet(bytes(raw))
    # validate_srh's violation, reported at the SRH's first octet
    assert (exc.value.offset, exc.value.reason) == (
        40, "TlvWalkOverrun: TLV value runs past region end"
    )


@pytest.mark.parametrize("with_srh, reason", [(True, "SRH truncated"), (False, "UDP header truncated")])
def test_decode_a_header_cut_short(with_srh, reason):
    p = make_srh_udp_packet(S1, [S2], b"", b"x", 49152, 33434) if with_srh else make_udp_packet(S1, S2, b"x")
    raw = bytearray(encode_packet(p)[:44])
    raw[4:6] = (4).to_bytes(2, "big")  # payload_length: the 4 octets left
    with pytest.raises(ParseError) as exc:
        decode_packet(bytes(raw))
    assert (exc.value.offset, exc.value.reason) == (40, reason)


def test_mutation_corpus_never_crashes():
    rng = random.Random(0xF00D)
    base = encode_packet(random_packet(rng))
    for _ in range(300):
        raw = bytearray(base)
        for _ in range(rng.randrange(1, 6)):
            raw[rng.randrange(len(raw))] = rng.randrange(256)
        try:
            decode_packet(bytes(raw))
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# validate_srh.

def test_validate_fresh_decode_ok():
    rng = random.Random(3)
    for _ in range(50):
        p = random_packet(rng)
        srh = p.outer_srh
        if srh is not None:
            assert validate_srh(srh) is None


def test_validate_zero_filled_growth_rejected():
    srh = SegmentRoutingHeader(
        segments=[S1], segments_left=0, tlv_bytes=b"\x00" * 8
    )
    bad = validate_srh(srh)
    assert bad is not None and bad.code == "RawFillInvalid"


def test_validate_single_pad1_ok():
    srh = SegmentRoutingHeader(
        segments=[S1], segments_left=0,
        tlv_bytes=encode_tlvs(Tlv(9, b"\x01\x02\x03\x04\x05")),
    )
    assert srh.tlv_bytes[-1:] == b"\x00"  # ends in one Pad1
    assert validate_srh(srh) is None


def test_validate_segments_left_out_of_range():
    srh = SegmentRoutingHeader(segments=[S1, S2], segments_left=2)
    bad = validate_srh(srh)
    assert bad is not None and bad.code == "SegmentsLeftOutOfRange"


def test_validate_misaligned_tlv_region():
    srh = SegmentRoutingHeader(segments=[S1], segments_left=0, tlv_bytes=b"\x04\x01\x00")
    bad = validate_srh(srh)
    assert bad is not None and bad.code == "TlvRegionMisaligned"


def reference_validate_srh(srh: SegmentRoutingHeader, room: int = 0) -> SrhViolation | None:
    """validate_srh as it was written on walk_tlvs, kept as the oracle
    of the inlined walk; room segments more must still fit hdr_ext_len."""
    if not srh.segments:
        return SrhViolation("NoSegments")
    for seg in srh.segments:
        if len(seg) != 16:
            return SrhViolation("BadSegment", "segment not 16 octets")
    if not (0 <= srh.segments_left <= srh.last_entry):
        return SrhViolation(
            "SegmentsLeftOutOfRange",
            f"segments_left {srh.segments_left} > last_entry {srh.last_entry}",
        )
    if not (0 <= srh.flags <= 0xFF) or not (0 <= srh.tag <= 0xFFFF):
        return SrhViolation("FieldOutOfRange", "flags or tag")
    if srh.hdr_ext_len + 2 * room > 0xFF:
        return SrhViolation("SizeOverflow", "hdr_ext_len > 255")
    if len(srh.tlv_bytes) % 8 != 0:
        return SrhViolation("TlvRegionMisaligned", str(len(srh.tlv_bytes)))
    pad1_run = 0
    try:
        for tlv in walk_tlvs(srh.tlv_bytes):
            if tlv.type == TLV_PAD1:
                pad1_run += 1
                if pad1_run > 1:
                    return SrhViolation("RawFillInvalid", "run of Pad1 octets; use PadN")
            else:
                pad1_run = 0
    except ParseError as exc:
        return SrhViolation("TlvWalkOverrun", exc.reason)
    return None


def _aligned(region: bytes, tail: bytes = b"") -> bytes:
    """region, padded as encode_tlvs pads, then tail: a multiple of 8 octets."""
    short = (-len(region) - len(tail)) % 8
    if short == 1:
        return region + bytes(1) + tail
    return region + (bytes((TLV_PADN, short - 2)) + bytes(short - 2) if short else b"") + tail


_TLV_PIECE = st.one_of(
    st.sampled_from([1, 2, 3]).map(bytes),  # a run of Pad1 octets
    st.binary(max_size=10).map(lambda v: bytes((TLV_PADN, len(v))) + v),
    st.tuples(st.integers(1, 255), st.binary(max_size=20)).map(
        lambda tv: bytes((tv[0], len(tv[1]))) + tv[1]
    ),
    st.tuples(st.integers(1, 255), st.integers(0, 255)).map(bytes),  # length may overrun
    st.integers(1, 255).map(lambda t: bytes((t,))),  # a lone type: what follows is its length
)
# the last record of a region that ends exactly where it breaks
_TLV_TAIL = st.one_of(
    st.integers(1, 255).map(lambda t: bytes((t,))),  # header cut after its type
    st.tuples(st.integers(1, 255), st.binary(max_size=5), st.integers(1, 3)).map(
        lambda t: bytes((t[0], len(t[1]) + t[2])) + t[1]  # value 1-3 octets short
    ),
)
# the regions a wire SRH can hold: a multiple of 8 octets
_ALIGNED_TLV_REGION = st.one_of(
    st.lists(_TLV_PIECE, max_size=6).map(lambda pieces: _aligned(b"".join(pieces))),
    st.tuples(st.lists(_TLV_PIECE, max_size=6), _TLV_TAIL).map(
        lambda pt: _aligned(b"".join(pt[0]), pt[1])
    ),
    st.integers(0, 6).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n)),
)
_TLV_REGION = st.one_of(st.lists(_TLV_PIECE, max_size=6).map(b"".join), _ALIGNED_TLV_REGION)


def _mostly(draw, good, bad):
    """Draw from good, or about one time in eight from bad; each field is
    valid most of the time, so that the TLV walk at the end runs often."""
    return draw(bad if draw(st.integers(0, 7)) == 7 else good)


@st.composite
def srhs(draw):
    n = _mostly(draw, st.integers(1, 4), st.sampled_from([0, 126, 127, 128, 129]))
    segments = draw(st.lists(st.sampled_from([S1, S2]), min_size=n, max_size=n))
    if n and _mostly(draw, st.just(False), st.just(True)):
        segments[draw(st.integers(0, n - 1))] = draw(st.sampled_from([S1[:15], S2 + b"\x00"]))
    return SegmentRoutingHeader(
        segments=segments,
        segments_left=_mostly(draw, st.integers(0, max(n - 1, 0)), st.sampled_from([-1, n, n + 1])),
        flags=_mostly(draw, st.sampled_from([0, 0x80, 0xFF]), st.sampled_from([0x100, -1])),
        tag=_mostly(draw, st.sampled_from([0, 7, 0xFFFF]), st.sampled_from([0x10000, -1])),
        tlv_bytes=draw(_TLV_REGION),
    )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(srh=srhs(), room=st.sampled_from([0, 1]))
# Pad1 octets apart from each other are no run
@example(srh=SegmentRoutingHeader(
    [S1], 0, tlv_bytes=bytes((TLV_PAD1, TLV_PADN, 0, TLV_PAD1, TLV_PADN, 2, 0, 0))
), room=0)
# TLV octets count toward hdr_ext_len: 2 * 127 + 16 // 8 = 256
@example(srh=SegmentRoutingHeader([S1] * 127, 0, tlv_bytes=bytes((TLV_PADN, 14)) + bytes(14)),
         room=0)
# so does a push's room: 2 * (127 + 1) = 256
@example(srh=SegmentRoutingHeader([S1] * 127, 0), room=1)
def test_validate_srh_matches_the_tlv_walk_reference(srh, room):
    assert validate_srh(srh, room) == reference_validate_srh(srh, room)  # code and detail


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    nseg_sl=st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    region=_ALIGNED_TLV_REGION,
)
@example(nseg_sl=(1, 0), region=bytes(8))  # a run of Pad1 octets
@example(nseg_sl=(2, 2), region=b"")  # segments_left one past last_entry
def test_decode_refuses_exactly_what_validate_srh_refuses(nseg_sl, region):
    """decode_packet holds a wire SRH to validate_srh, and to no rule of
    its own: it raises at the SRH's first octet with the violation's text,
    and decodes every SRH the rule accepts."""
    nseg, sl = nseg_sl
    srh = SegmentRoutingHeader([S1, S2, S1][:nseg], sl, tlv_bytes=region)
    raw = udp_wire_through(S1, S2, srh)
    bad = validate_srh(srh)
    if bad is None:
        assert decode_packet(raw).outer_srh == srh
    else:
        with pytest.raises(ParseError) as exc:
            decode_packet(raw)
        assert (exc.value.offset, exc.value.reason) == (40, str(bad))


# records of two types, so a region often repeats one
_REPEATED_TLV = st.tuples(st.sampled_from([1, 2]), st.binary(max_size=6)).map(
    lambda tv: bytes((tv[0], len(tv[1]))) + tv[1]
)
_FIRST_TLVS_REGION = st.one_of(
    _TLV_REGION,
    st.tuples(st.lists(_TLV_PIECE | _REPEATED_TLV, max_size=8), _TLV_TAIL | st.just(b"")).map(
        lambda pt: b"".join(pt[0]) + pt[1]
    ),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(region=_FIRST_TLVS_REGION)
# each kind of record repeated, then a header cut after its type
@example(region=bytes((TLV_PAD1, TLV_PAD1, 1, 1, 7, TLV_PADN, 0, 1, 0, TLV_PADN, 1, 0, 2)))
# a value that runs past the end, after a kept record
@example(region=bytes((2, 1, 9, 1, 5, 0)))
def test_first_tlvs_matches_the_tlv_walk_reference(region):
    srh = SegmentRoutingHeader([S1], 0, tlv_bytes=region)
    got, want = first_tlvs(srh), reference_first_tlvs(srh)
    # the same records in the same order
    assert [(t, v.type, v.value) for t, v in got.items()] == [
        (t, v.type, v.value) for t, v in want.items()
    ]
    assert all(type(v.value) is bytes for v in got.values())


def test_encode_rejects_invalid_srh():
    p = make_srh_udp_packet(S1, [S2], b"", b"x", 49152, 33434)
    p.outer_srh.segments_left = 3
    with pytest.raises(InvariantViolation):
        encode_packet(p)


@pytest.mark.parametrize("with_srh, owner, attr, value, error", [
    (False, "hdr", "traffic_class", 0x100, "traffic_class out of range"),
    (False, "hdr", "flow_label", 1 << 20, "flow_label out of range"),
    (False, "hdr", "hop_limit", 0x100, "hop_limit out of range"),
    (False, "hdr", "dst", bytes(15), "addresses must be 16 octets"),
    (False, "packet", "headers", [], "packet needs at least one IPv6 header"),
    (True, "hdr", "next_header", 17, "header 0 next_header 17 != 43 before SRH"),
    (True, "srh", "next_header", 6, "SRH 0.0 next_header 6 != 17"),
    (False, "hdr", "next_header", 6, "header 0 next_header 6 != 17"),
])
def test_encode_rejects_a_broken_header_or_chain(with_srh, owner, attr, value, error):
    p = make_srh_udp_packet(S1, [S2], b"", b"x", 49152, 33434) if with_srh else make_udp_packet(S1, S2, b"x")
    setattr({"packet": p, "hdr": p.headers[0][0], "srh": p.outer_srh}[owner], attr, value)
    with pytest.raises(InvariantViolation) as exc:
        encode_packet(p)
    assert str(exc.value) == error


# ---------------------------------------------------------------------------
# UDP checksum.

@pytest.mark.parametrize("data, total", [
    (b"", 0),
    (b"\x01", 0x0100),  # an odd length is padded with a zero octet
    (b"\x12\x34\x56", 0x1234 + 0x5600),
    (bytes(7), 0),
    (b"\xff" * 7, 0xFF00),  # 3 * 0xFFFF + 0xFF00
    (b"\xff" * 8, 0xFFFF),
    # word sums that are nonzero multiples of 0xFFFF fold to 0xFFFF, not 0
    (b"\x80\x00\x7f\xff", 0xFFFF),
    (b"\xff\xfe\x00\x01\xff\xff", 0xFFFF),
])
def test_ones_complement_sum_fixed_cases(data, total):
    assert reference_ones_complement_sum(data) == total
    assert _ones_complement_sum(data) == total


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.binary(max_size=300) | st.lists(st.sampled_from([b"\x00", b"\xff"])).map(b"".join))
def test_ones_complement_sum_matches_the_word_loop(data):
    assert _ones_complement_sum(data) == reference_ones_complement_sum(data)


def test_checksum_matches_reference_on_fixed_packet():
    p = make_udp_packet(S1, S2, b"\x00" * 32, src_port=1000, dst_port=2000)
    assert udp_checksum(p) == reference_udp_checksum(p)


def test_checksum_matches_reference_on_random_packets():
    rng = random.Random(11)
    for _ in range(200):
        p = random_packet(rng)
        if isinstance(p.transport, Udp):
            assert udp_checksum(p) == reference_udp_checksum(p)


def test_checksum_depends_on_destination():
    p = make_udp_packet(S1, S2, b"payload")
    before = udp_checksum(p)
    p.headers[0][0].dst = pton("2001:db8:2::2")
    assert udp_checksum(p) != before


def test_checksum_no_transport():
    p = make_udp_packet(S1, S2, b"x")
    p.transport = b"\x01\x02"
    p.headers[0][0].next_header = 58
    with pytest.raises(NoTransport):
        udp_checksum(p)


def test_decode_warns_on_any_checksum_but_the_computed_one(caplog):
    # over IPv6 a zero UDP checksum is invalid (RFC 8200 section 8.1)
    p = make_udp_packet(S1, S2, b"payload")
    wire = encode_packet(p)
    for csum, warns in ((udp_checksum(p), False), (0, True), (0x1234, True)):
        caplog.clear()
        raw = bytearray(wire)
        struct.pack_into(">H", raw, 46, csum)  # the UDP checksum field
        assert decode_packet(bytes(raw)) == p  # warn-only: the packet still decodes
        assert ("UDP checksum mismatch" in caplog.text) == warns, csum
