import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srv6sim import behaviors
from srv6sim.behaviors import (
    SID_BEHAVIORS,
    TRANSIT_BEHAVIORS,
    DROP_HOP_LIMIT,
    Drop,
    DropReason,
    End,
    EndB6,
    EndB6Encaps,
    EndDT6,
    EndT,
    EndX,
    Forward,
    LocalDeliver,
    TransitEncaps,
    TransitInsert,
)
from srv6sim.dataplane import Node
from srv6sim.fib import FibEntry
from srv6sim.packet import (
    InvariantViolation,
    Ipv6Header,
    PROTO_ICMPV6,
    PROTO_IPV6,
    PROTO_ROUTING,
    PROTO_UDP,
    Packet,
    SegmentRoutingHeader,
    Tlv,
    check_packet,
    decode_packet,
    encode_packet,
    encode_tlvs,
    make_srh_udp_packet,
    make_udp_packet,
    pton,
)
from util import (
    copy_packet,
    random_packet,
    reference_encapsulate,
    reference_insert_srh,
    reference_t_insert,
)

S1 = pton("2001:db8:1::1")
S2 = pton("2001:db8:2::1")
F = pton("fd00:72::f")
SID = pton("fd00:72::e")
NH_R3 = (pton("2001:db8::3"), "l3")


def sr_packet(segments, sl, dst=None, hop=64):
    """Packet with one SRH; segments given in reverse (storage) order."""
    p = make_srh_udp_packet(S1, list(segments), b"", b"payload", 49152, 33434)
    hdr, (srh,) = p.headers[0]
    srh.segments_left, hdr.hop_limit = sl, hop
    hdr.dst = dst or srh.segments[srh.segments_left]
    return p


def router(extra_fib=()):
    node = Node("R", [pton("2001:db8::1")])
    node.fib_insert(FibEntry(b"\x00" * 16, 0, [(pton("2001:db8::9"), "l9")]))
    for entry in extra_fib:
        node.fib_insert(entry)
    return node


# ---------------------------------------------------------------------------
# End family.

def test_end_advances_to_next_segment():
    p = sr_packet([S2, F], 1)
    behaviors.end(p)
    srh = p.outer_srh
    assert srh.segments_left == 0
    assert p.outer_header.dst == S2


def test_end_exhausted_segments():
    p = sr_packet([S2, F], 0)
    assert behaviors.end(p).reason is DropReason.SEGMENTS_EXHAUSTED


def test_end_requires_srh():
    p = make_udp_packet(S1, S2, b"x")
    assert behaviors.end(p).reason is DropReason.NO_SRH


def test_end_leaves_tag_and_flags_alone():
    p = sr_packet([S2, F], 1)
    srh = p.outer_srh
    srh.tag, srh.flags = 77, 3
    behaviors.end(p)
    assert (srh.tag, srh.flags) == (77, 3)
    assert p.transport.payload == b"payload"


def test_end_x_sets_pending_destination():
    p = sr_packet([S2, F], 1)
    behaviors.end(p)
    assert EndX(*NH_R3).action(p, router()) == Forward(NH_R3[1], NH_R3[0])
    assert p.outer_srh.segments_left == 0


def test_end_x_returns_one_shared_frozen_forward():
    action, node = EndX(*NH_R3), router()
    first = action.action(sr_packet([S2, F], 0), node)
    assert first == Forward(NH_R3[1], NH_R3[0])
    assert action.action(sr_packet([S1, SID], 1), node) is first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.link = "l9"


def test_end_x_bypasses_ecmp():
    node = router()
    node.fib_insert(
        FibEntry(pton("2001:db8:2::"), 64, [(pton("2001:db8::a"), "l1"), (pton("2001:db8::b"), "l2")])
    )
    node.add_sid(SID, EndX(*NH_R3))
    for _ in range(5):
        p = sr_packet([S2, SID], 1)
        decision = node.process_ingress(p, 0)
        assert decision == Forward("l3", NH_R3[0])


def test_end_t_uses_bound_table():
    table_100 = FibEntry(pton("2001:db8:2::"), 64, [(pton("2001:db8::aa"), "lx")], table_id=100)
    node = router([table_100])
    node.add_sid(SID, EndT(100))
    p = sr_packet([S2, SID], 1)
    decision = node.process_ingress(p, 0)
    assert decision == Forward("lx", pton("2001:db8::aa"))


def test_end_t_no_fallback_to_default_table():
    node = router()  # default table has ::/0, table 100 empty
    node.add_sid(SID, EndT(100))
    p = sr_packet([S2, SID], 1)
    decision = node.process_ingress(p, 0)
    assert decision == Drop(DropReason.NO_ROUTE)


def test_end_b6_stacks_second_srh():
    p = sr_packet([S2, F], 1)
    new = SegmentRoutingHeader(segments=[pton("fd00:9::1")], segments_left=0)
    behaviors.end(p)
    EndB6(new).action(p, router())
    srhs = p.headers[0][1]
    assert len(srhs) == 2
    assert p.outer_header.dst == pton("fd00:9::1")
    assert srhs[1].segments_left == 0  # the advance happened first
    back = decode_packet(encode_packet(p))
    assert len(back.headers[0][1]) == 2


def test_end_b6_rejects_invalid_srh():
    p = sr_packet([S2, F], 1)
    bad = SegmentRoutingHeader(segments=[F], segments_left=2)
    behaviors.end(p)
    with pytest.raises(InvariantViolation):
        EndB6(bad).action(p, router())


def test_end_b6_encaps_wraps_packet():
    p = sr_packet([S2, F], 1)
    inner_bytes_before = encode_packet(p)
    outer = SegmentRoutingHeader(segments=[pton("fd00:9::1")], segments_left=0)
    behaviors.end(p)
    EndB6Encaps(outer, pton("2001:db8::1")).action(p, router())
    assert len(p.headers) == 2
    assert p.outer_header.hop_limit == 64
    assert p.outer_header.dst == pton("fd00:9::1")
    back = decode_packet(encode_packet(p))
    assert len(back.headers) == 2
    # inner header kept the advanced destination
    assert back.headers[1][0].dst == S2
    assert inner_bytes_before is not None


def test_end_dt6_decapsulates_at_last_segment():
    inner = make_udp_packet(S1, S2, b"data")
    p = copy_packet(inner)
    behaviors.encapsulate(p, SegmentRoutingHeader(segments=[SID], segments_left=0), pton("2001:db8::1"))
    behaviors.end_dt6(p)
    assert len(p.headers) == 1
    assert p.outer_header.dst == S2


def test_end_dt6_not_last_segment():
    p = sr_packet([S2, SID], 1)
    assert behaviors.end_dt6(p).reason is DropReason.NOT_LAST_SEGMENT


def test_end_dt6_requires_inner_header():
    p = sr_packet([S2, SID], 0)
    assert behaviors.end_dt6(p).reason is DropReason.NO_INNER_HEADER


# ---------------------------------------------------------------------------
# Transit behaviours.

def test_t_insert_appends_original_destination():
    p = make_udp_packet(S1, S2, b"x")
    behaviors.t_insert(p, SegmentRoutingHeader(segments=[F], segments_left=0))
    srh = p.outer_srh
    assert srh.segments == [S2, F]
    assert srh.segments_left == 1
    assert p.outer_header.dst == F
    assert srh.next_header == PROTO_UDP
    assert decode_packet(encode_packet(p)) == p


def test_t_insert_rejects_sr_packets():
    p = sr_packet([S2, F], 1)
    raw = encode_packet(p)
    drop = behaviors.t_insert(p, SegmentRoutingHeader(segments=[F], segments_left=0))
    assert drop.reason is DropReason.INVARIANT
    assert encode_packet(p) == raw


def test_t_encaps_preserves_inner_bytes():
    p = make_udp_packet(S1, S2, b"x" * 40)
    inner_raw = encode_packet(p)
    behaviors.encapsulate(p, SegmentRoutingHeader(segments=[F], segments_left=0), pton("2001:db8::1"))
    raw = encode_packet(p)
    assert raw.endswith(inner_raw)
    assert decode_packet(raw) == p


# ---------------------------------------------------------------------------
# SRH templates: validated once at configuration, copied by every push.

T1, T2 = pton("fd00:9::1"), pton("fd00:9::2")
OUTER_SRC = pton("2001:db8::1")
# descriptor constructor, and whether it binds to SID (else to S2's /64)
TEMPLATE_CASES = {
    "end_b6": (EndB6, True),
    "end_b6_encaps": (lambda srh: EndB6Encaps(srh, OUTER_SRC), True),
    "insert": (TransitInsert, False),
    "encaps": (lambda srh: TransitEncaps(srh, OUTER_SRC), False),
}


def template():
    return SegmentRoutingHeader(segments=[T2, T1], segments_left=1, tag=7)


def templated_node(case, srh):
    make, at_sid = TEMPLATE_CASES[case]
    node, descriptor = router(), make(srh)
    if at_sid:
        node.add_sid(SID, descriptor)
    else:
        node.add_transit(pton("2001:db8:2::"), 64, descriptor)
    return node, descriptor


def pushed(case, node):
    """The decision and packet of one packet through the bound behaviour."""
    p = sr_packet([S2, SID], 1) if TEMPLATE_CASES[case][1] else make_udp_packet(S1, S2, b"x")
    return node.process_ingress(p, 0), p


@pytest.mark.parametrize("case", sorted(TEMPLATE_CASES))
def test_template_ignores_later_changes_to_the_configured_srh(case):
    srh = template()
    node, _ = templated_node(case, srh)
    srh.segments[0] = S1
    srh.segments.append(F)
    srh.segments_left = 2
    srh.tag = 9
    srh.tlv_bytes = encode_tlvs(Tlv(5, b"ab"))
    twin, _ = templated_node(case, template())
    (got, p), (want, q) = pushed(case, node), pushed(case, twin)
    assert got == want and p == q
    assert encode_packet(p) == encode_packet(q)


@pytest.mark.parametrize("case", sorted(TEMPLATE_CASES))
def test_pushes_from_one_template_share_no_srh(case):
    node, descriptor = templated_node(case, template())
    (_, p), (_, q) = pushed(case, node), pushed(case, node)
    a, b = p.outer_srh, q.outer_srh
    assert a is not b and a.segments is not b.segments
    assert all(s is not descriptor.srh and s.segments is not descriptor.srh.segments for s in (a, b))
    before = encode_packet(q)
    behaviors.end(p)
    assert encode_packet(q) == before
    assert p != q
    assert descriptor.srh == template()


@pytest.mark.parametrize(
    "case, segments",
    [("end_b6", 128), ("end_b6_encaps", 128), ("encaps", 128), ("insert", 127)],
)
def test_template_that_no_push_could_carry_is_rejected(case, segments):
    make = TEMPLATE_CASES[case][0]
    srh = SegmentRoutingHeader(segments=[T1] * segments, segments_left=0)
    with pytest.raises(InvariantViolation, match="SizeOverflow"):
        make(srh)
    srh.segments.pop()
    make(srh)


# Each push as a function of the packet, with the SRH it copies (the
# drawn one for a body, its private template for a descriptor's action),
# and the reference that must give the same packet from the drawn SRH.
def _body(push, *args):
    return lambda srh: (lambda p: push(p, srh, *args), srh)


def _action(make):
    def build(srh):
        descriptor = make(srh)
        return lambda p: descriptor.action(p, Node("R", [])), descriptor.srh
    return build


def _reference_encapsulate(p, srh):
    return reference_encapsulate(p, srh, OUTER_SRC)


PUSHES = {
    "encapsulate": (_body(behaviors.encapsulate, OUTER_SRC), _reference_encapsulate),
    "insert_srh": (_body(behaviors.insert_srh), reference_insert_srh),
    "t_insert": (_body(behaviors.t_insert), reference_t_insert),
    "end_b6": (_action(EndB6), reference_insert_srh),
    "end_b6_encaps": (_action(lambda srh: EndB6Encaps(srh, OUTER_SRC)), _reference_encapsulate),
    "insert": (_action(TransitInsert), reference_t_insert),
    "encaps": (_action(lambda srh: TransitEncaps(srh, OUTER_SRC)), _reference_encapsulate),
}


@st.composite
def pushable_srhs(draw):
    n = draw(st.integers(1, 5))
    tlvs = draw(st.lists(st.tuples(st.integers(1, 255), st.binary(max_size=12)), max_size=3))
    return SegmentRoutingHeader(
        draw(st.lists(st.binary(min_size=16, max_size=16), min_size=n, max_size=n)),
        draw(st.integers(0, n - 1)),
        draw(st.sampled_from([PROTO_UDP, PROTO_ROUTING, PROTO_IPV6])),
        draw(st.integers(0, 0xFF)),
        draw(st.integers(0, 0xFFFF)),
        encode_tlvs(*(Tlv(t, v) for t, v in tlvs)),
    )


def _error(push, p):
    """The text of the InvariantViolation push raises or the INVARIANT
    Drop it returns, else None."""
    try:
        result = push(p)
    except InvariantViolation as exc:
        return str(exc)
    if type(result) is Drop and result.reason is DropReason.INVARIANT:
        return result.detail
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(sorted(PUSHES)), srh=pushable_srhs(), seed=st.integers(0, 2**32 - 1))
def test_pushes_match_the_copy_then_patch_reference(case, srh, seed):
    build, reference = PUSHES[case]
    push, template = build(srh)
    kept = template.copy()
    p = random_packet(random.Random(seed))  # t_insert raises on one with an SRH
    q = copy_packet(p)
    error = _error(push, p)
    assert error == _error(lambda r: reference(r, kept), q)
    assert p == q and encode_packet(p) == encode_packet(q)
    if error is None:
        new = p.outer_srh
        assert new is not template and new.segments is not template.segments
        new.segments.append(S1)
        assert template == kept


# ---------------------------------------------------------------------------
# Ingress pipeline.

def test_plain_forward_without_sid_or_transit():
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])
    p = make_udp_packet(S1, S2, b"x")
    assert node.process_ingress(p, 0) == Forward("l3", NH_R3[0])
    assert p.outer_header.hop_limit == 63


def test_hop_limit_exhaustion_emits_time_exceeded():
    node = router()
    p = make_udp_packet(S1, S2, b"x", hop_limit=1)
    decision = node.process_ingress(p, 5)
    assert decision is DROP_HOP_LIMIT  # the shared Drop the simulation answers
    assert decision == Drop(DropReason.HOP_LIMIT_EXCEEDED)
    icmp = node.time_exceeded(p)
    assert icmp.outer_header.dst == S1
    assert icmp.outer_header.next_header == PROTO_ICMPV6
    assert isinstance(icmp.transport, bytes) and icmp.transport[0] == 3
    # quoted offender bytes start with the original IPv6 header
    assert icmp.transport[4:6] == b"\x60\x00"


def test_time_exceeded_quotes_nothing_of_an_offender_with_a_stale_length():
    node = router()
    p = make_udp_packet(S1, S2, b"x", hop_limit=1)
    p.outer_header.payload_length += 8
    assert node.process_ingress(p, 5) == Drop(DropReason.HOP_LIMIT_EXCEEDED)
    assert node.time_exceeded(p).transport == bytes((3, 0, 0, 0))


def _expired_time_exceeded():
    """A time-exceeded another node sent toward S1, given hop limit 1."""
    error = Node("Q", [pton("2001:db8::2")]).time_exceeded(make_udp_packet(S1, S2, b"x"))
    error.outer_header.hop_limit = 1
    return error


@pytest.mark.parametrize("addresses,offender", [
    ([], lambda: make_udp_packet(S1, S2, b"x", hop_limit=1)),
    ([pton("2001:db8::1")], lambda: make_udp_packet(bytes(16), S2, b"x", hop_limit=1)),
    ([pton("2001:db8::1")], _expired_time_exceeded),
    ([pton("2001:db8::1")],
     lambda: behaviors.insert_srh(_expired_time_exceeded(), SegmentRoutingHeader([S1], 0))),
], ids=["no_address", "unspecified", "icmp_error", "icmp_err_srh"])
def test_hop_limit_drop_emits_no_time_exceeded_without_a_reply_path(addresses, offender):
    """No time-exceeded from a node with no address to send it from, nor
    toward an unspecified source, nor about an ICMPv6 error message
    (RFC 4443 §2.4(e.1))."""
    node = Node("R", addresses)
    p = offender()
    assert node.process_ingress(p, 5) == Drop(DropReason.HOP_LIMIT_EXCEEDED)
    assert node.time_exceeded(p) is None


def _echo_request():
    body = bytes((128, 0, 0, 0))
    return Packet([(Ipv6Header(S1, S2, PROTO_ICMPV6, 1, 0, 0, len(body)), [])], body)


def _encapsulated_time_exceeded():
    p = behaviors.encapsulate(_expired_time_exceeded(), SegmentRoutingHeader([S1], 0), S2)
    p.outer_header.hop_limit = 1
    return p


@pytest.mark.parametrize("offender", [_echo_request, _encapsulated_time_exceeded])
def test_hop_limit_drop_answers_an_icmpv6_message_that_is_not_an_error(offender):
    """Only an ICMPv6 error (a type below 128) that ends the outer header
    chain goes unanswered, as Linux's is_ineligible reads that chain alone:
    an echo request and an encapsulated error each draw a time-exceeded."""
    node = router()
    p = offender()
    assert node.process_ingress(p, 5) is DROP_HOP_LIMIT
    assert node.time_exceeded(p).outer_header.dst == p.outer_header.src


def test_local_delivery():
    node = router()
    p = make_udp_packet(S1, pton("2001:db8::1"), b"x")
    assert node.process_ingress(p, 0) == LocalDeliver()


@pytest.mark.parametrize("case", ["encaps", "insert"])
@pytest.mark.parametrize("route", ["process_ingress", "output"])
def test_local_delivery_under_a_transit_covering_the_address(case, route):
    """As Linux's local table precedes the seg6 routes of its main table,
    a transit covering the node's own address leaves a packet for that
    address alone, on input as on output."""
    node = router()
    node.add_transit(pton("2001:db8::"), 32, TEMPLATE_CASES[case][0](template()))
    p = make_udp_packet(S1, pton("2001:db8::1"), b"x")
    assert getattr(node, route)(p, 0) == LocalDeliver()
    assert p == make_udp_packet(S1, pton("2001:db8::1"), b"x", hop_limit=p.outer_header.hop_limit)


# each native descriptor, and a packet its action takes without raising
def _inner_at_last_segment():
    p = make_udp_packet(S1, S2, b"x")
    behaviors.encapsulate(p, SegmentRoutingHeader(segments=[SID], segments_left=0), S1)
    return p


NATIVE_CASES = {
    "end": (End(), lambda: sr_packet([S2, SID], 0)),
    "end_x": (EndX(*NH_R3), lambda: sr_packet([S2, SID], 0)),
    "end_t": (EndT(0), lambda: sr_packet([S2, SID], 0)),
    "end_b6": (EndB6(template()), lambda: sr_packet([S2, SID], 0)),
    "end_b6_encaps": (EndB6Encaps(template(), OUTER_SRC), lambda: sr_packet([S2, SID], 0)),
    "end_dt6": (EndDT6(0), _inner_at_last_segment),
    "insert": (TransitInsert(template()), lambda: make_udp_packet(S1, S2, b"x")),
    "encaps": (TransitEncaps(template(), OUTER_SRC), lambda: make_udp_packet(S1, S2, b"x")),
}


@pytest.mark.parametrize(
    "name",
    sorted(name for name, cls in {**SID_BEHAVIORS, **TRANSIT_BEHAVIORS}.items()
           if not issubclass(cls, behaviors.ProgramBehavior)),
)
def test_every_native_action_returns_its_decision(name):
    """Each action ends in its own lookup, as seg6local's do: it returns a
    decision, never None for the node to complete."""
    descriptor, packet = NATIVE_CASES[name]
    assert type(descriptor).type_name == name
    decision = descriptor.action(packet(), router())
    assert type(decision) in (Forward, Drop, LocalDeliver)


def test_no_route_drop():
    node = Node("R", [pton("2001:db8::1")])
    p = make_udp_packet(S1, S2, b"x")
    assert node.process_ingress(p, 0) == Drop(DropReason.NO_ROUTE)


def test_sid_dispatch_end_forwards_to_next_segment():
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])
    node.add_sid(SID, End())
    p = sr_packet([S2, SID], 1)
    assert node.process_ingress(p, 0) == Forward("l3", NH_R3[0])
    assert p.outer_header.dst == S2


def test_pipeline_is_deterministic():
    def run_once():
        node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])
        node.add_sid(SID, End())
        p = sr_packet([S2, SID], 1)
        return node.process_ingress(p, 123), encode_packet(p)

    assert run_once() == run_once()


def test_length_closure_through_mutations():
    p = make_udp_packet(S1, S2, b"x" * 20)
    check_packet(p)
    behaviors.t_insert(p, SegmentRoutingHeader(segments=[F], segments_left=0))
    check_packet(p)
    behaviors.encapsulate(
        p, SegmentRoutingHeader(segments=[SID], segments_left=0), pton("2001:db8::1")
    )
    check_packet(p)
    behaviors.end_dt6(p)
    check_packet(p)
    assert decode_packet(encode_packet(p)) == p


def test_forwarded_packets_lose_hop_limit():
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])
    for hop in (2, 10, 255):
        p = make_udp_packet(S1, S2, b"x", hop_limit=hop)
        node.process_ingress(p, 0)
        assert p.outer_header.hop_limit == hop - 1
