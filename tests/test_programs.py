import random
import struct

import pytest

from srv6sim import programs
from srv6sim.behaviors import (
    Drop,
    DropReason,
    End,
    EndB6,
    EndB6Encaps,
    EndDT6,
    EndProgram,
    EndT,
    EndX,
    Forward,
    TransitInsert,
    TransitProgram,
)
from srv6sim.dataplane import Node
from srv6sim.fib import FibEntry
from srv6sim.packet import (
    SegmentRoutingHeader,
    Tlv,
    decode_packet,
    encode_packet,
    encode_tlvs,
    make_udp_packet,
    pton,
)
from srv6sim.programs import (
    HelperError,
    Hook,
    Outcome,
    ProgramContext,
    emit_event,
    flow_key,
    helper_action,
    helper_adjust_srh,
    helper_ecmp_nexthops,
    helper_push_encap,
    helper_store_bytes,
    helper_timestamp,
    map_get,
    map_put,
    run_transit_program,
)
from util import SID_END, copy_packet, end_vs_noop_nodes, random_sr_packet
from test_behaviors import router, sr_packet, S1, S2, F, SID, NH_R3


def make_ctx(packet, node=None, hook=Hook.ENDPOINT, now=1_500_000):
    node = node or router()
    return ProgramContext(packet=packet, hook=hook, now_ns=now, dataplane=node)


# ---------------------------------------------------------------------------
# helper_store_bytes.

def test_store_bytes_increments_tag():
    p = sr_packet([S2, F], 1)
    p.outer_srh.tag = 5
    ctx = make_ctx(p)
    helper_store_bytes(ctx, 6, struct.pack(">H", p.outer_srh.tag + 1))
    assert p.outer_srh.tag == 6
    assert ctx.srh_dirty is None  # a tag write leaves the SRH valid


def test_store_bytes_flags_octet():
    p = sr_packet([S2, F], 1)
    ctx = make_ctx(p)
    helper_store_bytes(ctx, 5, b"\x80")
    assert p.outer_srh.flags == 0x80


def test_store_bytes_rejects_segments_left():
    p = sr_packet([S2, F], 1)
    before = encode_packet(p)
    ctx = make_ctx(p)
    with pytest.raises(HelperError) as exc:
        helper_store_bytes(ctx, 3, b"\x00")
    assert exc.value.code == "write_out_of_bounds"
    assert encode_packet(p) == before
    assert not ctx.srh_dirty


def test_store_bytes_rejects_span_from_tag_into_segments():
    p = sr_packet([S2, F], 1)
    before = encode_packet(p)
    ctx = make_ctx(p)
    with pytest.raises(HelperError):
        helper_store_bytes(ctx, 6, b"\x00" * 4)
    assert encode_packet(p) == before


def test_store_bytes_rejects_every_structural_offset():
    p = sr_packet([S2, F], 1)
    ctx = make_ctx(p)
    for off in (0, 1, 2, 3, 4):
        with pytest.raises(HelperError):
            helper_store_bytes(ctx, off, b"\xff")
    for off in range(8, 8 + 32):  # the two-segment list
        with pytest.raises(HelperError):
            helper_store_bytes(ctx, off, b"\xff")


def test_store_bytes_writes_tlv_region():
    p = sr_packet([S2, F], 1)
    p.outer_srh.tlv_bytes = b"\x00" * 8
    ctx = make_ctx(p)
    tlv = bytes((9, 6)) + b"\xaa" * 6
    helper_store_bytes(ctx, 8 + 32, tlv)
    assert p.outer_srh.tlv_bytes == tlv


def test_store_bytes_rejected_writes_leave_bytes_untouched():
    rng = random.Random(0xBEEF)
    for _ in range(200):
        p = random_sr_packet(rng, SID)
        ctx = make_ctx(p)
        before = encode_packet(p)
        offset = rng.randrange(0, p.outer_srh.wire_length + 8)
        data = rng.randbytes(rng.randrange(1, 9))
        try:
            helper_store_bytes(ctx, offset, data)
        except HelperError:
            assert encode_packet(p) == before


def test_store_bytes_without_srh_raises_no_srh():
    p = make_udp_packet(S1, SID, b"x")
    with pytest.raises(HelperError) as exc:
        helper_store_bytes(make_ctx(p), 6, b"\x00\x01")
    assert exc.value.code == "no_srh"


def test_store_bytes_of_no_data_writes_nothing():
    p = sr_packet([S2, F], 1)
    before = encode_packet(p)
    ctx = make_ctx(p)
    helper_store_bytes(ctx, 6, b"")
    assert encode_packet(p) == before
    assert ctx.srh_dirty is None


def _srh_wire(srh: SegmentRoutingHeader) -> bytes:
    """The SRH's wire octets, whatever its TLV region holds."""
    fixed = struct.pack(
        ">BBBBBBH", srh.next_header, srh.hdr_ext_len, srh.routing_type,
        srh.segments_left, srh.last_entry, srh.flags, srh.tag,
    )
    return fixed + b"".join(srh.segments) + srh.tlv_bytes


def test_store_bytes_accepted_writes_splice_the_encoded_srh():
    """Random accepted writes to flags, tag, both, and the TLV region each
    leave the SRH's octets equal to the old ones with the data spliced in
    at the offset. Only a TLV write marks the SRH for finalize."""
    rng = random.Random(0x5701)
    for _ in range(400):
        p = random_sr_packet(rng, SID)
        srh = p.outer_srh
        before = _srh_wire(srh)
        assert before == encode_packet(p)[40 : 40 + srh.wire_length]
        spans = [(5, 6), (6, 8), (5, 8)]  # flags, tag, both
        if srh.tlv_bytes:
            spans.append((8 + 16 * len(srh.segments), srh.wire_length))
        lo, hi = rng.choice(spans)
        offset = rng.randrange(lo, hi)
        data = rng.randbytes(rng.randrange(1, hi - offset + 1))
        ctx = make_ctx(p)
        helper_store_bytes(ctx, offset, data)
        assert _srh_wire(srh) == before[:offset] + data + before[offset + len(data) :]
        assert ctx.srh_dirty is (srh if lo >= 8 else None)


# ---------------------------------------------------------------------------
# helper_adjust_srh.

def test_adjust_grow_zero_fills():
    p = sr_packet([S2, F], 1)
    raw_before = encode_packet(p)
    ctx = make_ctx(p)
    before_hel = p.outer_srh.hdr_ext_len
    helper_adjust_srh(ctx, 8)
    assert p.outer_srh.hdr_ext_len == before_hel + 1
    assert p.outer_srh.tlv_bytes == b"\x00" * 8
    assert p.headers[0][0].payload_length == len(raw_before) - 40 + 8


def test_adjust_shrink_restores_original_bytes():
    p = sr_packet([S2, F], 1)
    p.outer_srh.tlv_bytes = encode_tlvs(Tlv(9, b"\x01\x02\x03\x04\x05\x06"))
    p.outer_header.payload_length += len(p.outer_srh.tlv_bytes)
    original = encode_packet(p)
    ctx = make_ctx(p)
    helper_adjust_srh(ctx, 8)
    helper_adjust_srh(ctx, -8)
    assert encode_packet(p) == original


def test_adjust_rejects_non_multiple_of_8():
    ctx = make_ctx(sr_packet([S2, F], 1))
    with pytest.raises(HelperError) as exc:
        helper_adjust_srh(ctx, 4)
    assert exc.value.code == "bad_delta"


def test_adjust_rejects_shrink_underflow():
    ctx = make_ctx(sr_packet([S2, F], 1))
    with pytest.raises(HelperError):
        helper_adjust_srh(ctx, -8)


def test_adjust_grows_to_hdr_ext_len_255_exactly():
    p = sr_packet([S2, F], 1)
    p.outer_srh.tlv_bytes = b"\x00" * 2000  # Pad1 records: hdr_ext_len 254
    assert p.outer_srh.hdr_ext_len == 254
    helper_adjust_srh(make_ctx(p), 8)
    assert p.outer_srh.hdr_ext_len == 255


def test_adjust_rejects_hdr_ext_len_overflow():
    p = sr_packet([S2, F], 1)
    # eight 251-octet PadN records: 2008 TLV octets, hdr_ext_len 255 exactly
    p.outer_srh.tlv_bytes = (b"\x04\xf9" + b"\x00" * 249) * 8
    assert p.outer_srh.hdr_ext_len == 255
    ctx = make_ctx(p)
    with pytest.raises(HelperError) as exc:
        helper_adjust_srh(ctx, 8)
    assert exc.value.code == "size_overflow"


# ---------------------------------------------------------------------------
# helper_action.

def test_action_end_x_sets_pending():
    p = sr_packet([S2, SID], 1)
    ctx = make_ctx(p)
    helper_action(ctx, EndX(*NH_R3))
    assert ctx.redirect == Forward(NH_R3[1], NH_R3[0])
    assert ctx.redirect is not None


def test_action_second_call_rejected():
    p = sr_packet([S2, SID], 1)
    ctx = make_ctx(p)
    helper_action(ctx, EndX(*NH_R3))
    with pytest.raises(HelperError) as exc:
        helper_action(ctx, EndX(*NH_R3))
    assert exc.value.code == "action_already_taken"


def test_action_end_dt6_decapsulates_into_context():
    inner = make_udp_packet(S1, S2, b"inner")
    p = copy_packet(inner)
    from srv6sim.behaviors import encapsulate

    encapsulate(p, SegmentRoutingHeader(segments=[SID], segments_left=0), pton("2001:db8::1"))
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])
    ctx = make_ctx(p, node)
    helper_action(ctx, EndDT6(0))
    assert len(p.headers) == 1
    assert p.outer_header.dst == S2
    assert ctx.redirect == Forward(NH_R3[1], NH_R3[0])


def test_action_wrong_hook():
    ctx = make_ctx(sr_packet([S2, SID], 1), hook=Hook.TRANSIT)
    with pytest.raises(HelperError) as exc:
        helper_action(ctx, EndX(*NH_R3))
    assert exc.value.code == "wrong_hook"


def test_action_end_t_resolves_eagerly():
    node = router([FibEntry(pton("2001:db8:2::"), 64, [(pton("2001:db8::aa"), "lx")], table_id=7)])
    p = sr_packet([S2, SID], 1)
    p.outer_header.dst = S2
    ctx = make_ctx(p, node)
    helper_action(ctx, EndT(7))
    assert ctx.redirect == Forward("lx", pton("2001:db8::aa"))


def test_action_end_b6_leaves_the_pushed_srh_unmarked():
    # the pushed SRH was validated when the descriptor was built
    p = sr_packet([S2, SID], 1)
    ctx = make_ctx(p)
    helper_action(ctx, EndB6(SegmentRoutingHeader(segments=[F], segments_left=0)))
    assert len(p.headers[0][1]) == 2
    assert ctx.srh_dirty is None


def test_action_end_t_into_a_table_without_a_route_raises_no_route():
    node = router()  # a default route in table 0 only
    p = sr_packet([S2, SID], 1)
    ctx = make_ctx(p, node)
    with pytest.raises(HelperError) as exc:
        helper_action(ctx, EndT(7))
    assert exc.value.code == "no_route"
    assert ctx.redirect is None


def test_action_end_dt6_before_the_last_segment_raises_not_last_segment():
    p = sr_packet([S2, SID], 1)
    before = encode_packet(p)
    ctx = make_ctx(p)
    with pytest.raises(HelperError) as exc:
        helper_action(ctx, EndDT6(0))
    assert exc.value.code == "not_last_segment"
    assert ctx.redirect is None
    assert encode_packet(p) == before


@pytest.mark.parametrize(
    "action",
    [
        End(),
        EndProgram("noop"),
        TransitInsert(SegmentRoutingHeader(segments=[F], segments_left=0)),
    ],
)
def test_action_rejects_descriptors_without_helper_action(action):
    p = sr_packet([S2, SID], 1)
    before = encode_packet(p)
    ctx = make_ctx(p)
    with pytest.raises(HelperError) as exc:
        helper_action(ctx, action)
    assert exc.value.code == "bad_action"
    assert ctx.redirect is None
    assert encode_packet(p) == before


# ---------------------------------------------------------------------------
# helper_push_encap.

def test_push_encap_encapsulates_plain_traffic():
    p = make_udp_packet(S1, S2, b"x")
    node = router()
    ctx = make_ctx(p, node, hook=Hook.TRANSIT)
    srh = SegmentRoutingHeader(segments=[S2, F], segments_left=1)
    helper_push_encap(ctx, "encaps", srh, pton("2001:db8::1"))
    assert len(p.headers) == 2
    assert p.outer_header.dst == F
    # the push validated its own SRH; finalize does not check it again
    assert ctx.srh_dirty is None


def test_push_encap_endpoint_hook_rejected():
    ctx = make_ctx(make_udp_packet(S1, S2, b"x"), hook=Hook.ENDPOINT)
    with pytest.raises(HelperError) as exc:
        helper_push_encap(ctx, "insert", SegmentRoutingHeader(segments=[F], segments_left=0))
    assert exc.value.code == "wrong_hook"


def test_push_encap_insert_on_sr_packet_rejected():
    p = sr_packet([S2, F], 1)
    ctx = make_ctx(p, hook=Hook.TRANSIT)
    with pytest.raises(HelperError) as exc:
        helper_push_encap(ctx, "insert", SegmentRoutingHeader(segments=[F], segments_left=0))
    assert exc.value.code == "invariant_violation"


@pytest.mark.parametrize("n, pushes", [(126, True), (127, False)])
def test_push_encap_insert_needs_room_for_the_destination(n, pushes):
    # the insert appends the original destination: 2 * (127 + 1) > 255
    p = make_udp_packet(S1, S2, b"x")
    before = encode_packet(p)
    ctx = make_ctx(p, hook=Hook.TRANSIT)
    srh = SegmentRoutingHeader(segments=[F] * n, segments_left=n - 1)
    if pushes:
        helper_push_encap(ctx, "insert", srh)
        assert p.outer_srh.segments == [S2, *srh.segments]
        return
    with pytest.raises(HelperError) as exc:
        helper_push_encap(ctx, "insert", srh)
    assert (exc.value.code, str(exc.value)) == (
        "invariant_violation", "invariant_violation: SizeOverflow: hdr_ext_len > 255"
    )
    assert encode_packet(p) == before


def test_push_encap_unknown_mode_rejected():
    p = make_udp_packet(S1, S2, b"x")
    before = copy_packet(p)
    ctx = make_ctx(p, hook=Hook.TRANSIT)
    with pytest.raises(HelperError) as exc:
        helper_push_encap(ctx, "inline", SegmentRoutingHeader(segments=[F], segments_left=0))
    assert (exc.value.code, str(exc.value)) == ("bad_mode", "bad_mode: inline")
    assert p == before


# ---------------------------------------------------------------------------
# Clock, ECMP helper, maps, events.

def test_timestamp_returns_simulated_clock():
    ctx = make_ctx(make_udp_packet(S1, S2, b"x"), now=1_500_000)
    assert helper_timestamp(ctx) == 1_500_000


def test_ecmp_helper_lists_branch_nexthops():
    node = Node("A", [pton("2001:db8:aa::1")])
    node.fib_insert(
        FibEntry(pton("2001:db8:2::"), 64, [(pton("2001:db8:bb::1"), "lab"), (pton("2001:db8:cc::1"), "lac")])
    )
    ctx = make_ctx(make_udp_packet(S1, S2, b"x"), node)
    nexthops = helper_ecmp_nexthops(ctx, S2)
    assert [n for n, _ in nexthops] == [pton("2001:db8:bb::1"), pton("2001:db8:cc::1")]


def test_ecmp_helper_host_route_singleton():
    node = router([FibEntry(S2, 128, [NH_R3])])
    ctx = make_ctx(make_udp_packet(S1, S2, b"x"), node)
    assert helper_ecmp_nexthops(ctx, S2) == [NH_R3]


def test_ecmp_helper_no_route():
    node = Node("A", [pton("2001:db8:aa::1")])
    ctx = make_ctx(make_udp_packet(S1, S2, b"x"), node)
    with pytest.raises(HelperError) as exc:
        helper_ecmp_nexthops(ctx, S2)
    assert exc.value.code == "no_route"


def test_map_put_get_roundtrip_and_absent():
    node = router()
    node.maps["m"] = (4, 8, {})
    ctx = make_ctx(make_udp_packet(S1, S2, b"x"), node)
    assert map_get(ctx, "m", b"\x00" * 4) is None
    map_put(ctx, "m", b"\x00" * 4, b"\x01" * 8)
    assert map_get(ctx, "m", b"\x00" * 4) == b"\x01" * 8


def test_map_state_persists_across_invocations():
    node = router([FibEntry(b"\x00" * 16, 0, [NH_R3])])

    def counter_program(ctx):
        raw = map_get(ctx, "count", b"\x00") or b"\x00"
        map_put(ctx, "count", b"\x00", bytes((raw[0] + 1,)))
        return Outcome.OK

    counter_program.maps = {"count": (1, 1)}
    node.add_program("count", counter_program)
    from srv6sim.behaviors import EndProgram

    node.add_sid(SID, EndProgram("count"))
    for _ in range(2):
        node.process_ingress(sr_packet([S2, SID], 1), 0)
    assert map_get(node, "count", b"\x00") == b"\x02"


def counting_program(value_size=1):
    def run(ctx):
        raw = map_get(ctx, "count", b"\x00") or bytes(value_size)
        count = int.from_bytes(raw, "big") + 1
        map_put(ctx, "count", b"\x00", count.to_bytes(value_size, "big"))
        return Outcome.OK

    run.maps = {"count": (1, value_size)}
    return run


def test_programs_declaring_one_map_share_it():
    node = router()
    first, second = counting_program(), counting_program()
    node.add_program("first", first)
    node.add_program("second", second)
    for program in (first, second, second):
        run_transit_program(node.transit_ctx, program, make_udp_packet(S1, S2, b"x"), 0)
    assert map_get(node, "count", b"\x00") == b"\x03"


def test_program_declaring_other_widths_fails_to_load():
    node = router()
    node.add_program("first", counting_program(1))
    with pytest.raises(ValueError, match="'count'"):
        node.add_program("second", counting_program(2))
    assert "second" not in node.programs
    assert map_get(node, "count", b"\x00") is None


def test_map_width_mismatch_and_unknown():
    node = router()
    node.maps["m"] = (4, 8, {})
    ctx = make_ctx(make_udp_packet(S1, S2, b"x"), node)
    faults = [
        (map_put, ("m", bytes(3), bytes(8)), "width_mismatch"),  # key
        (map_put, ("m", bytes(4), bytes(7)), "width_mismatch"),  # value
        (map_get, ("m", bytes(5)), "width_mismatch"),
        (map_get, ("nope", bytes(4)), "unknown_map"),
        (map_put, ("nope", bytes(4), bytes(8)), "unknown_map"),
    ]
    for helper, args, code in faults:
        with pytest.raises(HelperError) as exc:
            helper(ctx, *args)
        assert exc.value.code == code
    assert node.maps == {"m": (4, 8, {})}


def test_emit_event_payload_cap():
    ctx = make_ctx(make_udp_packet(S1, S2, b"x"))
    with pytest.raises(HelperError) as exc:
        emit_event(ctx, b"\x00" * 300)
    assert exc.value.code == "payload_too_large"
    emit_event(ctx, b"\x00" * 256)
    assert len(ctx.dataplane.events) == 1


def test_event_queue_full_loses_the_new_event_and_counts_it():
    """A perf buffer in non-overwrite mode: the queued events survive, the
    new one is lost and counted, and emit_event returns False instead of
    raising, as bpf_perf_event_output returns -ENOSPC."""
    ctx = make_ctx(make_udp_packet(S1, S2, b"x"))
    q = ctx.dataplane.events
    assert all(emit_event(ctx, struct.pack(">I", i)) for i in range(4096))
    assert emit_event(ctx, struct.pack(">I", 4096)) is False
    assert q.dropped == 1 and q.emitted == 4097
    events = q.drain()
    assert [struct.unpack(">I", e)[0] for e in events] == list(range(4096))
    assert len(q) == 0
    assert q.emit(b"after") is True and q.drain() == [b"after"]


# ---------------------------------------------------------------------------
# finalize and program runners.

def grow_and_fill(ctx):
    helper_adjust_srh(ctx, 8)
    off = 8 + 16 * len(ctx.packet.outer_srh.segments)
    helper_store_bytes(ctx, off, bytes((9, 6)) + b"\xcd" * 6)
    return Outcome.OK


def grow_and_leave_zeros(ctx):
    helper_adjust_srh(ctx, 8)
    return Outcome.OK


def test_finalize_accepts_grown_and_filled_tlv():
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])
    node.add_program("grow", grow_and_fill)
    from srv6sim.behaviors import EndProgram

    node.add_sid(SID, EndProgram("grow"))
    p = sr_packet([S2, SID], 1)
    assert node.process_ingress(p, 0) == Forward("l3", NH_R3[0])
    assert decode_packet(encode_packet(p)).outer_srh.tlv_bytes[0] == 9


def test_finalize_drops_zero_filled_growth():
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])
    node.add_program("lazy", grow_and_leave_zeros)
    from srv6sim.behaviors import EndProgram

    node.add_sid(SID, EndProgram("lazy"))
    decision = node.process_ingress(sr_packet([S2, SID], 1), 0)
    assert isinstance(decision, Drop)
    assert decision.reason is DropReason.INVALID_SRH_AFTER_PROGRAM


def test_finalize_redirect_without_destination():
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])
    node.add_program("redirect", lambda ctx: Outcome.REDIRECT)
    from srv6sim.behaviors import EndProgram

    node.add_sid(SID, EndProgram("redirect"))
    decision = node.process_ingress(sr_packet([S2, SID], 1), 0)
    assert decision == Drop(DropReason.REDIRECT_WITHOUT_DESTINATION)


def test_program_drop_outcome():
    node = router()
    node.add_program("drop", lambda ctx: Outcome.DROP)
    from srv6sim.behaviors import EndProgram

    node.add_sid(SID, EndProgram("drop"))
    decision = node.process_ingress(sr_packet([S2, SID], 1), 0)
    assert decision == Drop(DropReason.PROGRAM_DROP)


def test_redirect_after_end_x_action():
    node = router()

    def program(ctx):
        helper_action(ctx, EndX(*NH_R3))
        return Outcome.REDIRECT

    node.add_program("via_r3", program)
    from srv6sim.behaviors import EndProgram

    node.add_sid(SID, EndProgram("via_r3"))
    decision = node.process_ingress(sr_packet([S2, SID], 1), 0)
    assert decision == Forward("l3", NH_R3[0])


def test_ok_outcome_overrides_pending_destination():
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])

    def program(ctx):
        helper_action(ctx, EndX(pton("2001:db8::66"), "l6"))
        return Outcome.OK  # regular lookup must win

    node.add_program("p", program)
    from srv6sim.behaviors import EndProgram

    node.add_sid(SID, EndProgram("p"))
    decision = node.process_ingress(sr_packet([S2, SID], 1), 0)
    assert decision == Forward("l3", NH_R3[0])


def test_ok_outcome_after_end_t_action_looks_up_the_main_table():
    # as input_action_end_bpf: any outcome but REDIRECT ends in a lookup
    # of the main table, whatever table an action looked up
    table_7 = FibEntry(pton("2001:db8:2::"), 64, [(pton("2001:db8::aa"), "lx")], table_id=7)
    node = router([table_7, FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])

    def program(ctx):
        helper_action(ctx, EndT(7))
        return Outcome.OK

    node.add_program("p", program)
    node.add_sid(SID, EndProgram("p"))
    decision = node.process_ingress(sr_packet([S2, SID], 1), 0)
    assert decision == Forward("l3", NH_R3[0])


def test_endpoint_program_requires_segments():
    node = router()
    node.add_program("noop", lambda ctx: Outcome.OK)
    from srv6sim.behaviors import EndProgram

    node.add_sid(SID, EndProgram("noop"))
    p = sr_packet([SID], 0)
    assert node.process_ingress(p, 0) == Drop(DropReason.SEGMENTS_EXHAUSTED)


def test_sid_bound_to_an_unloaded_program_is_refused():
    """As Linux refuses an End.BPF route without its program, add_sid
    refuses one whose program the node has not loaded, and binds nothing."""
    node = router()
    with pytest.raises(ValueError, match="program 'x' is not loaded"):
        node.add_sid(SID, EndProgram("x"))
    assert SID not in node.sids and SID not in node.local_addrs
    assert node.process_ingress(sr_packet([S2, SID], 1), 0) == Forward("l9", pton("2001:db8::9"))


def test_transit_bound_to_an_unloaded_program_is_refused():
    node = router()
    dst = pton("2001:db8:7::")
    with pytest.raises(ValueError, match="program 'x' is not loaded"):
        node.add_transit(dst, 64, TransitProgram("x"))
    assert node.transits.lookup(dst) is None
    p = make_udp_packet(S1, dst, b"x")
    assert node.process_ingress(p, 0) == Forward("l9", pton("2001:db8::9"))
    assert len(p.headers) == 1


def test_endpoint_program_without_srh_drops_before_running():
    node = router()
    ran = []
    node.add_program("p", lambda ctx: ran.append(ctx) or Outcome.OK)
    from srv6sim.behaviors import EndProgram

    node.add_sid(SID, EndProgram("p"))
    cases = [
        (make_udp_packet(S1, SID, b"x"), DropReason.NO_SRH),
        (sr_packet([SID], 0), DropReason.SEGMENTS_EXHAUSTED),
    ]
    for p, reason in cases:
        decision = node.process_ingress(p, 0)
        assert decision == Drop(reason) and decision.detail == ""
    assert ran == []


def test_advance_happens_before_program_entry():
    node = router([FibEntry(b"\x00" * 16, 0, [NH_R3])])
    seen = {}

    def probe(ctx):
        srh = ctx.packet.outer_srh
        seen["sl"] = srh.segments_left
        seen["dst"] = ctx.packet.outer_header.dst
        seen["active"] = srh.segments[srh.segments_left]
        seen["clock"] = helper_timestamp(ctx)
        return Outcome.OK

    node.add_program("probe", probe)
    from srv6sim.behaviors import EndProgram

    node.add_sid(SID, EndProgram("probe"))
    node.process_ingress(sr_packet([S2, SID], 1), 4_200)
    assert seen["sl"] == 0
    assert seen["dst"] == seen["active"] == S2
    assert seen["clock"] == 4_200


def test_each_run_resets_the_node_context_of_its_hook():
    """Two End.BPF programs back to back each take their action on the
    node's endpoint context, reset for the run; a transit run gets the
    node's other context."""
    node = router([FibEntry(b"\x00" * 16, 0, [NH_R3])])
    dst = pton("2001:db8:7::1")
    seen = []

    def act(ctx):
        seen.append((ctx, ctx.hook, ctx.packet, ctx.now_ns))
        helper_action(ctx, EndX(*NH_R3))  # action_already_taken on a stale context
        return Outcome.REDIRECT

    def observe(ctx):
        seen.append((ctx, ctx.hook, ctx.packet, ctx.now_ns))
        return Outcome.OK

    node.add_program("first", act)
    node.add_program("second", lambda ctx: act(ctx))
    node.add_program("transit", observe)
    node.add_sid(SID, EndProgram("first"))
    node.add_sid(F, EndProgram("second"))
    node.add_transit(dst, 64, TransitProgram("transit"))
    p1, p2, p3 = sr_packet([S2, SID], 1), sr_packet([S2, F], 1), make_udp_packet(S1, dst, b"x")
    assert node.process_ingress(p1, 100) == Forward(NH_R3[1], NH_R3[0])
    assert node.process_ingress(p2, 200) == Forward(NH_R3[1], NH_R3[0])
    node.process_ingress(p3, 300)
    (c1, h1, q1, t1), (c2, h2, q2, t2), (c3, h3, q3, t3) = seen
    assert q1 is p1 and q2 is p2 and q3 is p3 and (t1, t2, t3) == (100, 200, 300)
    assert c1 is c2 and h1 is h2 is Hook.ENDPOINT
    assert c3 is not c1 and h3 is Hook.TRANSIT


def test_run_state_stays_in_its_run():
    """The decision an action stored and the SRH a helper wrote belong to
    one run: the next run on the node's endpoint context starts without
    them."""
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])

    def via_r3(ctx):
        helper_action(ctx, EndX(*NH_R3))
        return Outcome.REDIRECT

    def bump_tag(ctx):
        helper_store_bytes(ctx, 6, struct.pack(">H", ctx.packet.outer_srh.tag + 1))
        return Outcome.OK

    node.add_program("via_r3", via_r3)
    node.add_program("redirect", lambda ctx: Outcome.REDIRECT)
    node.add_program("lazy", grow_and_leave_zeros)
    node.add_program("tag", bump_tag)
    sids = {name: pton(f"fd00:72::{i + 1:x}") for i, name in enumerate(node.programs)}
    for name, sid in sids.items():
        node.add_sid(sid, EndProgram(name))

    def run(name):
        return node.process_ingress(sr_packet([S2, sids[name]], 1), 0)

    assert run("via_r3") == Forward(NH_R3[1], NH_R3[0])
    assert run("redirect") == Drop(DropReason.REDIRECT_WITHOUT_DESTINATION)
    assert run("lazy").reason is DropReason.INVALID_SRH_AFTER_PROGRAM
    assert run("tag") == Forward(NH_R3[1], NH_R3[0])


def test_uncaught_helper_error_drops_packet():
    node = router()

    def bad(ctx):
        helper_store_bytes(ctx, 0, b"\x00")  # out of bounds, not caught
        return Outcome.OK

    node.add_program("bad", bad)
    from srv6sim.behaviors import EndProgram

    node.add_sid(SID, EndProgram("bad"))
    decision = node.process_ingress(sr_packet([S2, SID], 1), 0)
    assert isinstance(decision, Drop) and decision.reason is DropReason.PROGRAM_ERROR


def test_transit_program_runner_no_advance():
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])

    def encap(ctx):
        helper_push_encap(
            ctx, "encaps",
            SegmentRoutingHeader(segments=[S2], segments_left=0),
            pton("2001:db8::1"),
        )
        return Outcome.OK

    p = make_udp_packet(S1, S2, b"x")
    decision = run_transit_program(node.transit_ctx, encap, p, 0)
    assert decision == Forward("l3", NH_R3[0])
    assert len(p.headers) == 2


# ---------------------------------------------------------------------------
# The SRH write helpers are End.BPF-only, and a marked SRH is validated
# once: by the next action, else by finalize.

PADN_8 = bytes((4, 6)) + b"\x00" * 6  # one PadN TLV filling 8 octets


def padded_sr_packet(segments, sl):
    p = sr_packet(segments, sl)
    p.outer_srh.tlv_bytes = PADN_8
    p.outer_header.payload_length += len(PADN_8)
    return p


def zero_the_padn(ctx):
    # eight zero octets are a run of Pad1, which validate_srh rejects
    helper_store_bytes(ctx, 8 + 16 * len(ctx.packet.outer_srh.segments), b"\x00\x00")


def encaps_to_s2(ctx):
    srh = SegmentRoutingHeader(segments=[S2], segments_left=0)
    helper_push_encap(ctx, "encaps", srh, pton("2001:db8::1"))


@pytest.mark.parametrize(
    "write",
    [
        lambda ctx: helper_store_bytes(ctx, 6, b"\x00\x01"),  # the tag
        zero_the_padn,
        lambda ctx: helper_adjust_srh(ctx, 8),
        lambda ctx: helper_adjust_srh(ctx, -8),
    ],
    ids=["tag", "tlv", "grow", "shrink"],
)
def test_srh_writes_are_refused_at_the_transit_hook(write):
    p = padded_sr_packet([S2, F], 1)
    before = encode_packet(p)
    ctx = make_ctx(p, hook=Hook.TRANSIT)
    with pytest.raises(HelperError) as exc:
        write(ctx)
    assert exc.value.code == "wrong_hook"
    assert encode_packet(p) == before
    assert ctx.srh_dirty is None


@pytest.mark.parametrize("then_encaps", [False, True])
def test_transit_store_then_encaps_drops_the_invalid_srh(then_encaps):
    """A transit program cannot make an SRH invalid: its store raises
    wrong_hook before it changes a byte, so no encaps follows and the
    packet drops as a program error, as it came."""
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])

    def program(ctx):
        zero_the_padn(ctx)
        if then_encaps:
            encaps_to_s2(ctx)
        return Outcome.OK

    p = padded_sr_packet([S2, F], 1)
    before = encode_packet(p)
    decision = run_transit_program(node.transit_ctx, program, p, 0)
    assert decision == Drop(DropReason.PROGRAM_ERROR)
    assert decision.detail.startswith("wrong_hook")
    assert encode_packet(p) == before


@pytest.mark.parametrize("hook", list(Hook), ids=lambda h: h.value)
def test_a_program_raising_invariant_violation_drops_with_invariant(hook):
    """run_program turns an InvariantViolation its program raises into the
    run's INVARIANT drop at both hooks: here the program encodes a packet
    whose PadN runs past the TLV region, as its own TLV write left it at
    End.BPF and as it arrived at the transit hook, where SRH writes are
    refused."""
    node = router()

    def program(ctx):
        if ctx.hook is Hook.ENDPOINT:  # the PadN's length octet
            helper_store_bytes(ctx, 9 + 16 * len(ctx.packet.outer_srh.segments), b"\x10")
        encode_packet(ctx.packet)
        return Outcome.OK

    node.add_program("prog", program)
    if hook is Hook.ENDPOINT:
        node.add_sid(SID, EndProgram("prog"))
        p = padded_sr_packet([S2, SID], 1)
    else:
        node.add_transit(F, 128, TransitProgram("prog"))
        p = padded_sr_packet([S2, F], 1)
        p.outer_srh.tlv_bytes = bytes((4, 16)) + PADN_8[2:]
    decision = node.process_ingress(p, 0)
    assert decision == Drop(DropReason.INVARIANT)
    assert decision.detail.startswith("SRH 0.0: TlvWalkOverrun")


def end_bpf_router(program):
    """A router whose End.BPF SID runs program."""
    node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])
    node.add_program("prog", program)
    node.add_sid(SID, EndProgram("prog"))
    return node


B6_ACTIONS = [
    EndB6(SegmentRoutingHeader(segments=[S2], segments_left=0)),
    EndB6Encaps(SegmentRoutingHeader(segments=[S2], segments_left=0), pton("2001:db8::1")),
]


@pytest.mark.parametrize("action", B6_ACTIONS, ids=["end_b6", "end_b6_encaps"])
def test_b6_action_pushes_an_srh_finalize_does_not_revalidate(action, monkeypatch):
    validated = []
    validate = programs.validate_srh
    monkeypatch.setattr(
        programs, "validate_srh", lambda srh: validated.append(srh) or validate(srh)
    )
    def program(ctx):
        helper_action(ctx, action)
        return Outcome.OK

    p = sr_packet([S2, SID], 1)
    assert end_bpf_router(program).process_ingress(p, 0) == Forward("l3", NH_R3[0])
    assert validated == []


@pytest.mark.parametrize("action", [
    EndB6(SegmentRoutingHeader(segments=[F], segments_left=0)),
    EndB6Encaps(SegmentRoutingHeader(segments=[F], segments_left=0), pton("2001:db8::1")),
], ids=["end_b6", "end_b6_encaps"])
def test_redirect_after_a_b6_action_forwards_the_pushed_segment_by_the_main_table(action):
    # as bpf_push_seg6_encap ends in seg6_lookup_nexthop(skb, NULL, 0)
    def program(ctx):
        helper_action(ctx, action)
        return Outcome.REDIRECT

    node = end_bpf_router(program)
    node.fib_insert(FibEntry(F, 128, [(pton("2001:db8::f"), "lf")]))
    p = sr_packet([S2, SID], 1)
    assert node.process_ingress(p, 0) == Forward("lf", pton("2001:db8::f"))
    assert p.outer_header.dst == F


def test_b6_action_to_a_segment_without_a_route_raises_no_route():
    node = Node("R", [pton("2001:db8::1")])  # no default route
    ctx = make_ctx(sr_packet([S2, SID], 1), node)
    with pytest.raises(HelperError) as exc:
        helper_action(ctx, EndB6(SegmentRoutingHeader(segments=[F], segments_left=0)))
    assert exc.value.code == "no_route"
    assert ctx.redirect is None


def _assert_refused_action_on_an_invalid_srh(action):
    """An End.BPF program makes its SRH invalid, then tries action, catches
    the helper error and returns OK."""
    codes = []

    def program(ctx):
        zero_the_padn(ctx)
        try:
            helper_action(ctx, action)
        except HelperError as exc:
            codes.append(exc.code)
        return Outcome.OK

    p = padded_sr_packet([S2, SID], 1)
    decision = end_bpf_router(program).process_ingress(p, 0)
    assert codes == ["invalid_srh"]
    assert [len(srhs) for _, srhs in p.headers] == [1]  # nothing pushed
    assert decision == Drop(DropReason.INVALID_SRH_AFTER_PROGRAM)


def test_endpoint_store_then_end_b6_drops_the_invalid_srh():
    _assert_refused_action_on_an_invalid_srh(B6_ACTIONS[0])


def test_endpoint_store_then_end_b6_encaps_drops_the_invalid_srh():
    _assert_refused_action_on_an_invalid_srh(B6_ACTIONS[1])


@pytest.mark.parametrize(
    "action", [EndX(*NH_R3), *B6_ACTIONS], ids=["end_x", "end_b6", "end_b6_encaps"]
)
def test_a_valid_marked_srh_is_validated_once_at_the_action(action, monkeypatch):
    validated, seen = [], []
    validate = programs.validate_srh
    monkeypatch.setattr(
        programs, "validate_srh", lambda srh: validated.append(srh) or validate(srh)
    )

    def program(ctx):
        helper_store_bytes(ctx, 8 + 16 * len(ctx.packet.outer_srh.segments), PADN_8)
        helper_action(ctx, action)
        seen.append(list(validated))
        return Outcome.OK

    p = padded_sr_packet([S2, SID], 1)
    srh = p.outer_srh
    assert end_bpf_router(program).process_ingress(p, 0) == Forward("l3", NH_R3[0])
    assert seen == [[srh]]
    assert validated == [srh]


# ---------------------------------------------------------------------------
# Only a helper write to the TLVs or the length marks the SRH for finalize,
# as only those clear seg6_bpf_srh_state.valid in Linux.

PAD1_RUN_8 = b"\x00" * 8  # a run of Pad1 octets, which validate_srh rejects


def bump_tag(ctx):
    helper_store_bytes(ctx, 6, struct.pack(">H", (ctx.packet.outer_srh.tag + 1) & 0xFFFF))
    return Outcome.OK


def _with_tlvs(p, tlvs):
    p.outer_srh.tlv_bytes = tlvs
    p.outer_header.payload_length += len(tlvs)
    return p


@pytest.mark.parametrize("hook", [Hook.ENDPOINT, Hook.TRANSIT])
@pytest.mark.parametrize("tlvs", [b"", PADN_8, PAD1_RUN_8], ids=["none", "padn", "pad1_run"])
def test_tag_write_decides_as_noop_on_the_received_srh(hook, tlvs):
    """At End.BPF, Tag++ and noop give one decision on the same received
    SRH, valid or not, and leave the same octets but the tag. A transit
    program cannot write the tag: the write raises wrong_hook and leaves
    the packet as it came."""
    if hook is Hook.TRANSIT:
        p = _with_tlvs(sr_packet([S2, F], 1), tlvs)
        before = encode_packet(p)
        node = router([FibEntry(pton("2001:db8:2::"), 64, [NH_R3])])
        decision = run_transit_program(node.transit_ctx, bump_tag, p, 0)
        assert decision == Drop(DropReason.PROGRAM_ERROR)
        assert decision.detail.startswith("wrong_hook")
        assert encode_packet(p) == before
        return
    results = []
    for program in (programs.make_program("noop"), bump_tag):
        p = _with_tlvs(sr_packet([S2, SID], 1), tlvs)
        decision = end_bpf_router(program).process_ingress(p, 0)
        raw = encode_packet(p)
        results.append((decision, raw[:46] + raw[48:], p.outer_srh.tag))
    (noop_decision, noop_rest, noop_tag), (tag_decision, tag_rest, tag_tag) = results
    assert type(noop_decision) is Forward
    assert tag_decision == noop_decision
    assert tag_rest == noop_rest
    assert tag_tag == noop_tag + 1


def grow_then_bump_tag(ctx):
    helper_adjust_srh(ctx, 8)
    return bump_tag(ctx)


@pytest.mark.parametrize(
    "program, tlvs",
    [
        (grow_and_leave_zeros, b""),  # Add-TLV without its fill
        (grow_then_bump_tag, b""),  # a tag write does not clear the mark
        (lambda ctx: zero_the_padn(ctx) or Outcome.OK, PADN_8),
    ],
    ids=["adjust", "adjust_then_tag", "tlv_write"],
)
def test_tlv_and_length_writes_still_mark_the_srh(program, tlvs):
    p = _with_tlvs(sr_packet([S2, SID], 1), tlvs)
    ctx = make_ctx(p)
    assert program(ctx) is Outcome.OK
    assert ctx.srh_dirty is p.outer_srh
    p = _with_tlvs(sr_packet([S2, SID], 1), tlvs)
    decision = end_bpf_router(program).process_ingress(p, 0)
    assert decision == Drop(DropReason.INVALID_SRH_AFTER_PROGRAM)


# ---------------------------------------------------------------------------
# Noop equivalence (full sweep lives in the acceptance suite).

def test_noop_program_equals_native_end():
    rng = random.Random(0xE0E0)
    native, programmed = end_vs_noop_nodes()
    for _ in range(100):
        p1 = random_sr_packet(rng, SID_END)
        p2 = copy_packet(p1)
        assert native.process_ingress(p1, 9) == programmed.process_ingress(p2, 9)
        assert encode_packet(p1) == encode_packet(p2)


def test_flow_key_covers_ports_label_and_addresses():
    plain = make_udp_packet(S1, S2, b"x", src_port=1, dst_port=2)
    k1 = flow_key(plain)
    plain.transport.src_port = 3
    assert flow_key(plain) != k1
    plain.transport.src_port = 1
    plain.headers[0][0].flow_label = 9
    assert flow_key(plain) != k1


def test_flow_key_ignores_inner_ports_of_encapsulated_packets():
    from srv6sim.behaviors import encapsulate

    p = make_udp_packet(S1, S2, b"x", src_port=1, dst_port=2)
    encapsulate(p, SegmentRoutingHeader(segments=[F], segments_left=0), pton("2001:db8::1"))
    k = flow_key(p)
    p.transport.src_port = 9
    assert flow_key(p) == k
