import hashlib
import itertools
import json
import struct
from collections import Counter

import pytest

from srv6sim import scenario, usecases
from srv6sim.behaviors import Drop, DropReason, EndProgram, Forward, TransitProgram, end
from srv6sim.dataplane import Node
from srv6sim.fib import FibEntry
from srv6sim.packet import (
    PROTO_ICMPV6,
    PROTO_ROUTING,
    Ipv6Header,
    Packet,
    SegmentRoutingHeader,
    Udp,
    encode_packet,
    encode_tlvs,
    make_srh_udp_packet,
    make_udp_packet,
    pton,
)
from srv6sim.programs import (
    EVENT_QUEUE_CAPACITY,
    EventQueue,
    HelperError,
    make_program,
    map_get,
    run_transit_program,
)
from srv6sim.scenario import (
    apply_overrides,
    build_simulation,
    fixture_path,
    load_scenario,
    parse_scenario,
)
from srv6sim.sim import Daemon, Simulation, TraceRecord, stream_rng, write_trace
from util import copy_packet, owd_collector_drain, owd_scenario_raw
from srv6sim.usecases import (
    CompensatorState,
    DelayCollector,
    DelayRecord,
    OampResponder,
    OwdCollector,
    ProbeLink,
    TwdProber,
    compensator_update,
    controller_tlv,
    decode_oamp_event,
    dm_tlv,
    encode_dm_event,
    iwrr_schedule,
    multipath_traceroute,
    read_controller_tlv,
    read_dm_tlv,
    reduce_weights,
    wrr_counts,
)

S1 = pton("2001:db8:1::1")
S2 = pton("2001:db8:2::1")
CTRL = (S1, 9000)
DM_SID = pton("fd00:73::d")


def dm_transit_node(ratio=100, route_id=7):
    node = Node("R", [pton("2001:db8::1")])
    node.fib_insert(FibEntry(pton("2001:db8:2::"), 64, [(S2, "l1")]))
    node.fib_insert(FibEntry(pton("fd00:73::"), 32, [(S2, "l1")]))
    prog = make_program(
        "dm_transit",
        {
            "ratio": ratio,
            "path_srh": SegmentRoutingHeader(segments=[S2, DM_SID], segments_left=1),
            "controller_addr": CTRL[0],
            "controller_port": CTRL[1],
            "route_id": route_id,
            "outer_src": node.addresses[0],
        },
    )
    node.add_program("prog", prog)
    return node, prog


# ---------------------------------------------------------------------------
# Transit sampling.

def test_dm_transit_samples_every_nth_packet():
    node, prog = dm_transit_node(ratio=100)
    base = make_udp_packet(S1, S2, b"x" * 64)
    probes = 0
    for i in range(1000):
        p = copy_packet(base)
        run_transit_program(node.transit_ctx, prog, p, i * 1000)
        if len(p.headers) == 2:
            probes += 1
    assert probes == 10


def test_dm_transit_ratio_one_samples_everything():
    node, prog = dm_transit_node(ratio=1)
    base = make_udp_packet(S1, S2, b"x" * 64)
    for i in range(20):
        p = copy_packet(base)
        run_transit_program(node.transit_ctx, prog, p, i)
        assert len(p.headers) == 2


def test_dm_transit_rejects_a_ratio_below_one():
    with pytest.raises(ValueError, match="probing ratio must be >= 1"):
        make_program("dm_transit", {
            "ratio": 0, "controller_addr": CTRL[0],
            "path_srh": SegmentRoutingHeader(segments=[S2, DM_SID], segments_left=1),
        })


def test_dm_transit_probe_carries_both_tlvs():
    node, prog = dm_transit_node(ratio=1)
    p = make_udp_packet(S1, S2, b"x" * 64)
    run_transit_program(node.transit_ctx, prog, p, 1_234_567)
    srh = p.outer_srh
    assert read_dm_tlv(srh) == 1_234_567
    assert read_controller_tlv(srh) == CTRL
    assert srh.segments_left == 1
    assert p.outer_header.dst == DM_SID


def recorded_pushes(monkeypatch):
    """Wrap dm_transit's helper_push_encap: the list it returns gets, per
    call, its SRH argument and the code of the HelperError it raised."""
    calls = []
    push = usecases.helper_push_encap

    def recorded(ctx, mode, srh, outer_src=None):
        try:
            push(ctx, mode, srh, outer_src)
        except HelperError as exc:
            calls.append((srh, exc.code))
            raise
        calls.append((srh, None))

    monkeypatch.setattr(usecases, "helper_push_encap", recorded)
    return calls


def test_dm_transit_copies_its_path_srh_once_per_probe(monkeypatch):
    node, prog = dm_transit_node(ratio=1)
    calls = recorded_pushes(monkeypatch)
    probes = []
    for i in range(3):
        p = make_udp_packet(S1, S2, b"x" * 64)
        run_transit_program(node.transit_ctx, prog, p, 1000 + i)
        probes.append(p)
    template = calls[0][0]
    assert [code for _, code in calls] == [None] * 3
    assert all(srh is template for srh, _ in calls)  # each probe stamps one template
    pushed = [p.outer_srh for p in probes]
    assert len({id(srh) for srh in pushed}) == 3
    for i, srh in enumerate(pushed):
        assert srh is not template and srh.segments is not template.segments
        assert read_dm_tlv(srh) == 1000 + i
    assert template.segments == [S2, DM_SID] and template.segments_left == 1


def test_dm_transit_on_the_endpoint_hook_leaves_the_packet_unprobed(monkeypatch):
    # helper_push_encap is transit-only: the failed push is swallowed
    node, prog = dm_transit_node(ratio=1)
    node.add_sid(DM_SID, EndProgram("prog"))
    calls = recorded_pushes(monkeypatch)
    p = make_srh_udp_packet(S1, [S2, DM_SID], b"", b"x" * 64, 49152, 33434)
    advanced = copy_packet(p)
    end(advanced)
    advanced.headers[0][0].hop_limit -= 1
    assert node.process_ingress(p, 5) == Forward("l1", S2)  # OK: the main table
    assert [code for _, code in calls] == ["wrong_hook"]
    assert encode_packet(p) == encode_packet(advanced)


def test_dm_transit_leaves_non_sampled_packets_byte_identical():
    node, prog = dm_transit_node(ratio=100)
    base = make_udp_packet(S1, S2, b"x" * 64)
    run_transit_program(node.transit_ctx, prog, copy_packet(base), 0)  # consume the sampled slot
    for i in range(1, 100):
        p = copy_packet(base)
        before = encode_packet(p)
        run_transit_program(node.transit_ctx, prog, p, i)
        assert encode_packet(p) == before


# ---------------------------------------------------------------------------
# End.DM endpoint program.

def end_dm_node(path_id=0):
    node = Node("M", [pton("2001:db8:b::1")])
    node.fib_insert(FibEntry(pton("2001:db8:2::"), 64, [(S2, "lm")]))
    node.fib_insert(FibEntry(pton("2001:db8:a::a"), 128, [(pton("2001:db8:a::1"), "la")]))
    node.add_program("dm", make_program("end_dm", {"path_id": path_id, "table": 0}))
    node.add_sid(DM_SID, EndProgram("dm"))
    return node


def owd_probe(tx_ns: int) -> Packet:
    inner = make_udp_packet(S1, S2, b"data")
    srh = SegmentRoutingHeader(
        segments=[S2, DM_SID], segments_left=1, next_header=41,
        tlv_bytes=encode_tlvs(dm_tlv(tx_ns), controller_tlv(*CTRL)),
    )
    hdr = Ipv6Header(src=pton("2001:db8::1"), dst=DM_SID, next_header=PROTO_ROUTING)
    return Packet(headers=[(hdr, [srh]), *inner.headers], transport=inner.transport)


def test_end_dm_owd_mode_emits_and_forwards_inner():
    node = end_dm_node(path_id=5)
    p = owd_probe(tx_ns=1_000_000)
    decision = node.process_ingress(p, 16_000_000)
    assert decision == Forward("lm", S2)
    assert len(p.headers) == 1 and p.outer_header.dst == S2
    records, bad = owd_collector_drain(node.events)
    assert bad == 0 and len(records) == 1
    rec = records[0]
    assert rec.path_id == 5
    assert rec.tx_ts_ns == 1_000_000
    assert rec.rx_ts_ns == 16_000_000
    assert rec.owd_ns == 15_000_000
    assert rec.controller == CTRL


def test_end_dm_forwards_when_its_event_queue_is_full():
    node = end_dm_node()
    for _ in range(EVENT_QUEUE_CAPACITY):
        node.events.emit(b"old")
    assert node.process_ingress(owd_probe(tx_ns=1), 2) == Forward("lm", S2)
    assert node.events.dropped == 1 and len(node.events) == EVENT_QUEUE_CAPACITY


def test_end_dm_twd_mode_forwards_probe_intact():
    node = end_dm_node()
    ret = pton("2001:db8:a::a")
    tlvs = encode_tlvs(dm_tlv(777), controller_tlv(*CTRL))
    srh = SegmentRoutingHeader(
        segments=[pton("2001:db8:a::1"), ret, DM_SID], segments_left=2,
        next_header=17, tlv_bytes=tlvs,
    )
    hdr = Ipv6Header(src=pton("2001:db8:a::1"), dst=DM_SID, next_header=PROTO_ROUTING)
    p = Packet(headers=[(hdr, [srh])], transport=Udp(9100, 9100, b"\x00" * 8))
    decision = node.process_ingress(p, 99)
    assert decision == Forward("la", pton("2001:db8:a::1"))
    assert p.outer_srh.segments_left == 1
    assert p.outer_header.dst == ret
    assert read_dm_tlv(p.outer_srh) == 777  # TLV untouched
    assert len(node.events) == 0  # no event in two-way mode


def test_end_dm_drops_probe_without_dm_tlv():
    node = end_dm_node()
    p = owd_probe(1)
    p.outer_srh.tlv_bytes = encode_tlvs(controller_tlv(*CTRL))
    decision = node.process_ingress(p, 2)
    assert decision == Drop(DropReason.PROGRAM_DROP)
    assert len(node.events) == 0


def test_end_dm_drops_probe_without_controller_tlv():
    node = end_dm_node()
    p = owd_probe(1)
    p.outer_srh.tlv_bytes = encode_tlvs(dm_tlv(1))
    assert node.process_ingress(p, 2) == Drop(DropReason.PROGRAM_DROP)


def test_end_dm_as_a_transit_program_drops_a_packet_without_an_srh():
    node = end_dm_node()
    node.add_transit(pton("2001:db8:2::"), 64, TransitProgram("dm"))
    assert node.process_ingress(make_udp_packet(S1, S2, b"x"), 2) == Drop(DropReason.PROGRAM_DROP)
    assert len(node.events) == 0


def test_end_dm_drops_a_last_segment_probe_with_no_inner_packet():
    """End.DT6 finds no inner header to decapsulate to, so the probe drops;
    its delay event was emitted before, as the program reads both
    timestamps first."""
    node = end_dm_node(path_id=4)
    srh = SegmentRoutingHeader(
        segments=[S2, DM_SID], segments_left=1, next_header=17,
        tlv_bytes=encode_tlvs(dm_tlv(1), controller_tlv(*CTRL)),
    )
    hdr = Ipv6Header(src=pton("2001:db8::1"), dst=DM_SID, next_header=PROTO_ROUTING)
    p = Packet(headers=[(hdr, [srh])], transport=Udp(9100, 9100, b"\x00" * 8))
    assert node.process_ingress(p, 2) == Drop(DropReason.PROGRAM_DROP)
    assert owd_collector_drain(node.events) == ([DelayRecord(4, 1, 2, 1, CTRL)], 0)


# ---------------------------------------------------------------------------
# Collector.

def test_collector_drain_single_event():
    q = EventQueue()
    q.emit(encode_dm_event(1, 10, 25, CTRL))
    records, bad = owd_collector_drain(q)
    assert bad == 0
    assert records == [DelayRecord(1, 10, 25, 15, CTRL)]
    assert len(q) == 0


def test_collector_drain_counts_malformed():
    q = EventQueue()
    q.emit(b"short")
    q.emit(encode_dm_event(1, 5, 9, CTRL))
    records, bad = owd_collector_drain(q)
    assert bad == 1 and len(records) == 1


def test_owd_collector_counts_a_malformed_event_and_relays_the_rest():
    sim = Simulation()
    node = sim.add_node(Node("M", [pton("2001:db8:b::1")]))
    sim.add_node(Node("C", [CTRL[0]]))
    sim.add_link("l", "M", "C", 1_000_000_000, 1_000)
    node.fib_insert(FibEntry(CTRL[0], 128, [(CTRL[0], "l")]))
    controller = DelayCollector()
    sim.bind(CTRL[0], controller)
    collector = OwdCollector("owd", "M", interval_ns=1_000_000)
    sim.add_daemon(collector)
    node.events.emit(b"short")
    node.events.emit(encode_dm_event(1, 5, 9, CTRL))
    sim.run_until(10_000_000)
    assert collector.malformed == 1 and sim.stats.injected == 1
    assert controller.records == [DelayRecord(1, 5, 9, 4, CTRL)] and controller.malformed == 0


def test_delay_collector_ignores_a_non_udp_packet_and_counts_a_malformed_one():
    controller = DelayCollector()
    body = bytes(8)
    controller(Packet([(Ipv6Header(S2, S1, PROTO_ICMPV6, 64, 0, 0, len(body)), [])], body), 0)
    assert controller.malformed == 0
    controller(make_udp_packet(S2, S1, b"short"), 0)
    assert controller.malformed == 1 and controller.records == []


def owd_scenario(ratio=1, count=300, rtt_ms=30.0, stddev_ms=0.0, bw_mbps=50, seed=3):
    return parse_scenario(
        owd_scenario_raw(
            ratio=ratio, count=count, rtt_ms=rtt_ms,
            stddev_ms=stddev_ms, bw_mbps=bw_mbps, seed=seed,
        )
    )


PROBE_WIRE_SIZE = 224  # 112 inner + 40 outer + 72 SRH with both TLVs


def test_owd_zero_jitter_equals_delay_plus_serialization():
    cfg = owd_scenario(ratio=1, count=100, rtt_ms=30.0, stddev_ms=0.0)
    sim = build_simulation(cfg)
    sim.run_until(cfg.duration_ns)
    records, bad = owd_collector_drain(sim.nodes["S2"].events)
    assert bad == 0 and len(records) == 100
    ser = PROBE_WIRE_SIZE * 8 * 1_000_000_000 // (50 * 1_000_000)
    expected = 15_000_000 + ser
    assert all(r.owd_ns == expected for r in records)


def test_owd_jitter_matches_replayed_link_stream():
    cfg = owd_scenario(ratio=1, count=300, rtt_ms=30.0, stddev_ms=5.0, seed=77)
    sim = build_simulation(cfg)
    sim.run_until(cfg.duration_ns)
    records, _ = owd_collector_drain(sim.nodes["S2"].events)
    assert len(records) == 300
    # replay the monitored link's jitter stream and delivery arithmetic
    rng = stream_rng(77, "link:l12")
    ser = PROBE_WIRE_SIZE * 8 * 1_000_000_000 // (50 * 1_000_000)
    last_delivery = 0
    expected = []
    for rec in records:
        delay = int(rng.gauss(15_000_000, 2_500_000))
        if delay < 0:
            delay = 0
        delivery = max(rec.tx_ts_ns + ser + delay, last_delivery)
        last_delivery = delivery
        expected.append(delivery - rec.tx_ts_ns)
    assert [r.owd_ns for r in records] == expected


# ---------------------------------------------------------------------------
# Weighted round-robin.

def test_iwrr_schedule_matches_hand_oracle():
    # round r serves each path with weight >= r: 5:3 gives A B A B A B A A
    assert iwrr_schedule(5, 3) == (0, 1, 0, 1, 0, 1, 0, 0)
    assert iwrr_schedule(1, 1) == (0, 1)
    assert iwrr_schedule(2, 1) == (0, 1, 0)


def test_weights_reduced_by_gcd():
    assert reduce_weights(50, 30) == (5, 3)
    assert reduce_weights(7, 3) == (7, 3)


def wrr_node(weights=(50, 30)):
    node = Node("A", [pton("2001:db8:a::1")])
    node.fib_insert(FibEntry(pton("fd00:6d::"), 32, [(pton("2001:db8:b::1"), "la")]))
    prog = make_program(
        "wrr",
        {
            "srh_a": SegmentRoutingHeader(segments=[pton("fd00:6d::a")], segments_left=0),
            "srh_b": SegmentRoutingHeader(segments=[pton("fd00:6d::b")], segments_left=0),
            "weights": weights,
            "route_id": 1,
            "outer_src": node.addresses[0],
        },
    )
    node.add_program("prog", prog)
    return node, prog


def test_wrr_cycle_pattern_and_exact_split():
    node, prog = wrr_node((50, 30))
    base = make_udp_packet(S1, S2, b"x" * 32)
    picks = []
    for i in range(8000):
        p = copy_packet(base)
        run_transit_program(node.transit_ctx, prog, p, i)
        picks.append(0 if p.outer_header.dst == pton("fd00:6d::a") else 1)
    assert tuple(picks[:8]) == (0, 1, 0, 1, 0, 1, 0, 0)
    assert picks[:8] * 1000 == picks  # whole cycles repeat exactly
    assert picks.count(0) == 5000 and picks.count(1) == 3000
    assert wrr_counts(node, 1) == (5000, 3000)


def test_wrr_equal_weights_alternate():
    node, prog = wrr_node((1, 1))
    base = make_udp_packet(S1, S2, b"x" * 32)
    picks = []
    for i in range(10):
        p = copy_packet(base)
        run_transit_program(node.transit_ctx, prog, p, i)
        picks.append(0 if p.outer_header.dst == pton("fd00:6d::a") else 1)
    assert picks == [0, 1] * 5


def test_wrr_bound_to_a_sid_drops_what_it_cannot_push():
    """helper_push_encap is transit-only: wrr as an End.BPF program drops."""
    node, _ = wrr_node()
    sid = pton("fd00:6d::1")
    node.add_sid(sid, EndProgram("prog"))
    p = make_srh_udp_packet(S1, [pton("fd00:6d::a"), sid], b"", b"x", 49152, 33434)
    assert node.process_ingress(p, 0) == Drop(DropReason.PROGRAM_DROP)


def test_wrr_state_map_exists_once_the_scenario_is_built():
    sim = build_simulation(load_scenario(fixture_path("setup2-hybrid.json")))
    box = sim.nodes["A"]
    assert wrr_counts(box, 1) == (0, 0)
    assert map_get(box, "wrr_state", struct.pack(">I", 1)) is None
    sim.run_until(1_600_000_000)  # traffic starts at 1.5 s
    assert sum(wrr_counts(box, 1)) > 0


def test_a_program_run_without_loading_finds_no_map():
    node = Node("R", [pton("2001:db8::1")])
    prog = make_program("dm_transit", {
        "path_srh": SegmentRoutingHeader(segments=[S2, DM_SID], segments_left=1),
        "controller_addr": CTRL[0],
    })
    decision = run_transit_program(node.transit_ctx, prog, make_udp_packet(S1, S2, b"x"), 0)
    assert decision == Drop(DropReason.PROGRAM_ERROR, "unknown_map: dm_counter")


def test_a_wrr_run_without_loading_reports_the_map_fault():
    node = Node("R", [pton("2001:db8::1")])
    prog = make_program("wrr", {
        "srh_a": SegmentRoutingHeader(segments=[S2, pton("fd00:6d::a")], segments_left=1),
        "srh_b": SegmentRoutingHeader(segments=[S2, pton("fd00:6d::b")], segments_left=1),
    })
    decision = run_transit_program(node.transit_ctx, prog, make_udp_packet(S1, S2, b"x"), 0)
    assert decision == Drop(DropReason.PROGRAM_ERROR, "unknown_map: wrr_state")


def wrr_twins():
    """Two wrr nodes built from equal SRHs, and the first one's SRH, for
    the caller to change after instantiation."""
    srh = SegmentRoutingHeader(segments=[S2, pton("fd00:6d::a")], segments_left=1)
    nodes = []
    for params_srh in (srh, srh.copy()):
        node = Node("A", [pton("2001:db8:a::1")])
        node.fib_insert(FibEntry(pton("fd00:6d::"), 32, [(pton("2001:db8:b::1"), "la")]))
        prog = make_program("wrr", {"srh_a": params_srh, "srh_b": params_srh, "weights": (1, 1)})
        node.add_program("wrr", prog)
        node.add_transit(pton("2001:db8:2::"), 64, TransitProgram("wrr"))
        nodes.append(node)
    return nodes, srh


def test_wrr_pushes_ignore_later_changes_to_its_params():
    (node, twin), srh = wrr_twins()
    srh.segments[1] = pton("fd00:6d::b")
    srh.tag = 5
    for i in range(4):
        p, q = make_udp_packet(S1, S2, b"x"), make_udp_packet(S1, S2, b"x")
        assert node.process_ingress(p, i) == twin.process_ingress(q, i)
        assert encode_packet(p) == encode_packet(q)


def test_wrr_pushes_share_no_srh():
    (node, _), _ = wrr_twins()
    p, q = make_udp_packet(S1, S2, b"x"), make_udp_packet(S1, S2, b"x")
    node.process_ingress(p, 0)
    node.process_ingress(q, 1)
    a, b = p.outer_srh, q.outer_srh
    assert a == b and a is not b and a.segments is not b.segments
    before = encode_packet(q)
    end(p)
    assert encode_packet(q) == before and p != q


def test_wrr_rejects_an_srh_no_push_could_carry():
    srh = SegmentRoutingHeader(segments=[S2] * 128, segments_left=0)
    with pytest.raises(ValueError, match="srh_b: SizeOverflow"):
        make_program("wrr", {"srh_a": SegmentRoutingHeader([S2], 0), "srh_b": srh})


def test_dm_transit_rejects_a_path_srh_its_tlvs_overflow():
    """The probe SRH carries 32 octets of DM and controller TLVs, so 126
    segments fit hdr_ext_len alone but not with them."""
    params = {"controller_addr": CTRL[0]}
    make_program("dm_transit", {**params, "path_srh": SegmentRoutingHeader([S2] * 125, 0)})
    with pytest.raises(ValueError, match="path_srh: SizeOverflow"):
        make_program("dm_transit", {**params, "path_srh": SegmentRoutingHeader([S2] * 126, 0)})


# ---------------------------------------------------------------------------
# Compensator.

def test_compensator_half_difference_on_fast_link():
    state = CompensatorState(alpha=1.0)
    compensator_update(state, "la", 30_000_000)
    compensator_update(state, "lb", 5_000_000)
    assert state.fast_link == "lb"
    assert state.applied_delay_ns == 12_500_000


def test_compensator_equal_ewmas_apply_zero():
    state = CompensatorState(alpha=1.0)
    compensator_update(state, "la", 10_000_000)
    compensator_update(state, "lb", 10_000_000)
    assert state.applied_delay_ns == 0


def test_compensator_ewma_smoothing():
    state = CompensatorState(alpha=0.5)
    compensator_update(state, "la", 10.0)
    compensator_update(state, "la", 20.0)
    assert state.ewma["la"] == pytest.approx(15.0)


def test_compensator_drift_swaps_fast_link():
    state = CompensatorState(alpha=1.0)
    compensator_update(state, "la", 30_000_000)
    compensator_update(state, "lb", 5_000_000)
    assert state.fast_link == "lb"
    compensator_update(state, "lb", 50_000_000)
    assert state.fast_link == "la"
    assert state.applied_delay_ns == 10_000_000


def test_compensator_first_sample_initializes():
    state = CompensatorState(alpha=0.3)
    compensator_update(state, "la", 40.0)
    assert state.ewma["la"] == 40.0
    assert state.applied_delay_ns == 0  # only one link known yet


def test_compensator_counts_a_negative_sample_as_zero():
    state = CompensatorState(alpha=1.0)
    compensator_update(state, "la", -3_000_000)
    assert state.ewma["la"] == 0.0


@pytest.mark.parametrize("count", [1, 3])
def test_prober_rejects_other_than_two_links(count):
    links = [ProbeLink(f"l{i}", DM_SID, S1) for i in range(count)]
    with pytest.raises(ValueError, match="exactly two links"):
        TwdProber("p", "A", links)


def test_prober_ignores_a_reply_without_an_srh_or_a_dm_tlv():
    sim = build_simulation(load_scenario(fixture_path("setup2-hybrid.json")))
    prober = next(d for d in sim.daemons.values() if isinstance(d, TwdProber))
    ret = prober.links[0].return_addr
    receive = sim.handlers[ret]
    receive(make_udp_packet(S1, ret, b"x"), 5)
    ctrl_only = encode_tlvs(controller_tlv(*CTRL))
    receive(make_srh_udp_packet(S1, [ret], ctrl_only, b"\x00" * 8, 9100, 9100), 5)
    assert prober.received == 0 and prober.state.ewma == {}


def test_prober_sends_and_receives_per_link():
    cfg = load_scenario(fixture_path("setup2-hybrid.json"))
    sim = build_simulation(cfg)
    sim.run_until(999_000_000)  # ticks at 0,100,...,900 ms
    prober = next(d for d in sim.daemons.values() if isinstance(d, TwdProber))
    assert prober.sent == 20
    assert prober.received == 20
    # each link saw its own probes both ways, nothing else before traffic
    assert sim.stats.link_delivered["la"] == 20
    assert sim.stats.link_delivered["lb"] == 20
    assert 25_000_000 < prober.state.ewma["la"] < 40_000_000
    assert 2_000_000 < prober.state.ewma["lb"] < 10_000_000


def test_prober_compensation_applies_qdisc_to_fast_link():
    cfg = load_scenario(fixture_path("setup2-hybrid.json"))
    sim = build_simulation(cfg)
    sim.run_until(1_000_000_000)
    prober = next(d for d in sim.daemons.values() if isinstance(d, TwdProber))
    assert prober.state.fast_link == "lb"
    applied = sim.links["lb"].dirs["A"].qdisc_extra_ns
    assert applied == prober.state.applied_delay_ns
    assert 8_000_000 < applied < 18_000_000
    assert sim.links["la"].dirs["A"].qdisc_extra_ns == 0


def test_prober_compensation_off_leaves_links_alone():
    cfg = apply_overrides(load_scenario(fixture_path("setup2-hybrid.json")), compensation=False)
    sim = build_simulation(cfg)
    sim.run_until(1_000_000_000)
    assert sim.links["lb"].dirs["A"].qdisc_extra_ns == 0
    assert sim.links["la"].dirs["A"].qdisc_extra_ns == 0


def test_a_prober_added_by_hand_receives_as_a_built_one():
    """add_daemon binds the prober's return addresses, so a prober added
    to a built simulation hears its probes and compensates as one the
    scenario builds."""
    cfg = load_scenario(fixture_path("setup2-hybrid.json"))
    d = next(d for d in cfg.daemons if d.type == "twd_prober")
    cfg.daemons.remove(d)
    sim = build_simulation(cfg)
    prober = TwdProber(d.id, d.node, **d.params)
    sim.add_daemon(prober)
    sim.run_until(2_000_000_000)
    built = build_simulation(load_scenario(fixture_path("setup2-hybrid.json")))
    built.run_until(2_000_000_000)
    assert prober.received == built.daemons[d.id].received > 0
    assert prober.history == built.daemons[d.id].history != []


# ---------------------------------------------------------------------------
# ECMP nexthop discovery.

def oamp_node():
    node = Node("A", [pton("2001:db8:aa::1")])
    node.index = 3
    node.fib_insert(
        FibEntry(pton("2001:db8:2::"), 64,
                 [(pton("2001:db8:bb::1"), "lab"), (pton("2001:db8:cc::1"), "lac")])
    )
    node.add_program("oamp", make_program("end_oamp", {}))
    sid = pton("fd00:aa::100")
    node.add_sid(sid, EndProgram("oamp"))
    return node, sid


def oamp_probe(sid, target, with_ctrl=True):
    tlv = encode_tlvs(controller_tlv(S1, 33500)) if with_ctrl else b""
    srh = SegmentRoutingHeader(segments=[target, sid], segments_left=1, next_header=17, tlv_bytes=tlv)
    hdr = Ipv6Header(src=S1, dst=sid, next_header=PROTO_ROUTING)
    return Packet(headers=[(hdr, [srh])], transport=Udp(33500, 33434, b"\x00" * 8))


def test_end_oamp_reports_both_branch_nexthops():
    node, sid = oamp_node()
    decision = node.process_ingress(oamp_probe(sid, S2), 0)
    assert decision == Drop(DropReason.PROGRAM_DROP)  # probe ends here
    events = node.events.drain()
    assert len(events) == 1
    hop_id, addrs = decode_oamp_event(events[0])
    assert hop_id == 3
    assert addrs == [pton("2001:db8:bb::1"), pton("2001:db8:cc::1")]


def test_end_oamp_singleton_for_host_route():
    node, sid = oamp_node()
    node.fib_insert(FibEntry(S2, 128, [(pton("2001:db8:bb::1"), "lab")]))
    node.process_ingress(oamp_probe(sid, S2), 0)
    _, addrs = decode_oamp_event(node.events.drain()[0])
    assert addrs == [pton("2001:db8:bb::1")]


def test_end_oamp_unrouted_target_emits_no_route_reply():
    node, sid = oamp_node()
    decision = node.process_ingress(oamp_probe(sid, pton("fd00:ff::1")), 0)
    assert isinstance(decision, Drop)
    hop_id, addrs = decode_oamp_event(node.events.drain()[0])
    assert hop_id == 3 and addrs == []


def test_end_oamp_without_controller_tlv_drops_silently():
    node, sid = oamp_node()
    decision = node.process_ingress(oamp_probe(sid, S2, with_ctrl=False), 0)
    assert decision == Drop(DropReason.PROGRAM_DROP)
    assert len(node.events) == 0


def test_end_oamp_as_a_transit_program_drops_a_packet_without_an_srh():
    node, _ = oamp_node()
    node.add_transit(pton("2001:db8:2::"), 64, TransitProgram("oamp"))
    assert node.process_ingress(make_udp_packet(S1, S2, b"x"), 0) == Drop(DropReason.PROGRAM_DROP)
    assert len(node.events) == 0


@pytest.mark.parametrize("payload", [
    b"", bytes(5), struct.pack(">IH", 3, 1), struct.pack(">IH", 3, 0) + S1,
], ids=["empty", "short-head", "missing-address", "extra-address"])
def test_decode_oamp_event_rejects_a_payload_of_the_wrong_length(payload):
    assert decode_oamp_event(payload) is None


# ---------------------------------------------------------------------------
# Multipath traceroute.

def diamond_sim():
    cfg = load_scenario(fixture_path("diamond.json"))
    sim = build_simulation(cfg)
    oamp = {s.node: s.sid for s in cfg.sids if s.program == "end_oamp"}
    return sim, oamp


def test_traceroute_oamp_full_dag():
    sim, oamp = diamond_sim()
    res = multipath_traceroute(sim, "S", S2, oamp)
    assert res.reached
    assert res.unknown_probes == 0
    assert sorted(res.hops["A"].nexthop_nodes) == ["B", "C"]
    assert res.hops["A"].method == "oamp"
    assert res.hops["B"].nexthop_nodes == ["D"]
    assert res.hops["C"].nexthop_nodes == ["D"]
    assert res.hops["D"].nexthop_nodes == ["T"]


def test_traceroute_icmp_fallback_union_equals_oamp_set():
    sim, oamp = diamond_sim()
    res_full = multipath_traceroute(sim, "S", S2, oamp)
    sim2, oamp2 = diamond_sim()
    oamp2.pop("A")
    res = multipath_traceroute(sim2, "S", S2, oamp2)
    assert res.hops["A"].method == "icmp"
    assert sorted(res.hops["A"].nexthop_nodes) == sorted(res_full.hops["A"].nexthop_nodes)


def test_traceroute_single_flow_key_sees_one_branch():
    sim, oamp = diamond_sim()
    oamp.pop("A")
    res = multipath_traceroute(sim, "S", S2, oamp, flow_keys=1)
    assert len(res.hops["A"].nexthop_nodes) == 1


def chain_sim():
    cfg = parse_scenario(
        {
            "name": "chain",
            "seed": 1,
            "duration_ms": 1000,
            "nodes": [
                {"id": "S", "addresses": ["2001:db8:1::1"]},
                {"id": "A", "addresses": ["2001:db8:aa::1"]},
                {"id": "B", "addresses": ["2001:db8:bb::1"]},
                {"id": "T", "addresses": ["2001:db8:2::1"]},
            ],
            "links": [
                {"id": "lsa", "endpoints": ["S", "A"], "bandwidth_mbps": 1000, "rtt_mean_ms": 2},
                {"id": "lab", "endpoints": ["A", "B"], "bandwidth_mbps": 1000, "rtt_mean_ms": 2},
                {"id": "lbt", "endpoints": ["B", "T"], "bandwidth_mbps": 1000, "rtt_mean_ms": 2},
            ],
            "fib": [
                {"node": "S", "prefix": "::/0", "nexthops": [{"via": "2001:db8:aa::1", "link": "lsa"}]},
                {"node": "A", "prefix": "2001:db8:2::/64", "nexthops": [{"via": "2001:db8:bb::1", "link": "lab"}]},
                {"node": "A", "prefix": "2001:db8:1::/64", "nexthops": [{"via": "2001:db8:1::1", "link": "lsa"}]},
                {"node": "B", "prefix": "2001:db8:2::/64", "nexthops": [{"via": "2001:db8:2::1", "link": "lbt"}]},
                {"node": "B", "prefix": "2001:db8:1::/64", "nexthops": [{"via": "2001:db8:aa::1", "link": "lab"}]},
                {"node": "T", "prefix": "::/0", "nexthops": [{"via": "2001:db8:bb::1", "link": "lbt"}]},
            ],
            "generators": [],
        }
    )
    return build_simulation(cfg)


def test_traceroute_linear_chain_matches_classic_path():
    sim = chain_sim()
    res = multipath_traceroute(sim, "S", S2, oamp_sids={}, flow_keys=2)
    by_depth = sorted(res.hops.values(), key=lambda h: h.depth)
    assert [h.node for h in by_depth] == ["S", "A", "B"]
    assert [h.nexthop_nodes for h in by_depth] == [["A"], ["B"], ["T"]]
    assert res.reached
    assert by_depth[1].method == "icmp"


def test_traceroute_unreachable_target_partial_dag():
    sim, oamp = diamond_sim()
    res = multipath_traceroute(
        sim, "S", pton("fd00:ff::1"), oamp, flow_keys=2, timeout_ns=50_000_000
    )
    assert not res.reached
    assert "A" in res.hops
    assert res.hops["A"].nexthop_nodes == []  # no-route reply from the hop


@pytest.mark.parametrize("removed", ["", "A"], ids=["oamp", "icmp"])
def test_traceroute_runs_the_simulation_once_per_probe(removed, monkeypatch):
    sim, oamp = diamond_sim()
    for node in removed:
        oamp.pop(node)
    calls = Counter()
    run_until, send = Simulation.run_until, Simulation.send

    def counted_run_until(self, t_ns):
        calls["run_until"] += 1
        return run_until(self, t_ns)

    def counted_send(self, node_id, packet):
        calls[f"send:{node_id}"] += 1
        return send(self, node_id, packet)

    monkeypatch.setattr(Simulation, "run_until", counted_run_until)
    monkeypatch.setattr(Simulation, "send", counted_send)
    assert multipath_traceroute(sim, "S", S2, oamp).reached
    assert 0 < calls["run_until"] <= calls["send:S"]


def test_traceroute_adds_a_responder_only_where_a_node_has_none(tmp_path):
    sim, oamp = diamond_sim()
    res = multipath_traceroute(sim, "S", S2, oamp)
    responders = [d for d in sim.daemons.values() if isinstance(d, OampResponder)]
    assert Counter(d.node for d in responders) == {"A": 1, "B": 1, "C": 1, "D": 1}
    # a scenario without responders gets one per OAMP node from
    # multipath_traceroute, and the same replies
    raw = json.loads(fixture_path("diamond.json").read_text())
    raw["daemons"] = []
    bare = build_simulation(parse_scenario(raw))
    res_bare = multipath_traceroute(bare, "S", S2, oamp)
    assert sorted(bare.daemons) == [f"oamp_responder:{n}" for n in "ABCD"]
    assert res_bare.render() == res.render()
    assert trace_bytes(bare, tmp_path) == trace_bytes(sim, tmp_path)


def test_traceroute_points_only_the_responders_it_asks():
    sim, oamp = diamond_sim()
    oamp.pop("A")
    assert multipath_traceroute(sim, "S", S2, oamp).reached
    assert sim.daemons["oamp-a"].reply_addr is None
    prober_addr = sim.nodes["S"].addresses[0]
    assert [sim.daemons[f"oamp-{n}"].reply_addr for n in "bcd"] == [prober_addr] * 3


def test_traceroute_restores_a_handler_bound_before_it():
    sim, oamp = diamond_sim()
    prober_addr = sim.nodes["S"].addresses[0]
    got = []
    sim.bind(prober_addr, lambda p, now: got.append(now))
    assert multipath_traceroute(sim, "S", S2, oamp).reached
    assert got == []  # the replies went to the traceroute's own handler
    sim.send("A", make_udp_packet(sim.nodes["A"].addresses[0], prober_addr, b"after"))
    sim.run_until(sim.clock + 10_000_000)
    assert len(got) == 1


class ForeignTraffic(Daemon):
    """Sends the prober, each interval, a UDP datagram that is no OAMP
    event and an ICMPv6 message that is no time-exceeded."""

    def __init__(self, node: str, dst: bytes):
        super().__init__("foreign", 1_000_000, node=node)
        self.dst = dst
        self.sent = 0

    def tick(self, sim, now):
        src = sim.nodes[self.node].addresses[0]
        unreachable = bytes((1, 0, 0, 0)) + bytes(60)
        hdr = Ipv6Header(src, self.dst, PROTO_ICMPV6, 64, 0, 0, len(unreachable))
        sim.send(self.node, make_udp_packet(src, self.dst, b"not an event"))
        sim.send(self.node, Packet([(hdr, [])], unreachable))
        self.sent += 2


@pytest.mark.parametrize("removed", ["", "A"], ids=["oamp", "icmp"])
def test_traceroute_ignores_foreign_packets_at_the_prober(removed):
    results = []
    for noisy in (False, True):
        sim, oamp = diamond_sim()
        for node in removed:
            oamp.pop(node)
        if noisy:
            foreign = ForeignTraffic("D", sim.nodes["S"].addresses[0])
            sim.add_daemon(foreign)
        results.append(multipath_traceroute(sim, "S", S2, oamp))
    assert foreign.sent > 0
    assert results[1].render() == results[0].render()
    assert results[1].unknown_probes == results[0].unknown_probes == 0


# ---------------------------------------------------------------------------
# Queue-woken daemons against their polling twins.

def polling_twin(cls):
    """cls as a periodic daemon: it ticks at every grid instant and drains
    whatever is queued, as every draining daemon did before wake-ups. It is
    still its queue's one reader: Simulation.add_daemon registers it and
    hands it a queue-woken alarm, which the twin turns periodic."""

    class Polling(cls):
        @property
        def wake(self):
            return lambda: None  # an emit wakes no poller

        @wake.setter
        def wake(self, alarm):
            alarm.queue = None  # re-arms itself one interval after each tick
            alarm.sim()._schedule(alarm.origin, ("wake", alarm))

    return Polling


@pytest.fixture
def use_polling_twins(monkeypatch):
    def use():
        """Build every draining daemon as its polling twin; returns the twins."""
        twins = {
            "owd_collector": polling_twin(OwdCollector),
            "oamp_responder": polling_twin(OampResponder),
        }
        for kind, twin in twins.items():
            monkeypatch.setitem(scenario.DAEMON_TYPES, kind, twin)
        monkeypatch.setattr(usecases, "OampResponder", twins["oamp_responder"])
        return tuple(twins.values())

    return use


def assert_built_as_twins(sim, twins):
    drainers = [d for d in sim.daemons.values() if isinstance(d, (OwdCollector, OampResponder))]
    assert drainers
    assert all(type(d) in twins and sim.nodes[d.node].events.reader is d for d in drainers)


def trace_bytes(sim, tmp_path):
    path = tmp_path / "trace.tsv"
    write_trace(sim.trace, path)
    return path.read_bytes()


def traceroute_outputs(removed, tmp_path, target=S2, **kwargs):
    """The simulation after a traceroute from S with removed left to the
    ICMP fallback, and the outputs that run gave."""
    sim, oamp = diamond_sim()
    for node in removed:
        oamp.pop(node)
    res = multipath_traceroute(sim, "S", target, oamp, **kwargs)
    return sim, (
        trace_bytes(sim, tmp_path), sim.stats.summary(), res.render(), res.unknown_probes,
        sim.clock,
    )


def assert_one_reader_per_discovery_node(sim):
    for node in "ABCD":
        readers = [d for d in sim.daemons.values()
                   if isinstance(d, (OwdCollector, OampResponder)) and d.node == node]
        assert readers == [sim.nodes[node].events.reader], node


# every subset of the diamond's OAMP nodes left to the ICMP fallback
REMOVED_OAMP = ["".join(c) for r in range(5) for c in itertools.combinations("ABCD", r)]


@pytest.mark.parametrize("removed", REMOVED_OAMP, ids=lambda r: r or "none")
def test_woken_responders_trace_as_their_polling_twins(removed, tmp_path, use_polling_twins):
    sim, woken = traceroute_outputs(removed, tmp_path)
    assert_one_reader_per_discovery_node(sim)
    twins = use_polling_twins()
    assert_built_as_twins(diamond_sim()[0], twins)
    sim, twin = traceroute_outputs(removed, tmp_path)
    assert_one_reader_per_discovery_node(sim)
    assert twin == woken


UNREACHABLE = pton("fd00:ff::1")
# case -> (OAMP nodes left to the ICMP fallback, target, traceroute kwargs)
TRACEROUTE_CASES = {r or "none": (r, S2, {}) for r in REMOVED_OAMP} | {
    # A answers the OAMP query with an empty nexthop set
    "unreachable": ("", UNREACHABLE, {"flow_keys": 2, "timeout_ns": 50_000_000}),
    # the ICMP probes past A time out
    "unreachable-icmp": ("A", UNREACHABLE, {"flow_keys": 2, "timeout_ns": 50_000_000}),
    # a timeout off the 1 ms grid: replies land mid-step, some probes
    # time out, and late replies arrive while later probes wait
    "short-timeout": ("B", S2, {"timeout_ns": 4_500_000}),
}

# case -> sha256 over trace bytes, summary, render, unknown_probes and final clock
TRACEROUTE_GOLDEN = {
    "none": "11e1634f2436dca3898fe51104fc6986f37d09197c0ed8242e68a6e53137897c",
    "A": "cb00a1503c302a158ffe9cab9517a96532122bc8720f60c4f280fef8210fd309",
    "B": "abd7441d8c2fb3aeecefe2385d66673cf09968dc016d9e7c5e4c86e628233f53",
    "C": "ead9eecab9f685ef8d46779a9f83868386bfbecc20139caec2c2660b5438903d",
    "D": "0712a57c51efe74656ef3540c437f95324989ff5c565bcdff59f16e042932e2e",
    "AB": "b4ccdd89f49ba7709e13c13f54c9137a9e64f9347615ce1f3163daae1e2a26ce",
    "AC": "e8438b44fc1a71928c6c1b9b392dea2c93c9272896d569387f6a6bfe8fd020a6",
    "AD": "c743355cf2c0664eca349fea3871e65b048f973c717f7d7c69f9d8a896a8f715",
    "BC": "1c09e22fe18a6551ef6d22b4b374e0efc1a35465635330d6e400711fa54db415",
    "BD": "9b78ce09d4487fe8ddb7749adb28a53de804e9be910fe5e0384521769f4461fb",
    "CD": "c4f328645bd291d4c58a76285a9c6cf2b649cbfb861860a9b80c6e1e9fa267c1",
    "ABC": "2289ce5bcfb49ca8158face046ab7c968128436f5a0ddd5e886e8da6df696efb",
    "ABD": "749354be78aac09855a81413b03c69577efb32af9bb77b64d5e0a112abc38b0d",
    "ACD": "2de1e3e99d8318cbac8b26b1984b10ae866f817c75cb5316325286be61d45cdf",
    "BCD": "1542dca8b95a13998188147d986cfcf7a0c6803630f005aa89a8d05b5be0322b",
    "ABCD": "98638bed68b50786bdfadafc850f9fb25b59b0f1e8d1fd9e79820d7c75ee0c11",
    "unreachable": "0fcc9893dad4e6549c9cc524ba1217795ec1a0935b79ce689b6f079ea85e4498",
    "unreachable-icmp": "461bf5dbffa8b7c941e5c2642205a94d0581bb6be0ff8f3f42ed7fdc06992c26",
    "short-timeout": "4570d0ce2447ca498318750e65cc17e05656ae1e8167a628cefe85401e7ae567",
}


def outputs_digest(outputs) -> str:
    h = hashlib.sha256()
    for part in outputs:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("case", TRACEROUTE_CASES)
def test_traceroute_outputs_unchanged(case, tmp_path):
    removed, target, kwargs = TRACEROUTE_CASES[case]
    _, outputs = traceroute_outputs(removed, tmp_path, target, **kwargs)
    assert outputs_digest(outputs) == TRACEROUTE_GOLDEN[case]


def owd_outputs(seed, tmp_path):
    cfg = apply_overrides(load_scenario(fixture_path("setup1.json")), seed=seed)
    sim = build_simulation(cfg)
    controller = DelayCollector()
    dm = next(t for t in cfg.transits if t.program == "dm_transit")
    sim.bind(dm.params["controller_addr"], controller)
    stats = sim.run_until(cfg.duration_ns)
    return trace_bytes(sim, tmp_path), stats.summary(), controller.records


@pytest.mark.parametrize("seed", [1, 5, 42])
def test_woken_collector_traces_as_its_polling_twin(seed, tmp_path, use_polling_twins):
    woken = owd_outputs(seed, tmp_path)
    assert woken[2]  # the controller got delay records
    twins = use_polling_twins()
    assert_built_as_twins(build_simulation(load_scenario(fixture_path("setup1.json"))), twins)
    assert owd_outputs(seed, tmp_path) == woken


def oamp_events_before_the_prober(tmp_path):
    sim, _ = diamond_sim()
    responder = sim.daemons["oamp-a"]
    queue = sim.nodes["A"].events
    sim.run_until(2_500_000)
    for hop_id in (1, 2):
        queue.emit(struct.pack(">IH", hop_id, 0))
    sim.run_until(5_500_000)
    assert len(queue) == 2  # no prober yet: the events wait
    responder.reply_addr = sim.nodes["S"].addresses[0]
    sim.run_until(10_000_000)
    assert len(queue) == 0
    replies = [r.time_ns for r in map(TraceRecord._make, sim.trace)
               if r.node == "A" and r.direction == "egress" and r.flow is None]
    return replies, trace_bytes(sim, tmp_path)


def test_setting_reply_addr_wakes_a_responder_with_queued_events(tmp_path, use_polling_twins):
    replies, woken = oamp_events_before_the_prober(tmp_path)
    assert replies == [6_000_000, 6_000_000]  # the first grid instant after 5.5 ms
    use_polling_twins()
    assert oamp_events_before_the_prober(tmp_path) == (replies, woken)
