import gc
import json
import random
import struct
import weakref

import pytest

from srv6sim.behaviors import EndX, Forward, TransitEncaps
from srv6sim.dataplane import Node
from srv6sim.fib import FibEntry
from srv6sim.packet import (
    SegmentRoutingHeader,
    check_packet,
    decode_packet,
    encode_packet,
    make_srh_udp_packet,
    make_udp_packet,
    pton,
)
from srv6sim.programs import EVENT_QUEUE_CAPACITY
from srv6sim import sim as sim_mod
from srv6sim.scenario import build_simulation, fixture_path, load_scenario, parse_scenario
from srv6sim.sim import (
    FLOW_MAGIC,
    Daemon,
    InsufficientData,
    Link,
    Rng,
    SimError,
    Simulation,
    TraceRecord,
    UdpStream,
    UnknownLink,
    goodput_estimate,
    reorder_fraction,
    stream_rng,
    trace_ids,
    write_trace,
)
from srv6sim.usecases import multipath_traceroute
from util import reference_sink_ingress, reference_write_trace

S1 = pton("2001:db8:1::1")
S2 = pton("2001:db8:2::1")
R = pton("2001:db8::1")


def zero_jitter_link(bw_mbps=50, delay_ms=0.0, link_id="l"):
    return Link(link_id, "A", "B", bw_mbps * 1_000_000, int(delay_ms * 1e6), 0, Rng(1))


# ---------------------------------------------------------------------------
# Rng.

def test_rng_identical_seed_identical_stream():
    a, b = Rng(42), Rng(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]
    assert [a.gauss(0, 1) for _ in range(50)] == [b.gauss(0, 1) for _ in range(50)]


def test_rng_streams_differ_by_name():
    a = stream_rng(1, "link:a")
    b = stream_rng(1, "link:b")
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_gauss_moments():
    rng = Rng(7)
    samples = [rng.gauss(10.0, 2.0) for _ in range(20000)]
    mean = sum(samples) / len(samples)
    var = sum((s - mean) ** 2 for s in samples) / len(samples)
    assert abs(mean - 10.0) < 0.05
    assert abs(var - 4.0) < 0.15


# ---------------------------------------------------------------------------
# Link timing.

def test_serialization_time_exact():
    link = zero_jitter_link(bw_mbps=50)
    # 1250 octets at 50 Mbps: 10^4 bits / 5*10^7 bps = 200 us
    assert link.transmit("A", 1250, 0) == 200_000


def test_back_to_back_fifo_queueing():
    link = zero_jitter_link(bw_mbps=50)
    first = link.transmit("A", 1250, 0)
    second = link.transmit("A", 1250, 0)
    assert first == 200_000
    assert second == 400_000


def test_qdisc_extra_delay_is_additive():
    link = zero_jitter_link(bw_mbps=50)
    link.dirs["A"].qdisc_extra_ns = 12_500_000
    assert link.transmit("A", 1250, 0) == 200_000 + 12_500_000


def test_directions_are_independent():
    link = zero_jitter_link(bw_mbps=50)
    link.transmit("A", 1250, 0)
    assert link.transmit("B", 1250, 0) == 200_000


def test_jitter_never_negative_and_fifo_preserved():
    link = Link("l", "A", "B", 1_000_000_000, 1_000_000, 5_000_000, Rng(3))
    last = 0
    for i in range(500):
        now = i * 10_000
        d = link.transmit("A", 100, now)
        ser = 100 * 8 * 1_000_000_000 // link.bandwidth_bps
        assert d >= now + ser  # delay truncated at zero
        assert d >= last  # FIFO per direction
        last = d


def test_zero_stddev_gives_exact_mean_delay():
    link = zero_jitter_link(bw_mbps=1000, delay_ms=15.0)
    size = 112
    ser = size * 8 * 1_000_000_000 // link.bandwidth_bps
    assert link.transmit("A", size, 0) == ser + 15_000_000


# ---------------------------------------------------------------------------
# Simulation event loop.

def two_node_sim(delay_ms=15.0, stddev_ms=0.0, bw_mbps=50):
    sim = Simulation(seed=1)
    a = Node("A", [pton("2001:db8:a::1")])
    b = Node("B", [S2])
    a.fib_insert(FibEntry(b"\x00" * 16, 0, [(S2, "l")]))
    sim.add_node(a)
    sim.add_node(b)
    sim.add_link("l", "A", "B", bw_mbps * 1_000_000, int(delay_ms * 1e6), int(stddev_ms * 1e6))
    return sim


def test_run_until_empty_queue_advances_clock():
    sim = two_node_sim()
    stats = sim.run_until(5_000_000)
    assert sim.clock == 5_000_000
    assert stats.injected == 0


def test_run_until_rejects_past_target():
    sim = two_node_sim()
    sim.run_until(1000)
    with pytest.raises(Exception):
        sim.run_until(500)


def test_injected_packet_arrives_after_serialization_plus_delay():
    sim = two_node_sim(delay_ms=15.0)
    p = make_udp_packet(pton("2001:db8:a::1"), S2, b"\x00" * 64)
    size = p.wire_size()
    sim.send("A", p)
    sim.run_until(100_000_000)
    rows = map(TraceRecord._make, sim.trace)
    arrivals = [r for r in rows if r.node == "B" and r.direction == "ingress"]
    assert len(arrivals) == 1
    expected = size * 8 * 1_000_000_000 // (50 * 1_000_000) + 15_000_000
    assert arrivals[0].time_ns == expected
    assert sim.stats.delivered["B"] == 1


def test_stream_injection_times_and_sequences():
    sim = two_node_sim(delay_ms=1.0, bw_mbps=1000)
    sim.add_stream(
        UdpStream("A", pton("2001:db8:a::1"), S2, rate_pps=1000, payload_size=64, count=100, flow=3)
    )
    sim.run_until(1_000_000_000)
    rows = map(TraceRecord._make, sim.trace)
    egress = [r for r in rows if r.node == "A" and r.direction == "egress"]
    assert len(egress) == 100
    assert [r.seq for r in egress] == list(range(100))
    assert [r.time_ns for r in egress] == [i * 1_000_000 for i in range(100)]
    assert all(r.flow == 3 for r in egress)


def test_stream_added_after_its_start_begins_at_the_clock():
    # the first packet goes out at the clock, each next one a gap later
    sim = two_node_sim(delay_ms=1.0, bw_mbps=1000)
    sim.run_until(5_500_000)
    sim.add_stream(UdpStream("A", pton("2001:db8:a::1"), S2, rate_pps=1000, payload_size=64,
                             count=6, start_ns=2 * MS))
    sim.run_until(100 * MS)
    egress = [r for r in map(TraceRecord._make, sim.trace) if r.direction == "egress"]
    assert [(r.time_ns, r.seq) for r in egress] == [
        (5_500_000, 0), (6_500_000, 1), (7_500_000, 2), (8_500_000, 3), (9_500_000, 4),
        (10_500_000, 5),
    ]


def test_packet_a_node_sends_to_its_own_address_is_delivered_there():
    sim = two_node_sim()
    a_addr = pton("2001:db8:a::1")
    got = []
    sim.bind(a_addr, lambda p, now: got.append((p.transport.payload, now)))
    sim.run_until(1000)
    sim.send("A", make_udp_packet(S2, a_addr, b"self"))
    assert got == [(b"self", 1000)]
    assert (sim.stats.injected, sim.nodes["A"].delivered, sim.nodes["A"].forwarded) == (1, 1, 0)
    assert not sim.trace  # no link crossed


def test_packet_for_a_node_is_delivered_under_a_transit_covering_its_address():
    """As Linux's local table precedes the seg6 routes of its main table,
    an encaps transit on B's own /64 leaves a packet for B's address to
    the handler bound there."""
    sim = two_node_sim()
    a_addr = pton("2001:db8:a::1")
    b = sim.nodes["B"]
    b.add_transit(S2, 64, TransitEncaps(SegmentRoutingHeader([a_addr], 0), S2))
    got = []
    sim.bind(S2, lambda p, now: got.append(p.transport.payload))
    sim.send("A", make_udp_packet(a_addr, S2, b"mine"))
    sim.run_until(100_000_000)
    assert got == [b"mine"]
    assert (b.delivered, b.forwarded, b.dropped) == (1, 0, 0)


def test_same_seed_identical_traces():
    def run():
        sim = two_node_sim(delay_ms=10.0, stddev_ms=3.0)
        sim.add_stream(
            UdpStream("A", pton("2001:db8:a::1"), S2, rate_pps=2000, payload_size=64, count=200)
        )
        sim.run_until(1_000_000_000)
        return sim.trace

    t1, t2 = run(), run()
    assert t1 == t2


def test_conservation_at_quiescence():
    sim = two_node_sim()
    sim.add_stream(
        UdpStream("A", pton("2001:db8:a::1"), S2, rate_pps=1000, payload_size=64, count=50)
    )
    stats = sim.run_until(2_000_000_000)
    assert stats.injected == 50
    assert stats.total_delivered + stats.total_dropped == stats.injected


def test_trace_times_non_decreasing():
    sim = two_node_sim(delay_ms=5.0, stddev_ms=2.0)
    sim.add_stream(
        UdpStream("A", pton("2001:db8:a::1"), S2, rate_pps=5000, payload_size=64, count=300)
    )
    sim.run_until(1_000_000_000)
    times = [time_ns for time_ns, *_ in sim.trace]
    assert times == sorted(times)


def test_set_qdisc_delay_and_reset():
    sim = two_node_sim(delay_ms=0.0, bw_mbps=50)
    sim.set_qdisc_delay("A", "l", 12_500_000)
    p = make_udp_packet(pton("2001:db8:a::1"), S2, b"\x00" * 64)
    size = p.wire_size()
    sim.send("A", p)
    sim.run_until(50_000_000)
    ser = size * 8 * 1_000_000_000 // (50 * 1_000_000)
    rows = map(TraceRecord._make, sim.trace)
    arrival = [r for r in rows if r.node == "B" and r.direction == "ingress"][0]
    assert arrival.time_ns == ser + 12_500_000
    sim.set_qdisc_delay("A", "l", 0)
    assert sim.links["l"].dirs["A"].qdisc_extra_ns == 0


def test_negative_delays_are_rejected():
    # a delivery is never scheduled before the clock that transmits it
    with pytest.raises(SimError):
        Link("l", "A", "B", 1_000_000, -1, 0, Rng(1))
    with pytest.raises(SimError):
        Link("l", "A", "B", 1_000_000, 0, -1, Rng(1))
    sim = two_node_sim()
    with pytest.raises(SimError):
        sim.set_qdisc_delay("A", "l", -1)
    assert sim.links["l"].dirs["A"].qdisc_extra_ns == 0


def test_non_positive_bandwidth_rate_or_short_payload_is_rejected():
    for bandwidth in (0, -1):
        with pytest.raises(SimError, match="bandwidth must be positive"):
            Link("l", "A", "B", bandwidth, 0, 0, Rng(1))
    dst = pton("2001:db8:b::1")
    with pytest.raises(SimError, match="rate_pps must be positive"):
        UdpStream("A", S1, dst, 0, 64, 1)
    with pytest.raises(SimError, match="payload_size must be at least 8"):
        UdpStream("A", S1, dst, 1000, 7, 1)
    UdpStream("A", S1, dst, 1, 8, 1)  # the smallest valid stream


def test_simulation_rejects_a_duplicate_link_or_daemon_id():
    sim = two_node_sim()
    with pytest.raises(SimError, match="duplicate link id 'l'"):
        sim.add_link("l", "B", "A", 1_000_000, 0)
    assert list(sim.links) == ["l"] and sim.links["l"].a == "A"
    sim = queue_sim()
    first = Drainer("d", MS)
    sim.add_daemon(first)
    with pytest.raises(SimError, match="duplicate daemon id 'd'"):
        sim.add_daemon(Drainer("d", MS))
    assert sim.daemons["d"] is first


def test_simulation_rejects_an_address_already_on_another_node():
    """A later node would take the address in addr_to_node; the refused
    node leaves the simulation as it was. One node may list an address
    twice."""
    sim = Simulation()
    b = sim.add_node(Node("B", [S1]))
    with pytest.raises(SimError, match="address 2001:db8:1::1 already on node 'B'"):
        sim.add_node(Node("D", [pton("2001:db8::d"), S1]))
    assert sim.nodes == {"B": b}
    assert sim.addr_to_node == {S1: "B"}
    sim.add_node(Node("E", [pton("2001:db8::e")] * 2))
    assert sim.addr_to_node[pton("2001:db8::e")] == "E"


def test_link_to_a_node_not_yet_added_is_rejected():
    sim = Simulation()
    sim.add_node(Node("A", [S1]))
    for a, b in (("A", "B"), ("B", "A")):
        with pytest.raises(SimError):
            sim.add_link("l", a, b, 1_000_000, 0)
    assert not sim.links and not any(node.ports for node in sim.nodes.values())


def test_forward_to_a_link_that_is_not_a_port_drops_the_packet():
    sim = two_node_sim()
    sim.nodes["A"].fib_insert(FibEntry(S2, 128, [(S2, "elsewhere")]))
    p = make_udp_packet(S1, S2, b"x" * 16)
    sim.send("A", p)
    stats = sim.run_until(1_000_000_000)
    assert sim.trace == [(0, "A", "drop", None, None, p.wire_size())]
    assert (dict(stats.dropped), dict(stats.drop_reasons)) == ({"A": 1}, {"bad_egress_link": 1})
    assert not stats.forwarded and not stats.link_delivered


def test_set_qdisc_unknown_link():
    sim = two_node_sim()
    with pytest.raises(UnknownLink):
        sim.set_qdisc_delay("A", "nope", 1)
    with pytest.raises(UnknownLink):
        sim.set_qdisc_delay("Z", "l", 1)


def test_duplicate_node_rejected():
    sim = Simulation()
    sim.add_node(Node("A", [S1]))
    with pytest.raises(Exception):
        sim.add_node(Node("A", [S2]))


# ---------------------------------------------------------------------------
# Metrics.

def _rec(t, node, direction, flow, seq, size=1288):
    return TraceRecord(t, node, direction, flow, seq, size)


def synthetic_trace(arrival_seqs, flow=1):
    trace = [_rec(i, "SRC", "egress", flow, s) for i, s in enumerate(sorted(arrival_seqs))]
    trace += [
        _rec(1000 + 10 * i, "SINK", "ingress", flow, s)
        for i, s in enumerate(arrival_seqs)
    ]
    return trace


def test_reorder_fraction_in_order_is_zero():
    assert reorder_fraction(synthetic_trace([0, 1, 2, 3]), 1) == 0.0


def test_reorder_fraction_single_late_packet():
    assert reorder_fraction(synthetic_trace([0, 2, 1, 3]), 1) == 0.25


def test_reorder_fraction_requires_data():
    with pytest.raises(InsufficientData):
        reorder_fraction(synthetic_trace([0]), 1)
    with pytest.raises(InsufficientData):
        reorder_fraction(synthetic_trace([0, 1, 2]), flow=9)


def test_goodput_requires_two_sink_arrivals():
    with pytest.raises(InsufficientData, match="fewer than 2 sink arrivals"):
        goodput_estimate(synthetic_trace([0]), 1)
    assert goodput_estimate(synthetic_trace([0, 1]), 1) > 0


def test_goodput_of_two_arrivals_at_one_instant_has_no_window():
    trace = [_rec(0, "SRC", "egress", 1, s) for s in (0, 1)]
    trace += [_rec(1000, "SINK", "ingress", 1, s) for s in (0, 1)]
    with pytest.raises(InsufficientData, match="zero observation window"):
        goodput_estimate(trace, 1)


def test_goodput_zero_reordering_is_bits_over_duration():
    trace = synthetic_trace([0, 1, 2, 3, 4])
    bits = 5 * (1288 - 48) * 8
    duration_s = 40 / 1e9
    assert goodput_estimate(trace, 1) == pytest.approx(bits / duration_s)


def test_goodput_monotone_in_gap_events():
    smooth = synthetic_trace(list(range(20)))
    # same arrivals but packet 1..5 delayed to the end: deep sequence holes
    gappy = synthetic_trace([0] + list(range(6, 20)) + [1, 2, 3, 4, 5])
    assert goodput_estimate(gappy, 1) < goodput_estimate(smooth, 1)


def test_trace_export_format(tmp_path):
    trace = [
        _rec(10, "A", "egress", 1, 0, 100),
        _rec(20, "B", "ingress", None, None, 44),
    ]
    path = tmp_path / "t.tsv"
    write_trace(trace, path)
    assert path.read_text() == "10\tA\tegress\t1\t0\t100\n20\tB\tingress\t-\t-\t44\n"


@pytest.fixture(scope="module", params=["setup1.json", "setup2-hybrid.json", "diamond.json"])
def fixture_run(request):
    """(config, trace) of one fixture run to its end."""
    cfg = load_scenario(fixture_path(request.param))
    sim = build_simulation(cfg)
    sim.run_until(cfg.duration_ns)
    return cfg, sim.trace


def test_trace_export_matches_the_per_row_writer_on_each_fixture(tmp_path, fixture_run):
    _, trace = fixture_run
    write_trace(trace, tmp_path / "got.tsv")
    reference_write_trace(trace, tmp_path / "want.tsv")
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


def test_trace_export_of_missing_ids_and_non_ascii_nodes_matches_the_per_row_writer(tmp_path):
    # long enough to take several writes
    trace = [
        (i, ("SÄ1", "R", "节点")[i % 3], ("ingress", "egress", "drop")[i % 3],
         None if i % 4 == 0 else i % 7, None if i % 5 == 0 else i, 40 + i % 1500)
        for i in range(10_000)
    ]
    write_trace(trace, tmp_path / "got.tsv")
    reference_write_trace(trace, tmp_path / "want.tsv")
    got = (tmp_path / "got.tsv").read_bytes()
    assert got == (tmp_path / "want.tsv").read_bytes()
    assert got.decode("utf-8").splitlines()[:2] == ["0\tSÄ1\tingress\t-\t-\t40", "1\tR\tegress\t1\t1\t41"]


def _metric_or_error(metric, trace, flow):
    try:
        return metric(trace, flow)
    except InsufficientData as exc:
        return f"InsufficientData: {exc}"


def test_sink_metrics_match_the_two_pass_scan_on_each_fixture(monkeypatch, fixture_run):
    cfg, trace = fixture_run
    flows = sorted({g.flow for g in cfg.generators})
    for flow in flows:
        assert sim_mod.sink_arrivals(trace, flow) == reference_sink_ingress(trace, flow)
    metrics = (reorder_fraction, goodput_estimate)
    got = [_metric_or_error(m, trace, flow) for m in metrics for flow in flows]
    monkeypatch.setattr(sim_mod, "sink_arrivals", reference_sink_ingress)
    assert got == [_metric_or_error(m, trace, flow) for m in metrics for flow in flows]
    assert any(isinstance(v, float) for v in got)


def test_sink_metrics_read_the_arrivals_they_are_given(fixture_run):
    """Given a flow's sink arrivals, a metric reads them and not the trace,
    and returns what it finds by scanning the trace itself."""
    cfg, trace = fixture_run
    for flow in sorted({g.flow for g in cfg.generators}):
        try:
            arrivals = sim_mod.sink_arrivals(trace, flow)
        except InsufficientData:
            continue
        for metric in (reorder_fraction, goodput_estimate):
            given = _metric_or_error(lambda _, f: metric([], f, arrivals), trace, flow)
            assert given == _metric_or_error(metric, trace, flow)


def test_sink_scan_matches_the_two_pass_scan_on_random_traces():
    """Flows 1, 2 and none cross S -> A|B -> T, where A and B drop some;
    stray rows at random nodes sometimes leave no unique sink."""
    rng = random.Random(5)
    for _ in range(300):
        trace = []
        for seq in range(rng.randrange(0, 12)):
            flow, mid = rng.choice((1, 1, 2, None)), rng.choice("AB")
            trace += [(seq, "S", "egress", flow, seq, 9), (seq, mid, "ingress", flow, seq, 9)]
            if rng.random() < 0.2:
                trace.append((seq, mid, "drop", flow, seq, 9))
            else:
                trace += [(seq, mid, "egress", flow, seq, 9), (seq, "T", "ingress", flow, seq, 9)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            row = (0, rng.choice("SABT"), rng.choice(("ingress", "egress", "drop")), 1, 0, 9)
            trace.insert(rng.randrange(len(trace) + 1), row)
        for flow in (1, 2, None):
            outcomes = []
            for scan in (sim_mod.sink_arrivals, reference_sink_ingress):
                try:
                    outcomes.append(scan(trace, flow))
                except InsufficientData as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]


def test_two_candidate_sinks_raise_insufficient_data():
    trace = synthetic_trace([0, 1, 2]) + [_rec(2000, "OTHER", "ingress", 1, 9)]
    for metric in (reorder_fraction, goodput_estimate):
        with pytest.raises(InsufficientData) as exc:
            metric(trace, 1)
        assert str(exc.value) == (
            "flow 1: cannot identify a unique sink (candidates ['OTHER', 'SINK'])"
        )


def test_trace_ids_roundtrip():
    stream = UdpStream("A", S1, S2, 1000, 64, 1, flow=7)
    p = stream.build(41)
    assert trace_ids(p) == (7, 41)
    assert trace_ids(make_udp_packet(S1, S2, b"\x00" * 20)) == (None, None)


def test_generated_packet_carries_its_ids_and_encodes_as_a_plain_udp_packet():
    stream = UdpStream(
        "A", S1, S2, 1000, 100, 1, flow=9, src_port=4000, dst_port=5000, flow_label=0x12345
    )
    p = stream.build(70000)
    assert p.trace_ids == trace_ids(p) == (9, 70000)
    payload = b"\x9c\x6f" + (9).to_bytes(2, "big") + (70000).to_bytes(4, "big") + bytes(92)
    plain = make_udp_packet(S1, S2, payload, src_port=4000, dst_port=5000, flow_label=0x12345)
    assert plain.trace_ids is None
    assert encode_packet(p) == encode_packet(plain)
    assert p.wire_size() == plain.wire_size() == 148


def test_stream_builds_its_current_payload_size():
    """A stream keeps one zero tail: a payload_size changed after a build
    gives the next packets the new size."""
    stream = UdpStream("A", S1, S2, 1000, 64, 10, flow=5)
    for seq, size in enumerate((64, 64, 1200, 1200, 8, 65)):
        stream.payload_size = size
        p = stream.build(seq)
        check_packet(p)
        payload = p.transport.payload
        assert len(payload) == size and payload[:2] == FLOW_MAGIC
        assert struct.unpack(">HI", payload[2:8]) == p.trace_ids == trace_ids(p) == (5, seq)
        assert payload[8:] == bytes(size - 8)


def test_two_streams_of_different_sizes_each_build_their_own():
    sim = two_node_sim(bw_mbps=1000)
    src = pton("2001:db8:a::1")
    got = []
    sim.bind(S2, lambda p, now: got.append((p.trace_ids[0], len(p.transport.payload))))
    sim.add_stream(UdpStream("A", src, S2, 1000, 64, 5, flow=1))
    sim.add_stream(UdpStream("A", src, S2, 1000, 1200, 5, flow=2))
    sim.run_until(1_000_000_000)
    assert sorted(got) == [(1, 64)] * 5 + [(2, 1200)] * 5
    egress = {(r.flow, r.size) for r in map(TraceRecord._make, sim.trace) if r.direction == "egress"}
    assert egress == {(1, 64 + 48), (2, 1200 + 48)}


def test_end_x_pending_state_does_not_leak_to_the_next_hop():
    # A - R1 - R2 - Z: R1's End.X sends the packet to R2 over x12; R2 must
    # route it on to Z by its own table, not by R1's pending destination
    a_addr, r1_addr, r2_addr, z_addr = (pton(f"2001:db8::{n}") for n in "a12f")
    sid = pton("fd00::e1")
    sim = Simulation(seed=1)
    a, r1, r2, z = (
        Node("A", [a_addr]), Node("R1", [r1_addr]), Node("R2", [r2_addr]), Node("Z", [z_addr])
    )
    a.fib_insert(FibEntry(b"\x00" * 16, 0, [(r1_addr, "a1")]))
    r1.add_sid(sid, EndX(r2_addr, "x12"))
    r1.fib_insert(FibEntry(b"\x00" * 16, 0, [(a_addr, "a1")]))
    r2.fib_insert(FibEntry(z_addr, 64, [(z_addr, "l2z")]))
    r2.fib_insert(FibEntry(b"\x00" * 16, 0, [(r1_addr, "x12")]))
    for node in (a, r1, r2, z):
        sim.add_node(node)
    for link_id, x, y in (("a1", "A", "R1"), ("x12", "R1", "R2"), ("l2z", "R2", "Z")):
        sim.add_link(link_id, x, y, 1_000_000_000, 1000, 0)
    p = make_srh_udp_packet(a_addr, [z_addr, sid], b"", b"x" * 16, 49152, 33434)
    sim.send("A", p)
    stats = sim.run_until(1_000_000_000)
    assert stats.delivered["Z"] == 1
    assert stats.total_dropped == 0
    assert {n: stats.forwarded[n] for n in ("A", "R1", "R2")} == {"A": 1, "R1": 1, "R2": 1}


# ---------------------------------------------------------------------------
# Statistics: read from the nodes and links that count.

class CounterReader(Daemon):
    """Reads sim.stats at every tick, beside the counts the nodes and links keep."""

    def __init__(self, interval_ns):
        super().__init__("counter-reader", interval_ns)
        self.seen = []

    def tick(self, sim, now):
        st = sim.stats
        got = (dict(st.forwarded), dict(st.delivered), dict(st.link_delivered))
        own = tuple(
            {k: c for k, o in owners.items() if (c := getattr(o, counter))}
            for owners, counter in (
                (sim.nodes, "forwarded"), (sim.nodes, "delivered"), (sim.links, "delivered"),
            )
        )
        self.seen.append((got, own))


def test_a_daemon_reads_the_nodes_own_counts_during_the_run():
    cfg = load_scenario(fixture_path("setup1.json"))
    sim = build_simulation(cfg)
    reader = CounterReader(cfg.duration_ns // 16)
    sim.add_daemon(reader)
    sim.run_until(cfg.duration_ns)
    assert [got for got, _ in reader.seen] == [own for _, own in reader.seen]
    forwarded = [sum(own[0].values()) for _, own in reader.seen]
    assert forwarded == sorted(forwarded) and len(set(forwarded)) > 10


def test_reading_a_missing_counter_reads_zero_and_leaves_the_summary_alone():
    cfg = load_scenario(fixture_path("setup1.json"))
    sim = build_simulation(cfg)
    st = sim.run_until(cfg.duration_ns)
    summary = st.summary()
    idle = next(n for n, node in sim.nodes.items() if not node.delivered)
    assert st.delivered[idle] == 0
    for counter in (
        st.delivered, st.forwarded, st.dropped, st.link_delivered,
        st.events_emitted, st.events_dropped, st.drop_reasons,
    ):
        assert counter["no-such-key"] == 0
    assert idle not in st.delivered
    assert st.summary() == summary


def test_consecutive_runs_return_one_stats_whose_counts_accumulate():
    cfg = load_scenario(fixture_path("setup1.json"))
    sim = build_simulation(cfg)
    first = sim.run_until(cfg.duration_ns // 2)
    injected, forwarded = first.injected, dict(first.forwarded)
    assert injected and forwarded
    second = sim.run_until(cfg.duration_ns)
    assert second is first is sim.stats
    assert second.injected > injected
    assert all(second.forwarded[n] >= c for n, c in forwarded.items())
    assert sum(second.forwarded.values()) > sum(forwarded.values())
    whole = build_simulation(cfg).run_until(cfg.duration_ns)
    assert second.summary() == whole.summary()
    assert second.link_delivered == whole.link_delivered


# ---------------------------------------------------------------------------
# ICMP errors carry their trace ids from birth.

def test_time_exceeded_is_born_with_the_ids_of_its_bytes_transport():
    node = Node("R", [R])
    p = make_udp_packet(S1, S2, b"x", hop_limit=1)
    node.process_ingress(p, 0)
    icmp = node.time_exceeded(p)
    assert isinstance(icmp.transport, bytes)
    assert icmp.trace_ids == (None, None) == trace_ids(icmp)


def test_traceroute_parses_no_icmp_reply_for_its_trace_ids(monkeypatch):
    parsed = []

    def recording_trace_ids(p):
        parsed.append(type(p.transport))
        return trace_ids(p)

    monkeypatch.setattr(sim_mod, "trace_ids", recording_trace_ids)
    cfg = load_scenario(fixture_path("diamond.json"))
    sim = build_simulation(cfg)
    oamp_sids = {s.node: s.sid for s in cfg.sids if s.node in ("A", "B")}
    assert multipath_traceroute(sim, "S", S2, oamp_sids).reached
    assert sim.stats.drop_reasons["hop_limit_exceeded"]  # replies were sent
    assert parsed and bytes not in parsed


# ---------------------------------------------------------------------------
# Queue-woken daemons, each against its polling twin: the same daemon with
# ``drains`` off, which ticks at every grid instant and drains what it finds.

MS = 1_000_000


class Drainer(Daemon):
    """Drains node N's event queue on each tick and records what it got."""

    def __init__(self, daemon_id, interval_ns, start_ns=0, woken=True):
        super().__init__(daemon_id, interval_ns, start_ns, node="N", drains=woken)
        self.ticks = []  # (now, drained payloads)

    def tick(self, sim, now):
        self.ticks.append((now, sim.nodes["N"].events.drain()))


class Emitter(Daemon):
    """One tick (interval 0) at at_ns, emitting payloads into N's queue."""

    def __init__(self, daemon_id, at_ns, payloads):
        super().__init__(daemon_id, 0, at_ns)
        self.payloads = payloads

    def tick(self, sim, now):
        emit(sim, *self.payloads)


def emit(sim, *payloads):
    for payload in payloads:
        sim.nodes["N"].events.emit(payload)


def queue_sim():
    sim = Simulation()
    sim.add_node(Node("N", [R]))
    return sim


def drained(daemon):
    return [(t, got) for t, got in daemon.ticks if got]


def run_emitters(woken, emits):
    """Emitters first, then a drainer on a 1 ms grid; the drainer at 20 ms."""
    sim = queue_sim()
    for i, (at, payloads) in enumerate(emits):
        sim.add_daemon(Emitter(f"e{i}", at, payloads))
    drainer = Drainer("d", MS, woken=woken)
    sim.add_daemon(drainer)
    sim.run_until(20 * MS)
    return drainer


EMITS = [
    (300_000, [b"a"]), (700_000, [b"b", b"c"]), (2 * MS, [b"d"]), (2 * MS, [b"e"]),
    (2_500_001, [b"f"]), (9_999_999, [b"g"]), (10 * MS, [b"h"]),
]


def test_woken_daemon_drains_as_its_polling_twin_without_empty_ticks():
    woken = run_emitters(True, EMITS)
    twin = run_emitters(False, EMITS)
    assert drained(woken) == drained(twin) == [
        (1 * MS, [b"a", b"b", b"c"]), (2 * MS, [b"d", b"e"]), (3 * MS, [b"f"]),
        (10 * MS, [b"g", b"h"]),
    ]
    assert woken.ticks == drained(woken)
    assert len(twin.ticks) == 21  # every grid instant from 0 to 20 ms


def test_emit_on_a_grid_instant_is_drained_at_that_instant():
    # The rule: an emit exactly at a grid instant is drained there, after
    # the emitting event, unless the daemon already ticked at that instant;
    # an emit during or after that tick waits one interval.
    class EmitTwice(Emitter):
        def tick(self, sim, now):
            super().tick(sim, now)  # wakes d for now
            sim.add_daemon(Emitter("again", now, [b"y"]))  # runs after d's tick

    sim = queue_sim()
    sim.add_daemon(EmitTwice("first", 2 * MS, [b"x"]))
    d = Drainer("d", MS)
    sim.add_daemon(d)
    sim.run_until(5 * MS)
    assert d.ticks == [(2 * MS, [b"x"]), (3 * MS, [b"y"])]


def test_emit_during_its_own_tick_waits_one_interval():
    class Echo(Drainer):
        def tick(self, sim, now):
            super().tick(sim, now)
            if self.ticks[-1][1] == [b"x"]:
                emit(sim, b"echo")

    sim = queue_sim()
    sim.add_daemon(Emitter("e", 1_500_000, [b"x"]))
    d = Echo("d", MS)
    sim.add_daemon(d)
    sim.run_until(10 * MS)
    assert d.ticks == [(2 * MS, [b"x"]), (3 * MS, [b"echo"])]


@pytest.mark.parametrize("start_ns,origin", [(0, 2_500_000), (4 * MS, 4 * MS)])
def test_events_queued_before_add_daemon_are_drained_at_the_origin(start_ns, origin):
    results = []
    for woken in (True, False):
        sim = queue_sim()
        sim.run_until(2_500_000)
        emit(sim, b"early", b"earlier")
        d = Drainer("d", MS, start_ns=start_ns, woken=woken)
        sim.add_daemon(d)
        sim.run_until(10 * MS)
        results.append(drained(d))
    assert results[0] == results[1] == [(origin, [b"early", b"earlier"])]


def test_a_second_reader_of_one_queue_is_refused():
    # one perf buffer, one reader: each would take the other's events
    sim = queue_sim()
    first = Drainer("first", MS)
    sim.add_daemon(first)
    with pytest.raises(SimError, match="already read by daemon 'first'"):
        sim.add_daemon(Drainer("second", 3 * MS))
    sim.add_daemon(Drainer("poller", MS, woken=False))  # a periodic daemon is no reader
    assert sim.nodes["N"].events.reader is first
    assert list(sim.daemons) == ["first", "poller"]


def test_overflow_between_grid_points_keeps_the_same_survivors_and_drops():
    n = EVENT_QUEUE_CAPACITY + 10
    payloads = [i.to_bytes(4, "big") for i in range(n)]
    results = []
    for woken in (True, False):
        sim = queue_sim()
        d = Drainer("d", MS, woken=woken)
        sim.add_daemon(d)
        sim.run_until(400_000)
        emit(sim, *payloads[:5])
        sim.run_until(600_000)
        emit(sim, *payloads[5:])
        sim.run_until(3 * MS)
        results.append((drained(d), sim.nodes["N"].events.dropped))
    # a full queue keeps what it holds and loses the last 10
    assert results[0] == results[1] == ([(MS, payloads[:EVENT_QUEUE_CAPACITY])], 10)


def test_woken_tick_does_not_rearm():
    sim = queue_sim()
    d = Drainer("d", MS)
    sim.add_daemon(d)
    emit(sim, b"a")
    sim.run_until(MS)
    assert d.ticks == [(0, [b"a"])]
    assert not sim._heap  # nothing scheduled until the next emit


def test_queue_woken_daemon_needs_a_positive_interval_and_a_known_node():
    sim = queue_sim()
    with pytest.raises(SimError):
        sim.add_daemon(Drainer("zero", 0))
    d = Drainer("ghost", MS)
    d.node = "X"
    with pytest.raises(SimError):
        sim.add_daemon(d)
    assert not sim.daemons


# ---------------------------------------------------------------------------
# stop_at: a handler or daemon ends the running run_until early.

class Marker(Daemon):
    """Ticks once, at at_ns, recording (id, instant) and calling action."""

    def __init__(self, daemon_id, at_ns, ran, action=None):
        super().__init__(daemon_id, 0, at_ns)
        self.ran = ran
        self.action = action

    def tick(self, sim, now):
        self.ran.append((self.id, now))
        if self.action is not None:
            self.action(sim)


def stop_at_sim(action=None):
    """Markers at 2, 5, 6 and 9 ms, and one at 4 ms that calls action."""
    sim, ran = queue_sim(), []
    for t in (2, 5, 6, 9):
        sim.add_daemon(Marker(f"m{t}", t * MS, ran))
    sim.add_daemon(Marker("stopper", 4 * MS, ran, action))
    return sim, ran


def test_stop_at_runs_every_event_up_to_t_and_ends_there():
    def stop(sim):
        sim.stop_at(6 * MS)
        sim.add_daemon(Marker("at-t", 6 * MS, ran))  # scheduled after the call

    sim, ran = stop_at_sim(stop)
    sim.run_until(10 * MS)
    assert ran == [
        ("m2", 2 * MS), ("stopper", 4 * MS), ("m5", 5 * MS), ("m6", 6 * MS), ("at-t", 6 * MS),
    ]
    assert sim.clock == 6 * MS
    sim.run_until(10 * MS)  # the later event stayed queued
    assert ran[-1] == ("m9", 9 * MS)
    assert sim.clock == 10 * MS


def test_stop_at_before_the_clock_stops_at_the_clock():
    sim, ran = stop_at_sim(lambda sim: sim.stop_at(1 * MS))
    sim.run_until(10 * MS)
    assert ran == [("m2", 2 * MS), ("stopper", 4 * MS)]
    assert sim.clock == 4 * MS


def test_stop_at_beyond_the_target_changes_nothing():
    sim, ran = stop_at_sim(lambda sim: sim.stop_at(20 * MS))
    sim.run_until(10 * MS)
    assert [t for _, t in ran] == [2 * MS, 4 * MS, 5 * MS, 6 * MS, 9 * MS]
    assert sim.clock == 10 * MS


def test_stop_at_outside_run_until_does_not_shorten_the_next_run():
    sim, ran = stop_at_sim()
    sim.run_until(3 * MS)
    sim.stop_at(5 * MS)
    sim.run_until(10 * MS)
    assert [t for _, t in ran] == [2 * MS, 4 * MS, 5 * MS, 6 * MS, 9 * MS]
    assert sim.clock == 10 * MS


# ---------------------------------------------------------------------------
# Per-hop invariants.

FIXTURE_RUNS = [
    pytest.param("setup1.json", False, id="setup1.json"),
    pytest.param("setup2-hybrid.json", False, id="setup2-hybrid.json"),
    pytest.param("diamond.json", False, id="diamond.json"),
    pytest.param("diamond.json", True, id="diamond.json-traceroute"),
]


@pytest.mark.parametrize("fixture, traceroute", FIXTURE_RUNS)
def test_every_forwarded_or_dropped_packet_keeps_its_lengths(monkeypatch, fixture, traceroute):
    """Each live packet a node forwards or drops passes check_packet, lengths
    included; a forwarded one also round-trips through the codec at its wire
    size. The traceroute keeps the discovery SIDs of A and B only, so it
    sends both probe kinds and quotes probes in time-exceeded replies."""
    apply, drop = Simulation._apply, Simulation._drop
    hops, drops = [], []

    def checked_apply(self, node, p, decision):
        if type(decision) is Forward:
            check_packet(p)
            b = encode_packet(p)
            assert encode_packet(decode_packet(b)) == b
            assert p.wire_size() == len(b)
            hops.append(node.id)
        apply(self, node, p, decision)

    def checked_drop(self, node, reason, p):
        check_packet(p)
        drops.append(reason)
        drop(self, node, reason, p)

    monkeypatch.setattr(Simulation, "_apply", checked_apply)
    monkeypatch.setattr(Simulation, "_drop", checked_drop)
    cfg = load_scenario(fixture_path(fixture))
    sim = build_simulation(cfg)
    if traceroute:
        oamp_sids = {s.node: s.sid for s in cfg.sids if s.node in ("A", "B")}
        assert multipath_traceroute(sim, "S", S2, oamp_sids).reached
        assert drops  # the hop-limited probes
    else:
        stats = sim.run_until(cfg.duration_ns)
        # every forward went through _apply: an inlined path that bypasses
        # it fails here instead of shrinking the check
        assert len(hops) == sum(stats.forwarded.values())
    assert hops


def test_transit_acts_on_packets_its_node_originates():
    """As seg6's lwtunnel output: an encaps transit at the generator's node
    S wraps every packet S sends toward T in a second IPv6 header."""
    raw = json.loads(fixture_path("diamond.json").read_text())
    raw["transits"] = [{"node": "S", "prefix": "2001:db8:2::/64", "behavior": {
        "type": "encaps", "srh": {"segments": ["2001:db8:2::1"]}, "src": "2001:db8:1::1"}}]
    cfg = parse_scenario(raw)
    sim = build_simulation(cfg)
    assert sim.run_until(cfg.duration_ns).delivered["T"] == 50
    # 112 octets plain (64 B payload), plus 40 + 24 for the outer header and SRH
    assert [r[5] for r in sim.trace if r[1:3] == ("S", "egress")] == [112 + 64] * 50


@pytest.mark.parametrize("fixture, traceroute", FIXTURE_RUNS)
def test_finished_simulation_is_freed_by_reference_counting(fixture, traceroute):
    """No reference cycle holds a simulation: its daemons' alarms and its
    probers' receivers refer back to it weakly, the cycles between a node
    and its program contexts do not reach it, and a traceroute unbinds
    its reply handler."""
    cfg = load_scenario(fixture_path(fixture))
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = build_simulation(cfg)
        sim.run_until(cfg.duration_ns // 4)
        if traceroute:
            oamp_sids = {s.node: s.sid for s in cfg.sids if s.program == "end_oamp"}
            assert multipath_traceroute(sim, "S", S2, oamp_sids).reached
        freed = weakref.ref(sim)
        del sim
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
