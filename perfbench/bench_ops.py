"""Seeded ops of the four benchmark workloads, and their output checks.

An op is one thing a user does: one ``srv6sim hybrid`` or ``srv6sim owd``
experiment (load, build, run, then write the trace and stats and compute
the report), one ``multipath_traceroute`` discovery, or one batch of
packets through one pipeline case. Op parameters come from a finite
domain, drawn by a generator seeded with the workload seed, so every op
any seed can produce has an output digest recorded in ``golden.json``.

Library functions are always reached through their module or class at
call time (``scenario.build_simulation``, ``sim.write_trace``...), so the
traced run's wrappers see these calls too.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import statistics
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from srv6sim import behaviors, cli, dataplane, fib, packet, programs, scenario, usecases  # noqa: E402
from srv6sim import sim as sim_mod  # noqa: E402

WORKLOADS = ("hybrid", "owd", "traceroute", "pipeline")

# hybrid: setup2-hybrid.json with its generator cut from 4000 to 500
# packets (and the run from 7 s to 2.5 s) so that one op takes about
# 40 ms on a 2-vCPU host and a 20 s run holds over 300 ops; prober,
# start time, rate, packet size and links are unchanged.
HYBRID_PACKETS = 500
HYBRID_DURATION_MS = 2500
HYBRID_SEEDS = range(1, 33)

# owd: setup1.json with the generator scaled to 10 kpps of 64 B payloads.
OWD_RATE_PPS = 10_000
OWD_PACKETS = 1000
OWD_DURATION_MS = 200
OWD_SEEDS = range(1, 17)

TRACE_SRC = "S"
TRACE_TARGET = packet.pton("2001:db8:2::1")
TRACE_SUBSETS = tuple(
    "".join(c) for r in range(1, 5) for c in itertools.combinations("ABCD", r)
)

PIPELINE_CASES = (
    "plain", "end", "end_x", "end_t", "end_b6", "end_b6_encaps", "end_dt6",
    "t_insert", "t_encaps", "prog_noop", "prog_end_t", "prog_tag", "prog_add_tlv",
)
PIPELINE_PLENS = (1, 16, 128)
PIPELINE_BATCH = 1000
PIPELINE_BATCH_SEEDS = range(4)


@dataclass(frozen=True)
class Op:
    workload: str
    index: int
    params: tuple

    @property
    def key(self) -> str:
        return ":".join([self.workload, *map(str, self.params)])


def op_stream(workload: str, seed: int):
    """Endless, deterministic op sequence for one workload seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    combos = [(c, n) for c in PIPELINE_CASES for n in PIPELINE_PLENS]
    for index in itertools.count():
        if workload == "hybrid":
            # compensation alternates on/off, as in the criterion-6 sweep
            params = (rng.choice(HYBRID_SEEDS), "on" if index % 2 == 0 else "off")
        elif workload == "owd":
            params = (rng.choice(OWD_SEEDS),)
        elif workload == "traceroute":
            params = (rng.choice(TRACE_SUBSETS),)
        else:
            # every case at every FIB size once per round, in seeded order
            if index % len(combos) == 0:
                rng.shuffle(combos)
            case, plens = combos[index % len(combos)]
            params = (case, plens, rng.choice(PIPELINE_BATCH_SEEDS))
        yield Op(workload, index, params)


def op_domain(workload: str) -> list[tuple]:
    """Every parameter tuple ``op_stream`` can produce."""
    if workload == "hybrid":
        return [(s, c) for s in HYBRID_SEEDS for c in ("on", "off")]
    if workload == "owd":
        return [(s,) for s in OWD_SEEDS]
    if workload == "traceroute":
        return [(s,) for s in TRACE_SUBSETS]
    if workload == "pipeline":
        return [
            (c, n, b) for c in PIPELINE_CASES for n in PIPELINE_PLENS
            for b in PIPELINE_BATCH_SEEDS
        ]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class OpResult:
    """What one op did. Times are host ns; ``sim_ns`` is simulated time."""

    setup_ns: int = 0
    run_ns: int = 0
    report_ns: int = 0
    total_ns: int = 0
    records: int = 0
    packets: int = 0
    sim_ns: int = 0
    injected: int = 0
    drop_reasons: dict = field(default_factory=dict)
    events_dropped: int = 0
    unknown_probes: int = 0
    digest: str = ""
    failures: list = field(default_factory=list)
    sim: object = None  # kept until the checks are done
    outputs: dict = field(default_factory=dict)  # what the checks read
    cal_ns: int = 0  # the calibration loop's time, measured after the op
    scale: float = 1.0  # reference ns per host ns around this op


clock = time.perf_counter_ns


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _in_flight(sim) -> int:
    # packets handed to a link and not yet delivered
    return sum(1 for entry in sim._heap if entry[2][0] == "deliver")


def _check_conservation(sim, res: OpResult) -> None:
    st = sim.stats
    flying = _in_flight(sim)
    if st.injected != st.total_delivered + st.total_dropped + flying:
        res.failures.append(
            f"conservation: injected {st.injected} != delivered "
            f"{st.total_delivered} + dropped {st.total_dropped} + in flight {flying}"
        )


def _fill_sim_counts(sim, res: OpResult) -> None:
    st = sim.stats
    res.records = len(sim.trace)
    res.packets = sum(st.link_delivered.values())
    res.sim_ns = sim.clock
    res.injected = st.injected
    res.drop_reasons = dict(st.drop_reasons)
    res.events_dropped = sum(st.events_dropped.values())


# ---------------------------------------------------------------------------
# hybrid: as ``srv6sim hybrid`` runs it (cli.cmd_hybrid).

def run_hybrid(op: Op, workdir: Path) -> OpResult:
    sim_seed, comp = op.params
    res = OpResult()
    t0 = clock()
    cfg = scenario.load_scenario(scenario.fixture_path("setup2-hybrid.json"))
    scenario.apply_overrides(
        cfg, seed=sim_seed, duration_ms=HYBRID_DURATION_MS, compensation=comp == "on"
    )
    cfg.generators[0].count = HYBRID_PACKETS
    wrr_route = next(t for t in cfg.transits if t.program == "wrr")
    flow = cfg.generators[0].flow
    route_id = int(wrr_route.params.get("route_id", 0))
    sim = scenario.build_simulation(cfg)
    t1 = clock()
    stats = sim.run_until(cfg.duration_ns)
    t2 = clock()
    report = cli.Report("hybrid", cfg.name, cfg.digest, {"seed": cfg.seed, "compensation": comp})
    trace_file = workdir / f"{cfg.name}-hybrid-trace.tsv"
    sim_mod.write_trace(sim.trace, trace_file)
    summary = stats.summary()
    (workdir / f"{cfg.name}-hybrid-stats.txt").write_text(summary)
    count_a, count_b = usecases.wrr_counts(sim.nodes[wrr_route.node], route_id)
    report.add("path_a_packets", count_a, "packets")
    report.add("path_b_packets", count_b, "packets")
    report.add("reorder_fraction", sim_mod.reorder_fraction(sim.trace, flow), "")
    report.add("goodput_estimate", sim_mod.goodput_estimate(sim.trace, flow) / 1e6, "Mbps")
    prober = next(d for d in sim.daemons.values() if isinstance(d, usecases.TwdProber))
    applied = [h[2] for h in prober.history]
    report.add("applied_delay_last", applied[-1] / 1e6 if applied else 0.0, "ms")
    report.add(
        "applied_delay_mean", statistics.fmean(applied) / 1e6 if applied else 0.0, "ms"
    )
    report.add("twd_probes_received", prober.received, "probes")
    if prober.history:
        series = workdir / f"{cfg.name}-hybrid-applied.tsv"
        with open(series, "w") as fh:
            for t, link, delay in prober.history:
                fh.write(f"{t}\t{link}\t{delay}\n")
        # the file name only, so digests do not depend on the checkout path
        report.add("applied_delay_series", series.name, "file")
    text = report.to_text()
    report.write(workdir, "text")
    t3 = clock()
    res.setup_ns, res.run_ns, res.report_ns, res.total_ns = t1 - t0, t2 - t1, t3 - t2, t3 - t0
    _fill_sim_counts(sim, res)
    res.sim = sim
    res.outputs = dict(trace_file=trace_file, summary=summary, text=text, wrr=(count_a, count_b))
    return res


def check_hybrid(op: Op, res: OpResult) -> None:
    out = res.outputs
    res.digest = _sha(out["trace_file"].read_bytes(), out["summary"], out["text"])
    _check_conservation(res.sim, res)
    count_a, count_b = out["wrr"]
    n = count_a + count_b
    if n != HYBRID_PACKETS:
        res.failures.append(f"wrr scheduled {n} packets, generated {HYBRID_PACKETS}")
    # weights 50:30 reduce to a 5:3 IWRR cycle of 8 packets
    if abs(8 * count_a - 5 * n) > 5 * 8:
        res.failures.append(f"wrr split {count_a}:{count_b} is off 5:3 by more than a cycle")


# ---------------------------------------------------------------------------
# owd: as ``srv6sim owd`` runs it (cli.cmd_owd), generator scaled.

def run_owd(op: Op, workdir: Path) -> OpResult:
    (sim_seed,) = op.params
    res = OpResult()
    t0 = clock()
    cfg = scenario.load_scenario(scenario.fixture_path("setup1.json"))
    scenario.apply_overrides(cfg, seed=sim_seed, duration_ms=OWD_DURATION_MS)
    gen = cfg.generators[0]
    gen.rate_pps, gen.count = OWD_RATE_PPS, OWD_PACKETS
    dm = next(e for e in list(cfg.transits) + list(cfg.sids) if e.program == "dm_transit")
    controller_addr = dm.params["controller_addr"]
    ratio = int(dm.params.get("ratio", 100))
    sim = scenario.build_simulation(cfg)
    collector = usecases.DelayCollector()
    sim.bind(controller_addr, collector)
    t1 = clock()
    stats = sim.run_until(cfg.duration_ns)
    t2 = clock()
    report = cli.Report(
        "owd", cfg.name, cfg.digest,
        {"seed": cfg.seed, "ratio": ratio, "duration_ms": cfg.duration_ns // 1_000_000},
    )
    trace_file = workdir / f"{cfg.name}-owd-trace.tsv"
    sim_mod.write_trace(sim.trace, trace_file)
    summary = stats.summary()
    owds = [r.owd_ns for r in collector.records]
    report.add("probe_count", len(owds), "probes")
    report.add("owd_mean", statistics.fmean(owds) / 1e6 if owds else 0.0, "ms")
    report.add("owd_min", min(owds) / 1e6 if owds else 0.0, "ms")
    report.add("owd_max", max(owds) / 1e6 if owds else 0.0, "ms")
    report.add("owd_p99", cli._p99(owds) / 1e6 if owds else 0.0, "ms")
    report.add("event_drop_count", sum(stats.events_dropped.values()), "events")
    report.add("malformed_events", collector.malformed, "events")
    report.add("injected", stats.injected, "packets")
    report.add("delivered_total", stats.total_delivered, "packets")
    report.add("dropped_total", stats.total_dropped, "packets")
    text = report.to_text()
    report.write(workdir, "text")
    t3 = clock()
    res.setup_ns, res.run_ns, res.report_ns, res.total_ns = t1 - t0, t2 - t1, t3 - t2, t3 - t0
    _fill_sim_counts(sim, res)
    res.sim = sim
    res.outputs = dict(
        trace_file=trace_file, summary=summary, text=text, probes=len(owds),
        ratio=ratio, malformed=collector.malformed,
    )
    return res


def check_owd(op: Op, res: OpResult) -> None:
    out = res.outputs
    res.digest = _sha(out["trace_file"].read_bytes(), out["summary"], out["text"])
    _check_conservation(res.sim, res)
    want = OWD_PACKETS // out["ratio"]
    if out["probes"] != want:
        res.failures.append(f"{out['probes']} probes, expected {want}")
    if out["malformed"]:
        res.failures.append(f"{out['malformed']} malformed delay events")


# ---------------------------------------------------------------------------
# traceroute: one multipath discovery S -> T on diamond.json.

def run_traceroute(op: Op, workdir: Path) -> OpResult:
    (removed,) = op.params
    res = OpResult()
    t0 = clock()
    cfg = scenario.load_scenario(scenario.fixture_path("diamond.json"))
    sim = scenario.build_simulation(cfg)
    oamp_sids = {s.node: s.sid for s in cfg.sids if s.program == "end_oamp"}
    for node in removed:
        oamp_sids.pop(node, None)
    t1 = clock()
    result = usecases.multipath_traceroute(sim, TRACE_SRC, TRACE_TARGET, oamp_sids)
    t2 = clock()
    summary = sim.stats.summary()
    text = result.render()
    t3 = clock()
    res.setup_ns, res.run_ns, res.report_ns, res.total_ns = t1 - t0, t2 - t1, t3 - t2, t3 - t0
    _fill_sim_counts(sim, res)
    res.unknown_probes = result.unknown_probes
    res.sim = sim
    res.outputs = dict(
        summary=summary, text=text, result=result,
        trace_file=workdir / "diamond-traceroute-trace.tsv",
    )
    return res


def check_traceroute(op: Op, res: OpResult) -> None:
    out = res.outputs
    result = out["result"]
    # `srv6sim traceroute` writes no trace; the check writes it to hash it
    sim_mod.write_trace(res.sim.trace, out["trace_file"])
    res.digest = _sha(
        out["trace_file"].read_bytes(), out["summary"], out["text"], result.unknown_probes
    )
    _check_conservation(res.sim, res)
    if not result.reached:
        res.failures.append("target not reached")
    hop_a = result.hops.get("A")
    if hop_a is None or sorted(hop_a.nexthop_nodes) != ["B", "C"]:
        res.failures.append(f"nexthops at A: {hop_a and hop_a.nexthop_nodes}")


# ---------------------------------------------------------------------------
# pipeline: the in-process forwarding microbenchmark, one case per op.

P_SRC = packet.pton("2001:db8:1::1")
P_DST = packet.pton("2001:db8:2::1")
P_NH = packet.pton("2001:db8:2::1")
P_NH_X = packet.pton("2001:db8:9::1")
P_SID = packet.pton("fd00:72::b")
P_SID_NEXT = packet.pton("fd00:72::c")
P_ROUTER = packet.pton("2001:db8::1")
P_ROUTE_PLEN = 8
_TLV = bytes((0x63, 6)) + b"\xab" * 6


def _filler_plens(total: int) -> list[int]:
    """Prefix lengths, other than the routes' /8, that fill the FIB to
    ``total`` populated lengths; all but the 128 case sit above /8 so a
    lookup probes every one of them before it matches."""
    if total == 1:
        return []
    if total == 128:
        return [n for n in range(1, 129) if n != P_ROUTE_PLEN]
    step = (128 - P_ROUTE_PLEN) // (total - 1)
    return [P_ROUTE_PLEN + 1 + step * i for i in range(total - 1)]


def _filler_prefix(plen: int) -> bytes:
    # the destination with bit plen-1 flipped: this prefix never matches it
    key = int.from_bytes(P_DST, "big") ^ (1 << (128 - plen))
    key = (key >> (128 - plen)) << (128 - plen)
    return key.to_bytes(16, "big")


def _prog_end_t(ctx):
    programs.helper_action(ctx, behaviors.EndT(0))
    return programs.Outcome.REDIRECT


def _prog_tag(ctx):
    srh = ctx.packet.outer_srh
    programs.helper_store_bytes(ctx, 6, struct.pack(">H", (srh.tag + 1) & 0xFFFF))
    return programs.Outcome.OK


def _prog_add_tlv(ctx):
    programs.helper_adjust_srh(ctx, 8)
    programs.helper_store_bytes(ctx, 8 + 16 * len(ctx.packet.outer_srh.segments), _TLV)
    return programs.Outcome.OK


def _srh(segment: bytes) -> packet.SegmentRoutingHeader:
    return packet.SegmentRoutingHeader(segments=[segment], segments_left=0)


def build_pipeline_node(case: str, plens: int):
    """Node R with routes at /8 for the destination and the SID space,
    filler prefixes up to ``plens`` populated lengths, and ``case`` bound
    to the SID (endpoint cases) or to the destination prefix (transit)."""
    node = dataplane.Node("R", [P_ROUTER])
    node.fib_insert(fib.FibEntry(packet.pton("2000::"), P_ROUTE_PLEN, [(P_NH, "l1")]))
    node.fib_insert(fib.FibEntry(packet.pton("fd00::"), P_ROUTE_PLEN, [(P_NH, "l1")]))
    for n in _filler_plens(plens):
        node.fib_insert(fib.FibEntry(_filler_prefix(n), n, [(P_NH_X, "l2")]))
    b = behaviors
    if case == "end":
        node.add_sid(P_SID, b.End())
    elif case == "end_x":
        node.add_sid(P_SID, b.EndX(P_NH_X, "lx"))
    elif case == "end_t":
        node.add_sid(P_SID, b.EndT(0))
    elif case == "end_b6":
        node.add_sid(P_SID, b.EndB6(_srh(P_SID_NEXT)))
    elif case == "end_b6_encaps":
        node.add_sid(P_SID, b.EndB6Encaps(_srh(P_SID_NEXT), P_ROUTER))
    elif case == "end_dt6":
        node.add_sid(P_SID, b.EndDT6(0))
    elif case == "t_insert":
        node.add_transit(P_DST, 64, b.TransitInsert(_srh(P_SID_NEXT)))
    elif case == "t_encaps":
        node.add_transit(P_DST, 64, b.TransitEncaps(_srh(P_SID_NEXT), P_ROUTER))
    elif case.startswith("prog_"):
        prog = {
            "prog_noop": programs.make_program("noop"),
            "prog_end_t": _prog_end_t,
            "prog_tag": _prog_tag,
            "prog_add_tlv": _prog_add_tlv,
        }[case]
        node.add_program("bench", prog)
        node.add_sid(P_SID, b.EndProgram("bench"))
    elif case != "plain":
        raise ValueError(f"unknown pipeline case {case!r}")
    return node


def build_pipeline_batch(case: str, batch_seed: int) -> list:
    """PIPELINE_BATCH packets of 64 B payload with seeded flow labels."""
    rng = random.Random(f"pipeline-batch/{case}/{batch_seed}")
    P = packet
    out = []
    for _ in range(PIPELINE_BATCH):
        p = P.make_udp_packet(
            P_SRC, P_DST, rng.randbytes(64), flow_label=rng.getrandbits(20)
        )
        if case == "end_dt6":
            # outer IPv6 + SRH ending at the SID, inner packet to P_DST
            outer = P.Ipv6Header(
                src=P_SRC, dst=P_SID, next_header=P.PROTO_ROUTING,
                flow_label=p.outer_header.flow_label,
            )
            srh = P.SegmentRoutingHeader(
                segments=[P_SID], segments_left=0, next_header=P.PROTO_IPV6
            )
            p.headers.insert(0, (outer, [srh]))
            outer.payload_length = p.wire_size() - 40
        elif case not in ("plain", "t_insert", "t_encaps"):
            hdr = p.outer_header
            srh = P.SegmentRoutingHeader(
                segments=[P_DST, P_SID], segments_left=1, next_header=P.PROTO_UDP
            )
            hdr.dst = P_SID
            hdr.next_header = P.PROTO_ROUTING
            p.headers[0][1].append(srh)
            hdr.payload_length = p.wire_size() - 40
        out.append(p)
    return out


# (link, nexthop, outer destination after the hop) each case must produce
_PIPELINE_EXPECT = {
    "plain": ("l1", P_NH, P_DST),
    "end": ("l1", P_NH, P_DST),
    "end_x": ("lx", P_NH_X, P_DST),
    "end_t": ("l1", P_NH, P_DST),
    "end_b6": ("l1", P_NH, P_SID_NEXT),
    "end_b6_encaps": ("l1", P_NH, P_SID_NEXT),
    "end_dt6": ("l1", P_NH, P_DST),
    "t_insert": ("l1", P_NH, P_SID_NEXT),
    "t_encaps": ("l1", P_NH, P_SID_NEXT),
    "prog_noop": ("l1", P_NH, P_DST),
    "prog_end_t": ("l1", P_NH, P_DST),
    "prog_tag": ("l1", P_NH, P_DST),
    "prog_add_tlv": ("l1", P_NH, P_DST),
}


def run_pipeline(op: Op, workdir: Path, batch: list) -> OpResult:
    case, plens, _ = op.params
    res = OpResult()
    t0 = clock()
    node = build_pipeline_node(case, plens)
    t1 = clock()
    decisions = [node.process_ingress(p, i) for i, p in enumerate(batch)]
    t2 = clock()
    res.setup_ns, res.run_ns, res.total_ns = t1 - t0, t2 - t1, t2 - t0
    res.packets = res.records = len(batch)
    res.injected = len(batch)
    for d in decisions:
        if isinstance(d, behaviors.Drop):
            res.drop_reasons[d.reason.value] = res.drop_reasons.get(d.reason.value, 0) + 1
    res.outputs = dict(batch=batch, decisions=decisions)
    return res


def check_pipeline(op: Op, res: OpResult) -> None:
    case = op.params[0]
    batch, decisions = res.outputs["batch"], res.outputs["decisions"]
    link, nh, dst = _PIPELINE_EXPECT[case]
    want = behaviors.Forward(link, nh)
    wrong = sum(1 for d in decisions if d != want)
    wrong += sum(1 for p in batch if p.outer_header.dst != dst)
    if wrong:
        res.failures.append(f"{case}: {wrong} packets with an unexpected decision or destination")
    res.digest = _sha(
        packet.encode_packet(batch[0]), packet.encode_packet(batch[-1]),
        repr(decisions[0]), len(decisions),
    )


RUNNERS = {
    "hybrid": (run_hybrid, check_hybrid),
    "owd": (run_owd, check_owd),
    "traceroute": (run_traceroute, check_traceroute),
    "pipeline": (run_pipeline, check_pipeline),
}


def prepare(op: Op) -> dict:
    """Untimed input generation: the pipeline's packet batch."""
    if op.workload != "pipeline":
        return {}
    case, _, batch_seed = op.params
    return {"batch": build_pipeline_batch(case, batch_seed)}


def check(op: Op, res: OpResult, golden: dict) -> None:
    """Semantic checks for any seed, then the recorded digest."""
    RUNNERS[op.workload][1](op, res)
    want = golden.get(op.key)
    if want is None:
        res.failures.append(f"no recorded digest for {op.key}")
    elif want != res.digest:
        res.failures.append(f"digest {res.digest[:12]} != recorded {want[:12]} for {op.key}")
