"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them).

Criterion 6 is split into its two clauses: 6a (reorder-ratio bound) and
6b (goodput direction). 6a is expected to fail: with the pinned per-packet
jitter (one-way stddev 2.5 ms / 1 ms) the compensated reorder fraction has
a floor near 0.30 against an uncompensated 0.625, i.e. a ratio around
0.47-0.51, and no constant egress delay can reach the 0.2 bound (the best
constant beats the controller by under 0.04). See the project notes for
the full analysis; the assertion is kept as specified rather than
loosened.
"""

import random
import struct
import time

import pytest

from srv6sim.behaviors import Drop, EndProgram, EndX, Forward, LocalDeliver
from srv6sim.cli import BENCH_FUNCTIONS, _bench_case, run_bench
from srv6sim.dataplane import Node
from srv6sim.fib import FibEntry
from srv6sim.packet import (
    ParseError,
    SegmentRoutingHeader,
    check_packet,
    decode_packet,
    encode_packet,
    make_udp_packet,
    pton,
)
from srv6sim.programs import (
    HelperError,
    Outcome,
    helper_adjust_srh,
    helper_store_bytes,
    make_program,
    run_transit_program,
)
from srv6sim.scenario import (
    apply_overrides,
    build_simulation,
    fixture_path,
    load_scenario,
    parse_scenario,
)
from srv6sim.sim import goodput_estimate, reorder_fraction
from srv6sim.usecases import multipath_traceroute, wrr_counts
from opcount import count_instructions
from util import (
    copy_packet, end_vs_noop_nodes, owd_collector_drain, owd_scenario_raw, random_packet, random_sr_packet,
    SID_END,
)

S1 = pton("2001:db8:1::1")
S2 = pton("2001:db8:2::1")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. Codec suite.

def test_criterion_1_codec_suite():
    t0 = time.perf_counter()
    rng = random.Random(0xACC1)
    for _ in range(10_000):
        p = random_packet(rng)
        raw = encode_packet(p)
        back = decode_packet(raw)
        assert back == p
        assert encode_packet(back) == raw

    bases = [encode_packet(random_packet(rng)) for _ in range(20)]
    parse_errors = 0
    for _ in range(1_000):
        raw = bytearray(rng.choice(bases))
        for _ in range(rng.randrange(1, 9)):
            if not raw:
                break
            mode = rng.random()
            if mode < 0.7:
                raw[rng.randrange(len(raw))] = rng.randrange(256)
            elif len(raw) > 2:
                del raw[rng.randrange(1, len(raw)) :]
        if not raw:
            raw = bytearray(b"\x60")
        try:
            mutant = decode_packet(bytes(raw))
        except ParseError:
            parse_errors += 1
        else:
            check_packet(mutant)  # anything accepted must be a valid packet
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(
        "1",
        ok,
        f"10^4 round-trips byte-exact, 10^3 mutations ({parse_errors} rejected, "
        f"rest parsed) in {elapsed:.1f}s (< 10s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. Sandbox fuzz.

def _random_helper_program(rng: random.Random, log: list):
    """A random sequence of helper calls; records rejected-write checks."""
    calls = [rng.randrange(0, 4) for _ in range(rng.randrange(1, 5))]
    outcome = rng.choice((Outcome.OK, Outcome.OK, Outcome.DROP, Outcome.REDIRECT))

    def program(ctx):
        for op in calls:
            if op == 0:  # random store
                srh = ctx.packet.outer_srh
                offset = rng.randrange(0, srh.wire_length + 4)
                data = rng.randbytes(rng.randrange(1, 12))
                before = encode_packet(copy_packet(ctx.packet))
                try:
                    helper_store_bytes(ctx, offset, data)
                except HelperError:
                    log.append(encode_packet(copy_packet(ctx.packet)) == before)
            elif op == 1:  # random resize
                delta = rng.choice((-16, -8, 8, 8, 16, 24))
                try:
                    helper_adjust_srh(ctx, delta)
                except HelperError:
                    pass
            elif op == 2:  # redirect destination
                try:
                    from srv6sim.programs import helper_action

                    helper_action(ctx, EndX(pton("2001:db8::77"), "l7"))
                except HelperError:
                    pass
            # op 3: no call this step
        return outcome

    return program


def test_criterion_2_sandbox_fuzz():
    t0 = time.perf_counter()
    rng = random.Random(0xACC2)
    node = Node("R", [pton("2001:db8::1")])
    node.fib_insert(FibEntry(b"\x00" * 16, 0, [(pton("2001:db8::9"), "l9")]))
    sid = pton("fd00:72::f")
    accepted = rejected_writes = dropped = 0
    untouched = []
    for i in range(10_000):
        program = _random_helper_program(rng, untouched)
        node.programs["fuzz"] = program
        if sid not in node.sids:
            node.add_sid(sid, EndProgram("fuzz"))
        p = random_sr_packet(rng, sid)
        decision = node.process_ingress(p, i)
        if isinstance(decision, (Forward, LocalDeliver)):
            accepted += 1
            raw = encode_packet(p)
            assert decode_packet(raw) is not None
        else:
            assert isinstance(decision, Drop)
            dropped += 1
    rejected_writes = len(untouched)
    assert all(untouched), "a rejected write modified packet bytes"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0 and accepted > 0 and rejected_writes > 0
    report(
        "2",
        ok,
        f"10^4 programs: {accepted} accepted re-decoded, {dropped} dropped, "
        f"{rejected_writes} rejected writes byte-identical, in {elapsed:.1f}s (< 30s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. Noop equivalence.

def test_criterion_3_noop_equivalence():
    rng = random.Random(0xACC3)
    native, programmed = end_vs_noop_nodes()
    matches = 0
    for i in range(1_000):
        # every tenth packet may arrive with segments already exhausted
        min_left = 0 if i % 10 == 0 else 1
        p1 = random_sr_packet(rng, SID_END, min_left=min_left)
        p2 = copy_packet(p1)
        if native.process_ingress(p1, i) == programmed.process_ingress(p2, i):
            matches += 1
    report("3", matches == 1000, f"{matches}/1000 identical forwarding decisions")
    assert matches == 1000


# ---------------------------------------------------------------------------
# 4. One-way delay reproduction.

PROBE_WIRE_SIZE = 224


def _run_owd(raw_cfg):
    cfg = parse_scenario(raw_cfg)
    sim = build_simulation(cfg)
    sim.run_until(cfg.duration_ns)
    return owd_collector_drain(sim.nodes["S2"].events)[0]


def test_criterion_4_owd_reproduction():
    # exactness on a jitter-free 15 ms link
    records = _run_owd(owd_scenario_raw(ratio=1, count=100, rtt_ms=30.0, stddev_ms=0.0))
    ser = PROBE_WIRE_SIZE * 8 * 1_000_000_000 // (50 * 1_000_000)
    expected = 15_000_000 + ser
    exact = all(r.owd_ns == expected for r in records) and len(records) == 100

    # jittered mean: stddev 2.5 ms one-way, 10^3 probes, 3 sigma / sqrt(n)
    records = _run_owd(
        owd_scenario_raw(
            ratio=1, count=1000, rate_pps=100, rtt_ms=30.0, stddev_ms=5.0,
            seed=11, duration_ms=11_000,
        )
    )
    assert len(records) == 1000
    mean_owd = sum(r.owd_ns for r in records) / len(records)
    sigma = 2_500_000
    bound = 3 * sigma / (1000 ** 0.5)
    mean_err = abs(mean_owd - ser - 15_000_000)
    mean_ok = mean_err <= bound

    # probing-ratio counts over 10^6 packets, at the program level
    node = Node("R", [pton("2001:db8::1")])
    node.fib_insert(FibEntry(pton("2001:db8:2::"), 64, [(S2, "l1")]))
    node.fib_insert(FibEntry(pton("fd00:73::"), 32, [(S2, "l1")]))
    base = make_udp_packet(S1, S2, b"x" * 64)
    counts = {}
    for ratio in (100, 10_000):
        prog = make_program(
            "dm_transit",
            {
                "ratio": ratio,
                "path_srh": SegmentRoutingHeader(segments=[S2, pton("fd00:73::d")], segments_left=1),
                "controller_addr": S1,
                "route_id": ratio,
                "outer_src": node.addresses[0],
            },
        )
        node.add_program(f"dm{ratio}", prog)
        shared = copy_packet(base)
        probes = 0
        for i in range(1_000_000):
            if i % ratio == 0:
                p = copy_packet(base)
                run_transit_program(node.transit_ctx, prog, p, i)
                if len(p.headers) == 2:
                    probes += 1
            else:
                run_transit_program(node.transit_ctx, prog, shared, i)
                assert len(shared.headers) == 1, "unexpected sampling"
        counts[ratio] = probes
    counts_ok = counts[100] == 10_000 and counts[10_000] == 100

    ok = exact and mean_ok and counts_ok
    report(
        "4",
        ok,
        f"zero-jitter OWDs exact={exact}; jittered mean err {mean_err/1e3:.1f}us "
        f"<= {bound/1e3:.1f}us: {mean_ok}; probe counts {counts} == {{100: 10000, 10000: 100}}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. WRR proportionality.

def iwrr_oracle(wa: int, wb: int) -> list[int]:
    out = []
    for r in range(1, max(wa, wb) + 1):
        if wa >= r:
            out.append(0)
        if wb >= r:
            out.append(1)
    return out


def test_criterion_5_wrr_proportionality():
    node = Node("A", [pton("2001:db8:a::1")])
    node.fib_insert(FibEntry(pton("fd00:6d::"), 32, [(pton("2001:db8:b::1"), "la")]))
    prog = make_program(
        "wrr",
        {
            "srh_a": SegmentRoutingHeader(segments=[pton("fd00:6d::a")], segments_left=0),
            "srh_b": SegmentRoutingHeader(segments=[pton("fd00:6d::b")], segments_left=0),
            "weights": (50, 30),
            "route_id": 1,
            "outer_src": node.addresses[0],
        },
    )
    node.add_program("wrr", prog)
    base = make_udp_packet(S1, S2, b"x" * 32)
    picks = []
    for i in range(8000):
        p = copy_packet(base)
        run_transit_program(node.transit_ctx, prog, p, i)
        picks.append(0 if p.outer_header.dst == pton("fd00:6d::a") else 1)
    counts = (picks.count(0), picks.count(1))
    oracle = iwrr_oracle(5, 3)
    pattern_ok = picks == oracle * 1000
    split_ok = counts == (5000, 3000)
    assert wrr_counts(node, 1) == (5000, 3000)
    ok = pattern_ok and split_ok
    report("5", ok, f"8000 packets split {counts[0]}:{counts[1]}, IWRR cycle oracle match={pattern_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 6. Compensation efficacy (10 seeds, both clauses).

@pytest.fixture(scope="module")
def hybrid_sweep():
    t0 = time.perf_counter()
    results = {}
    for seed in range(1, 11):
        per_seed = {}
        for comp in (False, True):
            cfg = load_scenario(fixture_path("setup2-hybrid.json"))
            apply_overrides(cfg, seed=seed, compensation=comp)
            sim = build_simulation(cfg)
            sim.run_until(cfg.duration_ns)
            per_seed[comp] = (
                reorder_fraction(sim.trace, 1),
                goodput_estimate(sim.trace, 1),
            )
        results[seed] = per_seed
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_6a_reorder_ratio(hybrid_sweep):
    elapsed = hybrid_sweep["elapsed"]
    worst = 0.0
    per_seed = []
    ok = True
    for seed in range(1, 11):
        off_r = hybrid_sweep[seed][False][0]
        on_r = hybrid_sweep[seed][True][0]
        ratio = on_r / off_r if off_r else float("inf")
        worst = max(worst, ratio)
        per_seed.append(f"{seed}:{ratio:.2f}")
        ok = ok and on_r <= 0.2 * off_r
    ok = ok and elapsed < 60.0
    report(
        "6a",
        ok,
        f"reorder(on) <= 0.2*reorder(off) per seed; ratios [{' '.join(per_seed)}], "
        f"worst {worst:.2f} vs bound 0.20, sweep {elapsed:.1f}s (< 60s)",
    )
    assert ok, (
        "compensated/uncompensated reorder ratio exceeds the 0.2 bound; "
        "this bound is unreachable under the pinned per-packet link jitter "
        "(see notes: best constant compensation floors near 0.46)"
    )


def test_criterion_6b_goodput_direction(hybrid_sweep):
    ok = True
    gains = []
    for seed in range(1, 11):
        off_g = hybrid_sweep[seed][False][1]
        on_g = hybrid_sweep[seed][True][1]
        gains.append(f"{seed}:{on_g / off_g:.1f}x")
        ok = ok and on_g > off_g
    report("6b", ok, f"goodput(on) > goodput(off) for every seed; gains [{' '.join(gains)}]")
    assert ok


# ---------------------------------------------------------------------------
# 7. Nexthop-discovery traceroute.

def test_criterion_7_oamp_traceroute():
    cfg = load_scenario(fixture_path("diamond.json"))
    sim = build_simulation(cfg)
    oamp = {s.node: s.sid for s in cfg.sids if s.program == "end_oamp"}
    res = multipath_traceroute(sim, "S", S2, oamp)
    one_probe = sim.stats.events_emitted["A"] == 1
    both = sorted(res.hops["A"].nexthop_nodes) == ["B", "C"]

    # fixed flow key: the fallback sees exactly one branch
    sim2 = build_simulation(load_scenario(fixture_path("diamond.json")))
    no_branch = dict(oamp)
    no_branch.pop("A")
    single = multipath_traceroute(sim2, "S", S2, no_branch, flow_keys=1)
    one_per_key = len(single.hops["A"].nexthop_nodes) == 1

    sim3 = build_simulation(load_scenario(fixture_path("diamond.json")))
    union = multipath_traceroute(sim3, "S", S2, no_branch, flow_keys=32)
    union_ok = (
        union.hops["A"].method == "icmp"
        and sorted(union.hops["A"].nexthop_nodes) == sorted(res.hops["A"].nexthop_nodes)
    )
    ok = one_probe and both and one_per_key and union_ok
    report(
        "7",
        ok,
        f"one probe discovered both branches={both and one_probe}; "
        f"single flow key sees one branch={one_per_key}; 32-key union equals OAMP set={union_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Bench ordering.

def test_criterion_8_bench_ordering():
    runs = []
    for _ in range(3):
        r = run_bench(count=8000, repeats=5)
        chain = (
            r["plain"] >= r["end_native"] >= r["end_program_noop"] >= r["tag_increment"]
        )
        tlv = r["end_program_noop"] >= r["add_tlv"]
        runs.append((chain, tlv, {k: round(v) for k, v in r.items()}))
    ok = all(c and t for c, t, _ in runs)
    report(
        "8",
        ok,
        "plain >= End >= noop-program >= Tag++ and noop-program >= Add-TLV "
        + f"in 3/3 runs: {[(c, t) for c, t, _ in runs]}; last pps {runs[-1][2]}",
    )
    assert ok


def test_criterion_8_counted_ordering():
    """Criterion 8's chain in bytecode instructions per bench packet (one
    reset(); process_ingress call on warm caches), which are the same on
    every run: it sits beside the wall-clock gate, not in its place."""
    t0 = time.perf_counter()
    counts = {}
    for name in BENCH_FUNCTIONS:
        node, p, reset = _bench_case(name)
        ingress = node.process_ingress
        for i in range(3):
            reset()
            ingress(p, i)

        def one_packet():
            reset()
            ingress(p, 0)

        counts[name] = sum(count_instructions(one_packet).values())
    elapsed = time.perf_counter() - t0
    c = counts
    ok = (
        c["plain"] <= c["end_native"] <= c["end_program_noop"] <= c["tag_increment"]
        and c["end_program_noop"] <= c["add_tlv"]
        and elapsed < 2.0
    )
    report(
        "8 (counted)",
        ok,
        f"plain <= End <= noop-program <= Tag++ and noop-program <= Add-TLV in "
        f"instructions per packet: {counts}, in {elapsed:.2f}s (< 2s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. Determinism.

def test_criterion_9_determinism(tmp_path):
    from srv6sim.sim import write_trace

    digests = []
    for out in ("a", "b"):
        cfg = load_scenario(fixture_path("setup2-hybrid.json"))
        apply_overrides(cfg, seed=42, duration_ms=2500)
        sim = build_simulation(cfg)
        sim.run_until(cfg.duration_ns)
        path = tmp_path / f"trace-{out}.tsv"
        write_trace(sim.trace, path)
        digests.append(path.read_bytes())
    ok = digests[0] == digests[1] and len(digests[0]) > 0
    report("9", ok, f"two seeded runs, {len(digests[0])} trace bytes, byte-identical={ok}")
    assert ok
