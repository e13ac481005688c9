"""Command-line tool: scenario runner, the three experiment commands and
the forwarding microbenchmark.

Exit codes: 0 success, 1 partial result, 2 configuration error,
3 runtime anomaly (more than half of the injected packets dropped).
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics as pystats
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .behaviors import End, EndProgram, EndT
from .dataplane import Node
from .fib import FibEntry
from .packet import make_srh_udp_packet, make_udp_packet, pton
from .programs import (
    Outcome,
    helper_adjust_srh,
    helper_action,
    helper_store_bytes,
    make_program,
)
from .scenario import (
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    build_simulation,
    load_scenario,
    read_value,
)
from .sim import (
    InsufficientData,
    Simulation,
    goodput_estimate,
    reorder_fraction,
    sink_arrivals,
    write_trace,
)
from .usecases import DelayCollector, TwdProber, multipath_traceroute, wrr_counts

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_ANOMALY = 3


@dataclass
class Report:
    experiment: str
    scenario: str
    digest: str
    parameters: dict = field(default_factory=dict)
    metrics: list[tuple[str, object, str]] = field(default_factory=list)
    trace_path: str | None = None

    def add(self, name: str, value, unit: str = "") -> None:
        self.metrics.append((name, value, unit))

    def to_text(self) -> str:
        lines = [
            f"# srv6sim report: {self.experiment}",
            f"scenario: {self.scenario} (sha256:{self.digest[:16]})",
            "parameters: "
            + " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items())),
            "",
            f"{'metric':<32} {'value':>20}  unit",
        ]
        for name, value, unit in self.metrics:
            if isinstance(value, float):
                value = f"{value:.6g}"
            lines.append(f"{name:<32} {str(value):>20}  {unit}")
        if self.trace_path:
            lines.append("")
            lines.append(f"trace: {self.trace_path}")
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        lines = [f"experiment\t{self.experiment}\t"]
        lines.append(f"scenario\t{self.scenario}\t")
        lines.append(f"digest\t{self.digest}\t")
        for k, v in sorted(self.parameters.items()):
            lines.append(f"param:{k}\t{v}\t")
        for name, value, unit in self.metrics:
            lines.append(f"{name}\t{value}\t{unit}")
        if self.trace_path:
            lines.append(f"trace\t{self.trace_path}\t")
        return "\n".join(lines) + "\n"

    def write(self, out_dir: Path, fmt: str) -> Path:
        ext = "tsv" if fmt == "tsv" else "txt"
        path = out_dir / f"{self.scenario}-{self.experiment}-report.{ext}"
        path.write_text(self.to_tsv() if fmt == "tsv" else self.to_text(), encoding="utf-8")
        return path


def _load(path: str, args) -> ScenarioConfig:
    cfg = load_scenario(path)
    return apply_overrides(
        cfg,
        seed=getattr(args, "seed", None),
        duration_ms=getattr(args, "duration", None),
        ratio=getattr(args, "ratio", None),
        compensation={"on": True, "off": False}.get(getattr(args, "compensation", None)),
    )


def _run_common(
    cfg: ScenarioConfig, report: Report, out_dir: Path, handlers: dict
) -> tuple[Simulation, int]:
    """Create out_dir (an unusable one fails before anything is built),
    build, bind handlers {address: handler}, run, write the trace and
    stats files and add the run counters to report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sim = build_simulation(cfg)
    for addr, handler in handlers.items():
        sim.bind(addr, handler)
    stats = sim.run_until(cfg.duration_ns)
    trace_file = out_dir / f"{cfg.name}-{report.experiment}-trace.tsv"
    write_trace(sim.trace, trace_file)
    (out_dir / f"{cfg.name}-{report.experiment}-stats.txt").write_text(
        stats.summary(), encoding="utf-8"
    )
    report.trace_path = str(trace_file)
    report.add("injected", stats.injected, "packets")
    report.add("forwarded_total", sum(stats.forwarded.values()), "packets")
    report.add("delivered_total", stats.total_delivered, "packets")
    report.add("dropped_total", stats.total_dropped, "packets")
    report.add("events_emitted", sum(stats.events_emitted.values()), "events")
    report.add("events_dropped", sum(stats.events_dropped.values()), "events")
    code = EXIT_OK
    if stats.injected > 0 and stats.total_dropped / stats.injected > 0.5:
        code = EXIT_ANOMALY
    return sim, code


def cmd_run(args) -> int:
    cfg = _load(args.scenario, args)
    out_dir = Path(args.out)
    report = Report("run", cfg.name, cfg.digest, {"seed": cfg.seed})
    _, code = _run_common(cfg, report, out_dir, {})
    report.write(out_dir, args.format)
    print(report.to_text())
    return code


def cmd_owd(args) -> int:
    cfg = _load(args.scenario, args)
    dm_programs = [t for t in cfg.transits if t.program == "dm_transit"]
    dm_endpoints = [e for e in cfg.sids if e.program == "end_dm"]
    if not dm_programs or not dm_endpoints:
        raise ConfigError("$", "scenario has no delay-measurement path (dm_transit + end_dm)")
    controller_addr = dm_programs[0].params["controller_addr"]
    ratio = int(dm_programs[0].params.get("ratio", 100))

    out_dir = Path(args.out)
    report = Report(
        "owd", cfg.name, cfg.digest,
        {"seed": cfg.seed, "ratio": ratio, "duration_ms": cfg.duration_ns // 1_000_000},
    )
    collector = DelayCollector()
    _, code = _run_common(cfg, report, out_dir, {controller_addr: collector})

    owds = [r.owd_ns for r in collector.records]
    report.add("probe_count", len(owds), "probes")
    report.add("owd_mean", pystats.fmean(owds) / 1e6 if owds else 0.0, "ms")
    report.add("owd_min", min(owds) / 1e6 if owds else 0.0, "ms")
    report.add("owd_max", max(owds) / 1e6 if owds else 0.0, "ms")
    report.add("owd_p99", _p99(owds) / 1e6 if owds else 0.0, "ms")
    report.add("malformed_events", collector.malformed, "events")
    report.write(out_dir, args.format)
    print(report.to_text())
    return code


def _p99(values: list[int]) -> float:
    ordered = sorted(values)
    idx = max(0, int(len(ordered) * 0.99 + 0.5) - 1)
    return float(ordered[idx])


def cmd_hybrid(args) -> int:
    cfg = _load(args.scenario, args)
    wrr_route = next(
        (t for t in cfg.transits if t.program == "wrr"), None
    )
    prober_cfg = next((d for d in cfg.daemons if d.type == "twd_prober"), None)
    if wrr_route is None or prober_cfg is None:
        raise ConfigError("$", "scenario is not a hybrid-access setup (wrr + twd_prober)")
    flow = cfg.generators[0].flow if cfg.generators else 1
    route_id = int(wrr_route.params.get("route_id", 0))

    out_dir = Path(args.out)
    used = "on" if prober_cfg.params.get("compensate", True) else "off"  # after --compensation
    report = Report("hybrid", cfg.name, cfg.digest, {"seed": cfg.seed, "compensation": used})
    sim, code = _run_common(cfg, report, out_dir, {})

    box = sim.nodes[wrr_route.node]
    count_a, count_b = wrr_counts(box, route_id)
    report.add("path_a_packets", count_a, "packets")
    report.add("path_b_packets", count_b, "packets")
    try:
        arrivals = sink_arrivals(sim.trace, flow)
        report.add("reorder_fraction", reorder_fraction(sim.trace, flow, arrivals), "")
        report.add("goodput_estimate", goodput_estimate(sim.trace, flow, arrivals) / 1e6, "Mbps")
    except InsufficientData as exc:
        report.add("reorder_fraction", 0.0, f"insufficient data: {exc}")
        report.add("goodput_estimate", 0.0, f"insufficient data: {exc}")
    prober = next(d for d in sim.daemons.values() if isinstance(d, TwdProber))
    applied = [h[2] for h in prober.history]
    report.add("applied_delay_last", applied[-1] / 1e6 if applied else 0.0, "ms")
    report.add("applied_delay_mean", pystats.fmean(applied) / 1e6 if applied else 0.0, "ms")
    report.add("twd_probes_received", prober.received, "probes")
    if prober.history:
        series = out_dir / f"{cfg.name}-hybrid-applied.tsv"
        with open(series, "w", encoding="utf-8") as fh:
            for t, link, delay in prober.history:
                fh.write(f"{t}\t{link}\t{delay}\n")
        report.add("applied_delay_series", str(series), "file")
    report.write(out_dir, args.format)
    print(report.to_text())
    return code


def cmd_traceroute(args) -> int:
    cfg = _load(args.scenario, args)
    sim = build_simulation(cfg)
    if args.src not in sim.nodes:
        raise ConfigError("$.src", f"unknown node {args.src!r}")
    target = read_value("#/$defs/addr", args.target, "$.target")
    oamp_sids = {
        s.node: s.sid for s in cfg.sids if s.program == "end_oamp"
    }
    if args.no_oamp:
        for node in args.no_oamp.split(","):
            if node not in sim.nodes:
                raise ConfigError("$.no_oamp", f"unknown node {node!r}")
            oamp_sids.pop(node, None)
    result = multipath_traceroute(sim, args.src, target, oamp_sids)
    print(result.render())
    return EXIT_OK if result.reached else EXIT_PARTIAL


# ---------------------------------------------------------------------------
# Microbenchmark: in-process pipeline cost, no simulator in the loop.

_B_SRC = pton("2001:db8:1::1")
_B_DST = pton("2001:db8:2::1")
_B_SID = pton("fd00:72::b")
_B_TLV = bytes((0x63, 6)) + b"\xab" * 6


def _bench_end_t(ctx):
    helper_action(ctx, EndT(0))
    return Outcome.REDIRECT


def _bench_tag_increment(ctx):
    srh = ctx.packet.outer_srh
    helper_store_bytes(ctx, 6, struct.pack(">H", (srh.tag + 1) & 0xFFFF))
    return Outcome.OK


def _bench_add_tlv(ctx):
    helper_adjust_srh(ctx, 8)
    helper_store_bytes(ctx, 8 + 16 * len(ctx.packet.outer_srh.segments), _B_TLV)
    return Outcome.OK


# What each SRH case binds to the SID: None for native End, otherwise
# the End.BPF program.
_BENCH_SID_BINDINGS = {
    "end_native": None,
    "end_program_noop": make_program("noop"),
    "end_t_program": _bench_end_t,
    "tag_increment": _bench_tag_increment,
    "add_tlv": _bench_add_tlv,
}
BENCH_FUNCTIONS = ("plain", *_BENCH_SID_BINDINGS)


def _bench_case(name: str):
    """Returns (node, packet, reset) for one benchmarked function."""
    node = Node("R", [pton("2001:db8::1")])
    node.fib_insert(FibEntry(pton("2001:db8:2::"), 64, [(_B_DST, "l1")]))
    node.fib_insert(FibEntry(pton("fd00::"), 8, [(_B_DST, "l1")]))
    if name == "plain":
        p = make_udp_packet(_B_SRC, _B_DST, b"\x00" * 64)
        hdr = p.headers[0][0]

        def reset():
            hdr.hop_limit = 64

        return node, p, reset

    program = _BENCH_SID_BINDINGS[name]
    if program is None:
        node.add_sid(_B_SID, End())
    else:
        node.add_program("bench", program)
        node.add_sid(_B_SID, EndProgram("bench"))
    p = make_srh_udp_packet(_B_SRC, [_B_DST, _B_SID], b"", b"\x00" * 64, 49152, 33434)
    hdr, (srh,) = p.headers[0]
    base_plen = hdr.payload_length

    def reset():
        hdr.hop_limit = 64
        hdr.dst = _B_SID
        hdr.payload_length = base_plen
        srh.segments_left = 1
        srh.tlv_bytes = b""

    return node, p, reset


# The estimator times functions in slices of BENCH_SLICE packets, round-robin
# across functions, each slice bracketed by a short calibration loop of fixed
# interpreter work. On a shared host speed drifts by up to 2x in phases of
# seconds; a slice's time divided by the calibration time next to it cancels the phase
# it ran in, and interleaving exposes every function to the same phases.
# Results are in reference units: packets per second on a host where the
# calibration loop takes BENCH_REF_CAL_NS.
BENCH_SLICE = 200
BENCH_CAL_ITERS = 300
BENCH_REF_CAL_NS = 125_000


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def bump(self, table):
        table[self.key] = table.get(self.key, 0) + self.value
        return self.value


def _calibrate() -> int:
    """Host ns of a fixed slice of interpreter work: calls, attribute and
    dict access, small allocations and integer arithmetic."""
    t0 = time.perf_counter_ns()
    table, cells, acc = {}, [], 0
    for i in range(BENCH_CAL_ITERS):
        cell = _Cell(i & 127, i)
        cells.append(cell)
        acc = (acc * 31 + cell.bump(table)) & 0xFFFFFFFF
    return time.perf_counter_ns() - t0


def run_bench(functions=BENCH_FUNCTIONS, count: int = 20000, repeats: int = 3) -> dict:
    """Packets/second per function in reference units (see BENCH_SLICE).

    The process is pinned to a single logical CPU, where the host allows
    it. Each repeat runs `count` packets per function as calibrated slices
    interleaved across functions; a function's time is the sum, over slice
    positions, of the best calibrated slice time across `repeats`. The
    collector stays off while timing, as in timeit."""
    gc_was_enabled, cpus = gc.isenabled(), None
    gc.disable()
    try:
        try:  # cpus: the affinity to restore, None if the pin failed
            cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(cpus)})
        except (AttributeError, OSError):  # no affinity control on this host
            cpus = None
        cases = []
        for name in functions:
            node, p, reset = _bench_case(name)
            ingress = node.process_ingress
            # warmup pass also verifies the pipeline reaches a decision
            for _ in range(500):
                reset()
                ingress(p, 0)
            cases.append((name, ingress, p, reset))
        starts = range(0, count, BENCH_SLICE)
        best = {name: [None] * len(starts) for name in functions}
        for _ in range(repeats):
            cal = _calibrate()
            for k, lo in enumerate(starts):
                hi = min(lo + BENCH_SLICE, count)
                for name, ingress, p, reset in cases:
                    t0 = time.perf_counter_ns()
                    for i in range(lo, hi):
                        reset()
                        ingress(p, i)
                    dt = time.perf_counter_ns() - t0
                    cal_next = _calibrate()
                    # a preempted calibration loop only ever reads slow, so
                    # the faster of the two bracketing loops is the clean one
                    ref_ns = dt * BENCH_REF_CAL_NS / min(cal, cal_next)
                    cal = cal_next
                    slot = best[name]
                    if slot[k] is None or ref_ns < slot[k]:
                        slot[k] = ref_ns
        return {name: count / (sum(best[name]) / 1e9) for name in functions}
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
        if gc_was_enabled:
            gc.enable()


def cmd_bench(args) -> int:
    functions = args.functions.split(",") if args.functions else list(BENCH_FUNCTIONS)
    for i, f in enumerate(functions):
        if f not in BENCH_FUNCTIONS:
            raise ConfigError("$.functions", f"unknown function {f!r}")
        if f in functions[:i]:  # would be timed twice into one result
            raise ConfigError("$.functions", f"{f!r} named twice")
    if args.count < 1:
        raise ConfigError("$.count", f"{args.count} packets: need at least 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_bench(functions, count=args.count)
    report = Report("bench", "bench", "-" * 64, {"count": args.count})
    baseline = results.get("plain")
    for name in functions:
        report.add(f"pps_{name}", results[name], "pps")
        if baseline:
            report.add(f"normalized_{name}", results[name] / baseline, "")
    report.write(out_dir, args.format)
    print(report.to_text())
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_scenario(sub):
    sub.add_argument("scenario", help="scenario JSON path")
    sub.add_argument("--seed", type=int, default=None, help="override the scenario seed")


def _add_output(sub):
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--format", choices=("text", "tsv"), default="text")


def _add_run(sub):
    """The flags of the commands that run a scenario for its whole duration."""
    _add_scenario(sub)
    sub.add_argument("--duration", type=float, default=None, help="override duration (ms)")
    _add_output(sub)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="srv6sim",
        description="SRv6 programmable dataplane simulator",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    run = sp.add_parser("run", help="run a scenario and report counters")
    _add_run(run)
    run.set_defaults(func=cmd_run)

    owd = sp.add_parser("owd", help="one-way delay measurement experiment")
    _add_run(owd)
    owd.add_argument("--ratio", type=int, default=None, help="probing ratio 1:N")
    owd.set_defaults(func=cmd_owd)

    hyb = sp.add_parser("hybrid", help="hybrid-access aggregation experiment")
    _add_run(hyb)
    hyb.add_argument("--compensation", choices=("on", "off"), help="override compensate")
    hyb.set_defaults(func=cmd_hybrid)

    tr = sp.add_parser("traceroute", help="multipath discovery toward a target")
    _add_scenario(tr)
    tr.add_argument("src", help="probing node id")
    tr.add_argument("target", help="target IPv6 address")
    tr.add_argument("--no-oamp", default="", help="comma-separated nodes to probe via ICMP only")
    tr.set_defaults(func=cmd_traceroute)

    bench = sp.add_parser("bench", help="pipeline microbenchmark")
    _add_output(bench)
    bench.add_argument("--functions", default="", help=f"subset of {','.join(BENCH_FUNCTIONS)}")
    bench.add_argument("--count", type=int, default=20000, help="packets per timed loop")
    bench.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
