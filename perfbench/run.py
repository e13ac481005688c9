"""srv6sim benchmark: one seeded workload per process, closed loop.

    python3 perfbench/run.py --workload hybrid --seed 1 --seconds 25 --trace 0

Workloads: hybrid, owd, traceroute, pipeline (see README.md); ``all`` runs
the four one after the other, each in its own process. One caller
runs ops back to back; the first op is a warm-up and is not timed. Every
op's outputs are checked before it counts.

--trace 0 (timed run): ops run untraced for --seconds seconds and the
end-to-end metrics of BENCHMARK.json are reported.

--trace 1: a fixed list of ops runs three times, untraced, traced (one
span per wrapped library call) and counted (per-module call counts and
trace memory), and the per-layer metrics of BENCHMARK.json are reported.
The three passes must produce identical output digests.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from bench_trace import CallCounter, Target, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent

# ops per --trace 1 pass, the first being the warm-up; fixed so that the
# per-op counts repeat exactly from run to run
TRACE_OPS = {"hybrid": 13, "owd": 13, "traceroute": 21, "pipeline": 79}

# Host speed on a shared machine drifts by up to 2x over seconds to
# minutes, and CPU time drifts with it. Every op is therefore bracketed by
# a fixed slice of interpreter work (the calibration loop), and times are
# reported in reference units: host time x REF_CAL_NS / calibration time.
# The loop runs right before and right after each op; an op's calibration
# time is the median, over it and its neighbours, of the mean of the two.
# CAL_ITERS is sized so that the loop takes about REF_CAL_NS on an idle
# 2-vCPU development host, where reference units and host units agree.
REF_CAL_NS = 1_000_000
CAL_ITERS = 2400
CAL_WINDOW = 3


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else _median(values)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def bump(self, table):
        table[self.key] = table.get(self.key, 0) + self.value
        return self.value


def calibrate() -> int:
    """Host ns of a fixed slice of interpreter work: calls, attribute and
    dict access, small allocations and integer arithmetic."""
    t0 = time.perf_counter_ns()
    table, cells, acc = {}, [], 0
    for i in range(CAL_ITERS):
        cell = _Cell(i & 127, i)
        cells.append(cell)
        acc = (acc * 31 + cell.bump(table)) & 0xFFFFFFFF
    return time.perf_counter_ns() - t0


def set_scales(results) -> None:
    """Give each op of a consecutive sequence its reference scale."""
    cals = [r.cal_ns for r in results]
    half = CAL_WINDOW // 2
    for i, r in enumerate(results):
        r.scale = REF_CAL_NS / statistics.median(cals[max(0, i - half) : i + half + 1])


class Runner:
    """Runs ops of one workload and keeps the tally of failures."""

    def __init__(self, bench_ops, workload: str, workdir: Path):
        self.B = bench_ops
        self.workload = workload
        self.workdir = workdir
        self.golden = json.loads((Path(__file__).parent / "golden.json").read_text())
        self.attempted = 0
        self.failed = 0

    def run(self, op, before=None, after=None, keep_sim=False):
        """One op, then its checks. ``before``/``after`` bracket only the
        op itself, never input generation or the checks. The op's
        simulation and outputs are released unless ``keep_sim``."""
        run, _ = self.B.RUNNERS[op.workload]
        kwargs = self.B.prepare(op)
        gc.collect()
        self.attempted += 1
        try:
            cal_before = calibrate()
            if before:
                before()
            try:
                res = run(op, self.workdir, **kwargs)
            finally:
                if after:
                    after()
            res.cal_ns = (cal_before + calibrate()) // 2
            self.B.check(op, res, self.golden)
        except Exception:
            self.failed += 1
            print(f"op {op.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if res.failures:
            self.failed += 1
            print(f"op {op.key} failed: {'; '.join(res.failures)}", file=sys.stderr)
        res.outputs = {}
        if not keep_sim:
            res.sim = None
        return res


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics.

def timed_run(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    stream = runner.B.op_stream(runner.workload, seed)
    runner.run(next(stream))  # warm-up
    ran = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(stream)
        res = runner.run(op)
        if res is not None:
            ran.append((op, res))
    set_scales([r for _, r in ran])
    results = [(op, r) for op, r in ran if not r.failures]
    if not results:
        raise RuntimeError("no op completed")
    metrics = {
        "pkts_per_s": pkts_per_s(runner.workload, results),
        "op_ms_p50": _median([r.total_ns * r.scale / 1e6 for _, r in results]),
        "op_ms_p90": _p90([r.total_ns * r.scale / 1e6 for _, r in results]),
        "setup_s": _median([r.setup_ns * r.scale / 1e9 for _, r in results]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    raw = [(op, dataclasses.replace(r, scale=1.0)) for op, r in results]
    extra = {
        "ops_counted": len(results),
        "calibration_ms": _median([r.cal_ns / 1e6 for _, r in results]),
        "host_pkts_per_s": pkts_per_s(runner.workload, raw),
        "host_op_ms_p50": _median([r.total_ns / 1e6 for _, r in results]),
        "host_op_ms_p90": _p90([r.total_ns / 1e6 for _, r in results]),
        "host_setup_s": _median([r.setup_ns / 1e9 for _, r in results]),
    }
    extra.update(sim_rates(runner.workload, results))
    return metrics, extra


def pkts_per_s(workload: str, results) -> float:
    """Packets through Node.process_ingress per second of the forwarding
    phase. On pipeline the case mix is weighted equally: the median ns per
    packet of each (case, FIB size) pair, averaged."""
    if workload != "pipeline":
        return _median([r.packets / (r.run_ns * r.scale / 1e9) for _, r in results])
    per_combo: dict[tuple, list[float]] = {}
    for op, r in results:
        per_combo.setdefault(op.params[:2], []).append(r.run_ns * r.scale / r.packets)
    return 1e9 / statistics.fmean(_median(v) for v in per_combo.values())


def sim_rates(workload: str, results) -> dict:
    """The simulator-only end-to-end figures (not on pipeline)."""
    if workload == "pipeline":
        return {}
    return {
        "records_per_s": _median([r.records / (r.run_ns * r.scale / 1e9) for _, r in results]),
        "sim_s_per_host_s": _median([r.sim_ns / (r.run_ns * r.scale) for _, r in results]),
        "report_s": _median([r.report_ns * r.scale / 1e9 for _, r in results]),
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics.

def trace_targets(B):
    T = Target
    P, D, F, Pr = B.packet, B.dataplane, B.fib, B.programs
    Bh, S, U, Sc = B.behaviors, B.sim_mod, B.usecases, B.scenario

    def queue_wait(link, sender, size, now):
        return max(0, link.dirs[sender].busy_until - now)

    def responder_idle(daemon, sim, now):
        return daemon.reply_addr is None or len(sim.nodes[daemon.node].events) == 0

    return [
        T(P.Packet, "wire_size", "packet.Packet.wire_size"),
        T(D, "encode_packet", "packet.encode_packet"),
        T(S, "make_udp_packet", "packet.make_udp_packet"),
        T(U, "make_udp_packet", "packet.make_udp_packet"),
        T(P, "validate_srh", "packet.validate_srh"),
        T(Bh, "validate_srh", "packet.validate_srh"),
        T(Pr, "validate_srh", "packet.validate_srh"),
        T(F.PrefixTable, "lookup", "fib.PrefixTable.lookup"),
        T(D, "select_nexthop", "fib.select_nexthop"),
        T(F, "fnv1a64", "fib.fnv1a64"),
        T(D, "flow_key", "programs.flow_key"),
        T(Pr, "flow_key", "programs.flow_key"),
        T(Pr, "run_transit_program", "programs.run_transit_program"),
        T(Pr, "run_endpoint_program", "programs.run_endpoint_program"),
        T(Pr, "finalize", "programs.finalize"),
        T(U, "map_get", "programs.map_get"),
        T(U, "map_put", "programs.map_put"),
        T(U, "helper_push_encap", "programs.helper_push_encap"),
        T(U, "helper_action", "programs.helper_action"),
        T(Pr, "helper_action", "programs.helper_action"),
        T(Bh, "end", "behaviors.end"),
        T(Bh, "end_dt6", "behaviors.end_dt6"),
        T(Bh, "encapsulate", "behaviors.encapsulate"),
        T(D.Node, "process_ingress", "dataplane.Node.process_ingress"),
        T(D.Node, "finish_forwarding", "dataplane.Node.finish_forwarding"),
        T(S.Simulation, "run_until", "sim.Simulation.run_until"),
        T(S.Simulation, "send", "sim.Simulation.send"),
        T(S.Link, "transmit", "sim.Link.transmit", queue_wait),
        T(S.Rng, "gauss", "sim.Rng.gauss"),
        T(S, "trace_ids", "sim.trace_ids"),
        T(S.UdpStream, "build", "sim.UdpStream.build"),
        T(S, "write_trace", "sim.write_trace"),
        T(S, "reorder_fraction", "sim.reorder_fraction"),
        T(S, "goodput_estimate", "sim.goodput_estimate"),
        T(U.OwdCollector, "tick", "usecases.OwdCollector.tick"),
        T(U.TwdProber, "tick", "usecases.TwdProber.tick"),
        T(U.OampResponder, "tick", "usecases.OampResponder.tick", responder_idle),
        T(U, "compensator_update", "usecases.compensator_update"),
        T(U, "multipath_traceroute", "usecases.multipath_traceroute"),
        T(Sc, "load_scenario", "scenario.load_scenario"),
        T(Sc, "build_simulation", "scenario.build_simulation"),
    ]


COUNTED_MODULES = {
    f"srv6sim.{m}": m
    for m in ("packet", "fib", "programs", "behaviors", "dataplane", "sim", "usecases", "scenario")
}

SPAN_CALLS = (
    "packet.Packet.wire_size", "packet.encode_packet", "packet.make_udp_packet",
    "packet.validate_srh", "fib.PrefixTable.lookup", "fib.select_nexthop", "fib.fnv1a64",
    "programs.flow_key", "programs.run_transit_program", "programs.run_endpoint_program",
    "programs.map_get", "programs.map_put", "programs.helper_push_encap",
    "programs.helper_action", "behaviors.end", "behaviors.end_dt6", "behaviors.encapsulate",
    "dataplane.Node.process_ingress", "dataplane.Node.finish_forwarding",
    "sim.Simulation.run_until", "sim.Link.transmit", "sim.Rng.gauss", "sim.trace_ids",
    "usecases.OwdCollector.tick", "usecases.TwdProber.tick", "usecases.OampResponder.tick",
    "usecases.compensator_update",
)
SPAN_SELF_NS = (
    "packet.Packet.wire_size", "packet.encode_packet", "packet.make_udp_packet",
    "packet.validate_srh", "fib.PrefixTable.lookup", "fib.fnv1a64", "programs.flow_key",
    "programs.run_transit_program", "programs.run_endpoint_program", "programs.finalize",
    "programs.helper_push_encap", "behaviors.end", "behaviors.end_dt6",
    "behaviors.encapsulate", "dataplane.Node.process_ingress",
    "dataplane.Node.finish_forwarding", "sim.Link.transmit", "sim.trace_ids",
    "sim.UdpStream.build", "usecases.OwdCollector.tick", "usecases.TwdProber.tick",
    "usecases.OampResponder.tick",
)
SPAN_SELF_MS = (
    "sim.write_trace", "sim.reorder_fraction", "sim.goodput_estimate",
    "scenario.load_scenario", "scenario.build_simulation",
)


def traced_run(runner: Runner, seed: int, spans_path: Path) -> tuple[dict, bool]:
    B = runner.B
    ops = list(itertools.islice(B.op_stream(runner.workload, seed), TRACE_OPS[runner.workload]))

    ref = [runner.run(op) for op in ops]
    set_scales([r for r in ref if r is not None])

    tracer = Tracer()
    traced = []
    with tracer:
        tracer.install(trace_targets(B))
        for i, op in enumerate(ops):
            # spans from input generation and checks get op id -1
            def enter(i=i):
                tracer.op_id = i

            def leave():
                tracer.op_id = -1

            traced.append(runner.run(op, enter, leave))
    set_scales([r for r in traced if r is not None])

    counted, trace_bytes = [], 0
    counter = CallCounter(COUNTED_MODULES)
    for op in ops[1:]:
        tracemalloc.start()
        res = runner.run(op, counter.start, counter.stop, keep_sim=True)
        if res is not None and res.sim is not None:
            held = tracemalloc.get_traced_memory()[0]
            res.sim.trace = []
            trace_bytes += held - tracemalloc.get_traced_memory()[0]
            res.sim = None
        tracemalloc.stop()
        counted.append(res)

    same = all(
        r is not None and t is not None and r.digest == t.digest
        for r, t in zip(ref, traced)
    ) and all(
        r is not None and c is not None and r.digest == c.digest
        for r, c in zip(ref[1:], counted)
    )
    if not same:
        print("traced or counted outputs differ from the untraced run", file=sys.stderr)

    tracer.write_tsv(spans_path)
    if not same or any(r is None for r in ref):
        return {}, False
    m = layer_metrics(B, runner.workload, ops, ref, traced, tracer)
    records = sum(r.records for r in ref[1:])
    for short in COUNTED_MODULES.values():
        m[f"{short}.py_calls_per_record"] = counter.counts[short] / records
    m["builtins.c_calls_per_record"] = counter.counts["builtins"] / records
    m["sim.trace_bytes_per_record"] = trace_bytes / records
    return m, True


def layer_metrics(B, workload, ops, ref, traced, tracer) -> dict:
    """Per-layer metrics from the spans of the traced pass (op 0, the
    warm-up, left out) and the untraced reference pass."""
    n_ops = len(ops) - 1
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    for i, op_id in enumerate(tracer.op):
        if op_id >= 0:
            selfs[i] *= traced[op_id].scale  # reference ns, like the timed run
    names = tracer.names
    count: dict[str, int] = {}
    self_sum: dict[str, int] = {}
    by_name: dict[str, list[int]] = {}
    for i, op_id in enumerate(tracer.op):
        if op_id < 1:
            continue
        name = names[tracer.name_id[i]]
        count[name] = count.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0) + selfs[i]
        by_name.setdefault(name, []).append(i)

    def calls(name):
        return count.get(name, 0) / n_ops

    def self_ns(name):
        return self_sum[name] / count[name] if count.get(name) else 0.0

    m = {}
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = calls(name)
    for name in SPAN_SELF_NS:
        m[f"{name}.self_ns"] = self_ns(name)
    for name in SPAN_SELF_MS:
        m[f"{name}.self_ms"] = self_ns(name) / 1e6

    m["programs.flow_key.hashed_ratio"] = (
        count.get("fib.fnv1a64", 0) / count["programs.flow_key"]
        if count.get("programs.flow_key") else 0.0
    )
    maps = [i for n in ("programs.map_get", "programs.map_put") for i in by_name.get(n, [])]
    m["programs.maps.self_ns"] = statistics.fmean(selfs[i] for i in maps) if maps else 0.0

    kept = traced[1:]
    injected = sum(t.injected for t in kept)
    drops: dict[str, int] = {}
    for t in kept:
        for reason, k in t.drop_reasons.items():
            drops[reason] = drops.get(reason, 0) + k
    for reason in B.behaviors.DropReason:
        m[f"dataplane.drops.{reason.value}"] = drops.get(reason.value, 0) / n_ops
    m["dataplane.drop_ratio"] = sum(drops.values()) / injected if injected else 0.0
    m["programs.program_error_drops"] = drops.get("program_error", 0) / n_ops
    m["programs.events_dropped"] = sum(t.events_dropped for t in kept) / n_ops

    # the event loop: run_until self time over the events it dispatched
    records = sum(t.records for t in kept)
    events = sum(
        count.get(n, 0) for n in (
            "dataplane.Node.process_ingress", "sim.UdpStream.build",
            "usecases.OwdCollector.tick", "usecases.TwdProber.tick",
            "usecases.OampResponder.tick",
        )
    ) if workload != "pipeline" else 0
    m["sim.loop.self_ns_per_event"] = (
        self_sum.get("sim.Simulation.run_until", 0) / events if events else 0.0
    )
    m["sim.events_per_record"] = events / records if events else 0.0
    waits = sorted(tracer.extra[i] for i in by_name.get("sim.Link.transmit", []))
    m["sim.link_queue_wait_sim_ns.p50"] = _median(waits)
    m["sim.link_queue_wait_sim_ns.max"] = waits[-1] if waits else 0
    ticks = by_name.get("usecases.OampResponder.tick", [])
    m["usecases.OampResponder.tick.empty_ratio"] = (
        sum(1 for i in ticks if tracer.extra[i]) / len(ticks) if ticks else 0.0
    )
    tr_spans = set(by_name.get("usecases.multipath_traceroute", []))
    m["usecases.multipath_traceroute.probes"] = sum(
        1 for i in by_name.get("sim.Simulation.send", []) if tracer.parent[i] in tr_spans
    ) / n_ops
    m["usecases.multipath_traceroute.unknown_probes"] = (
        sum(t.unknown_probes for t in kept) / n_ops
    )

    # pipeline only: lookup cost by FIB size, dispatch cost by case (at
    # FIB size 1, untraced, in reference units)
    for plens in B.PIPELINE_PLENS:
        idx = [
            i for i in by_name.get("fib.PrefixTable.lookup", [])
            if workload == "pipeline" and ops[tracer.op[i]].params[1] == plens
        ]
        m[f"fib.PrefixTable.lookup.ns-plen{plens}"] = (
            statistics.fmean(selfs[i] for i in idx) if idx else 0.0
        )
    for case in B.PIPELINE_CASES:
        per_pkt = [
            r.run_ns * r.scale / r.packets for op, r in zip(ops[1:], ref[1:])
            if workload == "pipeline" and op.params[:2] == (case, 1)
        ]
        m[f"dataplane.process_ingress.ns.{case}"] = _median(per_pkt)

    # untraced figures of the same ops, and what tracing cost
    ref_ok = list(zip(ops[1:], ref[1:]))
    untraced = sum(r.packets for _, r in ref_ok) / sum(r.run_ns * r.scale for _, r in ref_ok)
    traced_rate = sum(t.packets for t in kept) / sum(t.run_ns * t.scale for t in kept)
    m["trace.overhead_ratio"] = untraced / traced_rate
    rates = sim_rates(workload, ref_ok)
    m["sim.records_per_s"] = rates.get("records_per_s", 0.0)
    m["sim.sim_s_per_host_s"] = rates.get("sim_s_per_host_s", 0.0)
    m["sim.report_s"] = rates.get("report_s", 0.0)
    return m


# ---------------------------------------------------------------------------

def run_all(args, workloads) -> int:
    """Each workload in its own process, one after the other; the last
    line merges their results, metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in workloads:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"workload {workload} exited with code {child.returncode}", file=sys.stderr)
            code = code or child.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    if code == 0:
        print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, [w["name"] for w in spec["workloads"]])
    try:
        import bench_ops
    except ImportError as exc:
        print(f"cannot import the srv6sim sources under {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in bench_ops.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_out" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(bench_ops, args.workload, workdir)
    if args.trace:
        declared = spec["per_layer"]
        metrics, same = traced_run(runner, args.seed, workdir / "spans.tsv")
        extra = {}
    else:
        declared = spec["end_to_end"]
        metrics, extra = timed_run(runner, args.seed, args.seconds)
        same = True
    if not metrics:
        print("no metrics: outputs were wrong", file=sys.stderr)
        return 1
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1

    units = {d["name"]: d["unit"] for d in declared}
    print(f"# srv6sim benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, value in list(metrics.items()) + list(extra.items()):
        print(f"{name:<48} {value:>16.6g}  {units.get(name, '')}")
    failed = runner.failed + (0 if same else 1)
    print(f"{'op_fail_ratio':<48} {failed / runner.attempted:>16.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
