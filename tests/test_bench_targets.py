"""The benchmark's trace targets stay in place.

``perfbench/run.py --trace 1`` wraps each of its ``trace_targets`` by
reading ``vars(owner)[attr]``, so an attribute that is renamed, removed, or
only reached through another module breaks every traced run. The benchmark
may change only on its own, so the library keeps every target in place.
"""

import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_is_an_attribute_of_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_ops

    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run.trace_targets(bench_ops)
    assert targets
    missing = [f"{t.name}: {t.owner!r}.{t.attr}" for t in targets if t.attr not in vars(t.owner)]
    assert not missing


def test_link_transmit_takes_what_the_queue_wait_wrapper_reads():
    """The traced run's queue_wait(link, sender, size, now) gets
    Link.transmit's arguments, by position."""
    from srv6sim.sim import Link

    params = list(inspect.signature(Link.transmit).parameters)
    assert params == ["self", "sender", "size_bytes", "now"]


def test_each_hook_runs_its_program_under_its_own_trace_name(monkeypatch):
    """run_endpoint_program and run_transit_program are one function, so
    only the node's call site tells the hooks apart in a traced run: each
    name must count the runs of its own hook."""
    from srv6sim import programs
    from srv6sim.behaviors import EndProgram, Forward, TransitProgram
    from srv6sim.dataplane import Node
    from srv6sim.fib import FibEntry
    from srv6sim.packet import make_srh_udp_packet, make_udp_packet, pton

    calls = []
    for name in ("run_endpoint_program", "run_transit_program"):
        def counted(ctx, program, packet, now, name=name, run=getattr(programs, name)):
            calls.append((name, ctx.hook))
            return run(ctx, program, packet, now)

        monkeypatch.setattr(programs, name, counted)
    src, sid, dst = pton("2001:db8:1::1"), pton("fd00::b"), pton("2001:db8:2::1")
    node = Node("R", [pton("2001:db8::1")])
    node.fib_insert(FibEntry(bytes(16), 0, [(dst, "out")]))
    node.add_program("noop", programs.make_program("noop"))
    node.add_sid(sid, EndProgram("noop"))
    node.add_transit(dst, 64, TransitProgram("noop"))
    forward = Forward("out", dst)
    assert node.process_ingress(make_srh_udp_packet(src, [dst, sid], b"", b"x", 1, 2), 0) == forward
    assert calls == [("run_endpoint_program", programs.Hook.ENDPOINT)]
    assert node.process_ingress(make_udp_packet(src, pton("2001:db8:2::9"), b"x"), 0) == forward
    assert calls[1:] == [("run_transit_program", programs.Hook.TRANSIT)]
