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
