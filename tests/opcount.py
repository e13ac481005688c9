"""Count the bytecode instructions a callable executes.

A ``sys.settrace`` trace function that sets ``frame.f_trace_opcodes``
gets one "opcode" event per instruction a traced frame executes. Unlike a
clock, the count is the same on every run of the same interpreter, so an
ordering stated in it cannot flake. It under-weights work done in C: a
``struct.pack`` call or a bytes slice is one instruction. Bytecode changes
between Python minor versions, so a count holds only for the interpreter
it was taken on.

    from opcount import count_instructions
    counts = count_instructions(lambda: node.process_ingress(p, 0))
    sum(counts.values())          # instructions in all
    counts["srv6sim.programs"]    # instructions run in one module

The previous trace function (a line-coverage tracer, say) is suspended
while the callable runs and restored afterwards, so the lines the
callable runs are not reported to it. The cyclic garbage collector is
held off too: a collection would run whatever ``gc.callbacks`` and
finalizers other code left behind (hypothesis registers a callback), and
count their instructions.

Run as a module, it prints the ledger committed as tests/opcount_ledger.txt:
the interpreter, instructions per bench packet, and instructions per trace
row by module for each bundled fixture run to its duration_ms.

    PYTHONPATH=src:tests python -m opcount > tests/opcount_ledger.txt
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from functools import partial

# the ledger's first line: counts hold only for the interpreter it names
INTERPRETER = f"python {sys.version.split()[0]} ({sys.implementation.name})"


def count_instructions(fn) -> Counter:
    """Instructions fn() executes, keyed by the module each ran in."""
    counts: Counter = Counter()

    def on_call(frame, event, arg):
        module = frame.f_globals.get("__name__", "?")
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def on_event(frame, event, arg):
            if event == "opcode":
                counts[module] += 1
            return on_event

        return on_event

    previous = sys.gettrace()
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return counts


def bench_packet_counts() -> dict[str, int]:
    """Instructions per bench packet for each ``srv6sim bench`` case: one
    reset(); process_ingress call on warm caches, as criterion 8's counted
    test takes it."""
    from srv6sim.cli import BENCH_FUNCTIONS, _bench_case

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
    return counts


def ledger() -> str:
    """The counted-instruction ledger: per bench packet, and per trace row
    by module for each bundled fixture's run_until to its duration_ms
    (building the simulation is not counted)."""
    from srv6sim.scenario import build_simulation, fixture_path, load_scenario

    lines = [INTERPRETER, "", "instructions per bench packet"]
    lines += [f"  {name:<18} {n}" for name, n in bench_packet_counts().items()]
    for name in ("setup1.json", "setup2-hybrid.json", "diamond.json"):
        cfg = load_scenario(fixture_path(name))
        sim = build_simulation(cfg)
        # a partial, not a lambda: no frame of this module's is counted, so
        # the ledger reads the same run as a script or imported by a test
        counts = count_instructions(partial(sim.run_until, cfg.duration_ns))
        rows, total = len(sim.trace), sum(counts.values())
        lines += ["", f"instructions per trace row, {name} ({rows} rows)",
                  f"  {'all':<18} {total / rows:.2f}"]
        lines += [f"  {module:<18} {n / rows:.2f}"
                  for module, n in sorted(counts.items(), key=lambda mn: (-mn[1], mn[0]))]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(ledger())
