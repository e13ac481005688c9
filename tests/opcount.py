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
callable runs are not reported to it.
"""

from __future__ import annotations

import sys
from collections import Counter


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
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return counts
