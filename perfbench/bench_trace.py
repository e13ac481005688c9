"""Measuring srv6sim from outside: span tracing and call counting.

The traced run replaces public functions where their callers look them
up (a module global or a class attribute) with a wrapper that records
one span per call. Every replaced attribute gets its original object
back afterwards, checked by identity. The counted run uses
``sys.setprofile`` for per-module call counts; it never shares a pass
with the traced run or the timed runs.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr``, recorded under ``name``.

    ``probe``, when given, is called with the call's positional arguments
    just before the call and its result is stored with the span."""

    owner: object
    attr: str
    name: str
    probe: Callable | None = None


class Tracer:
    """In-memory span recorder.

    Spans live in parallel arrays (start ns, end ns, parent index, name
    id, op id) so that a few hundred thousand of them stay small. A span's
    parent is the innermost wrapped call open when it started.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.name_id = array("l")
        self.op = array("l")
        self.extra: dict[int, object] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrapper(self, fn, nid: int, probe):
        start, end, parent, name_id, ops = (
            self.start, self.end, self.parent, self.name_id, self.op,
        )
        stack = self._stack
        extra = self.extra
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            ops.append(tracer.op_id)
            start.append(0)
            end.append(0)
            if probe is not None:
                extra[idx] = probe(*args)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: list[Target]) -> None:
        for t in targets:
            original = vars(t.owner)[t.attr]
            self._patched.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrapper(original, self._nid(t.name), t.probe))

    def remove(self) -> None:
        """Put every original back; raise if any attribute is not the
        very object it was before ``install``."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def write_tsv(self, path) -> None:
        """One line per span: index, name, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.start[i]}\t"
                    f"{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n"
                )


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of its interval that its direct
    child spans cover (overlapping children are counted once, and a child
    sticking out of its parent is clipped to the parent)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0
        kids = children.get(i)
        if kids:
            kids.sort()
            cur_s = cur_e = None
            for ks, ke in kids:
                ks, ke = max(ks, s), min(ke, e)
                if ke <= ks:
                    continue
                if cur_e is None or ks > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = ks, ke
                elif ke > cur_e:
                    cur_e = ke
            if cur_e is not None:
                covered += cur_e - cur_s
        out.append(e - s - covered)
    return out


class CallCounter:
    """Counts Python calls per module (by the called function's module
    globals, so dataclass-generated methods count for their class's
    module) and calls into C functions, while active."""

    def __init__(self, modules: dict[str, str]):
        self.modules = modules  # module __name__ -> short name
        self.counts: Counter = Counter()

    def _profile(self, frame, event, arg):
        if event == "call":
            short = self.modules.get(frame.f_globals.get("__name__"))
            if short is not None:
                self.counts[short] += 1
        elif event == "c_call":
            self.counts["builtins"] += 1

    def start(self) -> None:
        sys.setprofile(self._profile)

    def stop(self) -> None:
        sys.setprofile(None)
