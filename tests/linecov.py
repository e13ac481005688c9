"""Opt-in pytest plugin: list every executable line of src/srv6sim that a
test run never executed. The default run does not load it; ask for it with

    PYTHONPATH=src:tests python -m pytest -p linecov -q

(see the README's "Install and test" for the deselections that keep the
wall-clock gates out of a traced run).

A line is executable if the compiled module maps a bytecode instruction to
it, leaving out each function's and class's own header line, which runs
in the enclosing code. A ``sys.settrace`` line tracer, installed before
the package is imported, marks the lines this process runs: work done in a
subprocess or another thread is not seen. At the end the plugin prints
each module's never-run lines as ranges, and the total.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import defaultdict
from pathlib import Path
from types import CodeType

_hits: dict[str, set[int]] = defaultdict(set)
_files: set[str] = set()
_saved_trace = None


def _package_files() -> list[Path]:
    # find_spec does not import the package, so its module lines are traced too
    spec = importlib.util.find_spec("srv6sim")
    return sorted(Path(spec.submodule_search_locations[0]).glob("*.py"))


def executable_lines(path: Path) -> set[int]:
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        own = {line for _, _, line in code.co_lines() if line}  # 0: a module's RESUME
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename in _files else None


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_configure(config):
    global _saved_trace
    _files.update(str(p) for p in _package_files())
    _saved_trace = sys.gettrace()
    sys.settrace(_global)


def pytest_unconfigure(config):
    sys.settrace(_saved_trace)


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    terminalreporter.section("never-run lines of src/srv6sim")
    total = missed = 0
    for path in _package_files():
        lines = executable_lines(path)
        never = sorted(lines - _hits[str(path)])
        total += len(lines)
        missed += len(never)
        if never:
            write(f"{path.name}: {_ranges(never)}")
    write(f"{missed} of {total} executable lines never ran")
