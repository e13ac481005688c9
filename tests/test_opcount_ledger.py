"""The committed counted-instruction ledger is current.

``tests/opcount_ledger.txt`` is what ``python -m opcount`` prints at this
commit, so a change that moves a count re-records it, and states the
delta. Counts hold for one interpreter, the one the ledger's first line
names: on any other the test skips.
"""

from pathlib import Path

import pytest

from opcount import INTERPRETER, ledger


def test_opcount_ledger_is_current():
    committed = (Path(__file__).parent / "opcount_ledger.txt").read_text(encoding="utf-8")
    counted_on = committed.split("\n", 1)[0]
    if counted_on != INTERPRETER:
        pytest.skip(f"the ledger was counted on {counted_on}, this is {INTERPRETER}")
    assert ledger() == committed
