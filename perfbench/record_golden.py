"""Record the output digest of every op the benchmark can generate.

    python3 perfbench/record_golden.py

Runs each op of each workload's finite parameter domain once, untraced,
and writes ``perfbench/golden.json``. Run it only on a commit whose
outputs are known good; the benchmark then fails any op whose outputs
differ from the recorded ones.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import bench_ops

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(dir=bench_ops.ROOT) as tmp:
        for workload in bench_ops.WORKLOADS:
            run, check = bench_ops.RUNNERS[workload]
            for index, params in enumerate(bench_ops.op_domain(workload)):
                op = bench_ops.Op(workload, index, params)
                res = run(op, Path(tmp), **bench_ops.prepare(op))
                check(op, res)
                if res.failures:
                    print(f"{op.key}: {res.failures}", file=sys.stderr)
                    return 1
                golden[op.key] = res.digest
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} digests in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
