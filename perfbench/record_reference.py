"""Record the CSV reference values that ``check.verify`` compares runs against.

    python3 perfbench/record_reference.py

Runs every workload once for each of ``SEEDS`` in a fresh process, requires the
artifacts to pass the manifest and invariant checks, and writes the cell
text of every CSV artifact to ``perfbench/reference.json``.  Re-record only
at a commit whose outputs are known good: the file defines what "correct"
means for ``fail_frac``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads


SEEDS = range(16)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    reference: dict = {}
    for workload in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            out = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT))
            try:
                rec = run.spawn(workload, seed, out, False, run.RUN_LIMIT_S)
                if not rec["ok"]:
                    print(f"{workload} seed {seed}: {rec['error']}", file=sys.stderr)
                    return 1
                problems = check.invariant_problems(out, workload,
                                                    workloads.document(workload, seed))
                if problems:
                    print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                reference.setdefault(workload, {})[str(seed)] = check.read_csvs(out, workload)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            print(f"recorded {workload} seed {seed}")
    check.REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
