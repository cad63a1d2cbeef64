"""Record the reference values that the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Runs one untimed pass of every workload for each seed in DEFAULT_SEEDS
(0 to 20 and 42) and rewrites perfbench/reference.json.  The file pins the
numerical results of the commit it was recorded from, so rerun it only
when a change of results is intended and stated.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import sys

import run

DEFAULT_SEEDS = (*range(21), 42)


def main() -> int:
    run.import_package()
    import workloads

    table = {}
    workdir = run.WORKDIR / "reference"
    try:
        for name in run.WORKLOADS:
            table[name] = {}
            for seed in DEFAULT_SEEDS:
                workload = workloads.build(name, seed, workdir, check_references=False)
                result = workload.run_pass(reference=lambda: 1.0)  # untimed
                workload.check(result)
                failed = [op for op in result.ops if op.errors]
                if failed:
                    for op in failed:
                        print(f"{name} seed {seed} {op.key}: {op.errors}", file=sys.stderr)
                    return 1
                table[name][str(seed)] = {
                    key: {k: v for k, v in values.items() if not math.isnan(v)}
                    for key, values in workloads.outputs(result).items()
                }
                print(f"{name} seed {seed}: {len(result.ops)} outputs", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORKDIR.rmdir()
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
