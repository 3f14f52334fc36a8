#!/usr/bin/env python3
"""Record the reference values of the default and held-out seeds.

    python3 perfbench/record.py

Runs one untraced pass of every workload at each of the two seeds, requires
every op to pass its invariants, and writes ``perfbench/references.json``:
per op, the values the benchmark later compares at the acceptance-criteria
tolerances, and the SHA-256 of its CSV (reported, never a failure).
Re-record only when a change is meant to move results beyond those
tolerances, and say so where the change is described.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    spec, problem = run.prepare()
    if problem:
        print(f"record: {problem}", file=sys.stderr)
        return 2
    import workloads

    references = {}
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=run.SCRATCH))
    try:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            entries = references[str(seed)] = {}
            for item in spec["workloads"]:
                workload = workloads.WORKLOADS[item["name"]]
                bench = run.Run(workload, seed, scratch / f"{item['name']}-{seed}")
                bench.references = {}
                _, _, results = bench.run()
                if not bench.correct:
                    print(f"record: {item['name']} seed {seed}: {bench.problems}", file=sys.stderr)
                    return 1
                for op in workload.ops:
                    entries[op.name] = workloads.reference_entry(op, results[op.name])
                print(f"recorded {item['name']} seed {seed}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
