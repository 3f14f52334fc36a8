#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload frames_n8 --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` repeats the workload's ops until ``--seconds`` have passed
and reports the end-to-end metrics listed in BENCHMARK.json: the median
time of a pass over the ops at reference machine speed (see speed.py), the
set-up time of a fresh process and the peak resident memory.  The median
time of each op is printed by name above the result.  ``--trace 1`` alternates untraced and traced passes (at
least two of each) and reports the per-layer metrics; the two traced passes
must give identical counts and byte-identical CSVs.  Either way every op's
output is checked, and the last line printed is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".perfbench_tmp"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); from utilsched import cli; cli.build_parser()"
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 900


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_seconds() -> float:
    """Median wall time for a fresh interpreter to import the CLI and build its parser."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC)]
    quiet = {"stdout": subprocess.DEVNULL, "check": True, "timeout": 60}
    subprocess.run(cmd, **quiet)  # compiles the bytecode a user's later runs reuse
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, **quiet)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# one workload in this process


def run_pass(workload, ctx, speed=None):
    """Run the ops once: per-op wall times, the same at reference speed (equal
    to them without a speed probe), and the results or the exceptions raised."""
    times, scaled, results = {}, {}, {}
    with speed or contextlib.nullcontext():
        for op in workload.ops:
            mark = speed.mark() if speed else 0
            start = time.perf_counter()
            try:
                results[op.name] = op.run(ctx)
            except Exception as exc:  # a raising op is a failed op; the run goes on
                results[op.name] = exc
            times[op.name] = time.perf_counter() - start
            scaled[op.name] = speed.scaled(times[op.name], mark) if speed else times[op.name]
    return times, scaled, results


class Run:
    """Passes of one workload at one seed, their checks and failure counts."""

    def __init__(self, workload, seed, scratch):
        import workloads

        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.inputs = workload.make_inputs(seed)
        self.references = workloads.load_references()
        self.check = workloads.check
        self.context = workloads.Context
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None  # fingerprints of the first pass
        self.passes = 0

    def run(self, probe=None, speed=None):
        """One pass, traced when a layer probe is given and timed against the
        machine's speed when a speed probe is; returns ``run_pass``'s result."""
        ctx = self.context(self.seed, self.scratch / f"pass{self.passes}", self.inputs)
        self.passes += 1
        if probe is not None:
            probe.install()
        try:
            times, scaled, results = run_pass(self.workload, ctx, speed)
        finally:
            if probe is not None:
                probe.remove()
        self._account(results, traced=probe is not None)
        return times, scaled, results

    def _account(self, results, traced):
        failures = self.check(self.workload, results, self.inputs, self.references)
        if self.first is None:
            self.first = {name: r.fingerprint() for name, r in results.items() if not failures[name]}
            if not any(failures.values()):
                self._self_test(results)
        for name, result in results.items():
            if not failures[name] and name in self.first and result.fingerprint() != self.first[name]:
                kind = "traced" if traced else "repeated"
                failures[name].append(f"{kind} output differs from the first pass")
        for name, reasons in failures.items():
            self.attempted += 1
            if reasons:
                self.failed += 1
                self.problems.append(f"{name}: {'; '.join(reasons)}")

    def _self_test(self, results):
        """Every injected fault must make some op fail."""
        for label, faulty in self.workload.faults(results):
            failures = self.check(self.workload, faulty, self.inputs, self.references)
            if not any(failures.values()):
                self.problems.append(f"self-test: {label} went undetected")

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, scratch):
    """Untraced passes until ``seconds`` have passed; end-to-end metrics."""
    from speed import SpeedProbe

    setup_s = setup_seconds()
    run = Run(workload, seed, scratch)
    walls, walls_ref = [], []
    per_op = {op.name: ([], []) for op in workload.ops}
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        times, scaled, _ = run.run(speed=SpeedProbe())
        walls.append(sum(times.values()))
        walls_ref.append(sum(scaled.values()))
        for name, (raw, ref) in per_op.items():
            raw.append(times[name])
            ref.append(scaled[name])
    for name, (raw, ref) in per_op.items():
        print(f"op {name}: median {median(ref):.4f} s at reference speed, {median(raw):.4f} s wall")
    print(f"wall: median {median(walls_ref):.4f} s at reference speed of {walls_ref}; "
          f"median {median(walls):.4f} s wall of {walls}")
    metrics = {"wall_ref_s": median(walls_ref), "setup_s": setup_s,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return run, metrics


def measure_traced(workload, seed, seconds, scratch):
    """Untraced and traced passes in turn; per-layer metrics."""
    from layers import EXACT, LayerProbe
    import workloads

    run = Run(workload, seed, scratch)
    untraced_walls, cpu, traced_walls, layer_runs = [], [], [], []
    untraced_results = None
    start = time.perf_counter()
    while len(layer_runs) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        cpu_start = time.process_time()
        times, _, results = run.run()
        cpu.append(time.process_time() - cpu_start)
        untraced_walls.append(sum(times.values()))
        if untraced_results is None:
            untraced_results = results
        probe = LayerProbe()
        times, _, results = run.run(probe)
        traced_walls.append(sum(times.values()))
        layer_runs.append((probe, results))

    first_probe, traced_results = layer_runs[0]
    all_metrics = [p.metrics() for p, _ in layer_runs]
    counts = [{k: v for k, v in m.items() if k in EXACT} for m in all_metrics]
    if any(c != counts[0] for c in counts[1:]):
        run.problems.append(f"traced counts differ between passes: {counts}")

    metrics = {}
    for name, value in all_metrics[0].items():
        if name in EXACT:
            metrics[name] = value
        else:
            metrics[name] = median([m[name] for m in all_metrics if name in m])
    recorded = workloads.recorded_sha256(run.references, seed)
    matches = 0
    for name, result in traced_results.items():
        if isinstance(result, Exception) or not result.csv:
            continue
        if name in recorded:
            matches += hashlib.sha256(result.csv).hexdigest() == recorded[name]
        else:
            matches += result.csv == getattr(untraced_results[name], "csv", None)
    metrics["cli.csv_bytes_match"] = matches
    metrics["process.cpu_s"] = median(cpu)
    metrics["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    print(f"reference for cli.csv_bytes_match: {'recorded sha256' if recorded else 'untraced pass'}")
    print(f"powercontrol.apply_rounds per apply_policy call: {first_probe.apply_rounds}")
    if first_probe.tracer.absent:
        print(f"absent (function gone): {first_probe.tracer.absent}")
    if first_probe.tracer.broken:
        print(f"absent (result unreadable): {sorted(first_probe.tracer.broken)}")
    print(f"traced wall {traced_walls}, untraced wall {untraced_walls}")
    return run, metrics


def run_workload(args, spec) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.trace:
            run, metrics = measure_traced(workload, args.seed, args.seconds, scratch)
            listed = spec["per_layer"]
        else:
            run, metrics = measure(workload, args.seed, args.seconds, scratch)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    for problem in run.problems:
        print(f"FAILED {problem}")
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in listed if m["name"] in metrics}
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"absent metrics: {missing}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": reported}))
    return 0


# ---------------------------------------------------------------------------
# every workload, one child process each


def run_all(args, spec) -> int:
    """Run each workload in its own process, one after another, and tabulate."""
    print("env " + json.dumps(environment(), sort_keys=True))
    status = 0
    for workload in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{workload['name']}: exit {child.returncode}\n{child.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"\n{workload['name']}  correct={result['correct']}  "
              f"ops attempted={result['attempted']} failed={result['failed']}")
        for line in lines[1:-1]:
            print(f"  {line}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def prepare():
    """Cap threads, find BENCHMARK.json and put the checkout's ``src`` first on
    the import path; returns (spec, None) or (None, reason)."""
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(NPROC)
    if not SPEC.is_file():
        return None, f"{SPEC.name} not found next to {Path(__file__).parent.name}/"
    if not (SRC / "utilsched" / "__init__.py").is_file():
        return None, f"no package source at {SRC.relative_to(ROOT)}/utilsched"
    sys.path.insert(0, str(SRC))
    import utilsched

    if Path(utilsched.__file__).resolve().parent != SRC / "utilsched":
        return None, f"imported utilsched from {utilsched.__file__}, not from {SRC}"
    return json.loads(SPEC.read_text()), None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0; held-out 7919)")
    parser.add_argument("--seconds", type=int, default=None, help="measuring time (default run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for per-layer metrics")
    args = parser.parse_args(argv)

    spec, problem = prepare()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
