"""The aptk benchmark: one workload in one process, untraced or traced.

    python3 perfbench/run.py --workload synth-lp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; aptk is imported from its `src/`.  Set-up
(import, input generation, writing the input files) is repeated and timed.
A first pass runs every job and checks each output independently; then
passes run back to back, one job at a time, for --seconds, and every pass
must reproduce the first pass's output digests.  With --trace 1 the first
half of that time runs untraced and the second half traced (see
tracing.py).  Times in the result are scaled to nominal machine speed (see
reference.py); the report on stderr also gives them as measured.  The last
line of stdout is the result as JSON, with the end-to-end metrics of
BENCHMARK.json under --trace 0 and its per-layer metrics under --trace 1.
The exit status is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional

import jobs as workloads
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
MIN_PASSES = 3
REFERENCE_EVERY = 0.1  # seconds of jobs between two reference computations


def load_program() -> SimpleNamespace:
    """Import aptk afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "aptk" or m.startswith("aptk.")]:
        del sys.modules[name]
    modules = ("aptio", "cli", "generators", "linalg", "lts", "petri", "synthesis")
    return SimpleNamespace(
        aptk=importlib.import_module("aptk"),
        **{name: importlib.import_module(f"aptk.{name}") for name in modules},
    )


def run_job(program, job: workloads.Job):
    """(seconds, output) of one job; the output is plain data to digest."""
    if job.outfile and os.path.exists(job.outfile):
        os.remove(job.outfile)
    start = perf_counter()
    try:
        if job.lts is not None:
            # aptk.synthesize is this function; the module attribute is what
            # the tracer wraps.
            outcome = program.synthesis.synthesize(job.lts)
        else:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                status = program.cli.main(list(job.argv))
    except Exception as exc:  # a crash is a wrong result, not the end of the run
        return perf_counter() - start, ("exception", f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - start
    if job.lts is not None:
        regions = tuple((r.initial, r.backward, r.forward) for r in outcome.regions)
        failures = (tuple(outcome.failed_ssp), tuple(outcome.failed_essp.items()))
        return elapsed, ("outcome", outcome.success, job.lts.labels, regions, failures)
    written = Path(job.outfile).read_text() if job.outfile and os.path.exists(job.outfile) else None
    return elapsed, (status, out.getvalue(), err.getvalue(), written)


def digest(output) -> bytes:
    return hashlib.sha256(repr(output).encode()).digest()


class Ledger:
    """Attempted and failed job runs.  A run fails when its job's checked
    output was wrong or its digest differs from the checked one."""

    def __init__(self, jobs: List[workloads.Job], outputs: list):
        self.jobs = jobs
        self.problems = [workloads.check(job, out) for job, out in zip(jobs, outputs)]
        self.digests = [digest(out) for out in outputs]
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.record(outputs)

    def record(self, outputs: list) -> None:
        for job, problems, expected, output in zip(self.jobs, self.problems, self.digests, outputs):
            self.attempted += 1
            if digest(output) != expected:
                problems = problems + ["output differs from the checked pass"]
            if problems:
                self.fail(f"{job.id}: {'; '.join(problems)}")

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def run_pass(program, jobs, tracer=None):
    """Run every job once; returns the measured wall time, the same time
    scaled to nominal speed, and the outputs.  Each stretch of jobs between
    two reference computations is scaled by the mean of the two."""
    wall = scaled = stretch = 0.0
    before = reference.timed()
    last = perf_counter()
    outputs = []
    for job in jobs:
        if stretch and perf_counter() - last >= REFERENCE_EVERY:
            after = reference.timed()
            scaled += stretch * 2 / (before + after)
            before, stretch, last = after, 0.0, perf_counter()
        if tracer is not None:
            tracer.job = job.id
        elapsed, output = run_job(program, job)
        wall += elapsed
        stretch += elapsed
        outputs.append(output)
    scaled += stretch * 2 / (before + reference.timed())
    return wall, scaled * reference.NOMINAL_S, outputs


def timed_passes(program, jobs, window: float, ledger: Ledger, tracer=None):
    """Passes until the next one would end after `window` seconds (at least
    MIN_PASSES); returns per pass its wall time, its wall time at nominal
    speed and, traced, its per-layer metrics."""
    walls: List[float] = []
    scaled: List[float] = []
    layers: List[Dict[str, float]] = []
    start = perf_counter()
    while True:
        if tracer is not None:
            first = len(tracer.spans)
            tracer.counts = Counter()
        wall, at_nominal, outputs = run_pass(program, jobs, tracer)
        ledger.record(outputs)
        walls.append(wall)
        scaled.append(at_nominal)
        if tracer is not None:
            layers.append(tracing.pass_metrics(tracer.spans, first, tracer.counts, wall))
        elapsed = perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed * (len(walls) + 1) / len(walls) > window:
            return walls, scaled, layers


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, check and time one workload; returns the result object."""
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference.timed()  # warm-up
        before = reference.timed()
        setups, setups_scaled = [], []
        for _ in range(SETUPS):
            start = perf_counter()
            program = load_program()
            jobs = workloads.build(workload, program, seed, work, tiny)
            setups.append(perf_counter() - start)
            after = reference.timed()
            setups_scaled.append(setups[-1] * reference.NOMINAL_S * 2 / (before + after))
            before = after

        _, _, outputs = run_pass(program, jobs)
        ledger = Ledger(jobs, outputs)
        del outputs
        walls, scaled, _ = timed_passes(program, jobs, seconds / 2 if trace else seconds, ledger)
        values: Dict[str, float] = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(setups_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if trace:
            tracer = tracing.Tracer(program)
            tracer.install()
            try:
                _, traced_scaled, layers = timed_passes(program, jobs, seconds / 2, ledger, tracer)
            finally:
                tracer.restore()
            if not tracing.counts_repeat(layers):
                ledger.fail("per-layer counts differ between traced passes")
            values = tracing.summarize(layers)
            values["trace.untraced_wall_s"] = statistics.median(walls)
            # both sides at nominal speed, so a drift of the host between the
            # untraced and the traced half does not count as tracing cost
            values["trace.overhead_ratio"] = statistics.median(traced_scaled) / statistics.median(scaled) - 1
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"{workload}.spans.tsv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in spec} != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in spec})}")
    report = sys.stderr
    print(f"workload {workload}, seed {seed}, {len(jobs)} jobs, trace {int(trace)}", file=report)
    for m in spec:
        print(f"  {m['name']:<30} {values[m['name']]:>14.6g} {m['unit']}", file=report)
    if not trace:
        for name, samples in (("wall_s", scaled), ("measured wall", walls), ("measured setup", setups)):
            q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
            print(f"  {name}: median {median:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, {len(samples)} samples", file=report)
    print(f"  fail_ratio {ledger.failed / ledger.attempted:.4g} ({ledger.failed} failed / {ledger.attempted} attempted)", file=report)
    for note in ledger.notes:
        print(f"  FAILED {note}", file=report)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "aptk" / "__init__.py").is_file():
        print(f"cannot benchmark: no aptk sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
