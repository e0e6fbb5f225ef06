#!/usr/bin/env python3
"""Benchmark of tripwire-nets: one workload, checked, with end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload theorems --seed 1 --seconds 30 --trace 0

Run from any directory; the package is imported from the `src/` next to
this directory.  The workload runs in this one process, in whole rounds
of the same operations (see workloads.py) until `--seconds` have passed.
Each round draws new inputs from the run's generator, which `--seed`
seeds, so no round repeats another's seeded inputs.  Every operation's output is
checked; the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timings are scaled to a reference machine speed.  A fixed probe of numpy
and pure-Python work that calls no tripwire code is timed between the
operations, and each operation's time is multiplied by
CALIBRATION_REFERENCE_S / (mean of the probe times just before and just
after it).  A program change moves the scaled times as it moves the raw
ones, while a phase in which the whole machine runs slower moves the
probe as well.

--trace 0 reports the end-to-end metrics:
    setup_s      median over fresh processes of import + CLI parser + cache warm-up
    wall_s       time to a verdict of one round: the median over the rounds
                 of the round's total time
    op_p50_ms    median latency of one operation, over every operation of
                 every round
    peak_rss_mb  peak resident memory of this process

--trace 1 follows each untraced round with the same round traced, writes
the spans to .perfbench-out/spans-<workload>-<seed>.jsonl and reports the
per-layer metrics (per traced round, unscaled) and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("local-optimum", "theorems", "differential")
# Fresh processes timed for setup_s, spread over the run (one before the
# timed rounds, one after each round, the rest at the end) so that a
# short phase of contention on a shared machine cannot set the median.
SETUP_PROBES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Median time of calibration_probe() on the machine described in
# README.md; scaled timings are seconds at that machine's speed.
CALIBRATION_REFERENCE_S = 0.0125
# The probe runs at the start and end of every round and between two
# operations once this much time has passed since it last ran.
CALIBRATION_EVERY_S = 0.25


def calibration_probe() -> float:
    """Time a fixed mix of numpy and pure-Python work that calls no tripwire code."""
    import numpy as np

    start = time.perf_counter()
    values = np.random.default_rng(0).random(100_000)
    for _ in range(3):
        np.sort(values)
    total = 0
    for i in range(100_000):
        total += i * i
    small = np.arange(3000.0)
    for _ in range(300):
        small = np.sqrt(small * small + 1.0)
    return time.perf_counter() - start


class Tally:
    """Operations attempted and failed, latencies of untraced operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.latencies: list[float] = []
        self.incorrect_seen = 0
        self.known_faults: dict[str, int] = {"attempted": 0, "failed": 0}


class Round:
    """The raw operation times of one round and the probe times taken during it.

    `before[i]` is the index of the last probe taken before operation i;
    the next probe follows the operation, and the round ends with one.
    """

    def __init__(self, times: list[float], probes: list[float], before: list[int]) -> None:
        self.times = times
        self.probes = probes
        self.before = before

    def scaled(self) -> list[float]:
        """Each operation's time at the reference speed, set by the probes around it."""
        return [
            t * 2.0 * CALIBRATION_REFERENCE_S / (self.probes[i] + self.probes[i + 1])
            for t, i in zip(self.times, self.before)
        ]

    def wall(self) -> float:
        return sum(self.scaled())

    def scale(self) -> float:
        """The round's typical factor from raw to scaled time, for the log."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.probes)


def run_round(ops, tally: Tally, tracer=None, op_base: int = 0) -> Round:
    """Run one round of operations and check each."""
    times: list[float] = []
    before: list[int] = []
    probes = [calibration_probe()]
    last_probe = time.perf_counter()
    for index, op in enumerate(ops):
        if time.perf_counter() - last_probe >= CALIBRATION_EVERY_S:
            probes.append(calibration_probe())
            last_probe = time.perf_counter()
        if tracer is not None:
            tracer.op_id = op_base + index
        start = time.perf_counter()
        try:
            result, problem = op.run(), None
        except Exception as exc:  # the program raised: a failed operation
            result, problem = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        before.append(len(probes) - 1)
        if tracer is None:
            tally.latencies.append(elapsed)
        if problem is None:
            try:
                problem = op.check(result)
            except Exception as exc:  # malformed output
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        tally.attempted += 1
        tally.known_faults["attempted"] += op.known_fault
        if problem is not None:
            tally.failed += 1
            tally.known_faults["failed"] += op.known_fault
            if not op.known_fault:
                tally.correct = False
                if tally.incorrect_seen < 10:
                    print(f"incorrect: {op.kind}: {problem}", file=sys.stderr)
                tally.incorrect_seen += 1
        if tracer is not None and op.out_path is not None and op.out_path.exists():
            tracer.work["cli.bytes_written"] += op.out_path.stat().st_size
    probes.append(calibration_probe())
    return Round(times, probes, before)


def probe_setup() -> float:
    """Time set-up in a fresh interpreter that imports tripwire from SRC, scaled.

    The calibration probe runs three times right after the interpreter
    exits, and the median of those sets the scale.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=False,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not _inside(Path(lines[1]), SRC):
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    probe = statistics.median(calibration_probe() for _ in range(3))
    return float(lines[0]) * CALIBRATION_REFERENCE_S / probe


def _inside(path: Path, folder: Path) -> bool:
    return path.resolve().is_relative_to(folder.resolve())


def latency_line(latencies: list[float]) -> str:
    """Sample count, median and the highest percentile with ten samples beyond it (raw times)."""
    count = len(latencies)
    line = f"op latency (raw): {count} samples, p50 {statistics.median(latencies) * 1e3:.4f} ms"
    if count < 40:
        return line + " (no tail percentile: fewer than 40 samples)"
    ordered = sorted(latencies)
    for q in (99.9, 99.0, 90.0):
        if count * (1.0 - q / 100.0) >= 10.0:
            value = ordered[min(count - 1, int(round(q / 100.0 * (count - 1))))]
            return line + f", p{q:g} {value * 1e3:.4f} ms (reference only)"
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Cap the numpy/BLAS pools at the CPUs this process may use, before numpy loads.
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    if not (SRC / "tripwire" / "__init__.py").is_file():
        print(f"error: the tripwire package is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_samples = [probe_setup()]
    import setup_probe

    tripwire = setup_probe.set_up()
    if not _inside(Path(tripwire.__file__), SRC):
        print(f"error: imported tripwire from {tripwire.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(tripwire)

    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    rounds: list[Round] = []
    traced_rounds: list[Round] = []
    rng = random.Random(f"{args.workload}:{args.seed}")
    try:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            ops = workloads.WORKLOADS[args.workload](rng, run_dir)
            rounds.append(run_round(ops, tally))
            if len(setup_samples) < SETUP_PROBES:
                setup_samples.append(probe_setup())
            if tracer is not None:
                tracer.install()
                try:
                    traced_rounds.append(run_round(ops, tally, tracer, op_base=(len(rounds) - 1) * len(ops)))
                finally:
                    tracer.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    elapsed = time.perf_counter() - start
    setup_samples += [probe_setup() for _ in range(SETUP_PROBES - len(setup_samples))]

    walls = [r.wall() for r in rounds]
    scales = [r.scale() for r in rounds]
    print(
        f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of {len(ops)} "
        f"operations, {tally.attempted} attempted, {tally.failed} failed, {elapsed:.2f} s"
    )
    print(f"known-fault operations: {tally.known_faults['failed']} of {tally.known_faults['attempted']} failed")
    print(latency_line(tally.latencies))
    print(f"round wall (raw): median {statistics.median(sum(r.times) for r in rounds):.4f} s")
    print(f"time scale: median {statistics.median(scales):.4f}, range {min(scales):.4f}-{max(scales):.4f}")
    # Inputs that recur across rounds (theorem scans depend on k only) let a
    # result cache hit after the first round; such a cache shows as a
    # first round much slower than the median.
    print(f"round wall (scaled): first {walls[0]:.4f} s, median {statistics.median(walls):.4f} s")
    print("setup_s samples (scaled): " + ", ".join(f"{s:.4f}" for s in setup_samples))
    print(f"machine: nproc {nproc}, python {sys.version.split()[0]}, numpy {sys.modules['numpy'].__version__}")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (statistics.median(t for r in rounds for t in r.scaled()) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        written, dropped = tracer.write_spans(spans_path)
        traced = statistics.median(r.wall() for r in traced_rounds)
        untraced = statistics.median(walls)
        overhead = traced - untraced
        print(f"spans: {written} written to {spans_path.relative_to(ROOT)}, {dropped} beyond the cap not kept")
        print(f"tracing overhead: {overhead:.4f} s per round (traced wall_s {traced:.4f} - untraced wall_s {untraced:.4f})")
        metrics = tracer.metrics(len(traced_rounds))
        metrics["trace.overhead_s"] = (overhead, "s")

    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
