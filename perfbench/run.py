"""hpheat benchmark: one workload in one process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports hpheat from ./src and needs no
install.  After a short warm-up call, --trace 0 alternates set-up replays
(n_steps = 0) with full workload calls for --seconds, with a pass of a fixed
reference kernel (hostspeed.py) before and after each, and reports `wall_s`,
`setup_s` and `peak_rss_mb`.  --trace 1 alternates untraced and traced
calls instead and reports the per-layer metrics of perfbench/README.md plus
`trace.overhead_s`.  Every full call's output is checked; the operations
that fail their check are counted in `failed`.

`wall_s` and `setup_s` are host-normalized medians: each call is divided by
the mean of the reference passes around it, and the median of these ratios
is scaled by the reference kernel's time on an idle host.  On the shared
2-core host this was built on, the whole machine switches between fast and
slow phases that last from seconds to minutes, and a raw time, median or
fastest, reflects which phases the run hit; the ratio to a kernel timed next
to the call does not.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A record with the
environment, the metrics and any failure reasons is also written to
.perfbench/results/, and a traced run writes its spans there when it ends.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One BLAS thread: every workload is a serial chain of small banded or sparse
# solves, and a single thread keeps the timings steadier on a shared host.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_CALLS = 3
# The warm-up call takes a few steps through every code path, so that
# first-use costs (lazy imports, page faults, file cache) stay out of the
# timed calls without spending the run's time on a full call.
WARMUP_STEPS = 10
MIN_TRACED_PAIRS = 1

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, operations: int, failures: dict[str, str]) -> None:
        self.attempted += operations
        self.failed += len(failures)
        self.problems.extend(f"{op}: {why}" for op, why in failures.items())

    def fail_all(self, operations: int, reason: str) -> None:
        self.attempted += operations
        self.failed += operations
        self.problems.append(reason)


def full_call(workload, tally: Tally, run_id: int | None = None):
    """Time one checked workload call; traced when run_id is given.

    Returns (wall seconds, spans, counts); spans and counts are None when
    untraced.  A call that raises counts all its operations as failed.
    """
    spans = counts = output = None
    start = time.perf_counter()
    try:
        if run_id is None:
            output = workload.run(workload.n_steps)
            wall = time.perf_counter() - start
        else:
            output, wall, spans, counts = workload.traced_run(workload.n_steps, run_id)
    except Exception as exc:  # a failed operation, reported and counted
        wall = time.perf_counter() - start
        tally.fail_all(workload.operations, f"{workload.name}: {type(exc).__name__}: {exc}")
        return wall, spans, counts
    try:
        tally.add(workload.operations, workload.check(output))
    finally:
        workload.cleanup(output)
    return wall, spans, counts


def replay(workload, tally: Tally, n_steps: int) -> float:
    """Wall time of one unchecked call; a call that raises counts as failed."""
    output = None
    start = time.perf_counter()
    try:
        output = workload.run(n_steps)
    except Exception as exc:  # a failed operation, reported and counted
        tally.fail_all(workload.operations, f"{workload.name} ({n_steps} steps): {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    workload.cleanup(output)
    return elapsed


def keep_going(start: float, seconds: float, done: int, minimum: int, per_round: float) -> bool:
    """Another round fits the time budget, or the minimum is not reached."""
    return done < minimum or time.perf_counter() - start + per_round <= seconds


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.spawns_processes else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, tally: Tally, seconds: float, samples: dict) -> dict[str, float]:
    """Alternate set-up replays (n_steps = 0) with full calls for `seconds`,
    timed in passes of the host-speed reference kernel."""
    import hostspeed

    reference = hostspeed.Reference()
    reference.time()
    replay(workload, tally, WARMUP_STEPS)
    clock = hostspeed.Clock(reference)
    workload.lap = clock.lap
    setups = samples.setdefault("setup_s", [])
    walls = samples.setdefault("wall_s", [])
    setup_ratios = samples.setdefault("setup_ratio", [])
    wall_ratios = samples.setdefault("wall_ratio", [])
    samples["reference_s"] = clock.passes
    start = time.perf_counter()
    try:
        while keep_going(start, seconds, len(walls), MIN_CALLS,
                         statistics.median(setups or [0.0]) + statistics.median(walls or [0.0])):
            clock.begin()
            replay(workload, tally, 0)
            elapsed, ratio = clock.end()
            setups.append(elapsed)
            setup_ratios.append(ratio)
            clock.begin()
            full_call(workload, tally)
            elapsed, ratio = clock.end()
            walls.append(elapsed)
            wall_ratios.append(ratio)
    finally:
        del workload.lap
    return {
        "wall_s": hostspeed.normalized(wall_ratios),
        "setup_s": hostspeed.normalized(setup_ratios),
        "peak_rss_mb": peak_rss_mb(workload),
    }


def traced(workload, tally: Tally, seconds: float, samples: dict, spans_out: list) -> dict[str, float]:
    """Alternate untraced and traced calls for `seconds`.  The per-layer
    metrics are those of the fastest traced call, so that they add up to it."""
    import spans as spanlib

    replay(workload, tally, WARMUP_STEPS)
    plain = samples.setdefault("wall_s", [])
    walls = samples.setdefault("traced_wall_s", [])
    per_call: list[tuple[float, dict[str, float]]] = []
    start = time.perf_counter()
    while keep_going(start, seconds, len(walls), MIN_TRACED_PAIRS,
                     statistics.median(plain or [0.0]) + statistics.median(walls or [0.0])):
        plain.append(full_call(workload, tally)[0])
        wall, spans, counts = full_call(workload, tally, run_id=len(walls))
        walls.append(wall)
        if not spans:
            continue
        own = spanlib.self_time_total(spans)
        if own > wall:
            tally.problems.append(f"span self-times {own:.6f} s exceed traced wall {wall:.6f} s")
        per_call.append((wall, spanlib.layer_metrics(spans, counts)))
        spans_out.append(spanlib.columns(spans))
    if not per_call:
        return {}
    metrics = min(per_call, key=lambda call: call[0])[1]
    metrics["trace.overhead_s"] = min(walls) - min(plain)
    return metrics


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hpheat" / "__init__.py").is_file():
        print(f"error: no hpheat package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    # One CPU for the whole run, the CLI's child processes included, so that
    # the reference passes time the core the workload runs on.  Unpinned,
    # the CLI child and the parent's passes often ran on different cores,
    # and the ratio of a CLI call to its passes spread twice as wide.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import hpheat
    import workloads

    if Path(hpheat.__file__).resolve().parent != SRC / "hpheat":
        print(f"error: imported hpheat from {hpheat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    samples: dict[str, list[float]] = {}
    spans_out: list = []
    try:
        workload = workloads.build(args.workload, args.seed, workdir, SRC)
        if args.trace:
            values = traced(workload, tally, args.seconds, samples, spans_out)
            units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        else:
            values = end_to_end(workload, tally, args.seconds, samples)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    print(json.dumps({"environment": env}))
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units.get(name, '')}")
    for name, xs in samples.items():
        print(f"{args.workload} {name} samples: n = {len(xs)}, fastest {min(xs):.6g}, "
              f"median {statistics.median(xs):.6g}")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{args.workload} failed_frac = {failed_frac:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"FAILED {problem}")

    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        tally.problems.append(f"metrics not measured: {missing}")
    correct = tally.failed == 0 and tally.attempted > 0 and not tally.problems
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: m for n, m in metrics.items() if m["value"] is not None},
    }
    _write_record(args, env, result, tally.problems, samples, spans_out)
    print(json.dumps(result))
    return 0


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _write_record(args, env, result, problems, samples, spans_out) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "result": result, "problems": problems,
              "seconds": args.seconds, "samples": samples}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans_out:
        with gzip.open(results / f"{stem}-spans.json.gz", "wt", compresslevel=1) as fh:
            json.dump({"calls": spans_out}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
