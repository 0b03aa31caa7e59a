"""Benchmark of the qginfo command line, run in-process through `qginfo.cli.main`.

Usage, from the root of the repository:

    python3 bench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

Each workload is one single-threaded closed loop: one client makes
`qginfo.cli.main(argv)` calls back to back, the next starting when the
previous one returns, as a researcher's script does. The seed fixes the
generated argv lists and files; the program sees nothing else. Every output
is checked (see checks.py) and every failure is counted.

With `--trace 0` the run sets up several times, then repeats whole passes of
the workload for about `--seconds` seconds and reports the end-to-end metrics.
With `--trace 1` it times untraced passes for about half of `--seconds`, then
runs two traced passes (see tracer.py), checks that their counts agree and
that the self times account for the traced time, and reports the per-layer
metrics of the first traced pass.

Human-readable lines come first; the last line of standard output is the JSON
object {"correct", "attempted", "failed", "metrics"}. The run exits 2 without
that line when the program's sources are not beside this directory.
"""

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import WORKLOADS

# One BLAS thread: on a 2-CPU machine OpenBLAS's second thread only spins
# during a solve, doubling the CPU used without changing the wall time, and
# made the time of one n = 3 solve vary from 5.2 s to 7.3 s between runs
# (5.2 s to 5.4 s with one thread). Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class ProgramMissing(Exception):
    pass


def import_program():
    """Import qginfo from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qginfo" / "cli.py").is_file():
        raise ProgramMissing(f"no qginfo sources under {src}")
    sys.path.insert(0, str(src))
    import qginfo.cli

    if Path(qginfo.cli.__file__).resolve().parent != src / "qginfo":
        raise ProgramMissing(f"imported {qginfo.cli.__file__}, not the sources under {src}")
    return qginfo.cli


class Tally:
    """Attempted and failed operations; failures not matching a documented defect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_defect: dict = {}
        self.unexpected: list = []

    def add(self, op, outcome):
        self.attempted += 1
        if outcome.ok:
            return
        self.failed += 1
        if outcome.defect:
            self.by_defect[outcome.defect] = self.by_defect.get(outcome.defect, 0) + 1
        else:
            self.unexpected.append(f"{' '.join(op.argv)}: {outcome.reason}")


def run_op(main, op, checker, tracer=None, op_id=None):
    """One cli.main call; returns (latency_s, Outcome or None when unchecked)."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with redirect_stdout(out), redirect_stderr(err):
        started = time.perf_counter()
        root = tracer.begin_op(op_id) if tracer is not None else None
        try:
            code = main(list(op.argv))
        except (Exception, SystemExit) as caught:  # SystemExit: argparse refused the argv
            exc = caught
        finally:
            if tracer is not None:
                tracer.end_op(root)
        latency = time.perf_counter() - started
    if checker is None:
        return latency, None
    return latency, checker.check(op, code, exc, out.getvalue(), err.getvalue())


def run_pass(main, ops, checker, tally, tracer=None):
    latencies, outcomes = [], []
    for op_id, op in enumerate(ops):
        latency, outcome = run_op(main, op, checker, tracer, op_id)
        tally.add(op, outcome)
        latencies.append(latency)
        outcomes.append(outcome)
    return latencies, outcomes


def run_passes(main, ops, checker, tally, seconds, min_passes):
    """Whole passes until the next one would end after `seconds`; latencies per pass."""
    passes, elapsed = [], []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(run_pass(main, ops, checker, tally)[0])
        elapsed.append(time.perf_counter() - begun)
        if (len(passes) >= min_passes
                and time.perf_counter() - started + statistics.median(elapsed) > seconds):
            return passes


def set_up(main, workload, seed, workdir):
    started = time.perf_counter()
    ops = workload.build(seed, workdir)
    for op in workload.warmup(workdir):
        run_op(main, op, None)
    return ops, time.perf_counter() - started


def percentile(values, fraction):
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host is running.

    Taken before and after the passes and printed with the details, not
    reported as a metric, so that a reader comparing runs can tell a slower
    program from a slower host.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def environment(workload, seed, seconds, trace):
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "why": workload.why,
        "loop": "closed, 1 client, in-process qginfo.cli.main",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(main, workload, ops, seconds, checker, tally):
    """End-to-end metrics, each the median over passes of that pass's value.

    Medians over passes, rather than statistics of all calls pooled, keep a
    few passes slowed by the host from moving the result.
    """
    probe_before = host_probe_ms()
    passes = run_passes(main, ops, checker, tally, seconds, workload.min_passes)
    return {
        "wall_s": statistics.median(sum(p) for p in passes),
        "op_p50_ms": statistics.median(percentile(p, 0.5) for p in passes) * 1e3,
        "op_p90_ms": statistics.median(percentile(p, 0.9) for p in passes) * 1e3,
        "ops_per_s": statistics.median(len(p) / sum(p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"passes": len(passes), "ops": sum(len(p) for p in passes),
        "pass_walls_s": [sum(p) for p in passes],
        "host_probe_ms": [probe_before, host_probe_ms()]}


def trace(main, ops, seconds, checker, tally):
    """Untraced passes for `seconds / 2`, then two traced passes; per-layer metrics."""
    import layers
    import tracer

    walls = [sum(p) for p in run_passes(main, ops, checker, tally, seconds / 2.0, 1)]
    untraced_wall = statistics.median(walls)
    passes = []
    for _ in range(2):
        recorder = tracer.Tracer()
        tracer.install(recorder)
        try:
            latencies, outcomes = run_pass(main, ops, checker, tally, recorder)
        finally:
            recorder.uninstall()
        metrics, sizes = layers.derive(recorder, ops, outcomes, sum(latencies), untraced_wall)
        passes.append((recorder, sum(latencies), metrics, sizes))
    (recorder, traced_wall, metrics, sizes), again = passes[0], passes[1][2]
    problems = [f"{name} differs between traced passes: {metrics[name]} vs {again[name]}"
                for name, unit in layers.PER_LAYER
                if unit in ("count", "ratio") and metrics[name] != again[name]]
    self_times = recorder.self_times()
    if abs(sum(self_times) - traced_wall) > 1e-3 * traced_wall:
        problems.append(f"self times sum to {sum(self_times):.6f} s, "
                        f"traced ops took {traced_wall:.6f} s")
    print_trace_report(recorder, self_times, metrics, sizes)
    details = {
        "untraced_passes": len(walls),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "self_time_sum_s": sum(self_times),
        "spans": len(recorder.spans),
    }
    return metrics, details, problems


def print_trace_report(recorder, self_times, metrics, sizes):
    import layers

    print("# spans of the first traced pass: name, calls, total ms, self ms")
    summary = {}
    for span, own in zip(recorder.spans, self_times):
        entry = summary.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration * 1e3
        entry[2] += own * 1e3
    for name, (calls, total, own) in sorted(summary.items(), key=lambda kv: -kv[1][1]):
        print(f"span {name:36s} {calls:8d} {total:12.3f} {own:12.3f}")
    print("# ROADMAP baseline rows at this workload's sizes")
    units = dict(layers.PER_LAYER)
    for label, names in layers.BASELINE_ROWS:
        values = " / ".join(f"{metrics[n]:.6g} {units[n]}" for n in names)
        size = "; ".join(sizes[n] for n in names if n in sizes)
        print(f"baseline {label}: {values}" + (f"  [{size}]" if size else ""))


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    import checks  # imports qginfo, so only after import_program
    import layers

    workload = WORKLOADS[args.workload]
    workdir = BENCH_DIR / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        prepared = [set_up(cli.main, workload, args.seed, workdir) for _ in range(repeats)]
        ops = prepared[0][0]
        setup_s = import_s + statistics.median(t for _, t in prepared)
        checker, tally = checks.Checker(), Tally()
        print("# meta " + json.dumps(environment(workload, args.seed, args.seconds, args.trace)))
        if args.trace:
            metrics, details, problems = trace(cli.main, ops, args.seconds, checker, tally)
            units = dict(layers.PER_LAYER)
        else:
            metrics, details = measure(cli.main, workload, ops, args.seconds, checker, tally)
            metrics["setup_s"] = setup_s
            details.update(import_s=import_s, setup_repeats_s=[t for _, t in prepared])
            problems = []
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    print("# details " + json.dumps(details))
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    draws = sum(op.info["count"] for op in ops if op.kind == "sample")
    if draws and not args.trace:
        print(f"metric draws_per_s = {draws / metrics['wall_s']!r} 1/s "
              f"({draws} draws per pass; not in the JSON, as it is 0 without sample calls)")
    error_rate = tally.failed / tally.attempted
    print(f"metric error_rate = {error_rate!r} failed/attempted "
          f"({tally.failed} of {tally.attempted} ops)")
    for defect, count in sorted(tally.by_defect.items()):
        print(f"# known defect {defect}: {count} failed ops; {checks.KNOWN_DEFECTS[defect]}")
    for line in tally.unexpected[:10]:
        print(f"# UNEXPECTED FAILURE {line}")
    for line in problems:
        print(f"# TRACE PROBLEM {line}")
    result = {
        "correct": not tally.unexpected and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
