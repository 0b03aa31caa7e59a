"""Seeded scans of the command line, each rebuilt from its written recipe.

Usage, from the root of the repository:

    python3 tools/scans.py NAME

with NAME one of draw-300, draw-300-ulp, scale, edge-54, heavy-36,
near-one-162 and workloads.

A scan prints one line per input (the input, its outcome and, for an input
that does not pass, the reason the benchmark's output check gives) and then
a summary: the count of each outcome, most frequent first, a sha256 over the
input lines, a sha256 over every output byte (each input's exit code,
standard output and standard error), and the seconds spent in
`qginfo.cli.main`. Two trees that print the same outputs sha256 wrote the
same bytes on every input of the scan. Outcomes are "pass", "fail" (exit 0,
but a gate of `bench/checks.py` is missed), "raise" (exit 3) and "exit N".

Scans:

    draw-300    For each seed s in (2012, 1), rng = random.Random(s) draws, in
                this order, n = rng.randint(1, 4), alpha = rng.uniform(1.2, 4),
                q = rng.uniform(0, 3), m = rng.uniform(0.2, 3),
                nodes = rng.randint(51, 401) and init = rng.choice(INITS),
                until 150 inputs are accepted. A draw for which make_problem
                raises DomainError or DivergenceError is skipped uncounted.
                Each input runs as `minimize` and is scored by the benchmark's
                `minimize` check: L2 <= 1e-3, objective gap <= 1e-4 and
                Prop. 1 gap <= 1e-3.

    draw-300-ulp
                Each input of draw-300 three times in a row: as drawn, then
                with m moved one ulp up and one ulp down (math.nextafter
                toward +inf and -inf), 900 runs in all, each scored as
                draw-300 is. Lines are numbered by the draw's input. A last
                line lists every input whose three outcomes are not all the
                same: the draw's noise floor, the outcome moves that rounding
                alone makes.

    scale       `minimize --alpha 2.0 --moment m` with the default init, for
                (n, q, nodes) in ((1, 1.0, 401), (2, 1.2, 201), (3, 1.1, 201))
                and, for each, m in (1e-12, 1e-6, 1, 1e6, 1e12, 1e24): the
                extremal at moment m is a dilation of the one at m = 1, so a
                solver that is the same at every scale gives each case one
                outcome at all six m. Scored as draw-300 is.

    edge-54     `measures --method both` at q = n/(n + alpha) + 10^-e, next to
                the edge below which M_q and m_alpha are infinite, for n in
                (1, 2, 3), alpha in (1.5, 2, 3) and e in (3, ..., 8), in
                that nesting. Scored by the benchmark's `measures` check:
                max_rel_gap <= 1e-6.

    heavy-36    `measures --method both` at q = n/(n + alpha) + dq for n in
                (5, 8, 12), alpha in (2, 3, 6) and dq in (0.003, 0.01, 0.03,
                0.1), in that nesting: the members of the test suite's
                test_heavy_tails_are_right_or_divergent. Scored as edge-54 is.

    near-one-162
                `measures --method both` at q = 1 + 10^-e and then
                q = 1 - 10^-e, for n in (1, 2, 3), alpha in (1.5, 2, 3) and
                e in (3, ..., 11), in that nesting: the members next to q = 1,
                where the quadrature's H_q divides the error of M_q by 1 - q.
                Scored as edge-54 is; a failing line gives max_rel_gap.

    workloads   The 588 `cli.main` calls of the benchmark's workloads
                interactive, bulk-sample and solve, in that order, each at
                seed 1 and then seed 2, built by `bench/workloads.py`'s own
                builders in a fresh temporary work directory. Each is scored
                by the benchmark's check for its kind. Here each output also
                starts with the call's argv and ends with the bytes of its
                `--out` file, and the work directory's path is replaced by
                WORKDIR in the outputs and the lines, since `verify` echoes a
                `profile:` table's path and `sample --out` its file's: the
                digests do not depend on where the scan runs.
"""

import argparse
import collections
import hashlib
import io
import math
import os
import random
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# one BLAS thread, as in the benchmark; set before numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from checks import Checker  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

from qginfo import cli  # noqa: E402
from qginfo.errors import DivergenceError, DomainError  # noqa: E402
from qginfo.variational import INITS, make_problem  # noqa: E402


def draw_300():
    """The 300 `minimize` ops of the draw, in order."""
    for seed in (2012, 1):
        rng = random.Random(seed)
        accepted = 0
        while accepted < 150:
            n, alpha, q = rng.randint(1, 4), rng.uniform(1.2, 4), rng.uniform(0, 3)
            m, nodes, init = rng.uniform(0.2, 3), rng.randint(51, 401), rng.choice(INITS)
            try:
                make_problem(n, alpha, q, m, num_nodes=nodes)
            except (DomainError, DivergenceError):
                continue
            accepted += 1
            argv = ("minimize", "--n", str(n), "--alpha", repr(alpha), "--q", repr(q),
                    "--moment", repr(m), "--nodes", str(nodes), "--init", init)
            yield Op("minimize", argv, dict(n=n, alpha=alpha, q=q, moment=m, nodes=nodes))


def draw_300_ulp():
    """The draw's ops, each followed by itself with m one ulp up and one ulp down."""
    for op in draw_300():
        yield op
        for toward in (math.inf, -math.inf):
            m = math.nextafter(op.info["moment"], toward)
            argv = list(op.argv)
            argv[argv.index("--moment") + 1] = repr(m)
            yield Op(op.kind, tuple(argv), {**op.info, "moment": m})


def scale():
    """The 18 `minimize` ops of the moment-scale scan, in order."""
    for n, q, nodes in ((1, 1.0, 401), (2, 1.2, 201), (3, 1.1, 201)):
        for m in (1e-12, 1e-6, 1.0, 1e6, 1e12, 1e24):
            argv = ("minimize", "--n", str(n), "--alpha", "2.0", "--q", repr(q),
                    "--moment", repr(m), "--nodes", str(nodes))
            yield Op("minimize", argv, dict(n=n, alpha=2.0, q=q, moment=m, nodes=nodes))


def _measures(n, alpha, q):
    argv = ("measures", "--method", "both", "--n", str(n), "--alpha", repr(alpha), "--q", repr(q))
    return Op("measures", argv, dict(n=n, alpha=alpha, q=q))


def edge_54():
    """The 54 `measures` ops next to q = n/(n + alpha), in order."""
    for n in (1, 2, 3):
        for alpha in (1.5, 2.0, 3.0):
            for e in range(3, 9):
                yield _measures(n, alpha, n / (n + alpha) + 10.0**-e)


def heavy_36():
    """The 36 `measures` ops on power tails in 5 to 12 dimensions, in order."""
    for n in (5, 8, 12):
        for alpha in (2.0, 3.0, 6.0):
            for dq in (0.003, 0.01, 0.03, 0.1):
                yield _measures(n, alpha, n / (n + alpha) + dq)


def near_one_162():
    """The 162 `measures` ops next to q = 1, in order."""
    for n in (1, 2, 3):
        for alpha in (1.5, 2.0, 3.0):
            for e in range(3, 12):
                for sign in (1.0, -1.0):
                    yield _measures(n, alpha, 1.0 + sign * 10.0**-e)


def workloads(workdir):
    """The benchmark's 588 calls of seeds 1 and 2, in order; each workload's
    builder writes its tables under `workdir` when it is reached."""
    for name in ("interactive", "bulk-sample", "solve"):
        for seed in (1, 2):
            yield from WORKLOADS[name].build(seed, workdir)


SCANS = {"draw-300": draw_300, "draw-300-ulp": draw_300_ulp, "scale": scale,
         "edge-54": edge_54, "heavy-36": heavy_36, "near-one-162": near_one_162,
         "workloads": workloads}


def run_op(op, checker):
    """(outcome, reason, seconds in cli.main, output bytes) of one op; the
    output bytes are the exit code, a newline, stdout, a NUL, stderr, a NUL
    and, for an op with an `--out` file, that file's bytes and a NUL."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(list(op.argv))
        seconds = time.perf_counter() - started
    output = f"{code}\n{out.getvalue()}\0{err.getvalue()}\0".encode("utf-8")
    out_path = op.info.get("out")
    if out_path and os.path.isfile(out_path):
        output += Path(out_path).read_bytes() + b"\0"
    result = checker.check(op, code, None, out.getvalue(), err.getvalue())
    if result.ok:
        return "pass", "", seconds, output
    outcome = "fail" if code == 0 else "raise" if code == cli.EXIT_DIVERGED else f"exit {code}"
    return outcome, result.reason, seconds, output


def scan(name, ops, write=print, workdir=None, group=1):
    """Run `ops` as scan `name`, writing each line; returns the outcome counts.

    With a `workdir`, each output starts with the op's argv, and the path of
    `workdir` is replaced by WORKDIR in the outputs and the lines. With
    `group` > 1, each `group` consecutive ops are one input, numbered as one,
    and a last line lists the inputs whose ops' outcomes are not all the same.
    """
    checker = Checker()
    counts = collections.Counter()
    digest, outputs = hashlib.sha256(), hashlib.sha256()
    total = 0.0
    by_input = collections.defaultdict(list)
    for index, op in enumerate(ops):
        outcome, reason, seconds, output = run_op(op, checker)
        counts[outcome] += 1
        total += seconds
        line = " ".join((f"{index // group:3d}", *op.argv[1:], outcome, reason)).rstrip()
        if workdir is not None:
            output = "\0".join(op.argv).encode("utf-8") + b"\n" + output
            output = output.replace(str(workdir).encode("utf-8"), b"WORKDIR")
            line = line.replace(str(workdir), "WORKDIR")
        outputs.update(output)
        digest.update(line.encode("utf-8") + b"\n")
        write(line)
        by_input[index // group].append(outcome)
    write(f"{name}: {sum(counts.values())} inputs: "
          + ", ".join(f"{count} {outcome}" for outcome, count in counts.most_common())
          + f"; sha256 {digest.hexdigest()}; outputs sha256 {outputs.hexdigest()}"
          + f"; {total:.1f} s in cli.main")
    if group > 1:
        moved = [f"{index} ({' / '.join(outcomes)})" for index, outcomes in by_input.items()
                 if len(set(outcomes)) > 1]
        write(f"{name}: outcomes differ on {len(moved)} inputs: " + ", ".join(moved))
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scan", choices=SCANS)
    args = parser.parse_args(argv)
    if args.scan == "workloads":
        with tempfile.TemporaryDirectory(prefix="qginfo-workloads-") as workdir:
            scan(args.scan, workloads(Path(workdir)), workdir=workdir)
    else:
        scan(args.scan, SCANS[args.scan](), group=3 if args.scan == "draw-300-ulp" else 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
