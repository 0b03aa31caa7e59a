"""Seeded scans of the command line, each rebuilt from its written recipe.

Usage, from the root of the repository:

    python3 tools/scans.py draw-300

A scan prints one line per input (the input, its outcome and, for an input
that does not pass, the reason the benchmark's output check gives) and then
a summary: the count of each outcome, most frequent first, a sha256 over the
input lines, and the seconds spent in `qginfo.cli.main`. Outcomes are "pass",
"fail" (exit 0, but a gate of `bench/checks.py` is missed), "raise" (exit 3)
and "exit N".

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
"""

import argparse
import collections
import hashlib
import io
import os
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# one BLAS thread, as in the benchmark; set before numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from checks import Checker  # noqa: E402
from workloads import Op  # noqa: E402

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


def run_op(op, checker):
    """(outcome, reason, seconds in cli.main) of one op."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(list(op.argv))
        seconds = time.perf_counter() - started
    result = checker.check(op, code, None, out.getvalue(), err.getvalue())
    if result.ok:
        return "pass", "", seconds
    outcome = "fail" if code == 0 else "raise" if code == cli.EXIT_DIVERGED else f"exit {code}"
    return outcome, result.reason, seconds


def scan(name, ops, write=print):
    """Run `ops` as scan `name`, writing each line; returns the outcome counts."""
    checker = Checker()
    counts = collections.Counter()
    digest = hashlib.sha256()
    total = 0.0
    for index, op in enumerate(ops):
        outcome, reason, seconds = run_op(op, checker)
        counts[outcome] += 1
        total += seconds
        line = " ".join((f"{index:3d}", *op.argv[1:], outcome, reason)).rstrip()
        digest.update(line.encode("utf-8") + b"\n")
        write(line)
    write(f"{name}: {sum(counts.values())} inputs: "
          + ", ".join(f"{count} {outcome}" for outcome, count in counts.most_common())
          + f"; sha256 {digest.hexdigest()}; {total:.1f} s in cli.main")
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scan", choices=["draw-300"])
    args = parser.parse_args(argv)
    scan(args.scan, draw_300())
    return 0


if __name__ == "__main__":
    sys.exit(main())
