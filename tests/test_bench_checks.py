"""The benchmark's own output checks pass on one seeded pass of its quadrature and solver workloads."""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import qginfo.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


# bulk-sample is left out: a checked pass takes seconds, and its bytes are
# pinned by criterion 09 and the sampler's fork tests
@pytest.mark.parametrize("workload", ["interactive", "solve"])
def test_every_op_passes_the_benchmark_checks(workload, tmp_path, load_module):
    workloads = load_module("workloads", BENCH / "workloads.py")  # checks.py imports it by name
    checker = load_module("checks", BENCH / "checks.py").Checker()
    failed = []
    for op in workloads.WORKLOADS[workload].build(1, tmp_path):
        out, err = io.StringIO(), io.StringIO()
        code = exc = None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = qginfo.cli.main(list(op.argv))
            except (Exception, SystemExit) as caught:  # SystemExit: argparse refused the argv
                exc = caught
        outcome = checker.check(op, code, exc, out.getvalue(), err.getvalue())
        if not outcome.ok:
            failed.append(f"{' '.join(op.argv)}: {outcome.reason} ({outcome.defect})")
    assert not failed, "\n".join(failed)
