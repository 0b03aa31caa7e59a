"""The benchmark's own output checks pass on one seeded pass of its quadrature and solver workloads."""

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import qginfo.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# bulk-sample is left out: a checked pass takes seconds, and its bytes are
# pinned by criterion 09 and the sampler's fork tests
@pytest.mark.parametrize("workload", ["interactive", "solve"])
def test_every_op_passes_the_benchmark_checks(workload, tmp_path, monkeypatch):
    workloads = _load("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # checks.py imports it by name
    checker = _load("checks").Checker()
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
