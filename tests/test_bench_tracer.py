"""The benchmark's tracer patches program attributes by name: each must exist and come back."""

from pathlib import Path

import pytest

import qginfo.cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
BENCH = TRACER.parent


def test_install_then_uninstall_restores_every_attribute(load_module):
    # a rename in the program makes install fail here rather than in a traced run
    bench = load_module("bench_tracer", TRACER)
    tracer = bench.Tracer()
    try:
        bench.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, (module.__name__, attr)
    finally:
        tracer.uninstall()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)


def _load_bench(monkeypatch, load_module):
    """bench/'s modules, registered under the names they import one another by."""
    # run.py pins one BLAS thread on import; keep that out of the other tests
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return {name: load_module(name, BENCH / f"{name}.py")
            for name in ("workloads", "tracer", "checks", "layers", "run")}


# the two traced passes of `bench/run.py --trace 1`, without its self-time
# bound, which is within the jitter of a shared host
@pytest.mark.parametrize("workload", ["interactive", "solve"])
def test_traced_passes_are_correct_and_count_alike(workload, tmp_path, monkeypatch, load_module):
    bench = _load_bench(monkeypatch, load_module)
    run, tracer, layers = bench["run"], bench["tracer"], bench["layers"]
    ops = bench["workloads"].WORKLOADS[workload].build(1, tmp_path)
    checker, tally = bench["checks"].Checker(), run.Tally()
    passes = []
    for _ in range(2):
        recorder = tracer.Tracer()
        tracer.install(recorder)
        try:
            latencies, outcomes = run.run_pass(qginfo.cli.main, ops, checker, tally, recorder)
        finally:
            recorder.uninstall()
        wall = sum(latencies)
        passes.append(layers.derive(recorder, ops, outcomes, wall, wall)[0])
    assert not tally.unexpected, "\n".join(tally.unexpected)
    first, second = passes
    differ = [f"{name}: {first[name]} vs {second[name]}" for name, unit in layers.PER_LAYER
              if unit in ("count", "ratio") and first[name] != second[name]]
    assert not differ, "\n".join(differ)
