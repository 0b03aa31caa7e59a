"""The benchmark's tracer patches program attributes by name: each must exist and come back."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_attribute():
    # a rename in the program makes install fail here rather than in a traced run
    bench = _load_tracer()
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
