"""The scans of tools/scans.py still rebuild their first inputs and outcomes."""

import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_draw_300_rebuilds_its_first_inputs(monkeypatch, load_module):
    monkeypatch.setattr(sys, "path", list(sys.path))  # scans.py puts src/ and bench/ first
    for name in ("workloads", "checks"):  # the names checks.py and scans.py import
        load_module(name, ROOT / "bench" / f"{name}.py")
    scans = load_module("scans", ROOT / "tools" / "scans.py")
    lines = []
    counts = scans.scan("draw-300", itertools.islice(scans.draw_300(), 3), write=lines.append)
    expected = [
        "  0 --n 1 --alpha 2.524891208272488 --q 0.5859031080103555 --moment 1.8354934366604327"
        " --nodes 314 --init qgaussian-detuned fail L2 ",
        "  1 --n 3 --alpha 3.6078334425513505 --q 1.224029652234154 --moment 1.8026560608352236"
        " --nodes 341 --init exponential pass",
        "  2 --n 3 --alpha 2.790887907282354 --q 2.5111422976376216 --moment 0.20013983249659104"
        " --nodes 155 --init exponential fail L2 ",
    ]
    assert len(lines) == 4, lines
    for line, start in zip(lines, expected):
        assert line.startswith(start), line
    assert lines[-1].startswith("draw-300: 3 inputs: 2 fail, 1 pass; sha256 "), lines[-1]
    assert counts == {"pass": 1, "fail": 2}
