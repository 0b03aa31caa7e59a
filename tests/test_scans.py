"""The scans of tools/scans.py still rebuild their first inputs and outcomes."""

import itertools
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_scans(monkeypatch, load_module):
    monkeypatch.setattr(sys, "path", list(sys.path))  # scans.py puts src/ and bench/ first
    for name in ("workloads", "checks"):  # the names checks.py and scans.py import
        load_module(name, ROOT / "bench" / f"{name}.py")
    return load_module("scans", ROOT / "tools" / "scans.py")


def test_draw_300_rebuilds_its_first_inputs(monkeypatch, load_module):
    scans = _load_scans(monkeypatch, load_module)
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


# the first 3 inputs of each other scan: the argv after the subcommand, and the outcome
FIRST_INPUTS = {
    "scale": [
        ("--n 1 --alpha 2.0 --q 1.0 --moment 1e-12 --nodes 401", "fail"),
        ("--n 1 --alpha 2.0 --q 1.0 --moment 1e-06 --nodes 401", "raise"),
        ("--n 1 --alpha 2.0 --q 1.0 --moment 1.0 --nodes 401", "pass"),
    ],
    "edge-54": [
        ("--method both --n 1 --alpha 1.5 --q 0.401", "pass"),
        ("--method both --n 1 --alpha 1.5 --q 0.4001", "raise"),
        ("--method both --n 1 --alpha 1.5 --q 0.40001000000000003", "raise"),
    ],
    "heavy-36": [
        ("--method both --n 5 --alpha 2.0 --q 0.7172857142857143", "pass"),
        ("--method both --n 5 --alpha 2.0 --q 0.7242857142857143", "pass"),
        ("--method both --n 5 --alpha 2.0 --q 0.7442857142857143", "pass"),
    ],
    "near-one-162": [
        ("--method both --n 1 --alpha 1.5 --q 1.001", "pass"),
        ("--method both --n 1 --alpha 1.5 --q 0.999", "pass"),
        ("--method both --n 1 --alpha 1.5 --q 1.0001", "pass"),
    ],
}


@pytest.mark.parametrize("name", FIRST_INPUTS)
def test_each_scan_rebuilds_its_first_inputs(name, monkeypatch, load_module):
    scans = _load_scans(monkeypatch, load_module)
    lines = []
    scans.scan(name, itertools.islice(scans.SCANS[name](), 3), write=lines.append)
    assert len(lines) == 4, lines
    for index, (line, (argv, outcome)) in enumerate(zip(lines, FIRST_INPUTS[name])):
        assert line.startswith(f"{index:3d} {argv} {outcome}"), line
    assert lines[-1].startswith(f"{name}: 3 inputs: "), lines[-1]


def test_outputs_sha256_repeats(monkeypatch, load_module):
    # the summary's second digest covers every output byte, so two runs of the
    # same inputs on the same tree print the same one
    scans = _load_scans(monkeypatch, load_module)
    digests = []
    for _ in range(2):
        lines = []
        scans.scan("draw-300", itertools.islice(scans.draw_300(), 3), write=lines.append)
        found = re.search(r"; sha256 [0-9a-f]{64}; outputs sha256 ([0-9a-f]{64}); ", lines[-1])
        assert found, lines[-1]
        digests.append(found.group(1))
    assert digests[0] == digests[1]


def test_draw_300_ulp_rebuilds_its_first_inputs(monkeypatch, load_module):
    # each input runs as drawn, then with m one ulp up and one ulp down
    scans = _load_scans(monkeypatch, load_module)
    lines = []
    scans.scan("draw-300-ulp", itertools.islice(scans.draw_300_ulp(), 9), write=lines.append,
               group=3)
    assert len(lines) == 11, lines
    moments = ("1.8354934366604327", "1.835493436660433", "1.8354934366604325")
    for line, moment in zip(lines, moments):
        assert line.startswith("  0 --n 1 --alpha 2.524891208272488 --q 0.5859031080103555"
                               f" --moment {moment} --nodes 314"), line
    assert [line.split()[0] for line in lines[:9]] == ["0"] * 3 + ["1"] * 3 + ["2"] * 3
    assert lines[-2].startswith("draw-300-ulp: 9 inputs: "), lines[-2]
    assert lines[-1].startswith("draw-300-ulp: outcomes differ on "), lines[-1]


def _workloads_digest(scans, ops, workdir):
    lines = []
    scans.scan("workloads", ops, write=lines.append, workdir=workdir)
    found = re.search(r"; outputs sha256 ([0-9a-f]{64}); ", lines[-1])
    assert found, lines[-1]
    return lines, found.group(1)


def test_workloads_rebuilds_its_first_inputs(monkeypatch, load_module, tmp_path):
    scans = _load_scans(monkeypatch, load_module)
    lines, _ = _workloads_digest(scans, itertools.islice(scans.workloads(tmp_path), 3), tmp_path)
    assert len(lines) == 4, lines
    assert lines[0] == "  0 --all --n 3 --alpha 3.0 --q 1.612 --gamma 0.866 --density qgaussian pass"
    assert all(line.startswith(f"{index:3d} --all ") for index, line in enumerate(lines[:3]))
    assert lines[-1].startswith("workloads: 3 inputs: 3 pass; sha256 "), lines[-1]


def test_workloads_digest_does_not_read_the_work_directory(monkeypatch, load_module, tmp_path):
    # the first call that names a table under the work directory gives the
    # same outputs sha256 in two directories whose paths differ in length
    scans = _load_scans(monkeypatch, load_module)
    digests = []
    for workdir in (tmp_path / "a", tmp_path / "a-longer-path"):
        workdir.mkdir()
        op = next(op for op in scans.workloads(workdir) if "profile:" in op.argv[-1])
        lines, digest = _workloads_digest(scans, [op], workdir)
        assert "--density profile:WORKDIR/profile-" in lines[0], lines[0]
        digests.append(digest)
    assert digests[0] == digests[1]
