"""Exit-code contract and output shapes of the command-line front end."""

import builtins
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qginfo.cli
from qginfo import validity
from qginfo.cli import FORK_MIN_COORDINATES, SAMPLE_BLOCK, main
from qginfo.inequalities import INEQUALITY_NAMES
from qginfo.qgaussian import QGaussianParams, radial_profile
from qginfo.sampling import sample


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_measures_ok(self, capsys):
        code, out, _ = run(["measures", "--n", "1", "--alpha", "2", "--q", "1.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["closed"]["Mq"] > 0

    def test_measures_next_to_q_one(self, capsys):
        code, out, _ = run(["measures", "--n", "2", "--q", "1.000001"], capsys)
        assert code == 0
        assert json.loads(out)["closed"]["Nq"] > 0

    def test_measures_divergent_mq_is_invalid_input(self, capsys):
        code, _, err = run(["measures", "--n", "2", "--alpha", "2", "--q", "0.5"], capsys)
        assert code == 2
        assert "n/(n+alpha)" in err

    def test_measures_divergent_fisher_is_invalid_input(self, capsys):
        code, _, err = run(["measures", "--n", "1", "--alpha", "1", "--q", "1"], capsys)
        assert code == 2

    def test_verify_stam_dimension_bound(self, capsys):
        code, _, err = run(["verify", "--ineq", "stam", "--n", "3", "--q", "0.6"], capsys)
        assert code == 2
        assert "(n-1)/n" in err

    def test_minimize_negative_moment(self, capsys):
        code, _, err = run(["minimize", "--moment", "-1"], capsys)
        assert code == 2

    def test_empty_sweep_grid(self, capsys):
        code, _, err = run(["sweep", "--n", "1", "--q", "", "--alpha", "2", "--gamma", "1"], capsys)
        assert code == 2

    def test_malformed_grid(self, capsys):
        code, _, _ = run(["sweep", "--n", "1", "--q", "1:2", "--alpha", "2", "--gamma", "1"], capsys)
        assert code == 2

    def test_existence_violation(self, capsys):
        code, _, _ = run(["measures", "--n", "3", "--alpha", "2", "--q", "0.2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["measures", "--gamma", "1e-320"],
        ["measures", "--n", "400"],
        ["measures", "--q", "1e300"],
        ["verify", "--all", "--alpha", "1.0000001", "--density", "mixture:1,0,1"],
        ["verify", "--all", "--q", "1e6", "--density", "mixture:1,0,1"],
        ["verify", "--all", "--density", "uniform-ball:1e300"],
    ])
    def test_arithmetic_failure_is_divergence(self, argv, capsys):
        # overflow and division by zero are numeric failures, not tracebacks
        code, _, err = run(argv, capsys)
        assert code == 3
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "--all", "--rel-tol", "nan"],
        ["verify", "--all", "--rel-tol=-1e-6"],
        ["verify", "--all", "--eq-tol", "inf"],
        ["verify", "--all", "--density", "uniform-ball:inf"],
        ["verify", "--all", "--density", "uniform-ball:nan"],
        ["verify", "--all", "--density", "mixture:1,0,nan"],
        ["verify", "--all", "--density", "mixture:inf,0,1"],
        ["verify", "--all", "--density", "mixture:1,0,inf"],
    ])
    def test_non_finite_tolerance_or_radius_is_invalid_input(self, argv, capsys):
        code, _, _ = run(argv, capsys)
        assert code == 2


class TestMeasuresCommand:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run(
            ["measures", "--n", "2", "--alpha", "2", "--q", "1.2", "--method", "both"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_rel_gap"] < 1e-6
        assert payload["closed"]["method"]["Mq"] == "closed-form"
        assert payload["quadrature"]["method"]["Mq"] == "quadrature"

    def test_config_echoed(self, capsys):
        _, out, _ = run(["measures", "--n", "1", "--alpha", "2", "--q", "2"], capsys)
        payload = json.loads(out)
        assert payload["config"]["params"] == {"n": 1, "alpha": 2.0, "q": 2.0, "gamma": 1.0}
        assert payload["config"]["subcommand"] == "measures"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["measures", "--n", "1", "--alpha", "2", "--q", "1.5", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        assert rows[0] == ["measure", "closed"]
        assert len(rows) == 7

    def test_module_runs_as_a_program(self, capsys):
        # python -m qginfo.cli goes through the module's own entry point
        argv = ["measures", "--n", "2", "--q", "1.2"]
        _, expected, _ = run(argv, capsys)
        src = os.path.dirname(os.path.dirname(qginfo.cli.__file__))
        done = subprocess.run([sys.executable, "-m", "qginfo.cli", *argv],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def _both_methods(argv, capsys) -> tuple:
    """Exit code and max_rel_gap (None unless the exit is 0) of measures --method both."""
    code, out, _ = run(["measures", "--method", "both", *argv], capsys)
    return code, json.loads(out)["max_rel_gap"] if code == 0 else None


class TestQuadratureReach:
    """The quadrature oracle on power tails, multiscale mixtures and scale extremes."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_power_tails_match_closed_forms(self, n, alpha, capsys):
        # q from just above n/(n+alpha): 170 of these 234 members exited 3
        for i in range(1, 27):
            q = n / (n + alpha) + 0.2 * i / 26
            code, gap = _both_methods(["--n", str(n), "--alpha", repr(alpha), "--q", repr(q)],
                                      capsys)
            assert code == 0 and gap <= 1e-6, (q, code, gap)

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_heavy_tails_are_right_or_divergent(self, n, capsys):
        # where the profile underflows before the weight has decayed, the
        # integral exits 3; no member is silently wrong
        for alpha in (2.0, 3.0, 6.0):
            for dq in (0.003, 0.01, 0.03, 0.1):
                argv = ["--n", str(n), "--alpha", repr(alpha), "--q", repr(n / (n + alpha) + dq)]
                code, gap = _both_methods(argv, capsys)
                assert code == 3 or (code == 0 and gap <= 1e-6), (argv, code, gap)

    def test_compact_support_far_beyond_the_bulk_is_not_invalid_input(self, capsys):
        # the support radius is 4.6e4 and the bulk is near 1: a quadrature M_q
        # of 0 exited 3, until the profile's zero radius (about 82) became the hint
        code, gap = _both_methods(["--alpha", "1.5", "--q", "1.0000001"], capsys)
        assert code == 0 and gap <= 1e-6
        # 18 of these 45 members exited 3; their quadrature H_q still cancels
        # (ROADMAP item 1), so the gaps are checked in test_measures
        for n in (1, 2, 3):
            for alpha in (1.5, 2.0, 3.0):
                for k in (3, 5, 7, 9, 11):
                    argv = ["--n", str(n), "--alpha", repr(alpha), "--q", repr(1.0 + 10.0**-k)]
                    assert _both_methods(argv, capsys)[0] == 0, argv

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_edge_grid_exits_as_its_validity_says(self, n, capsys):
        for alpha in (1.2, 4.0, 8.0, 12.0, 30.0):
            for q in (0.5, 0.8, 0.95, 0.999, 1.0, 1.001, 1.3, 2.0, 5.0):
                gated = any(bound(n, alpha, q) for bound in
                            (validity.existence, validity.mq_finite, validity.fisher_finite))
                code, gap = _both_methods(["--n", str(n), "--alpha", repr(alpha), "--q", repr(q)],
                                          capsys)
                assert code == (2 if gated else 0), (alpha, q, code)
                assert gated or gap <= 1e-6, (alpha, q, gap)

    def test_multiscale_mixture_ratios_agree_at_q_one(self, capsys):
        # at q = 1 the fisher-moment-entropy ratio is the Cramer-Rao ratio; the
        # narrow component was lost (mass 0.186, ratios 1643 and 305)
        code, out, _ = run(["verify", "--all", "--n", "1", "--q", "1", "--density",
                            "mixture:0.0924,0,9581.2;0.4053,0,0.01548"], capsys)
        assert code == 0
        ratios = {r["name"]: r["ratio"] for r in json.loads(out)["reports"]}
        assert ratios["fisher-moment-entropy"] == pytest.approx(ratios["cramer-rao"], rel=1e-6)
        assert ratios["cramer-rao"] == pytest.approx(305.111, rel=1e-5)

    def test_very_wide_mixture(self, capsys):
        code, _, err = run(["verify", "--all", "--n", "2", "--density", "mixture:1,0,1e15"],
                           capsys)
        assert (code, err) == (0, "")

    def test_mixture_narrower_than_float_resolution_of_log_r(self, capsys):
        # variance 1e-30 at n = 1: the old lower remainder of the log-radius
        # window raised, and the call exited 3; one component is a family
        # member at q = 1, so every ratio is an equality
        code, out, err = run(["verify", "--all", "--n", "1", "--q", "1", "--density",
                              "mixture:1,0,1e-30"], capsys)
        assert (code, err) == (0, "")
        reports = json.loads(out)["reports"]
        assert len(reports) == 4 and all(r["equality"] for r in reports), reports

    def test_underflowed_moment_is_divergence_not_violation(self, capsys):
        # m_alpha = R^2/3 underflows to 0: a ratio of 0.0 exited 4
        code, out, err = run(["verify", "--all", "--density", "uniform-ball:1e-300"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: ")

    def test_huge_ball_moment_is_finite_and_scale_invariant(self, capsys):
        # the moment 3.3e307 is finite; "lhs": Infinity was printed with exit 0
        ratios = []
        for radius in ("1", "1e154"):
            code, out, _ = run(["verify", "--all", "--density", f"uniform-ball:{radius}"], capsys)
            assert code == 0
            (report,) = json.loads(out)["reports"]
            assert math.isfinite(report["lhs"])
            ratios.append(report["ratio"])
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-9)
        assert ratios[0] == pytest.approx(1.19302, rel=1e-5)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_report_exits_3_and_writes_nothing(self, fmt, tmp_path, capsys):
        # the solve collapses; its objective is Infinity and its Prop. 1 gap NaN
        argv = ["minimize", "--n", "1", "--q", "1", "--moment", "1e-300", "--nodes", "50",
                "--format", fmt]
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "") and "non-finite" in err
        path = tmp_path / f"solution.{fmt}"
        code, out, _ = run([*argv, "--out", str(path)], capsys)
        assert (code, out) == (3, "")
        assert not path.exists()

    def test_collapsing_solve_emits_no_numpy_warning(self, capsys):
        # its overflow warnings escaped cli.main, a traceback under -W error
        argv = ["minimize", "--n", "1", "--q", "1", "--moment", "1e-300", "--nodes", "50"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run(argv, capsys)
        assert (code, out) == (3, "")

    def test_all_zero_table_is_invalid_input(self, tmp_path, capsys):
        table = tmp_path / "zero.csv"
        table.write_text("r,f\n0,0\n1,0\n2,0\n3,0\n", encoding="utf-8")
        code, _, err = run(["verify", "--all", "--density", f"profile:{table}"], capsys)
        assert code == 2
        assert "no usable mass" in err


class TestVerifyCommand:
    def test_family_member_passes_all(self, capsys):
        code, out, _ = run(["verify", "--all", "--n", "2", "--alpha", "2", "--q", "1.2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["reports"]) == 4
        for report in payload["reports"]:
            assert report["passes"] is True
            assert report["equality"] is True
            assert abs(report["deficit"]) <= 1e-5

    def test_violation_beyond_rel_tol_exits_4(self, capsys):
        # at rel_tol 0 a family member whose ratio rounds to 1 - 1.1e-16 fails
        # the check while its deficit is within eq_tol
        code, out, err = run(["verify", "--all", "--rel-tol", "0", "--n", "1", "--alpha", "1.5",
                              "--q", "1.0"], capsys)
        assert (code, err) == (4, "")
        payload = json.loads(out)
        assert [r["name"] for r in payload["reports"]] == list(INEQUALITY_NAMES)
        failing = [r for r in payload["reports"] if not r["passes"]]
        assert failing and all(r["passes"] is False and r["equality"] is True for r in failing)
        assert all(r["ratio"] < 1.0 for r in failing)

    def test_report_keys_frozen(self, capsys):
        _, out, _ = run(["verify", "--ineq", "stam", "--n", "1", "--alpha", "2", "--q", "1.5"], capsys)
        payload = json.loads(out)
        report = payload["reports"][0]
        assert set(report) == {"name", "lhs", "rhs", "ratio", "deficit", "passes",
                               "equality", "params", "density", "tolerances", "method_tags"}
        assert set(report["params"]) >= {"n", "alpha", "beta", "q", "lambda"}

    def test_mixture_density(self, capsys):
        code, out, _ = run(
            ["verify", "--all", "--n", "1", "--alpha", "2", "--q", "1",
             "--density", "mixture:0.5,0,1;0.5,0,4"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        for report in payload["reports"]:
            assert report["passes"] is True
            assert report["equality"] is False

    def test_mixture_with_offset_center_rejected(self, capsys):
        code, _, err = run(
            ["verify", "--all", "--n", "1", "--alpha", "2", "--q", "1",
             "--density", "mixture:0.5,1,1;0.5,0,4"],
            capsys,
        )
        assert code == 2
        assert "center" in err

    def test_uniform_ball_all_skips_fisher_checks(self, capsys):
        code, out, _ = run(
            ["verify", "--all", "--n", "2", "--alpha", "2", "--q", "1",
             "--density", "uniform-ball"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        names = {r["name"] for r in payload["reports"]}
        assert names == {"moment-entropy"}
        skipped = {s["name"] for s in payload["skipped"]}
        assert skipped == {"fisher-moment-entropy", "stam", "cramer-rao"}

    def test_mixture_with_underflowing_tail(self, capsys):
        # far out, the profile underflows to 0 while its derivative is still subnormal
        code, out, _ = run(
            ["verify", "--all", "--n", "1", "--q", "0.947", "--density",
             "mixture:0.3,0,0.5625;0.633,0,1.2656;0.967,0,7.2773"],
            capsys,
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 4
        for report in reports:
            assert report["ratio"] >= 1.0 + 1e-6, report["name"]

    def test_explicit_inapplicable_request_is_an_error(self, capsys):
        code, _, _ = run(
            ["verify", "--ineq", "stam", "--n", "2", "--alpha", "2", "--q", "1",
             "--density", "uniform-ball"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--n", "1", "--density", "uniform-ball"],
        ["--n", "2", "--density", "uniform-ball"],
        ["--n", "3", "--density", "uniform-ball"],
        ["--alpha", "0.5", "--density", "mixture:1,0,1"],
        ["--n", "3", "--q", "0.62"],
        ["--n", "2", "--q", "1.2", "--density", "qgaussian"],
    ])
    def test_no_selection_is_all(self, argv, capsys):
        # with no --ineq every check that applies runs and the rest are
        # skipped, which is what --all spells out (and what the uniform-ball
        # test above pins at n = 2)
        assert run(["verify", *argv], capsys) == run(["verify", "--all", *argv], capsys)

    def test_repeated_ineq_runs_once(self, capsys):
        code, out, _ = run(["verify", "--ineq", "stam", "--ineq", "moment-entropy",
                            "--ineq", "stam"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["inequalities"] == ["stam", "moment-entropy"]
        assert [r["name"] for r in payload["reports"]] == ["stam", "moment-entropy"]

    @pytest.mark.parametrize("argv,skipped", [
        (["--n", "2", "--density", "uniform-ball"], ["fisher-moment-entropy", "stam",
                                                     "cramer-rao"]),
        (["--alpha", "0.5", "--density", "mixture:1,0,1"], ["fisher-moment-entropy", "stam",
                                                            "cramer-rao"]),
        (["--n", "2", "--alpha", "0.5", "--q", "0.7", "--density", "mixture:1,0,1"],
         list(INEQUALITY_NAMES)),
    ])
    def test_csv_names_the_skipped_checks(self, argv, skipped, capsys):
        # with nothing skipped no line is added, as _FROZEN's verify report pins
        code, out, _ = run(["verify", "--format", "csv", *argv], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config: ") and lines[1].startswith("# skipped: ")
        entries = json.loads(lines[1][len("# skipped: "):])
        assert [entry["name"] for entry in entries] == skipped
        assert all(entry["reason"] for entry in entries)
        rows = list(csv.reader(io.StringIO("\n".join(lines[2:]))))
        assert rows[0][0] == "name"
        assert [row[0] for row in rows[1:]] == [
            name for name in INEQUALITY_NAMES if name not in skipped]

    def test_all_and_ineq_exclude_each_other(self, capsys):
        argv = ["verify", "--all", "--ineq", "stam", "--n", "1", "--q", "1",
                "--density", "mixture:0.5,0,1;0.5,0,4"]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        out, err = capsys.readouterr()
        assert (caught.value.code, out) == (2, "")
        assert "not allowed with" in err and "Traceback" not in err

    @pytest.mark.parametrize("n,q,radius", [(1, 1.5, None), (2, 1.0, 12.0), (3, 1.2, None)])
    def test_tabulated_family_member_is_an_equality_case(self, n, q, radius, tmp_path, capsys):
        # a 1500-row table of the alpha = 2 member, out to its support radius or
        # to 12: every check reads it through the spline and its derivative
        params = QGaussianParams(n=n, alpha=2.0, q=q)
        radii = np.linspace(0.0, radius or params.support_radius, 1500)
        table = tmp_path / "member.csv"
        table.write_text("r,f\n" + "".join(f"{float(r)!r},{float(v)!r}\n" for r, v in zip(
            radii, radial_profile(params, radii))), encoding="utf-8")
        code, out, _ = run(["verify", "--all", "--n", str(n), "--alpha", "2", "--q", repr(q),
                            "--density", f"profile:{table}"], capsys)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["name"] for r in reports] == list(INEQUALITY_NAMES)
        for report in reports:
            assert report["equality"] is True and abs(report["deficit"]) <= 1e-7, report
            assert set(report["method_tags"].values()) == {"quadrature"}

    def test_all_with_nothing_applicable_builds_no_extremal_member(self, capsys):
        # q = 0.7 is below the existence bound (n-alpha)/n = 0.75, so the
        # extremal member cannot be built; with no row left, none is needed
        code, out, _ = run(["verify", "--all", "--n", "2", "--alpha", "0.5", "--q", "0.7",
                            "--density", "mixture:1,0,1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"] == []
        assert [s["name"] for s in payload["skipped"]] == list(INEQUALITY_NAMES)

    def test_profile_row_without_value_is_invalid_input(self, tmp_path, capsys):
        table = tmp_path / "short.csv"
        table.write_text("r,f\n0,1\n0.5\n1,0.5\n2,0.1\n3,0\n", encoding="utf-8")
        code, _, err = run(["verify", "--all", "--density", f"profile:{table}"], capsys)
        assert code == 2
        assert err.startswith("error: ") and "['0.5']" in err

    @staticmethod
    def _gaussian_table(path, rows=401, replace=None, comments=False):
        # exp(-r^2) on [0, 6]; ``replace`` maps a row index to the text written there
        radii = np.linspace(0.0, 6.0, rows).tolist()
        lines = ["r,f"] + [f"{r!r},{math.exp(-r * r)!r}" for r in radii]
        for i, text in (replace or {}).items():
            lines[i + 1] = text
        if comments:
            lines[1:1] = ["# exp(-r^2)"]
            lines[200:200] = ["#, a comment row inside the table"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return f"profile:{path}"

    def test_profile_typo_row_is_invalid_input(self, tmp_path, capsys):
        # only the first row may fail to parse (a header); a later one is a typo
        density = self._gaussian_table(tmp_path / "typo.csv",
                                       replace={100: "1.5,0.1O5", 101: "1.515,oops"})
        code, _, err = run(["verify", "--all", "--n", "1", "--q", "1", "--density", density],
                           capsys)
        assert code == 2
        assert err.startswith("error: ") and "typo.csv" in err and "'0.1O5'" in err

    def test_profile_comment_rows_are_skipped(self, tmp_path, capsys):
        argv = ["verify", "--all", "--n", "1", "--q", "1", "--density"]
        plain = run(argv + [self._gaussian_table(tmp_path / "t.csv")], capsys)
        commented = run(argv + [self._gaussian_table(tmp_path / "t.csv", comments=True)], capsys)
        assert plain[0] == 0 and commented == plain

    @pytest.mark.parametrize("density,message", [
        ("gaussian", "unknown density selector"),
        ("mixture:1,0", "must be weight,center,variance"),
        ("mixture:1,0,1;0.5,1", "must be weight,center,variance"),
    ])
    def test_malformed_density_is_invalid_input(self, density, message, capsys):
        code, _, err = run(["verify", "--all", "--density", density], capsys)
        assert code == 2
        assert err.startswith("error: ") and message in err


class TestSweepCommand:
    def test_config_echoes_the_grids_in_row_order(self, capsys):
        code, out, _ = run(["sweep", "--n", "1,2", "--q", "1,1.5"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert json.loads(lines[0].split("# config: ", 1)[1]) == {
            "subcommand": "sweep",
            "params": {"n": [1, 2], "alpha": [2.0], "q": [1.0, 1.5], "gamma": [1.0]},
            "format": "csv",
        }
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert [(row["n"], row["q"]) for row in rows] == [
            ("1", "1.0"), ("1", "1.5"), ("2", "1.0"), ("2", "1.5")]

    def test_small_grid(self, capsys):
        code, out, _ = run(
            ["sweep", "--n", "1,2", "--alpha", "2", "--q", "1,1.5", "--gamma", "0.5,1,2"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert len(rows) == 12
        for row in rows:
            assert row["error"] == ""
            for col in ("deficit_fisher_moment_entropy", "deficit_moment_entropy",
                        "deficit_stam", "deficit_cramer_rao"):
                assert abs(float(row[col])) <= 1e-5

    def test_range_grammar(self, capsys):
        code, out, _ = run(
            ["sweep", "--n", "1", "--alpha", "2", "--q", "0.9:1.2:0.1", "--gamma", "1"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(out.strip().splitlines()[1:]))))
        assert [float(r["q"]) for r in rows] == pytest.approx([0.9, 1.0, 1.1, 1.2])

    def test_range_points_do_not_accumulate_error(self, capsys):
        code, out, _ = run(
            ["sweep", "--n", "1", "--alpha", "2", "--q", "0.85:1.5:0.05", "--gamma", "1"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(out.strip().splitlines()[1:]))))
        assert [float(r["q"]) for r in rows] == [0.85 + i * 0.05 for i in range(14)]
        assert rows[8]["q"] == "1.25"  # repeated addition gave 1.2500000000000002

    @pytest.mark.parametrize("grid", [
        {"--q": "nan:1:0.1"},
        {"--q": "0:inf:1"},
        {"--q": "0:1:inf"},
        {"--q": "0:1:1e-12"},
        {"--q": "0.9:1.1:1e-5", "--gamma": "1:2:1e-4"},
        {"--n": "inf"},
    ])
    def test_unbounded_or_non_finite_grid_rejected(self, grid, capsys):
        argv = ["sweep", "--n", "1", "--alpha", "2", "--q", "1", "--gamma", "1"]
        for flag, value in grid.items():
            argv[argv.index(flag) + 1] = value
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("spec", ["0.9:1.2:0", "1.2:0.9:-0.1"])
    def test_range_step_must_be_positive(self, spec, capsys):
        code, _, err = run(["sweep", "--n", "1", "--alpha", "2", "--q", spec], capsys)
        assert code == 2
        assert err.startswith("error: ") and "range step must be positive" in err

    def test_gamma_sweep_scale_invariance(self, capsys):
        # deficits are identically zero along a gamma sweep of a family member
        code, out, _ = run(
            ["sweep", "--n", "2", "--alpha", "2", "--q", "1.2", "--gamma", "0.25,1,4"], capsys
        )
        rows = list(csv.DictReader(io.StringIO("\n".join(out.strip().splitlines()[1:]))))
        for row in rows:
            assert abs(float(row["deficit_stam"])) <= 1e-8

    def test_invalid_rows_recorded_not_fatal(self, capsys):
        code, out, _ = run(
            ["sweep", "--n", "2", "--alpha", "2", "--q", "0.4,1.0", "--gamma", "1"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(out.strip().splitlines()[1:]))))
        assert len(rows) == 2
        assert rows[0]["error"] != ""
        assert rows[1]["error"] == ""


class TestSampleCommand:
    def test_deterministic_files(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(["sample", "--n", "2", "--alpha", "2", "--q", "1.5",
                         "--count", "50", "--seed", "123", "--out", str(out)])
            capsys.readouterr()
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_and_rows(self, capsys):
        code, out, _ = run(
            ["sample", "--n", "3", "--alpha", "2", "--q", "1", "--count", "5", "--seed", "1"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "x1,x2,x3"
        assert len(lines) == 7
        config = json.loads(lines[0].split("# config: ", 1)[1])
        assert config["rng"] == "PCG64"
        assert config["seed"] == 1


def _sample_oracle(config: dict, points) -> str:
    """The sample CSV as csv.writer writes it, one row per point."""
    buf = io.StringIO()
    buf.write(f"# config: {json.dumps(config)}\n")
    writer = csv.writer(buf)
    writer.writerow([f"x{j + 1}" for j in range(points.shape[1])])
    writer.writerows(points.tolist())
    return buf.getvalue()


class TestSampleStreaming:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("blocks", [(1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["block-1", "block", "block+1", "2block+1"])
    def test_bytes_match_csv_writer(self, n, blocks, tmp_path, capsys):
        count = blocks[0] * SAMPLE_BLOCK + blocks[1]
        q = (1.0, 1.4, 0.95, 1.0)[n - 1]
        argv = ["sample", "--n", str(n), "--q", repr(q), "--count", str(count), "--seed", "3"]
        config = {"subcommand": "sample", "params": {"n": n, "alpha": 2.0, "q": q, "gamma": 1.0},
                  "format": "csv", "seed": 3, "count": count, "rng": "PCG64"}
        points = sample(QGaussianParams(n=n, alpha=2.0, q=q), count, 3).points
        expected = _sample_oracle(config, points)
        code, out, _ = run(argv, capsys)
        assert code == 0 and out == expected
        path = tmp_path / "points.csv"
        code, out, _ = run([*argv, "--out", str(path)], capsys)
        assert code == 0
        assert path.read_bytes() == expected.encode("utf-8")
        assert json.loads(out)["config"] == config

    def test_repr_format_switches(self, monkeypatch):
        # where repr changes notation, length or sign, across block boundaries
        values = [1e-05, 0.0001, 1e16, 9999999999999998.0, -0.0, 5e-324, -1e-05,
                  -9999999999999998.0, 1e-300, math.inf, -math.inf, math.nan, 0.1, 2.0]
        monkeypatch.setattr(qginfo.cli, "SAMPLE_BLOCK", 3)
        for threshold in (FORK_MIN_COORDINATES, 1):  # serial, then forked from 6 rows on
            monkeypatch.setattr(qginfo.cli, "FORK_MIN_COORDINATES", threshold)
            for n in (1, 2, 7):
                points = np.array(values * n).reshape(-1, n)
                config = {"n": n}
                text = "".join(qginfo.cli._sample_csv(config, points))
                assert text == _sample_oracle(config, points)

    @pytest.mark.parametrize("argv", [["--n", "1000000", "--count", "2000"],
                                      ["--count", "1000000000000"],
                                      ["--n", "3", "--count", "3333334"]])
    def test_over_cap_rejected(self, argv, capsys):
        code, out, err = run(["sample", *argv], capsys)
        assert (code, out) == (2, "")
        assert "coordinates" in err

    @pytest.mark.parametrize("argv", [["--seed", "-1"], ["--count", "0"],
                                      ["--count", "1000000000000"]])
    def test_rejected_input_leaves_out_file_alone(self, argv, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_bytes(b"earlier output\r\n")
        code, out, _ = run(["sample", "--count", "5", *argv, "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert path.read_bytes() == b"earlier output\r\n"

    def test_out_rows_keep_crlf_where_text_files_translate_newlines(self, monkeypatch,
                                                                    tmp_path, capsys):
        # a text file opened without newline="" on Windows writes each "\n" as "\r\n"
        def crlf_open(file, mode="r", **kwargs):
            kwargs.setdefault("newline", "\r\n")
            return builtins.open(file, mode, **kwargs)

        monkeypatch.setattr(qginfo.cli, "open", crlf_open, raising=False)
        path = tmp_path / "points.csv"
        argv = ["sample", "--n", "2", "--count", "3", "--seed", "7"]
        assert main([*argv, "--out", str(path)]) == 0
        assert path.read_bytes().decode("utf-8") == _FROZEN[tuple(argv)]


def _count_forks(monkeypatch) -> list:
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    return forks


_T, _B = FORK_MIN_COORDINATES, SAMPLE_BLOCK
# (n, count) on both sides of the fork threshold and of block boundaries
_FORK_SIZES = [(1, _T - 1), (1, _T), (1, _T + 1), (2, _T // 2 - 1), (2, _T // 2),
               (2, _T // 2 + 1), (2, 5 * _B + 1), (3, _T // 3), (3, _T // 3 + 1),
               (3, 3 * _B - 1), (3, 3 * _B + 1), (4, _T // 4 - 1), (4, _T // 4),
               (4, _T // 4 + 1)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="rows are formatted in a forked worker on POSIX")
class TestSampleFork:
    @pytest.mark.parametrize("n,count", _FORK_SIZES)
    def test_forked_bytes_match_serial(self, n, count, monkeypatch, tmp_path, capsys):
        q = (1.0, 1.4, 0.95, 1.0)[n - 1]
        argv = ["sample", "--n", str(n), "--q", repr(q), "--count", str(count), "--seed", "5"]
        config = {"subcommand": "sample", "params": {"n": n, "alpha": 2.0, "q": q, "gamma": 1.0},
                  "format": "csv", "seed": 5, "count": count, "rng": "PCG64"}
        points = sample(QGaussianParams(n=n, alpha=2.0, q=q), count, 5).points
        with monkeypatch.context() as serial:
            serial.setattr(qginfo.cli, "FORK_MIN_COORDINATES", math.inf)
            expected = "".join(qginfo.cli._sample_csv(config, points))
        forks = _count_forks(monkeypatch)
        code, out, _ = run(argv, capsys)
        assert code == 0 and out == expected
        path = tmp_path / "points.csv"
        code, out, _ = run([*argv, "--out", str(path)], capsys)
        assert code == 0
        assert path.read_bytes() == expected.encode("utf-8")
        assert len(forks) == (2 if count * n >= FORK_MIN_COORDINATES else 0)

    def test_failed_worker_exits_2(self, monkeypatch, tmp_path, capsys):
        parent, format_rows = os.getpid(), qginfo.cli._format_rows

        def fail_in_worker(block):
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            return format_rows(block)

        monkeypatch.setattr(qginfo.cli, "_format_rows", fail_in_worker)
        path = tmp_path / "points.csv"
        code, out, err = run(["sample", "--n", "2", "--count", str(_T), "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "worker" in err and "Traceback" not in err

    @pytest.mark.parametrize("chunks_read", [1, 2])
    def test_closed_generator_leaves_no_child(self, chunks_read, monkeypatch):
        forks = _count_forks(monkeypatch)
        points = sample(QGaussianParams(n=2, alpha=2.0, q=1.0), _T, 1).points
        chunks = qginfo.cli._sample_csv({}, points)
        for _ in range(chunks_read):
            next(chunks)
        chunks.close()
        assert forks == [os.getpid()]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSampleTail:
    def test_heavy_tail_writes_finite_cells_and_strict_json(self, tmp_path, capsys):
        # q < n/(n+alpha) = 0.8: m_alpha is infinite, so no estimate is printed
        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name}")

        path = tmp_path / "points.csv"
        code, out, _ = run(["sample", "--n", "4", "--alpha", "1", "--q", "0.76", "--count",
                            "100000", "--seed", "1", "--out", str(path)], capsys)
        assert code == 0
        summary = json.loads(out, parse_constant=no_constants)
        assert summary["empirical_m_alpha"] is None and summary["std_error"] is None
        points = np.loadtxt(path, delimiter=",", skiprows=2)
        assert points.shape == (100000, 4) and np.all(np.isfinite(points))

    def test_non_finite_draws_exit_3_before_out_is_opened(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        code, out, err = run(["sample", "--n", "4", "--alpha", "1", "--q", "0.751", "--count",
                              "100000", "--seed", "1", "--out", str(path)], capsys)
        assert (code, out) == (3, "")
        assert "not finite" in err
        assert not path.exists()


class TestMinimizeCommand:
    @pytest.mark.parametrize("argv", [
        ["--n", "1", "--alpha", "1e5", "--q", "0.9", "--moment", "1", "--nodes", "50"],
        ["--n", "1", "--alpha", "1e6", "--q", "1", "--moment", "1"],
    ])
    def test_zero_domain_radius_exits_3_promptly(self, argv):
        # a process of its own, so that a search for the domain radius that
        # never ends fails the test instead of hanging the suite
        src = os.path.dirname(os.path.dirname(qginfo.cli.__file__))
        done = subprocess.run([sys.executable, "-m", "qginfo.cli", "minimize", *argv],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=10)
        assert (done.returncode, done.stdout) == (3, "")
        assert "domain radius is 0.0" in done.stderr

    def test_config_echoes_no_gamma(self, capsys):
        # minimize parses no --gamma, so its params hold none
        code, out, _ = run(["minimize", "--moment", "1", "--nodes", "201"], capsys)
        assert code == 0
        assert json.loads(out)["config"] == {
            "subcommand": "minimize",
            "params": {"n": 1, "alpha": 2.0, "q": 1.0},
            "format": "json",
            "moment": 1.0,
            "nodes": 201,
            "init": "exponential",
        }

    def test_json_payload(self, capsys):
        code, out, _ = run(
            ["minimize", "--n", "1", "--alpha", "2", "--q", "1", "--moment", "1",
             "--nodes", "401"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["objective"] == pytest.approx(0.25, rel=1e-3)
        assert payload["prop1"]["rel_gap"] <= 1e-3
        assert len(payload["u_values"]) == 401
        assert set(payload["multipliers"]) == {"a", "b"}

    def test_csv_payload(self, capsys):
        code, out, _ = run(
            ["minimize", "--n", "1", "--alpha", "2", "--q", "1.5", "--moment", "0.4",
             "--nodes", "401", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        header = lines[1].split(",")
        assert header == ["r", "u", "closed_form_u"]


# --- fuzzing the exit-code contract ---------------------------------------
# values are attached as --flag=value so that negative numbers reach the program

_EDGE_FLOATS = (math.nan, math.inf, -math.inf, 1e-320, 1e300, -1e300, 0.0, -1.0, 1.0, 2.0)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(-4.0, 4.0)).map(repr)
_DIMS = st.one_of(st.integers(-1, 4), st.sampled_from((400, 10**6))).map(str)


def _params(dims=_DIMS, floats=_FLOATS):
    return st.tuples(dims, floats, floats, floats).map(
        lambda t: [f"--n={t[0]}", f"--alpha={t[1]}", f"--q={t[2]}", f"--gamma={t[3]}"])


_MEASURES = st.tuples(_params(), st.sampled_from(("closed", "quadrature", "both"))).map(
    lambda t: ["measures", *t[0], f"--method={t[1]}"])

_DENSITIES = st.one_of(
    st.just("qgaussian"),
    st.tuples(_FLOATS, _FLOATS).map(lambda t: f"mixture:{t[0]},0,{t[1]}"),
    st.tuples(_FLOATS, _FLOATS).map(lambda t: f"mixture:0.5,0,1;{t[0]},0,{t[1]}"),
    _FLOATS.map(lambda r: f"uniform-ball:{r}"),
)
_SELECTION = st.one_of(st.just([]), st.just(["--all"]),
                       st.sampled_from(INEQUALITY_NAMES).map(lambda name: [f"--ineq={name}"]))
_VERIFY = st.tuples(_params(), _DENSITIES, _SELECTION, _FLOATS, _FLOATS).map(
    lambda t: ["verify", *t[0], f"--density={t[1]}", *t[2], f"--rel-tol={t[3]}",
               f"--eq-tol={t[4]}"])

_STEPS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(0.1, 4.0)).map(repr)
_GRIDS = st.one_of(_FLOATS, st.tuples(_FLOATS, _FLOATS, _STEPS).map(":".join))
_SWEEP = st.tuples(st.one_of(_DIMS, st.just("1:3:1")), _FLOATS, _GRIDS, _FLOATS).map(
    lambda t: ["sweep", f"--n={t[0]}", f"--alpha={t[1]}", f"--q={t[2]}", f"--gamma={t[3]}"])

# (n, count, floats): small, or with count * n above sampling.MAX_COORDINATES,
# which is rejected before anything is allocated; and one draw in four at the
# fork threshold in coordinates, with positive parameters (most of them
# valid), so that a forked worker formats the rows
_SMALL_OR_OVERSIZED = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 2000), st.just(_FLOATS)),
    st.tuples(st.just(10**6), st.integers(11, 2000), st.just(_FLOATS)),
    st.tuples(st.integers(-1, 4), st.just(10**12), st.just(_FLOATS)),
)
_AT_FORK_THRESHOLD = st.integers(2, 4).map(
    lambda n: (n, -(-FORK_MIN_COORDINATES // n), st.floats(0.1, 4.0).map(repr)))
_SIZES = st.sampled_from(range(4)).flatmap(
    lambda i: _AT_FORK_THRESHOLD if i == 0 else _SMALL_OR_OVERSIZED)
_SAMPLE = _SIZES.flatmap(lambda size: st.tuples(
    _params(st.just(str(size[0])), size[2]), st.just(size[1]), st.integers(-1, 2**64))).map(
    lambda t: ["sample", *t[0], f"--count={t[1]}", f"--seed={t[2]}"])


def _exit_code(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            return exc.code


@given(st.one_of(_MEASURES, _VERIFY, _SWEEP, _SAMPLE))
@settings(derandomize=True, max_examples=300, deadline=None)
@example(["measures", "--gamma", "1e-320"])
@example(["measures", "--n", "400"])
@example(["measures", "--q", "1e300"])
@example(["verify", "--all", "--alpha", "1.0000001", "--density", "mixture:1,0,1"])
@example(["verify", "--all", "--q", "1e6", "--density", "mixture:1,0,1"])
@example(["verify", "--all", "--density", "uniform-ball:1e300"])
def test_exit_code_contract_holds_on_any_input(argv):
    assert _exit_code(argv) in (0, 2, 3, 4), argv


# --- frozen output ----------------------------------------------------------
# exact bytes of three reports; csv rows end in \r\n, the config line in \n

_FROZEN = {
    ("sample", "--n", "2", "--count", "3", "--seed", "7"): (
        '# config: {"subcommand": "sample", "params": {"n": 2, "alpha": 2.0, "q": 1.0, '
        '"gamma": 1.0}, "format": "csv", "seed": 7, "count": 3, "rng": "PCG64"}\n'
        "x1,x2\r\n"
        "-0.7491643684413953,-0.382468305679996\r\n"
        "-1.010666121153934,0.06129714386956518\r\n"
        "0.7077974006235901,-0.2599451808626977\r\n"
    ),
    ("measures", "--format", "csv", "--method", "both"): (
        '# config: {"subcommand": "measures", "params": {"n": 1, "alpha": 2.0, "q": 1.0, '
        '"gamma": 1.0}, "format": "csv", "method": "both"}\n'
        "measure,closed,quadrature\r\n"
        "mq,1.0,1.0\r\n"
        "hq,1.0723649429247,1.0723649429247\r\n"
        "sq,1.0723649429247,1.0723649429247\r\n"
        "nq,2.9222823653222774,2.9222823653222774\r\n"
        "m_alpha,0.5,0.5000000000000001\r\n"
        "i_bq,2.0,2.0000000000000004\r\n"
    ),
    ("verify", "--format", "csv", "--n", "2", "--q", "1.2"): (
        '# config: {"subcommand": "verify", "params": {"n": 2, "alpha": 2.0, "q": 1.2, '
        '"gamma": 1.0}, "format": "csv", "density": "qgaussian", "tolerances": '
        '{"rel_tol": 1e-06, "eq_tol": 1e-05}, "inequalities": ["fisher-moment-entropy", '
        '"moment-entropy", "stam", "cramer-rao"]}\n'
        "name,lhs,rhs,ratio,deficit,passes,equality\r\n"
        "fisher-moment-entropy,1.178442060157868,1.178442060157867,1.0000000000000009,"
        "8.881784197001252e-16,True,True\r\n"
        "moment-entropy,0.3552913995519398,0.3552913995519398,1.0,0.0,True,True\r\n"
        "stam,9.098056924661433,9.098056924661433,1.0,0.0,True,True\r\n"
        "cramer-rao,1.07166493223171,1.07166493223171,1.0,0.0,True,True\r\n"
    ),
}


@pytest.mark.parametrize("argv", list(_FROZEN), ids=lambda argv: argv[0])
def test_report_bytes_frozen(argv, capsys):
    code, out, err = run(list(argv), capsys)
    assert (code, err) == (0, "")
    assert out == _FROZEN[argv]


def test_command_is_looked_up_when_called(monkeypatch, capsys):
    # the parser is built once; a command replaced on the module must still run
    import qginfo.cli

    calls = []
    monkeypatch.setattr(qginfo.cli, "cmd_sweep", lambda args: calls.append(args.q) or 0)
    assert main(["sweep", "--q", "1.5"]) == 0
    assert calls == ["1.5"]
