"""The package root re-exports each module's public names, and nothing is lost."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qginfo

# every name exported by qginfo 1.0.0, by the module that declares it
EXPORTED = {
    "errors": ("ConvergenceError", "DivergenceError", "DomainError", "ZeroDensityError"),
    "inequalities": (
        "DEFAULT_EQ_TOL", "DEFAULT_REL_TOL", "INEQUALITY_NAMES", "InequalityReport",
        "check_all", "check_cramer_rao", "check_fisher_moment_entropy",
        "check_moment_entropy", "check_stam", "inapplicable",
    ),
    "measures": (
        "CLOSED_FORM", "QUADRATURE", "MeasureSet", "RadialDensity", "gaussian_mixture",
        "measure_all", "quad_Mq", "quad_fisher", "quad_moment", "quad_shannon",
        "table_profile", "truncated_exponential", "uniform_ball",
    ),
    "qgaussian": (
        "BRANCH_TOL", "QGaussianParams", "closed_Mq", "closed_fisher", "closed_measures",
        "closed_moment_alpha", "density", "entropy_power", "mu_pnu", "partition_fn",
        "radial_density", "radial_profile", "radial_profile_derivative", "renyi_entropy",
        "rescale", "tsallis_entropy",
    ),
    "sampling": (
        "RNG_ALGORITHM", "SampleBatch", "empirical_moment", "radial_cdf", "radial_quantile",
        "radial_tail_mass", "sample",
    ),
    "special": ("beta_fn", "log_gamma", "unit_ball_volume", "unit_sphere_area"),
    "variational": (
        "INITS", "VariationalProblem", "VariationalSolution", "analytic_multipliers",
        "check_proposition1", "euler_lagrange_residual", "extremal_profile", "make_problem",
        "proposition1_closed_gap", "solve",
    ),
}


def test_every_released_name_is_still_exported():
    released = {name for names in EXPORTED.values() for name in names}
    assert len(released) == 64
    assert released <= set(qginfo.__all__)


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_root_names_are_the_module_objects(module):
    mod = importlib.import_module(f"qginfo.{module}")
    for name in EXPORTED[module]:
        assert name in mod.__all__
        assert getattr(qginfo, name) is getattr(mod, name)


def test_root_exports_exactly_the_module_lists():
    declared = {name for module in EXPORTED for name in importlib.import_module(
        f"qginfo.{module}").__all__}
    assert set(qginfo.__all__) == declared
    assert len(qginfo.__all__) == len(declared)


def test_cli_import_loads_only_the_scipy_it_uses():
    # nothing the package computes needs an optimizer, an adaptive integrator
    # or an interpolator, at import or later; the table spline is computed
    # in-package (see test_profile_table_loads_linalg_but_no_interpolator)
    src = os.path.dirname(os.path.dirname(qginfo.__file__))
    probe = ("import sys, qginfo.cli; print(sorted({m for m in sys.modules "
             "if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'], "
             "['scipy', 'interpolate'])}))")
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# runs each argv list of argv[1] (JSON) through cli.main, output discarded, then
# prints the scipy modules the process has loaded
_LOADED_PROBE = """
import contextlib, io, json, sys
import qginfo, qginfo.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qginfo.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))
"""


def _fresh_process(*args):
    src = os.path.dirname(os.path.dirname(qginfo.__file__))
    done = subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    return done.stdout.decode()  # as written: CSV rows end in \r\n


def _scipy_loaded_by(*argvs):
    return set(json.loads(_fresh_process("-c", _LOADED_PROBE, json.dumps(argvs))))


def test_import_loads_no_scipy():
    assert _scipy_loaded_by() == set()


def test_sample_loads_no_scipy(tmp_path):
    # q = 1, q > 1 and q < 1 draw from the gamma, beta and beta-prime laws
    out = str(tmp_path / "draws.csv")
    argvs = [["sample", "--n", "2", "--q", q, "--count", "2000", *dest]
             for q in ("1", "1.5", "0.8") for dest in ([], ["--out", out])]
    assert _scipy_loaded_by(*argvs) == set()


@pytest.mark.parametrize("argv", [
    ["measures"],
    ["verify", "--all", "--n", "2", "--density", "mixture:0.5,0,1;0.5,0,4"],
])
def test_closed_forms_and_quadrature_load_special_but_not_linalg(argv):
    loaded = _scipy_loaded_by(argv)
    assert "scipy.special" in loaded
    assert "scipy.linalg" not in loaded


def test_profile_table_loads_linalg_but_no_interpolator(tmp_path):
    # the natural spline's slopes are one LAPACK tridiagonal solve; loading
    # scipy.interpolate for it would load optimize, sparse, spatial and fft
    table = tmp_path / "profile.csv"
    radii = [3.3 * j / 400 for j in range(401)]
    table.write_text("r,f\n" + "".join(f"{r!r},{math.exp(-r**3)!r}\n" for r in radii))
    loaded = _scipy_loaded_by(["verify", "--all", "--n", "2", "--density", f"profile:{table}"])
    assert {"scipy.special", "scipy.linalg"} <= loaded
    assert not {m for m in loaded if m.split(".")[:2] in (
        ["scipy", "interpolate"], ["scipy", "optimize"], ["scipy", "sparse"],
        ["scipy", "spatial"], ["scipy", "fft"])}


def test_minimize_loads_linalg():
    assert "scipy.linalg" in _scipy_loaded_by(["minimize", "--moment", "1", "--nodes", "101"])


@pytest.mark.parametrize("argv", [
    ["measures", "--n", "2", "--alpha", "1.5", "--q", "1.2", "--method", "both"],
    ["sweep", "--n", "1,2", "--q", "0.8,1,1.5", "--alpha", "2", "--gamma", "1"],
])
def test_fresh_process_prints_the_bytes_of_a_warm_one(argv, capsys):
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401

    import qginfo.cli

    assert qginfo.cli.main(argv) == 0
    assert _fresh_process("-m", "qginfo.cli", *argv) == capsys.readouterr().out


def test_only_special_imports_scipy():
    importers = set()
    for path in Path(qginfo.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == {"special.py"}


# reads the name argv[1] from qginfo.special, then prints what the read gave
# (its type, or the exception it raised) and the scipy modules loaded
_READ_PROBE = """
import json, sys
import qginfo.special
try:
    read = type(getattr(qginfo.special, sys.argv[1])).__name__
except Exception as exc:
    read = type(exc).__name__
print(json.dumps([read, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))
"""


@pytest.mark.parametrize("name,kind,loads,skips", [
    ("gtsv", "fortran", "scipy.linalg", "scipy.special"),
    ("gbsv", "fortran", "scipy.linalg", "scipy.special"),
    ("gbmv", "fortran", "scipy.linalg", "scipy.special"),
    ("gammaln", "ufunc", "scipy.special", "scipy.linalg"),
])
def test_special_binds_each_scipy_module_on_its_first_read(name, kind, loads, skips):
    read, loaded = json.loads(_fresh_process("-c", _READ_PROBE, name))
    assert read == kind
    assert loads in loaded and skips not in loaded


def test_special_refuses_an_unknown_name_and_loads_no_scipy():
    assert json.loads(_fresh_process("-c", _READ_PROBE, "solve_banded")) == ["AttributeError", []]
