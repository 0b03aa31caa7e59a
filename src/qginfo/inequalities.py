"""Sharp information inequalities for radially symmetric densities.

Four comparisons are implemented, each reported as lhs/rhs with the convention
that the inequality states lhs >= rhs, equality exactly on generalized
Gaussians:

    fisher-moment-entropy:  I^{1/beta} m^{1/alpha}          >= (n/q) M_q[f]
    moment-entropy:         m^{1/alpha} / N^{1/n}           >= same at the extremal density
    stam:                   N * I^{n/(beta lam)}            >= same at the extremal density
    cramer-rao:             I^{1/(beta lam)} m^{1/alpha}    >= same at the extremal density

with lam = n(q-1) + 1. The right sides of the last three are evaluated on the
closed-form gamma = 1 family member; all four products are scale invariant, so
that choice is immaterial. The Cramer-Rao ratio factorizes exactly as
(moment-entropy ratio) * (Stam ratio)^{1/n}, which is verified internally on
every Cramer-Rao evaluation; at n = 1 this is the literal term-by-term product
of the other two comparisons.

The four comparisons are rows of one table, each naming the validity bounds it
needs (see ``qginfo.validity``), its two sides and the measures they read; a
row that reads I_bq needs a weak derivative of the density. ``check_all``
tests every requested row's applicability before computing anything, then
evaluates the rows against one measure backend, so each measure is computed
at most once per call. The four single-row ``check_*`` wrappers call it at the
default tolerances; ``check_all`` and the CLI's ``verify`` take others.

Measurement routing: a density tagged as a family member with matching
(alpha, q) is measured by closed forms; anything else goes through quadrature.
"""

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from . import validity
from .errors import DomainError
from .measures import (
    CLOSED_FORM,
    QUADRATURE,
    RadialDensity,
    _quad_Hq,
    quad_Mq,
    quad_fisher,
    quad_moment,
    quad_shannon,
)
from .qgaussian import (
    QGaussianParams,
    closed_Mq,
    closed_fisher,
    closed_moment_alpha,
    entropy_power,
)

__all__ = [
    "DEFAULT_REL_TOL",
    "DEFAULT_EQ_TOL",
    "INEQUALITY_NAMES",
    "InequalityReport",
    "check_fisher_moment_entropy",
    "check_moment_entropy",
    "check_stam",
    "check_cramer_rao",
    "check_all",
    "inapplicable",
]

DEFAULT_REL_TOL = 1e-6
DEFAULT_EQ_TOL = 1e-5


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation on one density.

    ``passes`` means ratio >= 1 - rel_tol; ``equality`` means |deficit| <=
    eq_tol; ``params_echo`` is (n, alpha, beta, q, lam); ``gamma`` is set when
    the density is a tagged family member.
    """

    name: str
    lhs: float
    rhs: float
    ratio: float
    deficit: float
    passes: bool
    equality: bool
    params_echo: tuple
    density_descriptor: str
    tolerances: tuple
    method_tags: Mapping[str, str]
    gamma: float | None = None

    def as_dict(self) -> dict:
        n, alpha, beta, q, lam = self.params_echo
        params = {"n": n, "alpha": alpha, "beta": beta, "q": q, "lambda": lam}
        if self.gamma is not None:
            params["gamma"] = self.gamma
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "deficit": self.deficit,
            "passes": self.passes,
            "equality": self.equality,
            "params": params,
            "density": self.density_descriptor,
            "tolerances": {"rel_tol": self.tolerances[0], "eq_tol": self.tolerances[1]},
            "method_tags": dict(self.method_tags),
        }


class _MeasureBackend:
    """Lazily computes, once each, the measures the checks need.

    With ``params`` the measures come from closed forms, else from quadrature
    on the density ``f``.
    """

    def __init__(self, alpha: float, q: float, f: RadialDensity | None = None,
                 params: QGaussianParams | None = None):
        self.f, self.params, self.alpha, self.q = f, params, alpha, q
        self.n = f.dim if f is not None else params.n
        self.beta = math.inf if validity.conjugate(self.n, alpha, q) else alpha / (alpha - 1.0)
        self.lam = self.n * (q - 1.0) + 1.0
        self.tag = CLOSED_FORM if params is not None else QUADRATURE
        self.gamma = params.gamma if params is not None else None
        self._cache: dict = {}

    @classmethod
    def of(cls, f: RadialDensity, alpha: float, q: float) -> "_MeasureBackend":
        """Route a density tagged as a family member with matching (alpha, q) to closed forms."""
        fam = f.family
        matches = (
            isinstance(fam, QGaussianParams)
            and math.isclose(fam.alpha, alpha, rel_tol=1e-12)
            and math.isclose(fam.q, q, rel_tol=1e-12, abs_tol=1e-15)
        )
        return cls(alpha, q, f, fam if matches else None)

    def _get(self, key, closed, quad):
        if key not in self._cache:
            self._cache[key] = closed(self.params) if self.params is not None else quad(self.f)
        return self._cache[key]

    def Mq(self) -> float:
        return self._get("Mq", closed_Mq, lambda f: quad_Mq(f, self.q))

    def Nq(self) -> float:
        return self._get("Nq", entropy_power,
                         lambda f: math.exp(_quad_Hq(f, self.q, self.Mq, quad_shannon)))

    def m_alpha(self) -> float:
        return self._get("m_alpha", closed_moment_alpha, lambda f: quad_moment(f, self.alpha))

    def I_bq(self) -> float:
        return self._get("I_bq", closed_fisher, lambda f: quad_fisher(f, self.beta, self.q))


def _fisher_moment(m: _MeasureBackend) -> float:
    return m.I_bq() ** (1.0 / m.beta) * m.m_alpha() ** (1.0 / m.alpha)


def _moment_entropy(m: _MeasureBackend) -> float:
    return m.m_alpha() ** (1.0 / m.alpha) / m.Nq() ** (1.0 / m.n)


def _stam(m: _MeasureBackend) -> float:
    return m.Nq() * m.I_bq() ** (m.n / (m.beta * m.lam))


def _cramer_rao(m: _MeasureBackend) -> float:
    return m.I_bq() ** (1.0 / (m.beta * m.lam)) * m.m_alpha() ** (1.0 / m.alpha)


@dataclass(frozen=True)
class _Inequality:
    """One row of the table: lhs >= rhs wherever every bound holds."""

    bounds: tuple  # validity bounds on (n, alpha, q), tested in order
    lhs: Callable  # measured -> value
    rhs: Callable  # (measured, extremal) -> value
    uses: tuple  # measures of the density the two sides read; I_bq needs a weak derivative


_TABLE = {
    "fisher-moment-entropy": _Inequality(
        (validity.conjugate, validity.positive_q, validity.mq_finite),
        _fisher_moment, lambda m, extremal: (m.n / m.q) * m.Mq(), ("I_bq", "m_alpha", "Mq"),
    ),
    "moment-entropy": _Inequality(
        (validity.positive_alpha, validity.mq_finite),
        _moment_entropy, lambda m, extremal: _moment_entropy(extremal), ("m_alpha", "Nq"),
    ),
    "stam": _Inequality(
        (validity.conjugate, validity.stam),
        _stam, lambda m, extremal: _stam(extremal), ("Nq", "I_bq"),
    ),
    "cramer-rao": _Inequality(
        (validity.conjugate, validity.stam),
        _cramer_rao, lambda m, extremal: _cramer_rao(extremal), ("I_bq", "m_alpha", "Nq"),
    ),
}

INEQUALITY_NAMES = tuple(_TABLE)


def _require_factorization(measured: _MeasureBackend, extremal: _MeasureBackend, ratio: float):
    # the Cramer-Rao ratio is (moment-entropy ratio) * (Stam ratio)^{1/n}:
    # the proof structure of the bound, recomputed from the same measure values
    me_ratio = _moment_entropy(measured) / _moment_entropy(extremal)
    stam_ratio = _stam(measured) / _stam(extremal)
    recomposed = me_ratio * stam_ratio ** (1.0 / measured.n)
    if abs(recomposed - ratio) > 1e-9 * abs(ratio):
        raise ArithmeticError(
            "cramer-rao factorization check failed: "
            f"ratio {ratio!r} vs moment-entropy * stam^(1/n) {recomposed!r}"
        )


def _report(name, lhs, rhs, measured, rel_tol, eq_tol, used) -> InequalityReport:
    ratio = lhs / rhs
    deficit = ratio - 1.0
    return InequalityReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=float(ratio),
        deficit=float(deficit),
        passes=bool(ratio >= 1.0 - rel_tol),
        equality=bool(abs(deficit) <= eq_tol),
        params_echo=(measured.n, measured.alpha, measured.beta, measured.q, measured.lam),
        density_descriptor=measured.f.descriptor,
        tolerances=(rel_tol, eq_tol),
        method_tags={key: measured.tag for key in used},
        gamma=measured.gamma,
    )


def inapplicable(f: RadialDensity, alpha: float, q: float, names=INEQUALITY_NAMES) -> dict:
    """Why each named check does not apply to (f, alpha, q): {name: reason}, in request order.

    A check applies when every validity bound of its row holds and, if it reads
    I_bq, which needs a weak derivative, the density is differentiable.
    """
    reasons = {}
    for name in names:
        row = _TABLE[name]
        why = next(filter(None, (bound(f.dim, alpha, q) for bound in row.bounds)), None)
        if why:
            reasons[name] = f"{name} {why}"
        elif "I_bq" in row.uses and (why := validity.differentiable(f.differentiable)):
            reasons[name] = f"{f.descriptor}: {why}"
    return reasons


def check_all(
    f: RadialDensity,
    alpha: float,
    q: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    eq_tol: float = DEFAULT_EQ_TOL,
    names=INEQUALITY_NAMES,
) -> list[InequalityReport]:
    """Run the named checks in order against one measure backend.

    Every requested check's applicability is tested before any measure is
    computed; the first that does not apply raises DomainError with its reason.
    """
    names = tuple(names)
    skipped = inapplicable(f, alpha, q, names)
    if skipped:
        raise DomainError(next(iter(skipped.values())))
    if not names:
        return []
    measured = _MeasureBackend.of(f, alpha, q)
    extremal = _MeasureBackend(alpha, q, params=QGaussianParams(n=f.dim, alpha=alpha, q=q))
    reports = []
    for name in names:
        row = _TABLE[name]
        lhs, rhs = row.lhs(measured), row.rhs(measured, extremal)
        if name == "cramer-rao":
            _require_factorization(measured, extremal, lhs / rhs)
        reports.append(_report(name, lhs, rhs, measured, rel_tol, eq_tol, row.uses))
    return reports


def check_fisher_moment_entropy(f: RadialDensity, alpha: float, q: float) -> InequalityReport:
    """I^{1/beta} m^{1/alpha} >= (n/q) M_q on the density, at the default tolerances.

    Assumes the boundary decay r^n f_r(r)^q -> 0, which is the caller's
    obligation; it holds for every density this package constructs.
    """
    return check_all(f, alpha, q, names=("fisher-moment-entropy",))[0]


def check_moment_entropy(f: RadialDensity, alpha: float, q: float) -> InequalityReport:
    """m^{1/alpha}/N^{1/n} >= the same on the extremal member, at the default tolerances."""
    return check_all(f, alpha, q, names=("moment-entropy",))[0]


def check_stam(f: RadialDensity, alpha: float, q: float) -> InequalityReport:
    """N * I^{n/(beta lam)} >= the same on the extremal member, at the default tolerances."""
    return check_all(f, alpha, q, names=("stam",))[0]


def check_cramer_rao(f: RadialDensity, alpha: float, q: float) -> InequalityReport:
    """I^{1/(beta lam)} m^{1/alpha} >= the same on the extremal member, at the default tolerances.

    Every call also recomputes the ratio as (moment-entropy ratio) times the
    n-th root of the (Stam ratio) from the same measure values and insists the
    two agree to 1e-9; the factorization is the proof structure of the bound.
    """
    return check_all(f, alpha, q, names=("cramer-rao",))[0]
