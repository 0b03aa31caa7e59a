"""Information measures of radially symmetric densities by adaptive quadrature.

The estimators here are deliberately independent of any closed form: they see a
density only through its radial profile f_r and (optionally) its radial
derivative, reduce every n-dimensional integral to one radial integral through

    integral over R^n of g(|x|) dx  =  n * omega_n * integral r^{n-1} g(r) dr,

and integrate adaptively to 1e-8 relative: a compact support in r, an infinite
one in s = log r over a fixed window, plus the power-law remainders of the
weight on both sides of it. That independence is what makes them usable as
oracles for the closed forms and as the measurement backend for densities that
have no closed form at all (mixtures, tabulated profiles).
"""

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy import integrate
from scipy import special as _special
from scipy.interpolate import CubicSpline

from . import validity
from .errors import DivergenceError, DomainError, ZeroDensityError
from .special import unit_sphere_area

__all__ = [
    "CLOSED_FORM",
    "QUADRATURE",
    "MEASURE_KEYS",
    "RadialDensity",
    "MeasureSet",
    "quad_Mq",
    "quad_moment",
    "quad_fisher",
    "quad_shannon",
    "measure_all",
    "gaussian_mixture",
    "uniform_ball",
    "truncated_exponential",
    "table_profile",
]

CLOSED_FORM = "closed-form"
QUADRATURE = "quadrature"

# the fields of a MeasureSet, in report order
MEASURE_KEYS = ("Mq", "Hq", "Sq", "Nq", "m_alpha", "I_bq")

# the window of s = log r over which an infinite support is integrated
_S_MIN, _S_MAX = -40.0, 80.0

# relative tolerance of every radial quadrature
_REL_TOL = 1e-8


@dataclass(frozen=True)
class RadialDensity:
    """A radially symmetric probability density on R^n.

    ``profile`` maps a radius r >= 0 to the density value f_r(r); it must
    return exactly 0 beyond ``support_hint`` when that is finite.
    ``derivative`` is the analytic radial derivative when available; otherwise
    a Richardson-extrapolated central difference with step max(1e-6, 1e-6*r)
    is substituted where a derivative is needed.  ``differentiable`` marks
    profiles that are absolutely continuous; gradient-based functionals refuse
    profiles flagged False (e.g. a uniform ball, whose boundary jump makes the
    generalized Fisher information infinite).  ``family`` is an opaque marker
    attached by parametric factories so downstream code can route to closed
    forms when it recognizes the family.
    """

    dim: int
    profile: Callable[[float], float]
    derivative: Callable[[float], float] | None = None
    support_hint: float = math.inf
    descriptor: str = "radial-density"
    differentiable: bool = True
    family: object = None

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise DomainError(f"dim must be an integer >= 1, got {self.dim!r}")
        if not (self.support_hint > 0):
            raise DomainError("support_hint must be positive (possibly inf)")

    def normalization(self) -> float:
        """Total mass n*omega_n*int r^{n-1} f_r(r) dr; should be 1 for a density."""
        return quad_Mq(self, 1.0)


@dataclass(frozen=True)
class MeasureSet:
    """The bundle (M_q, H_q, S_q, N_q, m_alpha, I_bq) for one density.

    ``method`` tags each field with how it was obtained (closed-form or
    quadrature); ``params_echo`` is (n, alpha, beta, q).
    """

    Mq: float
    Hq: float
    Sq: float
    Nq: float
    m_alpha: float
    I_bq: float
    method: Mapping[str, str] = field(default_factory=dict)
    params_echo: tuple = ()

    def __post_init__(self):
        n, alpha, beta, q = self.params_echo
        if abs(1.0 / alpha + 1.0 / beta - 1.0) > 1e-12:
            raise DomainError(f"alpha={alpha} and beta={beta} are not Holder conjugates")
        if not validity.exponential_branch(q) and math.isfinite(self.Mq) and self.Mq > 0:
            # Nq^(1-q) = Mq in this direction: raising Mq to 1/(1-q) would
            # multiply its rounding error by 1/|1-q| near q = 1
            expected = self.Nq ** (1.0 - q)
            if abs(expected - self.Mq) > 1e-12 * max(abs(expected), abs(self.Mq)):
                raise DomainError("Nq^(1-q) is inconsistent with Mq")

    def as_dict(self) -> dict:
        n, alpha, beta, q = self.params_echo
        return {**{key: getattr(self, key) for key in MEASURE_KEYS}, "method": dict(self.method),
                "params": {"n": n, "alpha": alpha, "beta": beta, "q": q}}


def _from_renyi(Mq, Hq, m_alpha, I_bq, tag: str, params_echo: tuple) -> MeasureSet:
    """The MeasureSet of (M_q, H_q, m_alpha, I_bq), every field tagged ``tag``.

    S_q = (1 - M_q)/(q - 1) and N_q = M_q^(1/(1-q)) follow from H_q as
    H_q exprel((1-q) H_q) and exp(H_q), with q - 1 read as 0 on the exponential
    branch: continuous through q = 1, where S_q is H_q, the Shannon entropy.
    """
    s = validity.tail_index(params_echo[3])
    return MeasureSet(Mq=Mq, Hq=Hq, Sq=Hq * float(_special.exprel(-s * Hq)), Nq=math.exp(Hq),
                      m_alpha=m_alpha, I_bq=I_bq, method=dict.fromkeys(MEASURE_KEYS, tag),
                      params_echo=params_echo)


def _quad(g, a: float, b: float) -> float:
    """Adaptive Gauss-Kronrod quadrature on [a, b] with error control."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(g, a, b, epsabs=0.0, epsrel=_REL_TOL, limit=300)
    if err <= 50.0 * _REL_TOL * max(abs(val), 1e-300):
        return val
    raise DivergenceError(f"quadrature error {err:.3e} exceeds tolerance on [{a:g}, {b:g}]",
                          partial=val)


def _remainder(h, cut: float, inward: float, total: float) -> float:
    """The integral of the weight h(s) beyond the window end ``cut``: h(cut)/kappa.

    kappa is the log-slope of h over the unit of s ``inward`` of the cut. It
    must be positive, and the slope over the next unit in must give the same
    remainder to the tolerance times ``total``; else DivergenceError.
    """
    end = h(cut)
    if end == 0.0:
        return 0.0
    first, second = h(cut + inward), h(cut + 2.0 * inward)
    if first / end <= 1.0 or second / first <= 1.0:
        raise DivergenceError("radial weight does not decay at the cut", partial=total)
    remainder = end / math.log(first / end)
    if abs(end / math.log(second / first) - remainder) > _REL_TOL * abs(total):
        raise DivergenceError(
            f"radial weight is not a power law of r at log r = {cut:g}", partial=total)
    return remainder


def _integrate_radial(f: RadialDensity, w) -> float:
    """Integrate the radial weight w(r, log r) = r * integrand over (0, R).

    A compact support is integrated in r over [0, R], with integrand w/r;
    Gauss-Kronrod nodes are strictly interior, so the integral reaches the
    endpoint. An infinite support is integrated in s = log r over the window
    [_S_MIN, _S_MAX], where a bulk at any scale is a bump of width O(1) and a
    power law r^-p of the integrand is e^{-(p-1)s}. On both sides of the window
    a remainder read from the weight alone is added (``_remainder``); below it,
    that is the mass of a bulk too narrow to lie inside. DivergenceError is also
    raised where the weight underflowed to 0 before the upper cut while its last
    nonzero value was above the tolerance times the integral. The callers check
    that the result is finite.
    """
    R = f.support_hint
    if math.isfinite(R):
        return _quad(lambda r: w(r, math.log(r)) / r, 0.0, R)
    last = [_S_MIN, 0.0]  # the largest s evaluated where the weight is nonzero, and the weight

    def h(s: float) -> float:
        v = w(math.exp(s), s)
        if v != 0.0 and s > last[0]:
            last[:] = s, v
        return v

    total = _quad(h, _S_MIN, _S_MAX)
    upper = _remainder(h, _S_MAX, -1.0, total)
    if upper == 0.0 and abs(last[1]) > _REL_TOL * abs(total):
        raise DivergenceError(
            f"radial weight underflows to 0 past log r = {last[0]:.4g}, where it is "
            f"{last[1]:.3g}", partial=total)
    return total + upper + _remainder(h, _S_MIN, 1.0, total)


def _finite(value: float, positive: bool = False) -> float:
    """The value of a radial integral, which must be finite, and positive if asked."""
    if math.isfinite(value) and (value > 0.0 or not positive):
        return value
    what = "a finite positive" if positive else "a finite"
    raise DivergenceError(f"radial integral evaluates to {value:g}, not {what} value")


def _fd_derivative(profile) -> Callable[[float], float]:
    # central difference on the even radial extension, one Richardson level
    def deriv(r: float) -> float:
        h = max(1e-6, 1e-6 * r)

        def central(hh: float) -> float:
            return (profile(r + hh) - profile(abs(r - hh))) / (2.0 * hh)

        d1 = central(h)
        d2 = central(0.5 * h)
        return (4.0 * d2 - d1) / 3.0

    return deriv


def _power_weight(f: RadialDensity, p: float, q: float):
    """The weight w(r, log r) = n omega_n r^{n+p} f_r^q of int |x|^p f^q, assembled in log space."""
    surface, power = unit_sphere_area(f.dim), f.dim + p

    def w(r: float, log_r: float) -> float:
        fv = f.profile(r)
        return 0.0 if fv <= 0.0 else surface * math.exp(power * log_r + q * math.log(fv))

    return w


def quad_Mq(f: RadialDensity, q: float) -> float:
    """Information generating functional M_q[f] = int f^q over R^n."""
    if q < 0:
        raise DomainError(f"quad_Mq requires q >= 0, got {q}")
    return _finite(_integrate_radial(f, _power_weight(f, 0.0, q)), positive=True)


def quad_moment(f: RadialDensity, alpha: float) -> float:
    """Elliptic moment m_alpha[f] = int |x|^alpha f over R^n."""
    if alpha <= 0:
        raise DomainError(f"quad_moment requires alpha > 0, got {alpha}")
    return _finite(_integrate_radial(f, _power_weight(f, alpha, 1.0)), positive=True)


def quad_shannon(f: RadialDensity) -> float:
    """Shannon entropy -int f log f over R^n."""
    n = f.dim
    surface = unit_sphere_area(n)

    def w(r: float, log_r: float) -> float:
        fv = f.profile(r)
        if fv <= 0.0:
            return 0.0
        log_f = math.log(fv)
        return -surface * log_f * math.exp(n * log_r + log_f)

    return _finite(_integrate_radial(f, w))


def quad_fisher(f: RadialDensity, beta: float, q: float) -> float:
    """Generalized Fisher information of order (beta, q),

        I_bq[f] = n * omega_n * int r^{n-1} f^{beta(q-1)+1} |f'/f|^beta dr.

    A profile without a derivative is differentiated by finite differences.
    Profiles flagged non-differentiable are refused: their Fisher information
    is infinite.
    """
    if beta <= 1:
        raise DomainError(f"quad_fisher requires beta > 1, got {beta}")
    if why := validity.differentiable(f.differentiable):
        raise DomainError(f"{f.descriptor}: {why}")
    n = f.dim
    surface = unit_sphere_area(n)
    dprof = f.derivative or _fd_derivative(f.profile)
    w_exp = beta * (q - 1.0) + 1.0

    def w(r: float, log_r: float) -> float:
        fv = f.profile(r)
        dv = dprof(r)
        if fv <= 0.0:
            # a subnormal derivative next to a zero value is the tail underflowing
            if abs(dv) < sys.float_info.min:
                return 0.0
            raise ZeroDensityError(
                f"{f.descriptor}: profile vanishes at interior radius {r:g} "
                "where its derivative does not"
            )
        if dv == 0.0:
            return 0.0
        # log-space assembly keeps r^n f^{w-beta} |f'|^beta finite in deep tails
        return surface * math.exp(
            n * log_r + (w_exp - beta) * math.log(fv) + beta * math.log(abs(dv))
        )

    return _finite(_integrate_radial(f, w), positive=True)


def _quad_Hq(f: RadialDensity, q: float, Mq, shannon) -> float:
    """H_q by quadrature: shannon(f) on the exponential branch, log(Mq())/(1-q) elsewhere."""
    return shannon(f) if validity.exponential_branch(q) else math.log(Mq()) / (1.0 - q)


def measure_all(f: RadialDensity, alpha: float, q: float) -> MeasureSet:
    """All six measures of one density by quadrature, bundled consistently.

    H_q follows ``_quad_Hq``, the rule the inequality checks read N_q = exp(H_q) from.
    """
    if why := validity.conjugate(f.dim, alpha, q):
        raise DomainError(f"measure_all {why}")
    beta = alpha / (alpha - 1.0)
    Mq = quad_Mq(f, q)
    return _from_renyi(Mq, _quad_Hq(f, q, lambda: Mq, quad_shannon), quad_moment(f, alpha),
                       quad_fisher(f, beta, q), QUADRATURE, (f.dim, alpha, beta, q))


def gaussian_mixture(dim: int, components, descriptor: str | None = None) -> RadialDensity:
    """Centered Gaussian mixture sum_i w_i N(0, sigma_i^2 I_n) as a RadialDensity.

    ``components`` is a sequence of (weight, variance) pairs; weights are
    normalized to sum to 1.
    """
    comps = [(float(w), float(v)) for w, v in components]
    if not comps:
        raise DomainError("mixture needs at least one component")
    if not all(math.isfinite(x) and x > 0 for comp in comps for x in comp):
        raise DomainError("mixture weights and variances must be finite and positive")
    wsum = sum(w for w, _ in comps)
    comps = [(w / wsum, v) for w, v in comps]
    n = int(dim)
    norms = [(w, v, w * (2.0 * math.pi * v) ** (-n / 2.0)) for w, v in comps]

    def profile(r: float) -> float:
        return sum(c * math.exp(-r * r / (2.0 * v)) for _, v, c in norms)

    def derivative(r: float) -> float:
        return sum(-(r / v) * c * math.exp(-r * r / (2.0 * v)) for _, v, c in norms)

    label = descriptor or "mixture:" + ";".join(f"{w:g},0,{v:g}" for w, v in comps)
    return RadialDensity(dim=n, profile=profile, derivative=derivative, descriptor=label)


def uniform_ball(dim: int, radius: float = 1.0) -> RadialDensity:
    """Uniform density on the ball of given radius.

    The profile jumps at the boundary, so the density is not absolutely
    continuous and its generalized Fisher information is infinite; only the
    moment and entropy functionals are meaningful for it.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"radius must be finite and positive, got {radius!r}")
    n = int(dim)
    level = 1.0 / (unit_sphere_area(n) / n * radius**n)

    def profile(r: float) -> float:
        return level if r < radius else 0.0

    return RadialDensity(
        dim=n,
        profile=profile,
        support_hint=radius,
        descriptor=f"uniform-ball:n={n},radius={radius:g}",
        differentiable=False,
    )


def truncated_exponential(dim: int, rate: float = 1.0, radius: float = 8.0) -> RadialDensity:
    """Radial density proportional to exp(-rate*r) cut to the ball of given radius.

    The cut leaves a jump of relative size exp(-rate*radius) at the boundary;
    the analytic derivative ignores it, so keep rate*radius large enough that
    the neglected boundary term sits far below the effect being measured.
    """
    if rate <= 0 or radius <= 0:
        raise DomainError("rate and radius must be positive")
    n = int(dim)
    covered = float(_special.gammainc(n, rate * radius))
    c = rate**n / (unit_sphere_area(n) * math.gamma(n) * covered)

    def profile(r: float) -> float:
        return c * math.exp(-rate * r) if r < radius else 0.0

    def derivative(r: float) -> float:
        return -rate * c * math.exp(-rate * r) if r < radius else 0.0

    return RadialDensity(
        dim=n,
        profile=profile,
        derivative=derivative,
        support_hint=radius,
        descriptor=f"truncated-exponential:n={n},rate={rate:g},radius={radius:g}",
    )


def table_profile(dim: int, radii, values, descriptor: str = "profile-from-table") -> RadialDensity:
    """Cubic-spline density built from tabulated (r, f_r) pairs.

    The table must start at r = 0 with strictly increasing radii; the profile
    is renormalized to unit mass and clamped to 0 beyond the last radius.
    """
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.size < 4 or v.shape != r.shape:
        raise DomainError("need matching 1-d tables with at least 4 points")
    if r[0] != 0.0 or np.any(np.diff(r) <= 0):
        raise DomainError("radii must start at 0 and increase strictly")
    if np.any(v < 0):
        raise DomainError("profile values must be nonnegative")
    spline = CubicSpline(r, v, bc_type="natural")
    dspline = spline.derivative()
    R = float(r[-1])

    def raw(rr: float) -> float:
        return max(float(spline(rr)), 0.0) if rr < R else 0.0

    probe = RadialDensity(dim=int(dim), profile=raw, support_hint=R, descriptor=descriptor)
    try:
        mass = probe.normalization()
    except DivergenceError:
        raise DomainError("tabulated profile has no usable mass") from None

    def profile(rr: float) -> float:
        return raw(rr) / mass

    def derivative(rr: float) -> float:
        return float(dspline(rr)) / mass if (rr < R and raw(rr) > 0) else 0.0

    return RadialDensity(
        dim=int(dim),
        profile=profile,
        derivative=derivative,
        support_hint=R,
        descriptor=descriptor,
    )
