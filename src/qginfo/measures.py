"""Information measures of radially symmetric densities by quadrature.

The estimators here are deliberately independent of any closed form: they see a
density only through its radial profile f_r and (optionally) its radial
derivative, each evaluated on arrays of radii, and reduce every n-dimensional
integral to one radial integral through

    integral over R^n of g(|x|) dx  =  n * omega_n * integral r^{n-1} g(r) dr.

Every measure integrates one monomial weight |x|^p f^a |grad f|^b, times
-log f for the Shannon entropy: M_q is (p, a, b) = (0, q, 0), m_alpha is
(alpha, 1, 0) and I_bq is (0, beta(q-1) + 1 - beta, beta). Each is one
trapezoid rule in s = log r on an infinite support, or in u with
r = R/(1 + e^-u) on a compact one [0, R], where it converges geometrically
(Trefethen & Weideman, SIAM Review 56, 2014); it reads only the weight, never
q. That independence is what makes the estimators usable as oracles for the
closed forms and as the measurement backend for densities that have no closed
form at all (mixtures, tabulated profiles).
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import special as _special
from . import validity
from .errors import DivergenceError, DomainError, ZeroDensityError
from .special import unit_sphere_area

# no integrator is imported; bench/tracer.py patches this name, and its proxy
# never calls through it
integrate = None

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

# the trapezoid rule's windows: s = log r on an infinite support, u with
# r = R/(1 + e^-u) on a compact one
_S_WINDOW = (-700.0, 80.0)
_U_WINDOW = (-700.0, 40.0)

# the fraction of the weight's peak below which the windows' end cells are trimmed
_TRIM = 1e-20

# h is halved until the sum moves by less than this fraction of the sum of |weight|
_REL_TOL = 1e-10

# the halvings of h = 1 after which a sum that still moves raises DivergenceError
_HALVINGS = 12


@dataclass(frozen=True)
class RadialDensity:
    """A radially symmetric probability density on R^n.

    ``profile`` maps a radius r >= 0, or an array of radii, to f_r(r); it
    must return exactly 0 beyond ``support_hint`` when that is finite (across
    a jump to 0 the quadrature converges slowly, so give its radius there).
    ``derivative``, on the same arguments, is the analytic radial derivative
    when available; otherwise a Richardson-extrapolated central difference
    with step max(1e-6, 1e-6*r) is substituted where a derivative is needed.
    ``differentiable`` marks
    profiles that are absolutely continuous; gradient-based functionals refuse
    profiles flagged False (e.g. a uniform ball, whose boundary jump makes the
    generalized Fisher information infinite).  ``family`` is an opaque marker
    attached by parametric factories so downstream code can route to closed
    forms when it recognizes the family.
    """

    dim: int
    profile: Callable
    derivative: Callable | None = None
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


def _trapezoid(g, var: str, lo: float, hi: float) -> float:
    """The integral of the weight g over [lo, hi] of ``var``, by the trapezoid rule.

    A pass at h = 1 trims the cells at both ends below _TRIM of the peak; h is
    then halved on the rest, evaluating g at the new midpoints only, until the
    sum moves by less than _REL_TOL of the sum of |g|. Where g is above the trim
    level at hi, the sum goes on past hi as the geometric series
    h g(hi)/expm1(kappa h) of the decay kappa read over the last unit. A weight
    that does not decay at an end, is not exponential past hi, underflows to 0
    from above the tolerance or does not settle raises DivergenceError.
    """
    x = np.arange(lo, hi + 0.5)
    v = g(x)
    peak, scale = float(np.max(np.abs(v))), float(np.sum(np.abs(v)))
    if not 0.0 < peak < math.inf:
        return float(np.sum(v))  # 0, or not finite: the caller decides
    first, last = np.flatnonzero(np.abs(v) > _TRIM * peak)[[0, -1]]
    kappa = [math.inf, math.inf]
    if last == x.size - 1:
        kappa = [math.log(v[i - 1] / v[i]) if v[i - 1] > v[i] > 0.0 else 0.0 for i in (-1, -2)]
    if first == 0 or not min(kappa) > 0.0:
        raise DivergenceError(f"radial weight does not decay at {var} = {hi if first else lo:g}")
    if abs(v[-1] / kappa[0] - v[-1] / kappa[1]) > _REL_TOL * scale:
        raise DivergenceError(f"radial weight is not exponential in {var} at {hi:g}")
    first, last = first - 1, min(last + 1, x.size - 1)
    h, cells, total = 1.0, last - first, float(np.sum(v[first:last + 1]))
    value = total + float(v[-1]) / math.expm1(kappa[0])
    for _ in range(_HALVINGS):
        mid = g(x[first] + h * (np.arange(cells) + 0.5))
        total, scale = total + float(np.sum(mid)), scale + float(np.sum(np.abs(mid)))
        h, cells = 0.5 * h, 2 * cells
        previous, value = value, h * (total + float(v[-1]) / math.expm1(kappa[0] * h))
        if not abs(value - previous) >= _REL_TOL * h * scale:  # settled, or not finite
            break
    edge = mid[mid != 0.0][-1:]  # the last nonzero weight of the finest pass
    if mid[-1] == 0.0 and edge.size and abs(edge[0]) > _REL_TOL * h * scale:
        raise DivergenceError(f"radial weight underflows to 0 from {edge[0]:.3g} in {var}",
                              partial=value)
    if abs(value - previous) >= _REL_TOL * h * scale:
        raise DivergenceError(f"trapezoid sum still moves by {abs(value - previous):.3g} at "
                              f"h = {h:g}", partial=value)
    return value


def _fd_derivative(profile) -> Callable:
    # central difference on the even radial extension, one Richardson level
    def deriv(r):
        h = np.maximum(1e-6, 1e-6 * r)

        def central(hh):
            return (profile(r + hh) - profile(np.abs(r - hh))) / (2.0 * hh)

        return (4.0 * central(0.5 * h) - central(h)) / 3.0

    return deriv


def _radial_integral(f: RadialDensity, p: float, a: float, b: float = 0.0,
                     entropy: bool = False) -> float:
    """The integral of |x|^p f^a |grad f|^b over R^n, of -|x|^p f^a log f if ``entropy``.

    Its weight in s = log r, n omega_n r^{n+p} f_r^a |f_r'|^b, is assembled in
    log space, which keeps it finite in deep tails. An infinite support is
    integrated in s, where dr = r ds; a compact one in u with
    r = R/(1 + e^-u), where dr = r du/(1 + e^u). With b > 0 the derivative is
    read, and a profile that vanishes between two radii where it is positive
    raises ZeroDensityError. The result must be finite, and positive unless
    ``entropy`` is set.
    """
    surface, power, R = unit_sphere_area(f.dim), f.dim + p, f.support_hint
    dprof = (f.derivative or _fd_derivative(f.profile)) if b > 0 else None

    def w(r, log_r):
        fv = f.profile(r)
        inside, log_f = fv > 0.0, np.log(fv)
        log_w = power * log_r + a * log_f
        if b > 0:
            dv = dprof(r)
            ends = np.flatnonzero(inside)
            if ends.size and not inside[ends[0]:ends[-1]].all():
                where = r[ends[0] + np.argmin(inside[ends[0]:ends[-1]])]
                raise ZeroDensityError(f"{f.descriptor}: profile vanishes at interior radius "
                                       f"{where:g}")
            inside, log_w = inside & (dv != 0.0), log_w + b * np.log(np.abs(dv))
        return np.where(inside, -surface * log_f * np.exp(log_w) if entropy
                        else surface * np.exp(log_w), 0.0)

    with np.errstate(all="ignore"):  # a weight that is not finite is the DivergenceError below
        if math.isinf(R):
            value = _trapezoid(lambda s: w(np.exp(s), s), "log r", *_S_WINDOW)
        else:
            value = _trapezoid(lambda u: w(R / (1.0 + np.exp(-u)),
                                           math.log(R) - np.log1p(np.exp(-u)))
                               / (1.0 + np.exp(u)), "u", *_U_WINDOW)
    if math.isfinite(value) and (value > 0.0 or entropy):
        return value
    what = "a finite" if entropy else "a finite positive"
    raise DivergenceError(f"radial integral evaluates to {value:g}, not {what} value")


def quad_Mq(f: RadialDensity, q: float) -> float:
    """Information generating functional M_q[f] = int f^q over R^n."""
    if q < 0:
        raise DomainError(f"quad_Mq requires q >= 0, got {q}")
    return _radial_integral(f, 0.0, q)


def quad_moment(f: RadialDensity, alpha: float) -> float:
    """Elliptic moment m_alpha[f] = int |x|^alpha f over R^n."""
    if alpha <= 0:
        raise DomainError(f"quad_moment requires alpha > 0, got {alpha}")
    return _radial_integral(f, alpha, 1.0)


def quad_shannon(f: RadialDensity) -> float:
    """Shannon entropy -int f log f over R^n."""
    return _radial_integral(f, 0.0, 1.0, entropy=True)


def quad_fisher(f: RadialDensity, beta: float, q: float) -> float:
    """Generalized Fisher information of order (beta, q),

        I_bq[f] = n * omega_n * int r^{n-1} f^{beta(q-1)+1} |f'/f|^beta dr.

    A profile without a derivative is differentiated by finite differences.
    Profiles flagged non-differentiable are refused: their Fisher information
    is infinite, and so is that of a profile that vanishes between two radii
    where it is positive (ZeroDensityError).
    """
    if beta <= 1:
        raise DomainError(f"quad_fisher requires beta > 1, got {beta}")
    if why := validity.differentiable(f.differentiable):
        raise DomainError(f"{f.descriptor}: {why}")
    return _radial_integral(f, 0.0, beta * (q - 1.0) + 1.0 - beta, beta)


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
    if not math.isfinite(wsum):
        # dividing by an infinite sum would set every weight to 0
        raise DomainError("mixture weights overflow their sum: scale them down")
    comps = [(w / wsum, v) for w, v in comps]
    n = int(dim)
    norms = [(w, v, w * (2.0 * math.pi * v) ** (-n / 2.0)) for w, v in comps]
    # beyond 40 standard deviations of the widest component every exp(-r^2/2v)
    # is exactly 0: r clamped there keeps r*r and r/v finite, and every bit
    edge = 40.0 * math.sqrt(max(v for _, v in comps))

    def profile(r):
        r = np.minimum(r, edge)
        return sum(c * np.exp(-r * r / (2.0 * v)) for _, v, c in norms)

    def derivative(r):
        r = np.minimum(r, edge)
        return sum(-(r / v) * c * np.exp(-r * r / (2.0 * v)) for _, v, c in norms)

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

    def profile(r):
        return level * (r < radius)

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

    def profile(r):
        return c * np.exp(-rate * r) * (r < radius)

    def derivative(r):
        return -rate * profile(r)

    return RadialDensity(
        dim=n,
        profile=profile,
        derivative=derivative,
        support_hint=radius,
        descriptor=f"truncated-exponential:n={n},rate={rate:g},radius={radius:g}",
    )


def _natural_spline(x: np.ndarray, y: np.ndarray) -> tuple:
    """The natural cubic spline through (x, y): two functions of r, its value and (value, slope).

    Both are scipy's CubicSpline(x, y, bc_type="natural") and its derivative(),
    bit for bit (de Boor, *A Practical Guide to Splines*, 1978): the knot
    slopes solve scipy's tridiagonal system, the coefficients are
    CubicHermiteSpline's, and each polynomial is summed in PPoly's order from
    0.0, on the [x_i, x_i+1) that PPoly finds, by one search of the inner
    knots, the end cubics extended past the table. Raises ValueError where
    scipy does: on a singular system or on slopes that are not finite.
    """
    dx, dy = np.diff(x), np.diff(y)
    slope = dy / dx
    pad = np.concatenate(([0.0], dx, [0.0]))
    b = 3.0 * np.concatenate((dy[:1], dx[1:] * slope[:-1] + dx[:-1] * slope[1:], dy[-1:]))
    # f'' = 0 at the ends enters scipy's system as -+0.0 dx^2/2, which overflows where dx^2 does
    b[[0, -1]] += np.array([-0.0, 0.0]) * dx[[0, -1]] ** 2
    # LAPACK's tridiagonal solve, the one scipy.linalg.solve_banded((1, 1), ...) makes
    *_, s, info = _special.gtsv(
        np.append(dx[1:], dx[-1]), 2.0 * (pad[:-1] + pad[1:]), np.append(dx[0], dx[:-1]), b)
    if info != 0 or not np.all(np.isfinite(s)):
        raise ValueError("the spline's knot slopes are not finite")
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    c0, c1 = t / dx, (slope - s[:-1]) / dx - t
    # per interval: its knot, the cubic's coefficients and the slope's; PPoly's
    # sums start from 0.0, folded into the constant terms (it turns -0.0 into 0.0)
    knots, c3, c2, d2, d1, d0 = x[:-1], 0.0 + y[:-1], s[:-1], 0.0 + s[:-1], 2.0 * c1, 3.0 * c0
    inner = x[1:-1]

    def at(r):
        # the function that reads a per-interval array at each r's interval,
        # the one with as many inner knots at or below r
        i = inner.searchsorted(r, "right")
        return lambda column: column.take(i)

    def cubic(read, h, hh):
        return ((read(c3) + read(c2) * h) + read(c1) * hh) + read(c0) * (hh * h)

    def value(r):
        read = at(r)
        h = r - read(knots)
        return cubic(read, h, h * h)

    def value_and_slope(r):
        read = at(r)
        h = r - read(knots)
        hh = h * h
        return cubic(read, h, hh), (read(d2) + read(d1) * h) + read(d0) * hh

    return value, value_and_slope


def table_profile(dim: int, radii, values, descriptor: str = "profile-from-table") -> RadialDensity:
    """Cubic-spline density built from tabulated (r, f_r) pairs.

    The table must start at r = 0 with strictly increasing radii; the profile
    is renormalized to unit mass and clamped to 0 beyond the last radius. A
    table whose last value is above 1e-8 of its largest jumps there, so it is
    marked not differentiable: its generalized Fisher information is infinite.
    The spline is scipy's natural cubic spline, bit for bit, computed in-package
    (``_natural_spline``): importing it from scipy.interpolate would also load
    scipy.optimize, scipy.sparse, scipy.spatial and scipy.fft, about 26 MB.
    """
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.size < 4 or v.shape != r.shape:
        raise DomainError("need matching 1-d tables with at least 4 points")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
        raise DomainError("table radii and values must be finite")
    if r[0] != 0.0 or np.any(np.diff(r) <= 0):
        raise DomainError("radii must start at 0 and increase strictly")
    if np.any(v < 0):
        raise DomainError("profile values must be nonnegative")
    # values near the float limit overflow the spline's slopes: numpy's
    # warnings become errors, and slopes that are not finite raise ValueError
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            spline, spline_and_slope = _natural_spline(r, v)
    except (FloatingPointError, ValueError):
        raise DomainError("tabulated profile overflows its cubic spline") from None
    R = float(r[-1])

    def raw(rr):
        return np.maximum(spline(rr), 0.0) * (rr < R)

    probe = RadialDensity(dim=int(dim), profile=raw, support_hint=R, descriptor=descriptor)
    try:
        mass = probe.normalization()
    except DivergenceError:
        raise DomainError("tabulated profile has no usable mass") from None

    def profile(rr):
        return raw(rr) / mass

    def derivative(rr):
        value, slope = spline_and_slope(rr)
        return slope / mass * ((value > 0.0) & (rr < R))  # where raw(rr) > 0

    return RadialDensity(
        dim=int(dim),
        profile=profile,
        derivative=derivative,
        support_hint=R,
        descriptor=descriptor,
        differentiable=bool(v[-1] <= 1e-8 * v.max()),
    )
