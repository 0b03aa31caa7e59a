"""The generalized Gaussian family and its closed-form information measures.

A family member is determined by (n, alpha, q, gamma) and has density

    G(x) = (1/Z) (1 - (q-1) gamma |x|^alpha)_+^{1/(q-1)},   q != 1,
    G(x) = (1/Z) exp(-gamma |x|^alpha),                      q  = 1,

which exists as a probability density iff q > (n-alpha)/n. For q > 1 the
support is the ball of radius (gamma(q-1))^{-1/alpha}; for q <= 1 the support
is all of R^n. Every closed form below chains through the generalized moment

    mu(p, nu, s) = int |x|^p (1 - s*gamma*|x|^alpha)_+^{nu/s} dx,

whose constant was adjudicated against direct quadrature before anything else
was built: the correct prefactor is (n*omega_n/alpha) * gamma^{-(p+n)/alpha}
(an often-misprinted 2/alpha variant fails the one-dimensional Gaussian
normalization by a factor of 2). The validity bounds and the q = 1 branch
test live in ``qginfo.validity``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import special as _special
from . import validity
from .errors import DivergenceError, DomainError
from .measures import CLOSED_FORM, MeasureSet, RadialDensity, _from_renyi
from .special import beta_fn, log_gamma, unit_sphere_area
from .validity import BRANCH_TOL

__all__ = [
    "BRANCH_TOL",
    "QGaussianParams",
    "density",
    "radial_profile",
    "radial_profile_derivative",
    "radial_density",
    "mu_pnu",
    "partition_fn",
    "closed_Mq",
    "renyi_entropy",
    "tsallis_entropy",
    "entropy_power",
    "closed_moment_alpha",
    "closed_fisher",
    "closed_measures",
    "rescale",
]

@dataclass(frozen=True)
class QGaussianParams:
    """One member of the generalized Gaussian family.

    Existence is enforced at construction; finiteness of individual measures
    is exposed as flags (``mq_finite``, ``fisher_finite``). The closed-form
    operations do not read these flags: they ask ``qginfo.validity`` itself
    before evaluating (through ``_require_mq_finite`` and ``beta``), so no
    divergent formula is ever computed silently. All of these bounds, and the
    ``exponential_branch`` test, come from ``qginfo.validity``.
    """

    n: int
    alpha: float
    q: float
    gamma: float = 1.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be an integer >= 1, got {self.n!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be finite and > 0, got {self.alpha!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise DomainError(f"gamma must be finite and > 0, got {self.gamma!r}")
        if not math.isfinite(self.q):
            raise DomainError(f"q must be finite, got {self.q!r}")
        if why := validity.existence(self.n, self.alpha, self.q):
            raise DomainError(f"existence {why}")

    @property
    def beta(self) -> float:
        """Holder conjugate of alpha; finite only for alpha > 1."""
        if why := validity.conjugate(self.n, self.alpha, self.q):
            raise DomainError(f"beta = alpha/(alpha-1) {why}")
        return self.alpha / (self.alpha - 1.0)

    @property
    def k(self) -> float:
        """Profile exponent beta/(beta(q-1)+1) of the substitution u = G^(1/k)."""
        denom = self.beta * (self.q - 1.0) + 1.0
        if denom == 0.0:
            raise DomainError("profile exponent k is infinite at q = 1 - 1/beta")
        return self.beta / denom

    @property
    def lam(self) -> float:
        """Dimension-tail exponent n(q-1) + 1."""
        return self.n * (self.q - 1.0) + 1.0

    @property
    def exponential_branch(self) -> bool:
        return validity.exponential_branch(self.q)

    @property
    def support_radius(self) -> float:
        """Edge of the support ball for q > 1, else inf."""
        if self.q > 1.0 and not self.exponential_branch:
            return (self.gamma * (self.q - 1.0)) ** (-1.0 / self.alpha)
        return math.inf

    @property
    def mq_finite(self) -> bool:
        """Whether M_q (and with it m_alpha) is finite."""
        return validity.mq_finite(self.n, self.alpha, self.q) is None

    @property
    def fisher_finite(self) -> bool:
        """Whether the closed-form Fisher information is finite."""
        return validity.fisher_finite(self.n, self.alpha, self.q) is None


def mu_pnu(params: QGaussianParams, p: float, nu: float, s: float) -> float:
    """Closed form of int |x|^p (1 - s*gamma*|x|^alpha)_+^(nu/s) dx over R^n.

    Three branches: s > 0 (compact bracket), s = 0 (exponential limit,
    integrand exp(-nu*gamma*|x|^alpha)), s < 0 (power tail). The power-tail
    branch converges only for -nu*alpha/(p+n) < s, strictly: at equality the
    integrand decays like 1/r and the integral diverges logarithmically.
    """
    if p < 0:
        raise DomainError(f"mu_pnu requires p >= 0, got {p}")
    n, alpha, gamma = params.n, params.alpha, params.gamma
    a = (p + n) / alpha
    prefactor = (unit_sphere_area(n) / alpha) * gamma ** (-a)
    if s > 0:
        if nu / s + 1.0 <= 0:
            raise DivergenceError(
                f"mu_pnu branch s > 0 requires nu/s + 1 > 0, got nu={nu:g}, s={s:g}"
            )
        return prefactor * s ** (-a) * beta_fn(a, nu / s + 1.0)
    if s == 0:
        if nu <= 0:
            raise DivergenceError(f"mu_pnu branch s = 0 requires nu > 0, got nu={nu:g}")
        return prefactor * nu ** (-a) * math.exp(log_gamma(a))
    if -nu * alpha / (p + n) >= s:
        raise DivergenceError(
            f"mu_pnu diverges: branch s < 0 requires -nu*alpha/(p+n) < s strictly, "
            f"got s = {s:g} with -nu*alpha/(p+n) = {-nu * alpha / (p + n):g}"
        )
    return prefactor * (-s) ** (-a) * beta_fn(a, -nu / s - a)


def partition_fn(params: QGaussianParams) -> float:
    """Normalization constant Z = mu(0, 1, q-1) of the family member."""
    return mu_pnu(params, 0.0, 1.0, validity.tail_index(params.q))


def _profile_pair(params: QGaussianParams):
    """The profile f_r and its derivative, each of a float or an array of radii.

    The bracket (1 - (q-1) t)^(1/(q-1)), t = gamma r^alpha, is taken as
    exp(log1p(-(q-1) t)/(q-1)), accurate next to q = 1. Where t or (q-1) t
    leaves float range, the bracket is below any double unless q < 1, where it
    is ((1-q) t)^(1/(q-1)), taken from log r.
    """
    Z = partition_fn(params)
    alpha, gamma = params.alpha, params.gamma
    s = validity.tail_index(params.q)

    def far_profile(r):
        return np.exp((math.log(-s * gamma) + alpha * np.log(r)) / s) / Z if s < 0 else 0.0 * r

    def near_profile(r, t):
        if s == 0.0:
            return np.exp(-t) / Z
        inside = s * t < 1.0  # outside a compact support log1p reads 0, and the result is zeroed
        return np.exp(np.log1p(-s * t * inside) / s) * inside / Z

    def far_derivative(r):
        return alpha * far_profile(r) / (s * r) if s < 0 else 0.0 * r

    def near_derivative(r, t):
        # -gamma alpha r^(alpha-1) f / (1 - (q-1) t), the base 1 outside a compact support
        inside = s * t < 1.0
        return (-gamma * alpha * r ** (alpha - 1.0) * near_profile(r, t)
                / ((1.0 - s * t) * inside + (1.0 - inside)))

    def split(near, far):
        # near(r, t) where t and (q-1) t are floats, far(r) where not; the
        # branch not taken may overflow or divide by 0 unseen
        def fn(r):
            x = np.asarray(r, dtype=float)
            with np.errstate(all="ignore"):
                t = gamma * x**alpha
                out = np.where(np.isinf(t * max(1.0, -s)), far(x), near(x, t))
            return out if out.ndim else float(out)

        return fn

    return split(near_profile, far_profile), split(near_derivative, far_derivative)


def _radius(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radius must be nonnegative")
    return r if r.ndim else float(r)


def radial_profile(params: QGaussianParams, r):
    """Density value at radius r >= 0 (a float, or an array of radii)."""
    return _profile_pair(params)[0](_radius(r))


def radial_profile_derivative(params: QGaussianParams, r):
    """Analytic radial derivative of the density at radius r >= 0 (float or array)."""
    return _profile_pair(params)[1](_radius(r))


def density(params: QGaussianParams, x) -> float:
    """Density value at a point x in R^n (scalar allowed for n = 1)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if arr.size != params.n:
        raise DomainError(f"point has {arr.size} coordinates, expected n = {params.n}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("point coordinates must be finite")
    return radial_profile(params, float(np.linalg.norm(arr)))


def radial_density(params: QGaussianParams) -> RadialDensity:
    """Package the family member as a RadialDensity for the quadrature estimators.

    The partition function is evaluated here, not per call, so the returned
    profile closures are cheap. The support hint is the support radius: next
    to q = 1 the bulk lies orders of magnitude inside it, where the compact
    change of variable of ``measures`` still resolves it. The instance is
    tagged with its parameters so measure consumers can route to closed forms
    when they recognize the family.
    """
    profile, derivative = _profile_pair(params)
    label = (
        f"qgaussian:n={params.n},alpha={params.alpha:g},"
        f"q={params.q:g},gamma={params.gamma:g}"
    )
    return RadialDensity(
        dim=params.n,
        profile=profile,
        derivative=derivative,
        support_hint=params.support_radius,
        descriptor=label,
        family=params,
    )


def _require_mq_finite(params: QGaussianParams, what: str):
    if why := validity.mq_finite(params.n, params.alpha, params.q):
        raise DivergenceError(f"{what} diverges: {why}")


def renyi_entropy(params: QGaussianParams) -> float:
    """Renyi entropy log(M_q)/(1-q); Shannon entropy log Z + n/alpha at q = 1.

    Evaluated through an exact telescoping of the Beta-function ratio in
    mu(0,q,s)/Z^q (the second Beta arguments differ by exactly 1 at nu = q
    versus nu = 1), which removes the log(M_q)/(1-q) cancellation near q = 1:

        q > 1:  H = log Z + log1p(a*s/(1+s)) / s
        q < 1:  H = log Z - log1p(-a*s/(1+s*(a+1))) / s

    with s = q - 1 and a = n/alpha. Both expressions tend to log Z + n/alpha.
    """
    _require_mq_finite(params, "H_q")
    log_Z = math.log(partition_fn(params))
    a = params.n / params.alpha
    if params.exponential_branch:
        return log_Z + a
    s = params.q - 1.0
    if s > 0:
        return log_Z + math.log1p(a * s / (1.0 + s)) / s
    return log_Z - math.log1p(-a * s / (1.0 + s * (a + 1.0))) / s


def closed_Mq(params: QGaussianParams) -> float:
    """Information generating functional M_q = int G^q = mu(0, q, q-1)/Z^q.

    Taken as exp((1-q) H_q), with q - 1 read as 0 on the exponential branch,
    where M_1 = 1.
    """
    return math.exp(-validity.tail_index(params.q) * renyi_entropy(params))


def tsallis_entropy(params: QGaussianParams) -> float:
    """Tsallis entropy (1 - M_q)/(q - 1); its q -> 1 limit is Shannon entropy.

    Taken as H_q exprel((1-q) H_q), with q - 1 read as 0 on the exponential
    branch: the same algebra as every MeasureSet, continuous through q = 1.
    """
    hq = renyi_entropy(params)
    return hq * float(_special.exprel(-validity.tail_index(params.q) * hq))


def entropy_power(params: QGaussianParams) -> float:
    """Entropy power M_q^(1/(1-q)), continued as exp(H) at q = 1."""
    return math.exp(renyi_entropy(params))


def closed_moment_alpha(params: QGaussianParams) -> float:
    """Elliptic moment m_alpha = (n/alpha) / (gamma * (1 + (q-1)(n+alpha)/alpha)).

    The formula is continuous through q = 1, where it reduces to n/(alpha*gamma).
    """
    _require_mq_finite(params, "m_alpha")
    n, alpha, q, gamma = params.n, params.alpha, params.q, params.gamma
    scale = 1.0 + (q - 1.0) * (n + alpha) / alpha
    return (n / alpha) / (gamma * scale)


def closed_fisher(params: QGaussianParams) -> float:
    """Generalized Fisher information (alpha*gamma)^beta * mu(alpha,1,s)/mu(0,1,s)^(beta(q-1)+1).

    Valid for alpha > 1 and q > n/(n+alpha); the expression is continuous
    through q = 1 where it equals alpha^beta * gamma^(beta/alpha) * n/alpha.
    """
    beta = params.beta
    _require_mq_finite(params, "I_bq")
    s = validity.tail_index(params.q)
    num = mu_pnu(params, params.alpha, 1.0, s)
    den = mu_pnu(params, 0.0, 1.0, s) ** (beta * (params.q - 1.0) + 1.0)
    return (params.alpha * params.gamma) ** beta * num / den


def closed_measures(params: QGaussianParams) -> MeasureSet:
    """All six closed-form measures bundled as a MeasureSet."""
    beta = params.beta
    return _from_renyi(closed_Mq(params), renyi_entropy(params), closed_moment_alpha(params),
                       closed_fisher(params), CLOSED_FORM, (params.n, params.alpha, beta, params.q))


def rescale(params: QGaussianParams, gamma_new: float) -> MeasureSet:
    """Measures at a new scale obtained from the gamma = 1 member by power laws:

        M_q scales as gamma^((n/alpha)(q-1)),
        H_q shifts by -(n/alpha) log gamma,
        m_alpha scales as gamma^(-1),
        I_bq scales as gamma^((beta/alpha) * lambda),

    with q - 1 read as 0 on the exponential branch; S_q and N_q follow from
    H_q as in every MeasureSet. Matching this against direct evaluation at
    gamma_new is the scaling-identity check.
    """
    if not (math.isfinite(gamma_new) and gamma_new > 0):
        raise DomainError(f"gamma_new must be finite and > 0, got {gamma_new!r}")
    n, alpha, q = params.n, params.alpha, params.q
    unit = QGaussianParams(n=n, alpha=alpha, q=q, gamma=1.0)
    beta, a, t = unit.beta, n / alpha, float(gamma_new)
    return _from_renyi(closed_Mq(unit) * t ** (a * validity.tail_index(q)),
                       renyi_entropy(unit) - a * math.log(t),
                       closed_moment_alpha(unit) / t,
                       closed_fisher(unit) * t ** ((beta / alpha) * unit.lam),
                       CLOSED_FORM, (n, alpha, beta, q))
