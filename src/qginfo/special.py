"""Log-gamma, Beta function, and unit-ball geometry; the package's one door to scipy.

Every closed form in the package chains through these three helpers, so they
carry the tightest accuracy contract (1e-12 relative for log_gamma on
[1e-3, 1e3]). Gamma ratios are always assembled in log space with a single
final exponentiation; the Beta function stays finite even when one argument
is huge, which happens routinely for tail indices q close to 1.

No other module of the package imports scipy: every scipy routine it calls,
the scipy.special ufuncs and LAPACK's gbsv and gtsv, is read from this module
and imported on the first read (see ``__getattr__``).
"""

import math
import sys

from .errors import DomainError

__all__ = ["log_gamma", "beta_fn", "unit_ball_volume", "unit_sphere_area"]

# the scipy routines of the docstring, bound here on the first read of any name
# from the same scipy module: the first of scipy.special and scipy.linalg to be
# imported takes about 0.3 s and the second about 60 ms more, which `sample`
# and a usage error never need
_UFUNCS = ("gammaln", "betaln", "exprel", "gammainc", "gammaincc", "gammaincinv",
           "betainc", "betaincinv")
_LAPACK = ("gbsv", "gtsv")


def __getattr__(name):
    if name in _UFUNCS:
        from scipy import special

        globals().update((ufunc, getattr(special, ufunc)) for ufunc in _UFUNCS)
    elif name in _LAPACK:
        from scipy.linalg import get_lapack_funcs

        globals().update(zip(_LAPACK, get_lapack_funcs(_LAPACK, dtype=float)))
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


# this module as its callers see it, so that the helpers below read the ufuncs
# through __getattr__ too
_special = sys.modules[__name__]


def log_gamma(x: float) -> float:
    """Natural logarithm of the Gamma function for x > 0."""
    xf = float(x)
    if not math.isfinite(xf) or xf <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    return float(_special.gammaln(xf))


# B_2k/(2k(2k - 1)), k = 1..7: the Stirling series of log Gamma (DLMF 5.11.1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    af, bf = float(a), float(b)
    if not (math.isfinite(af) and math.isfinite(bf)) or af <= 0.0 or bf <= 0.0:
        raise DomainError(f"beta_fn requires finite a, b > 0, got a={a!r}, b={b!r}")
    af, bf = min(af, bf), max(af, bf)
    if bf < 20.0:
        return math.exp(float(_special.betaln(af, bf)))
    # lgamma(a) + log(Gamma(b)/Gamma(b+a)), the ratio from the Stirling series of
    # both with the leading terms combined, so that nothing of size b log b cancels
    ratio = -(bf - 0.5) * math.log1p(af / bf) - af * math.log(bf + af) + af + sum(
        c * (bf ** (1 - 2 * k) - (bf + af) ** (1 - 2 * k)) for k, c in enumerate(_STIRLING, 1))
    return math.exp(math.lgamma(af) + ratio)


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n, pi^(n/2)/Gamma(n/2 + 1)."""
    if int(n) != n or n < 1:
        raise DomainError(f"unit_ball_volume requires an integer n >= 1, got {n!r}")
    n = int(n)
    return math.exp(0.5 * n * math.log(math.pi) - log_gamma(n / 2 + 1))


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere bounding the n-ball, n * unit_ball_volume(n)."""
    return n * unit_ball_volume(int(n))
