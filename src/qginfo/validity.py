"""Validity domains of the family and of its measures, decided in one place.

Each bound on (n, alpha, q) is one function here, named after what it guards:

    existence       q > (n-alpha)/n     the family member is a probability density
    mq_finite       q > n/(n+alpha)     M_q and the elliptic moment m_alpha are finite
    conjugate       alpha > 1           the Holder conjugate beta = alpha/(alpha-1) is finite
    fisher_finite   conjugate and mq_finite (1-alpha < 0 then never binds)
    stam            q > max((n-1)/n, n/(n+alpha))
    k_positive      conjugate and q > 1 - 1/beta, so that k = beta/(beta(q-1)+1) > 0

A bound returns None when it holds, else what it requires and what it got
("requires q > n/(n+alpha) = 0.5, got q = 0.4"); each caller prefixes its own
subject and raises its own exception type. The q = 1 branch is decided by the
one predicate ``exponential_branch``.
"""

__all__ = ["BRANCH_TOL", "exponential_branch", "existence", "mq_finite", "conjugate",
           "fisher_finite", "stam", "k_positive", "positive_alpha", "positive_q",
           "differentiable"]

# |q - 1| below this selects the exponential branch
BRANCH_TOL = 1e-12


def exponential_branch(q: float) -> bool:
    """Whether q selects the exponential (q = 1) branch: |q - 1| < BRANCH_TOL."""
    return abs(q - 1.0) < BRANCH_TOL


def _q_above(expr: str, lo: float, q: float) -> str | None:
    return None if q > lo else f"requires q > {expr} = {lo:g}, got q = {q:g}"


def existence(n: int, alpha: float, q: float) -> str | None:
    return _q_above("(n-alpha)/n", (n - alpha) / n, q)


def mq_finite(n: int, alpha: float, q: float) -> str | None:
    return _q_above("n/(n+alpha)", n / (n + alpha), q)


def conjugate(n: int, alpha: float, q: float) -> str | None:
    if alpha > 1:
        return None
    return f"requires alpha > 1 so the conjugate exponent beta is finite, got alpha = {alpha:g}"


def fisher_finite(n: int, alpha: float, q: float) -> str | None:
    return conjugate(n, alpha, q) or mq_finite(n, alpha, q)


def stam(n: int, alpha: float, q: float) -> str | None:
    lo = (n - 1) / n
    if lo >= n / (n + alpha):
        return _q_above("(n-1)/n", lo, q)
    return mq_finite(n, alpha, q)


def k_positive(n: int, alpha: float, q: float) -> str | None:
    return conjugate(n, alpha, q) or _q_above("1 - 1/beta", 1.0 / alpha, q)


def positive_alpha(n: int, alpha: float, q: float) -> str | None:
    return None if alpha > 0 else f"requires alpha > 0, got alpha = {alpha:g}"


def positive_q(n: int, alpha: float, q: float) -> str | None:
    return None if q > 0 else f"requires q > 0, got q = {q:g}"


def differentiable(is_differentiable: bool) -> str | None:
    """Gradient functionals need an absolutely continuous profile."""
    if is_differentiable:
        return None
    return "profile is not absolutely continuous; its generalized Fisher information is infinite"
