"""Constrained minimization of the generalized Fisher information.

With u = f^{1/k} and k = beta/(beta(q-1)+1), minimizing I_bq[f] over densities
with a prescribed elliptic moment m becomes a Dirichlet-type problem

    minimize    int |grad u|^beta
    subject to  int u^k = 1   and   int |x|^alpha u^k = m,

whose radial discretization this module solves with an augmented-Lagrangian
outer loop around a bound-constrained quasi-Newton inner solver. The converged
multiplier estimates (a, b) are exactly the Lagrange data of

    L(u; a, b) = int |grad u|^beta + a int u^k + b int |x|^alpha u^k,

so they feed two independent verifications carried out here as well: the
stationarity equation

    (r^{n-1} |u'|^{beta-2} u')'  -  (k/beta) r^{n-1} (a + b r^alpha) u^{k-1} = 0

satisfied by the profile u = G^{1/k} of the extremal family member, and the
value identity I_bq(m)/|k|^beta = -(k/beta)(a + b m). The multiplier constant
is A = (beta/k)^beta (gamma/(beta-1))^{beta-1} Z^{(k-beta)/k} with a = -A n
and b = A (1 + n(q-1)) gamma; the Z exponent (k-beta)/k was adjudicated
numerically (a widely copied k-beta variant fails the stationarity residual
except where k is 1 or beta, where the two coincide).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import validity
from .errors import ConvergenceError, DomainError
from .qgaussian import (
    QGaussianParams,
    closed_fisher,
    closed_moment_alpha,
    partition_fn,
    radial_profile,
    radial_profile_derivative,
)
from .sampling import radial_quantile, radial_tail_mass
from .special import unit_sphere_area

__all__ = [
    "INITS",
    "VariationalProblem",
    "VariationalSolution",
    "make_problem",
    "solve",
    "euler_lagrange_residual",
    "check_proposition1",
    "proposition1_closed_gap",
    "analytic_multipliers",
    "extremal_profile",
]

INITS = ("flat", "exponential", "qgaussian-detuned")

# |u'|^beta smoothing used when beta < 2 makes the integrand non-smooth at 0
_SMOOTHING_EPS = 1e-8

# largest radial grid accepted; L-BFGS-B's work arrays hold about 65 doubles
# per node, so this caps them near 50 MB
MAX_NODES = 100_001

# augmented-Lagrangian budget: outer steps, and the constraint violation that ends them
_MAX_OUTER = 40
_CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class VariationalProblem:
    """Radial discretization of the constrained minimization.

    ``grid`` holds the uniform radial nodes 0 = r_0 < ... < r_N = R;
    ``gamma_star`` is the scale whose extremal member meets ``m_target``.
    """

    n: int
    alpha: float
    beta: float
    q: float
    m_target: float
    grid: np.ndarray
    R: float
    gamma_star: float

    @property
    def k(self) -> float:
        return self.beta / (self.beta * (self.q - 1.0) + 1.0)

    @property
    def extremal_params(self) -> QGaussianParams:
        return QGaussianParams(n=self.n, alpha=self.alpha, q=self.q, gamma=self.gamma_star)


@dataclass(eq=False)
class VariationalSolution:
    """Converged profile with achieved constraints and recovered multipliers."""

    u_values: np.ndarray
    objective: float
    constraints_achieved: tuple
    multipliers: tuple
    iterations: int
    converged: bool
    smoothing_eps: float
    problem: VariationalProblem


def make_problem(n: int, alpha: float, q: float, m_target: float, *,
                 num_nodes: int = 1601) -> VariationalProblem:
    """Set up the discretized problem for a prescribed moment m_target.

    The truncation radius is 1.05 times the support radius when the support is
    compact, else large enough that the extremal member's tail mass is below
    1e-10, so the zero boundary value is exact to solver tolerance. The grid
    has between 50 and MAX_NODES nodes.
    """
    if not (math.isfinite(m_target) and m_target > 0):
        raise DomainError(f"m_target must be finite and positive, got {m_target!r}")
    if num_nodes < 50:
        raise DomainError("need at least 50 radial nodes")
    if num_nodes > MAX_NODES:
        raise DomainError(f"at most {MAX_NODES} radial nodes, got {num_nodes}")
    QGaussianParams(n=n, alpha=alpha, q=q)  # n, alpha and q must be valid before the bounds
    for subject, bound in (("moment constraint unreachable:", validity.mq_finite),
                           ("the Dirichlet reformulation needs k > 0:", validity.k_positive)):
        if why := bound(n, alpha, q):
            raise DomainError(f"{subject} {why}")
    scale = 1.0 + (q - 1.0) * (n + alpha) / alpha
    gamma_star = (n / alpha) / (m_target * scale)
    params = QGaussianParams(n=n, alpha=alpha, q=q, gamma=gamma_star)
    beta = params.beta
    if math.isfinite(params.support_radius):
        R = 1.05 * params.support_radius
    else:
        R = float(radial_quantile(params, 0.999))
        while radial_tail_mass(params, R) > 1e-10:
            R *= 1.5
    grid = np.linspace(0.0, float(R), int(num_nodes))
    return VariationalProblem(
        n=n, alpha=alpha, beta=beta, q=q, m_target=float(m_target),
        grid=grid, R=float(R), gamma_star=gamma_star,
    )


def extremal_profile(problem: VariationalProblem) -> np.ndarray:
    """u = G^{1/k} of the extremal member, sampled on the problem grid."""
    return radial_profile(problem.extremal_params, problem.grid) ** (1.0 / problem.k)


class _Discretization:
    """Trapezoid weights and difference stencils shared by objective and constraints."""

    def __init__(self, problem: VariationalProblem, smoothing_eps: float):
        r = problem.grid
        self.h = float(r[1] - r[0])
        n = problem.n
        w = np.full(r.size, self.h)
        w[0] = w[-1] = 0.5 * self.h
        surface = unit_sphere_area(n)
        self.wgeo = surface * w * r ** (n - 1)
        self.wmom = surface * w * r ** (n - 1 + problem.alpha)
        self.beta = problem.beta
        self.k = problem.k
        self.m_target = problem.m_target
        self.eps = smoothing_eps

    def gradient_values(self, u: np.ndarray) -> np.ndarray:
        d = np.empty_like(u)
        d[0] = (u[1] - u[0]) / self.h
        d[-1] = (u[-1] - u[-2]) / self.h
        d[1:-1] = (u[2:] - u[:-2]) / (2.0 * self.h)
        return d

    def energy(self, u: np.ndarray, smoothed: bool = True):
        d = self.gradient_values(u)
        if smoothed and self.eps > 0.0:
            base = d * d + self.eps * self.eps
            phi = base ** (0.5 * self.beta)
            dphi = self.beta * d * base ** (0.5 * self.beta - 1.0)
        else:
            ad = np.abs(d)
            phi = ad**self.beta
            dphi = self.beta * np.sign(d) * ad ** (self.beta - 1.0)
        value = float(self.wgeo @ phi)
        s = self.wgeo * dphi
        grad = np.zeros_like(u)
        grad[0] -= s[0] / self.h
        grad[1] += s[0] / self.h
        grad[-1] += s[-1] / self.h
        grad[-2] -= s[-1] / self.h
        grad[2:] += s[1:-1] / (2.0 * self.h)
        grad[:-2] -= s[1:-1] / (2.0 * self.h)
        return value, grad

    def constraints(self, u: np.ndarray):
        uk = u**self.k
        c = np.array([float(self.wgeo @ uk) - 1.0, float(self.wmom @ uk) - self.m_target])
        duk = self.k * u ** (self.k - 1.0)
        jac = np.vstack([self.wgeo * duk, self.wmom * duk])
        return c, jac


def _initial_profile(problem: VariationalProblem, init: str, disc: _Discretization) -> np.ndarray:
    r = problem.grid
    k = problem.k
    if init == "flat":
        u = np.ones_like(r)
    elif init == "exponential":
        u = np.exp(-2.0 * r / problem.m_target ** (1.0 / problem.alpha))
    elif init == "qgaussian-detuned":
        detuned = QGaussianParams(
            n=problem.n, alpha=problem.alpha, q=problem.q, gamma=2.0 * problem.gamma_star
        )
        u = radial_profile(detuned, r) ** (1.0 / k)
    else:
        raise DomainError(f"init must be one of {INITS}, got {init!r}")
    mass = float(disc.wgeo @ u**k)
    if not (mass > 0 and math.isfinite(mass)):
        raise DomainError(f"initial profile {init!r} has no usable mass on the grid")
    return u * mass ** (-1.0 / k)


def solve(problem: VariationalProblem, init: str = "exponential") -> VariationalSolution:
    """Minimize the discrete Dirichlet energy under both constraints.

    Augmented-Lagrangian outer loop; the inner subproblems are solved by
    L-BFGS-B on the nonnegative orthant with analytic gradients. The returned
    multipliers are the converged augmented-Lagrangian estimates.
    """
    eps = _SMOOTHING_EPS if problem.beta < 2.0 else 0.0
    disc = _Discretization(problem, eps)
    u = _initial_profile(problem, init, disc)
    lower = 1e-12 if problem.k < 1.0 else 0.0
    bounds = [(lower, None)] * u.size
    lam = np.zeros(2)
    e0, _ = disc.energy(u)
    rho = max(1.0, abs(e0))
    total_inner = 0
    previous_violation = math.inf
    converged = False
    for outer in range(_MAX_OUTER):
        def al_objective(x):
            e, ge = disc.energy(x)
            c, jac = disc.constraints(x)
            value = e + lam @ c + 0.5 * rho * (c @ c)
            grad = ge + jac.T @ (lam + rho * c)
            return value, grad

        inner_gtol = max(1e-10, 1e-6 * 0.1**outer)
        res = optimize.minimize(
            al_objective,
            u,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 4000, "ftol": 1e-16, "gtol": inner_gtol, "maxcor": 30},
        )
        u = res.x
        total_inner += int(res.nit)
        c, _ = disc.constraints(u)
        violation = float(np.max(np.abs(c)))
        lam = lam + rho * c
        if violation < _CONSTRAINT_TOL:
            converged = True
            break
        if violation > 0.25 * previous_violation:
            rho = min(rho * 10.0, 1e12)
        previous_violation = violation

    objective, _ = disc.energy(u, smoothed=False)
    c, _ = disc.constraints(u)
    solution = VariationalSolution(
        u_values=u,
        objective=float(objective),
        constraints_achieved=(float(c[0] + 1.0), float(c[1] + problem.m_target)),
        multipliers=(float(lam[0]), float(lam[1])),
        iterations=total_inner,
        converged=converged,
        smoothing_eps=eps,
        problem=problem,
    )
    if not converged:
        raise ConvergenceError(
            f"constraints not met after {_MAX_OUTER} outer iterations "
            f"(violation {float(np.max(np.abs(c))):.3e})",
            last_iterate=solution,
        )
    return solution


def analytic_multipliers(params: QGaussianParams) -> tuple:
    """Closed-form (a, b, A) for which u = G^{1/k} is stationary.

    A = (beta/k)^beta (gamma/(beta-1))^{beta-1} Z^{(k-beta)/k}, a = -A n,
    b = A (1 + n(q-1)) gamma. Requires k > 0.
    """
    if why := validity.k_positive(params.n, params.alpha, params.q):
        raise DomainError(f"analytic multipliers {why}")
    beta = params.beta
    k = params.k
    Z = partition_fn(params)
    A = (
        (beta / k) ** beta
        * (params.gamma / (beta - 1.0)) ** (beta - 1.0)
        * Z ** ((k - beta) / k)
    )
    a = -A * params.n
    b = A * (1.0 + params.n * (params.q - 1.0)) * params.gamma
    return a, b, A


def euler_lagrange_residual(params: QGaussianParams, *, num_points: int = 41) -> tuple:
    """Normalized stationarity residual of u = G^{1/k} with analytic multipliers.

    The flux r^{n-1} |u'|^{beta-2} u' is evaluated analytically and its radial
    derivative by a five-point stencil on an interior grid (10 to 90 percent
    of the support or bulk radius). Returns (max_residual, (a, b, A)) where
    the residual is normalized by the largest magnitude of either equation
    term over the grid.
    """
    n, alpha, beta, k = params.n, params.alpha, params.beta, params.k
    a, b, A = analytic_multipliers(params)
    if math.isfinite(params.support_radius):
        rmax = params.support_radius
    else:
        rmax = float(radial_quantile(params, 0.999))

    def u_value(r: np.ndarray) -> np.ndarray:
        return radial_profile(params, r) ** (1.0 / k)

    def u_prime(r: np.ndarray) -> np.ndarray:
        # (G^{1/k})' = G' G^{1/k - 1} / k
        return radial_profile_derivative(params, r) * u_value(r) ** (1.0 - k) / k

    def flux(r: np.ndarray) -> np.ndarray:
        d = u_prime(r)
        return r ** (n - 1) * np.abs(d) ** (beta - 2.0) * d

    r = np.linspace(0.1, 0.9, num_points) * rmax
    h = np.minimum(1e-4 * np.maximum(r, 0.05 * rmax), 0.02 * (rmax - r))
    dflux = (-flux(r + 2 * h) + 8 * flux(r + h) - 8 * flux(r - h) + flux(r - 2 * h)) / (12 * h)
    source = (k / beta) * r ** (n - 1) * (a + b * r**alpha) * u_value(r) ** (k - 1.0)
    residual = dflux - source
    denom = max(float(np.max(np.abs(dflux))), float(np.max(np.abs(source))))
    return float(np.max(np.abs(residual)) / denom), (a, b, A)


def check_proposition1(solution: VariationalSolution, problem: VariationalProblem) -> tuple:
    """Value identity at the optimum: objective = -(k/beta)(a + b m).

    Returns (lhs, rhs, rel_gap) with the recovered multipliers; refuses an
    unconverged solution, whose multiplier estimates mean nothing.
    """
    if not solution.converged:
        raise ConvergenceError("refusing identity check: solution did not converge")
    a, b = solution.multipliers
    k, beta = problem.k, problem.beta
    lhs = solution.objective
    rhs = -(k / beta) * (a + b * problem.m_target)
    rel_gap = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return float(lhs), float(rhs), float(rel_gap)


def proposition1_closed_gap(params: QGaussianParams) -> float:
    """Pure closed-form version of the value identity, no solver involved.

    Compares I_bq/|k|^beta against -(k/beta)(a + b m_alpha) with the analytic
    multipliers; the relative gap should sit at rounding level.
    """
    k, beta = params.k, params.beta
    a, b, _ = analytic_multipliers(params)
    lhs = closed_fisher(params) / abs(k) ** beta
    rhs = -(k / beta) * (a + b * closed_moment_alpha(params))
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)
