"""Constrained minimization of the generalized Fisher information.

With u = f^{1/k} and k = beta/(beta(q-1)+1), minimizing I_bq[f] over densities
with a prescribed elliptic moment m becomes a Dirichlet-type problem

    minimize    int |grad u|^beta
    subject to  int u^k = 1   and   int |x|^alpha u^k = m,

whose radial discretization this module solves with an augmented-Lagrangian
outer loop around projected Newton steps on u >= 0. The energy takes a
fourth-order staggered derivative at the interval midpoints, so its Hessian
is banded and a grid-scale odd-even mode costs energy; each Newton step is one
banded solve and a 2x2 Woodbury system. The recovered multipliers (a, b) are
the Lagrange data of

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
from scipy import linalg

from . import validity
from .errors import ConvergenceError, DivergenceError, DomainError
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

# no optimizer is imported; bench/tracer.py patches this name, and its proxy
# never calls through it
optimize = None

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

# largest radial grid accepted; a solve peaks near 75 doubles per node (band
# storage and its copies, LU factors, right-hand sides), so about 60 MB here
MAX_NODES = 100_001

# augmented-Lagrangian (AL) budget: outer steps, and the constraint violation that ends them
_MAX_OUTER = 40
_CONSTRAINT_TOL = 1e-9
# first AL penalty, in units of max(1, |energy of the initial profile|)
_RHO_SCALE = 100.0
# projected Newton steps per AL subproblem; the subproblem ends when the Newton
# decrement falls below _DECREMENT_TOL |AL|, since an absolute gradient
# tolerance is out of reach of floating point on fine grids
_MAX_NEWTON = 200
_MAX_BACKTRACK = 50
_DECREMENT_TOL = 1e-14
# diagonal shift, in units of the largest energy-Hessian diagonal entry, tried
# when neither the exact nor the clipped constraint curvature gives descent
_SHIFT = 1e-8
# times a Newton step is retaken after freeing pinned nodes it would lift
_RELEASE_ROUNDS = 3
# when k < 1, u^k has unbounded slope at 0, so a node at 0 beside the support
# would be a local minimum however hard the energy pulls it up; below delta the
# constraints take the quadratic with the value and slope of u^k at delta.
# delta starts at _DELTA_START max u, is divided by 10 at each outer step, and
# stops at _DELTA_CELLS (h/R)^(1/k) max u, the scale of u one cell inside the
# support edge
_DELTA_START = 0.1
_DELTA_CELLS = 0.1


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
        return self.extremal_params.k

    @property
    def extremal_params(self) -> QGaussianParams:
        return QGaussianParams(n=self.n, alpha=self.alpha, q=self.q, gamma=self.gamma_star)


@dataclass(eq=False)
class VariationalSolution:
    """Converged profile with achieved constraints and recovered multipliers.

    ``multipliers`` are the (a, b) that best satisfy the discrete stationarity
    equations over the nodes off the bound, in the least-squares sense;
    ``iterations`` counts projected Newton steps over all outer steps. When
    k < 1, ``constraints_achieved`` takes u^k as the solver does, with the
    quadratic below the final delta (see ``solve``).
    """

    u_values: np.ndarray
    objective: float
    constraints_achieved: tuple
    multipliers: tuple
    iterations: int
    converged: bool
    smoothing_eps: float
    problem: VariationalProblem


def _domain_radius(R: float) -> float:
    """R, once it is checked to be finite and positive, as a grid needs."""
    if not (math.isfinite(R) and R > 0):
        raise DivergenceError(f"the extremal member's domain radius is {R!r}, "
                              "not finite and positive in floats")
    return R


def make_problem(n: int, alpha: float, q: float, m_target: float, *,
                 num_nodes: int = 1601) -> VariationalProblem:
    """Set up the discretized problem for a prescribed moment m_target.

    m_alpha scales as 1/gamma, so the extremal scale gamma* is the gamma = 1
    member's m_alpha over m_target. The truncation radius is 1.05 times the
    support radius when the support is compact, else large enough that the
    extremal member's tail mass is below 1e-10, so the zero boundary value is
    exact to solver tolerance. The grid has between 50 and MAX_NODES nodes.
    """
    if not (math.isfinite(m_target) and m_target > 0):
        raise DomainError(f"m_target must be finite and positive, got {m_target!r}")
    if num_nodes < 50:
        raise DomainError("need at least 50 radial nodes")
    if num_nodes > MAX_NODES:
        raise DomainError(f"at most {MAX_NODES} radial nodes, got {num_nodes}")
    unit = QGaussianParams(n=n, alpha=alpha, q=q)  # n, alpha, q are checked before the bounds
    for subject, bound in (("moment constraint unreachable:", validity.mq_finite),
                           ("the Dirichlet reformulation needs k > 0:", validity.k_positive)):
        if why := bound(n, alpha, q):
            raise DomainError(f"{subject} {why}")
    gamma_star = closed_moment_alpha(unit) / m_target
    params = QGaussianParams(n=n, alpha=alpha, q=q, gamma=gamma_star)
    beta = params.beta
    if math.isfinite(params.support_radius):
        R = 1.05 * params.support_radius
    else:
        R = _domain_radius(float(radial_quantile(params, 0.999)))
        while radial_tail_mass(params, R) > 1e-10:
            R *= 1.5
    R = _domain_radius(R)
    grid = np.linspace(0.0, float(R), int(num_nodes))
    return VariationalProblem(
        n=n, alpha=alpha, beta=beta, q=q, m_target=float(m_target),
        grid=grid, R=float(R), gamma_star=gamma_star,
    )


def extremal_profile(problem: VariationalProblem) -> np.ndarray:
    """u = G^{1/k} of the extremal member, sampled on the problem grid."""
    return radial_profile(problem.extremal_params, problem.grid) ** (1.0 / problem.k)


class _Discretization:
    """Staggered differences and corrected trapezoid weights for the AL function.

    The derivative lives at the N interval midpoints r_{j+1/2}, at fourth order:

        d_j = (27 (u_{j+1} - u_j) - (u_{j+2} - u_{j-1})) / (24 h),

    with the even ghost u_{-1} = u_1 at the centre and the quotient
    (u_N - u_{N-1}) / h on the last interval. A grid-scale odd-even mode
    therefore costs energy, and the energy Hessian D^T diag(W phi''(d)) D has
    bandwidth 3. The energy weights W are S h r_{j+1/2}^{n-1}; the constraints
    use trapezoid weights with Gregory end corrections.
    """

    def __init__(self, problem: VariationalProblem, smoothing_eps: float):
        r = problem.grid
        h = float(r[1] - r[0])
        n = problem.n
        surface = unit_sphere_area(n)
        self.wmid = surface * h * (r[:-1] + 0.5 * h) ** (n - 1)
        # row j: coefficients of u_{j-1}, u_j, u_{j+1}, u_{j+2}
        stencil = np.tile(np.array([1.0, -27.0, 27.0, -1.0]) / (24.0 * h), (r.size - 1, 1))
        stencil[0] = np.array([0.0, -27.0, 28.0, -1.0]) / (24.0 * h)
        stencil[-1] = np.array([0.0, -1.0, 1.0, 0.0]) / h
        self.stencil = stencil.T.copy()
        w = np.full(r.size, h)
        w[[0, -1]] = 0.5 * h - h / 12.0
        w[[1, -2]] += h / 12.0
        self.wgeo = surface * w * r ** (n - 1)
        self.wmom = surface * w * r ** (n - 1 + problem.alpha)
        self.beta = problem.beta
        self.k = problem.k
        self.m_target = problem.m_target
        self.eps = smoothing_eps

    def derivative(self, u: np.ndarray) -> np.ndarray:
        padded = np.concatenate(([0.0], u, [0.0]))
        m = u.size - 1
        return sum(self.stencil[o] * padded[o:o + m] for o in range(4))

    def energy(self, u: np.ndarray):
        d = self.derivative(u)
        if self.eps > 0.0:
            base = d * d + self.eps * self.eps
            phi = base ** (0.5 * self.beta)
            dphi = self.beta * d * base ** (0.5 * self.beta - 1.0)
        else:
            ad = np.abs(d)
            phi = ad**self.beta
            dphi = self.beta * np.sign(d) * ad ** (self.beta - 1.0)
        value = float(self.wmid @ phi)
        s = self.wmid * dphi
        grad = np.zeros(u.size + 2)
        for o in range(4):
            grad[o:o + s.size] += self.stencil[o] * s
        return value, grad[1:-1]

    def energy_hessian(self, u: np.ndarray) -> np.ndarray:
        """D^T diag(W phi''(d)) D of the smoothed energy, in the (3, 3) band storage of solve_banded."""
        d = self.derivative(u)
        beta, eps2 = self.beta, self.eps * self.eps
        if eps2 > 0.0:
            base = d * d + eps2
            phi2 = beta * base ** (0.5 * beta - 2.0) * ((beta - 1.0) * d * d + eps2)
        else:
            phi2 = beta * (beta - 1.0) * np.abs(d) ** (beta - 2.0)
        curv = self.wmid * phi2
        m = curv.size
        band = np.zeros((7, u.size + 2))
        for o1 in range(4):
            for o2 in range(4):
                band[3 + o1 - o2, o2:o2 + m] += curv * self.stencil[o1] * self.stencil[o2]
        return band[:, 1:-1]

    def constraints(self, u: np.ndarray, delta: float):
        uk, duk, _ = _power(u, self.k, delta)
        c = np.array([float(self.wgeo @ uk) - 1.0, float(self.wmom @ uk) - self.m_target])
        jac = np.vstack([self.wgeo * duk, self.wmom * duk])
        return c, jac


def _power(u: np.ndarray, k: float, delta: float):
    """u^k and its first two derivatives, replaced below delta > 0 by the
    quadratic with the value and slope of u^k at delta."""
    x = np.maximum(u, delta if delta > 0.0 else np.finfo(float).tiny)
    value, slope, curvature = x**k, k * x ** (k - 1.0), k * (k - 1.0) * x ** (k - 2.0)
    if delta > 0.0:
        low = u < delta
        t = u[low] / delta
        value[low] = delta**k * t * ((2.0 - k) - (1.0 - k) * t)
        slope[low] = delta ** (k - 1.0) * ((2.0 - k) - 2.0 * (1.0 - k) * t)
        curvature[low] = -2.0 * (1.0 - k) * delta ** (k - 2.0)
    return value, slope, curvature


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


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of a matrix in (3, 3) band storage with a vector."""
    y = band[3] * x
    for o in range(1, 4):
        y[o:] += band[3 + o, :-o] * x[:-o]
        y[:-o] += band[3 - o, o:] * x[o:]
    return y


def _newton_step(hessian: np.ndarray, diagonal: np.ndarray, grad: np.ndarray,
                 jac: np.ndarray, rho: float, pinned: np.ndarray):
    """Descent direction p solving (H + rho J^T J) p = -grad off the pinned nodes, or None.

    H is ``hessian`` (in the (3, 3) storage of solve_banded) plus ``diagonal``;
    pinned nodes get p = 0. One banded solve with three right-hand sides and
    a 2x2 Woodbury system give p. None means H is singular there or p is not
    a descent direction.
    """
    f = (~pinned).astype(float)
    ab = hessian.copy()
    for o in range(-3, 4):
        lo, hi = max(0, -o), f.size - max(0, o)
        ab[3 + o, lo:hi] *= f[lo:hi] * f[lo + o:hi + o]
    ab[3] += f * diagonal + 1.0 - f
    jf = jac * f
    try:
        sol = linalg.solve_banded((3, 3), ab, np.column_stack((grad * f, jf.T)),
                                  check_finite=False)
        capacitance = np.eye(2) / rho + jf @ sol[:, 1:]
        step = sol[:, 1:] @ np.linalg.solve(capacitance, jf @ sol[:, 0]) - sol[:, 0]
    except (linalg.LinAlgError, np.linalg.LinAlgError):
        return None
    if not (np.all(np.isfinite(step)) and grad @ step < 0.0):
        return None
    return step


def _projected_newton_step(hessian: np.ndarray, curvature: np.ndarray, grad: np.ndarray,
                           jac: np.ndarray, rho: float, pinned: np.ndarray):
    """Newton direction of the AL function and the pinned set it was taken with, or None.

    The AL Hessian is the energy Hessian plus the diagonal constraint
    ``curvature`` plus rho J^T J. The exact curvature is tried first, then
    its positive part, then that plus a small diagonal shift, until the step
    is a descent direction. A pinned node whose gradient the step is
    predicted to turn negative is then freed and the step taken again, up to
    _RELEASE_ROUNDS times, so a front of nodes leaves the bound in one step.
    """
    convex = np.maximum(curvature, 0.0)
    for diagonal in (curvature, convex, convex + _SHIFT * float(np.max(hessian[3]))):
        step = _newton_step(hessian, diagonal, grad, jac, rho, pinned)
        if step is not None:
            break
    else:
        return None
    for _ in range(_RELEASE_ROUNDS):
        predicted = grad + _band_matvec(hessian, step) + diagonal * step + rho * jac.T @ (jac @ step)
        release = pinned & (predicted < 0.0)
        release[-1] = False
        if not release.any():
            break
        pinned = pinned & ~release
        step = _newton_step(hessian, diagonal, grad, jac, rho, pinned)
        if step is None:
            return None
    return step, pinned


def _least_squares_multipliers(disc: _Discretization, u: np.ndarray, delta: float) -> np.ndarray:
    """(a, b) minimizing |grad E + a grad c_1 + b grad c_2| over the nodes off the bound.

    Nodes within 1e-6 max u of the bound, where u^(k-1) is steep, are left
    out. The 2x2 normal equations of the unit-scaled constraint gradients are
    solved directly; ``np.linalg.lstsq`` would give the same (a, b) but
    raises the process's peak memory by about 1 MB on its first call. When
    the two gradients are not independent off the bound, (0, 0) is returned.
    """
    _, grad_e = disc.energy(u)
    _, jac = disc.constraints(u, delta)
    free = u > 1e-6 * float(np.max(u))
    rows = jac[:, free]
    scale = np.sqrt(np.sum(rows * rows, axis=1))
    if not np.all(scale > 0.0):
        return np.zeros(2)
    rows = rows / scale[:, None]
    try:
        return np.linalg.solve(rows @ rows.T, -(rows @ grad_e[free])) / scale
    except np.linalg.LinAlgError:
        return np.zeros(2)


def solve(problem: VariationalProblem, init: str = "exponential") -> VariationalSolution:
    """Minimize the discrete Dirichlet energy under both constraints.

    An augmented-Lagrangian (AL) outer loop updates the multipliers and the
    penalty; each AL subproblem is solved by projected Newton steps on
    u >= 0 (Bertsekas, SIAM J. Control Optim. 20, 1982). A node is pinned to
    the bound when its gradient would carry it there; the free nodes take the
    Newton step of the AL function, with the negative part of the constraint
    curvature clipped (and then a diagonal shift added) only when the exact
    step is not a descent direction, and an Armijo search runs along the
    projection arc. The outer node is held at the bound. When k < 1, where
    u^k has unbounded slope at 0, the constraints replace u^k below a level
    delta by a quadratic, and delta falls from a tenth of max u to the scale
    of u one grid cell inside the support edge over the outer steps; the
    support edge therefore settles from a smooth problem down instead of
    sticking wherever a node first reaches 0. The returned multipliers solve
    the stationarity equations over the nodes off the bound in the
    least-squares sense.
    """
    eps = _SMOOTHING_EPS if problem.beta < 2.0 else 0.0
    disc = _Discretization(problem, eps)
    k = problem.k
    u = _initial_profile(problem, init, disc)
    u[-1] = 0.0
    # delta of each outer step, in units of max u
    if k < 1.0:
        cell = _DELTA_CELLS * (problem.grid[1] / problem.R) ** (1.0 / k)
        schedule = [max(_DELTA_START * 0.1**i, cell) for i in range(_MAX_OUTER)]
    else:
        schedule = [0.0] * _MAX_OUTER
    delta = schedule[0] * float(np.max(u))
    lam = _least_squares_multipliers(disc, u, delta)
    rho = _RHO_SCALE * max(1.0, abs(disc.energy(u)[0]))
    weights = np.vstack((disc.wgeo, disc.wmom))
    steps = 0
    previous_violation = math.inf
    converged = False

    def al_function(x):
        e, ge = disc.energy(x)
        c, jac = disc.constraints(x, delta)
        mu = lam + rho * c
        return e + lam @ c + 0.5 * rho * (c @ c), ge + jac.T @ mu, jac, mu

    for fraction in schedule:
        delta = fraction * float(np.max(u))
        value, grad, jac, mu = al_function(u)
        for _ in range(_MAX_NEWTON):
            hessian = disc.energy_hessian(u)
            umax = float(np.max(u))
            # pin a node near the bound whose diagonal Newton step would reach it
            diagonal = hessian[3] + rho * np.sum(jac * jac, axis=0)
            pinned = (u <= 1e-6 * umax) & (u * diagonal <= grad)
            pinned[-1] = True
            # u^k has unbounded curvature at 0 when k < 2: take it at 1e-8 max u or above
            curvature = (mu @ weights) * _power(np.maximum(u, 1e-8 * umax), k, delta)[2]
            found = _projected_newton_step(hessian, curvature, grad, jac, rho, pinned)
            if found is None:
                break
            step, pinned = found
            step[pinned] = -u[pinned]
            if -float(grad @ step) <= _DECREMENT_TOL * abs(value):
                break
            t = 1.0
            for _ in range(_MAX_BACKTRACK):
                trial = np.maximum(u + t * step, 0.0)
                trial_value, *at_trial = al_function(trial)
                # a strict decrease, so a step too short to change the value ends the subproblem
                if trial_value < value and trial_value <= value + 1e-4 * float(grad @ (trial - u)):
                    break
                t *= 0.5
            else:
                break
            u, value = trial, trial_value
            grad, jac, mu = at_trial
            steps += 1
        c, _ = disc.constraints(u, delta)
        violation = float(np.max(np.abs(c)))
        lam = lam + rho * c
        if violation < _CONSTRAINT_TOL and fraction == schedule[-1]:
            converged = True
            break
        if violation > 0.25 * previous_violation:
            rho = min(rho * 10.0, 1e12)
        previous_violation = violation

    c, _ = disc.constraints(u, delta)
    multipliers = _least_squares_multipliers(disc, u, delta)
    solution = VariationalSolution(
        u_values=u,
        objective=float(disc.wmid @ np.abs(disc.derivative(u)) ** problem.beta),
        constraints_achieved=(float(c[0] + 1.0), float(c[1] + problem.m_target)),
        multipliers=(float(multipliers[0]), float(multipliers[1])),
        iterations=steps,
        converged=converged,
        smoothing_eps=eps,
        problem=problem,
    )
    if not converged:
        raise ConvergenceError(
            f"constraints not met after {_MAX_OUTER} outer iterations "
            f"(violation {violation:.3e})",
            last_iterate=solution,
        )
    return solution


def analytic_multipliers(params: QGaussianParams) -> tuple:
    """Closed-form (a, b, A) for which u = G^{1/k} is stationary.

    A = (beta/k)^beta (gamma/(beta-1))^{beta-1} Z^{(k-beta)/k}, a = -A n,
    b = A lam gamma with lam = n(q-1) + 1. Requires k > 0.
    """
    if why := validity.k_positive(params.n, params.alpha, params.q):
        raise DomainError(f"analytic multipliers {why}")
    beta, k, Z = params.beta, params.k, partition_fn(params)
    A = (
        (beta / k) ** beta
        * (params.gamma / (beta - 1.0)) ** (beta - 1.0)
        * Z ** ((k - beta) / k)
    )
    a = -A * params.n
    b = A * params.lam * params.gamma
    return a, b, A


def euler_lagrange_residual(params: QGaussianParams) -> tuple:
    """Normalized stationarity residual of u = G^{1/k} with analytic multipliers.

    The flux r^{n-1} |u'|^{beta-2} u' is evaluated analytically and its radial
    derivative by a five-point stencil at 41 interior radii (10 to 90 percent
    of the support or bulk radius). Returns (max_residual, (a, b, A)) where
    the residual is normalized by the largest magnitude of either equation
    term over the grid.
    """
    n, alpha, beta, k = params.n, params.alpha, params.beta, params.k
    if math.isfinite(params.support_radius):
        rmax = _domain_radius(params.support_radius)
    else:
        rmax = _domain_radius(float(radial_quantile(params, 0.999)))
    a, b, A = analytic_multipliers(params)

    def u_value(r: np.ndarray) -> np.ndarray:
        return radial_profile(params, r) ** (1.0 / k)

    def u_prime(r: np.ndarray) -> np.ndarray:
        # (G^{1/k})' = G' G^{1/k - 1} / k
        return radial_profile_derivative(params, r) * u_value(r) ** (1.0 - k) / k

    def flux(r: np.ndarray) -> np.ndarray:
        d = u_prime(r)
        return r ** (n - 1) * np.abs(d) ** (beta - 2.0) * d

    r = np.linspace(0.1, 0.9, 41) * rmax
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
