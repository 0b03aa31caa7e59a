"""Constrained minimization of the generalized Fisher information.

With u = f^{1/k} and k = beta/(beta(q-1)+1), minimizing I_bq[f] over densities
with a prescribed elliptic moment m becomes a Dirichlet-type problem

    minimize    int |grad u|^beta
    subject to  int u^k = 1   and   int |x|^alpha u^k = m,

whose radial discretization this module solves with an augmented-Lagrangian
outer loop around projected Newton steps on u >= 0. The energy takes a
fourth-order staggered derivative at the interval midpoints, so its Hessian
is banded and a grid-scale odd-even mode costs energy. Each Newton step takes
one banded solve and a 2x2 Woodbury system per curvature try and per release
round. The recovered multipliers (a, b) are the Lagrange data of

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
from dataclasses import dataclass, replace

import numpy as np

from . import special as _special
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

# the energy density |u'|^beta is taken as (u'^2 + eps^2)^(beta/2) for every
# beta. Unsmoothed, it is not twice differentiable at u' = 0 when beta < 2, and
# when beta > 2 its curvature beta (beta-1) |u'|^(beta-2) vanishes wherever the
# profile is flat, which leaves the Newton system singular to rounding there;
# smoothed, that curvature is at least beta eps^(beta-2) per unit weight. eps
# is absolute, in units of u'
_SMOOTHING_EPS = 1e-8
# the smallest normal double, the floor of u where u^k is taken without delta
_TINY = 2.2250738585072014e-308

# largest radial grid accepted; a solve peaks near 52 doubles per node (the
# band gbsv factors in place, the energy Hessian, right-hand sides and the
# level's arrays), so about 42 MB here. Measured at this size with alpha = 2,
# m = 1 on a shared 2-vCPU VM, one BLAS thread, solved coarse to fine over ten
# levels: n = 1, q = 1 takes 47 Newton steps (1 on the finest level) and
# 0.13-0.19 s (0.27-0.31 s as a process's first solve, loading scipy.linalg),
# n = 2, q = 1.2 takes 55 steps (1 on the finest) and 0.38-0.59 s (0.62-0.97 s
# first), and the whole process peaks at 108-110 MB
MAX_NODES = 100_001

# augmented-Lagrangian (AL) budget: outer steps, and the constraint violation that ends them
_MAX_OUTER = 40
_CONSTRAINT_TOL = 1e-9
# first AL penalty, in units of max(1, |energy of the initial profile|)
_RHO_SCALE = 100.0
# largest AL penalty
_RHO_MAX = 1e12
# projected Newton steps per AL subproblem; the subproblem ends when the Newton
# decrement falls below _DECREMENT_TOL |AL|, since an absolute gradient
# tolerance is out of reach of floating point on fine grids
_MAX_NEWTON = 200
_MAX_BACKTRACK = 50
_DECREMENT_TOL = 1e-14
# times a Newton step is retaken after freeing pinned nodes it would lift
_RELEASE_ROUNDS = 3
# nodes at or below this fraction of max u are near the bound: the Newton
# steps pin those whose diagonal step would reach it, and the least-squares
# multipliers leave them out, where u^(k-1) is steep
_NEAR_BOUND = 1e-6
# when k < 1, u^k has unbounded slope at 0, so a node at 0 beside the support
# would be a local minimum however hard the energy pulls it up; below delta the
# constraints take the quadratic with the value and slope of u^k at delta.
# delta starts at _DELTA_START max u, is divided by 10 at each outer step, and
# stops at _DELTA_CELLS (h/R)^(1/k) max u, the scale of u one cell inside the
# support edge
_DELTA_START = 0.1
_DELTA_CELLS = 0.1
# fewest nodes of a coarse level in solve's coarse-to-fine ladder
_COARSEST = 101


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
    ``iterations`` counts projected Newton steps over all outer steps of
    every coarse-to-fine level, and every other field is of the requested
    grid (see ``solve``). When k < 1, ``constraints_achieved`` takes u^k as
    the solver does, with the quadratic below the final delta.
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

    def __init__(self, problem: VariationalProblem):
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
        self.weights = np.vstack((self.wgeo, self.wmom))
        self.beta = problem.beta
        self.k = problem.k
        self.m_target = problem.m_target
        # the free-node indicator with three True on either side, and the seven
        # windows of it that the Newton matrix's band rows read
        self._free = np.ones(r.size + 6, dtype=bool)
        self._free_windows = np.lib.stride_tricks.sliding_window_view(self._free, r.size)

    def derivative(self, u: np.ndarray) -> np.ndarray:
        """d = D u. The reduction adds the four stencil terms of each midpoint
        in increasing offset, starting from add's identity 0.0."""
        padded = np.zeros(u.size + 2)
        padded[1:-1] = u
        # row o: the m nodes from u_{o-1} on, the ones stencil row o multiplies
        windows = np.ndarray((4, u.size - 1), buffer=padded, strides=(padded.itemsize,) * 2)
        return np.add.reduce(self.stencil * windows, axis=0)

    def energy(self, u: np.ndarray):
        """Energy, its gradient, and W phi''(d), from which energy_hessian builds the Hessian.

        The gradient D^T s takes stencil[o, j] s_j at node j + o - 1. Row o of
        a (4, m + 4) buffer holds stencil[o] s in its first m entries and -0.0
        after them; read as rows of m + 3 entries, row o is that product
        shifted o places right, with -0.0 around it. -0.0 is the identity of
        floating-point addition, so the reduction over the rows adds each
        node's terms in increasing o, starting from 0.0.
        """
        d = self.derivative(u)
        beta = self.beta
        eps2 = _SMOOTHING_EPS * _SMOOTHING_EPS
        base = d * d + eps2
        phi = base ** (0.5 * beta)
        dphi = beta * d * base ** (0.5 * beta - 1.0)
        phi2 = beta * base ** (0.5 * beta - 2.0) * ((beta - 1.0) * d * d + eps2)
        value = float(self.wmid @ phi)
        m = d.size
        terms = np.empty((4, m + 4))
        terms[:, m:] = -0.0
        np.multiply(self.stencil, self.wmid * dphi, out=terms[:, :m])
        grad = np.add.reduce(terms.reshape(-1)[:4 * (m + 3)].reshape(4, m + 3), axis=0)
        return value, grad[1:-1], self.wmid * phi2

    def energy_hessian(self, curv: np.ndarray) -> np.ndarray:
        """D^T diag(curv) D in the (3, 3) band storage of solve_banded; curv is energy's W phi''(d).

        The term curv * stencil[o1] * stencil[o2] lands in band row
        3 + o1 - o2, shifted o2 columns right. The four terms of one o2 form a
        block of four band rows, formed from curv * stencil once, and the
        blocks are added to a zero band in increasing o2. Two terms that meet
        in one entry have o1 - o2 in common, so each entry is 0.0 plus its
        terms (curv * stencil[o1]) * stencil[o2] in increasing o1, whatever
        the grid size.
        """
        m = curv.size
        band = np.zeros((7, m + 3))
        products = curv * self.stencil
        for o2 in range(4):
            band[3 - o2:7 - o2, o2:o2 + m] += products * self.stencil[o2]
        return band[:, 1:-1]

    def newton_system(self, hessian: np.ndarray, diagonal: np.ndarray, grad: np.ndarray,
                      jac: np.ndarray, pinned: np.ndarray):
        """The Newton system off the pinned nodes, as gbsv takes it.

        ab is ``hessian`` plus ``diagonal`` in gbsv's band storage, with the
        rows and columns of pinned nodes cleared and 1 on their diagonal; rhs
        holds the right-hand sides grad and the two rows of jac, zero at
        pinned nodes, as (3, N).

        Band row 3 + o, column j holds the entry (j + o, j), which is kept
        where nodes j and j + o are both free: it is multiplied by the 0/1
        mask f[j + o] & f[j], read from a window of the free-node indicator.
        Multiplying by 0 or 1 is exact, so ab has the bits of multiplying each
        band row by f[j] * f[j + o]. The windows' padding of True reaches only
        the band's corners outside the matrix, which hold +0.0 either way.
        """
        f = self._free[3:-3]
        np.logical_not(pinned, out=f)
        # gbsv's storage: the (3, 3) band below 3 rows for the LU factors'
        # fill-in, in the Fortran order gbsv works in, so that it factors ab
        # itself and not a copy
        ab = np.zeros((10, f.size), order="F")
        np.multiply(hessian, self._free_windows & f, out=ab[3:])
        ab[6] += np.where(pinned, 1.0, diagonal)
        rhs = np.empty((3, f.size))
        np.multiply(grad, f, out=rhs[0])
        np.multiply(jac, f, out=rhs[1:])
        return ab, rhs

    def constraints(self, u: np.ndarray, delta: float):
        uk, duk = _power(u, self.k, delta)
        c = np.array([float(self.wgeo @ uk) - 1.0, float(self.wmom @ uk) - self.m_target])
        return c, self.weights * duk


def _power(u: np.ndarray, k: float, delta: float):
    """u^k and its slope, replaced below delta > 0 by the quadratic with the
    value and slope of u^k at delta."""
    x = np.maximum(u, delta if delta > 0.0 else _TINY)
    value, slope = x**k, k * x ** (k - 1.0)
    if delta > 0.0:
        low = u < delta
        t = u[low] / delta
        value[low] = delta**k * t * ((2.0 - k) - (1.0 - k) * t)
        slope[low] = delta ** (k - 1.0) * ((2.0 - k) - 2.0 * (1.0 - k) * t)
    return value, slope


def _power_curvature(u: np.ndarray, k: float, delta: float) -> np.ndarray:
    """The second derivative of _power's u^k."""
    curvature = k * (k - 1.0) * np.maximum(u, delta if delta > 0.0 else _TINY) ** (k - 2.0)
    if delta > 0.0:
        curvature[u < delta] = -2.0 * (1.0 - k) * delta ** (k - 2.0)
    return curvature


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
    """Product of a matrix in (3, 3) band storage with a vector.

    Row i takes band[3 + o, i - o] x[i - o] for o = 0, 1, -1, 2, -2, 3, -3
    in turn. The products sit in a buffer padded with three -0.0 on either
    side, the identity of floating-point addition, so the terms that fall
    outside the matrix add nothing and each sum keeps that order.
    """
    n = x.size
    terms = np.empty((7, n + 6))
    terms[:, :3] = terms[:, -3:] = -0.0
    np.multiply(band, x, out=terms[:, 3:-3])
    y = terms[3, 3:n + 3] + terms[4, 2:n + 2]
    for row, start in ((2, 4), (5, 1), (1, 5), (6, 0), (0, 6)):
        y += terms[row, start:start + n]
    return y


def _newton_step(disc: _Discretization, hessian: np.ndarray, diagonal: np.ndarray,
                 grad: np.ndarray, jac: np.ndarray, rho: float, pinned: np.ndarray):
    """Descent direction p solving (H + rho J^T J) p = -grad off the pinned nodes, or None.

    H is ``hessian`` (in the (3, 3) storage of solve_banded) plus ``diagonal``;
    pinned nodes get p = 0. One banded solve with three right-hand sides and
    a 2x2 Woodbury system give p. None means H is singular there or p is not
    a descent direction. gbsv factors ``disc.newton_system``'s ab in place
    and solves a copy of its rhs, handed over as the Fortran-ordered (N, 3)
    rhs.T, so rhs[1:] is still J off the pinned nodes afterwards.
    """
    ab, rhs = disc.newton_system(hessian, diagonal, grad, jac, pinned)
    sol, info = _special.gbsv(3, 3, ab, rhs.T, overwrite_ab=True)[2:]
    del ab  # the LU factors, 10 doubles a node, are not needed past the solve
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gbsv")
    if info > 0:
        return None  # H is singular
    jf = rhs[1:]
    try:
        capacitance = np.eye(2) / rho + jf @ sol[:, 1:]
        step = sol[:, 1:] @ np.linalg.solve(capacitance, jf @ sol[:, 0]) - sol[:, 0]
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(step).all() and grad @ step < 0.0):
        return None
    return step


def _projected_newton_step(disc: _Discretization, hessian: np.ndarray, curvature: np.ndarray,
                           grad: np.ndarray, jac: np.ndarray, rho: float, pinned: np.ndarray):
    """Newton direction of the AL function and the pinned set it was taken with, or None.

    The AL Hessian is the energy Hessian plus the diagonal constraint
    ``curvature`` plus rho J^T J. It makes two tries: the exact curvature,
    then its positive part when the first step is not a descent direction. A
    pinned node whose gradient the step is predicted to turn negative is then
    freed and the step taken again, up to _RELEASE_ROUNDS times, so a front
    of nodes leaves the bound in one step. The outer node is never freed.
    """
    for diagonal in (curvature, np.maximum(curvature, 0.0)):
        step = _newton_step(disc, hessian, diagonal, grad, jac, rho, pinned)
        if step is not None:
            break
    else:
        return None
    for _ in range(_RELEASE_ROUNDS):
        if not pinned[:-1].any():
            break
        predicted = grad + _band_matvec(hessian, step) + diagonal * step + rho * jac.T @ (jac @ step)
        release = pinned & (predicted < 0.0)
        release[-1] = False
        if not release.any():
            break
        pinned = pinned & ~release
        step = _newton_step(disc, hessian, diagonal, grad, jac, rho, pinned)
        if step is None:
            return None
    return step, pinned


def _least_squares_multipliers(u: np.ndarray, grad_e: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """(a, b) minimizing |grad_e + a jac_1 + b jac_2| over the nodes off the bound.

    ``grad_e`` is the energy gradient at u and ``jac`` the constraint Jacobian.

    Nodes near the bound (_NEAR_BOUND), where u^(k-1) is steep, are left
    out. The 2x2 normal equations of the unit-scaled constraint gradients are
    solved directly; ``np.linalg.lstsq`` would give the same (a, b) but
    raises the process's peak memory by about 1 MB on its first call. When
    the two gradients are not independent off the bound, (0, 0) is returned.
    """
    free = u > _NEAR_BOUND * float(np.max(u))
    rows = jac[:, free]
    scale = np.sqrt(np.sum(rows * rows, axis=1))
    if not np.all(scale > 0.0):
        return np.zeros(2)
    rows = rows / scale[:, None]
    try:
        return np.linalg.solve(rows @ rows.T, -(rows @ grad_e[free])) / scale
    except np.linalg.LinAlgError:
        return np.zeros(2)


def _level_sizes(num_nodes: int) -> list:
    """Node counts of the coarse-to-fine levels, coarsest first: each has
    (N + 1) // 2 nodes of the one above it, down to the last size that is
    still at least _COARSEST."""
    sizes = [num_nodes]
    while (sizes[-1] + 1) // 2 >= _COARSEST:
        sizes.append((sizes[-1] + 1) // 2)
    return sizes[::-1]


def _solve_level(disc: _Discretization, u: np.ndarray, lam: np.ndarray, rho: float,
                 schedule: list, energy_u, constraints_u):
    """AL outer steps on one grid from u, whose energy and constraints at
    delta = schedule[0] max u are given.

    Returns u with its energy and constraints, the multipliers and the
    penalty after the last outer step, the Newton steps taken and whether
    the constraints were met at the last delta.
    """
    k = disc.k
    umax = float(u.max())
    delta = schedule[0] * umax
    hessian = disc.energy_hessian(energy_u[2])
    steps = 0
    previous_violation = math.inf

    def al_function(energy, constraints):
        e, ge, _ = energy
        c, jac = constraints
        mu = lam + rho * c
        return e + lam @ c + 0.5 * rho * (c @ c), ge + jac.T @ mu, mu

    for fraction in schedule:
        new_delta = fraction * umax
        if new_delta != delta:  # the constraints read delta, the energy does not
            delta = new_delta
            constraints_u = disc.constraints(u, delta)
        value, grad, mu = al_function(energy_u, constraints_u)
        for _ in range(_MAX_NEWTON):
            jac = constraints_u[1]
            # pin a node near the bound whose diagonal Newton step would reach it
            diagonal = hessian[3] + rho * np.add.reduce(jac * jac, axis=0)
            pinned = (u <= _NEAR_BOUND * umax) & (u * diagonal <= grad)
            pinned[-1] = True
            # u^k has unbounded curvature at 0 when k < 2: take it at 1e-8 max u or above
            curvature = (mu @ disc.weights) * _power_curvature(np.maximum(u, 1e-8 * umax), k, delta)
            found = _projected_newton_step(disc, hessian, curvature, grad, jac, rho, pinned)
            if found is None:
                break
            step, pinned = found
            np.negative(u, out=step, where=pinned)
            if -float(grad @ step) <= _DECREMENT_TOL * abs(value):
                break
            t = 1.0
            for _ in range(_MAX_BACKTRACK):
                trial = np.maximum(u + t * step, 0.0)
                energy_t, constraints_t = disc.energy(trial), disc.constraints(trial, delta)
                trial_value, trial_grad, trial_mu = al_function(energy_t, constraints_t)
                # a strict decrease, so a step too short to change the value ends the subproblem
                if trial_value < value and trial_value <= value + 1e-4 * float(grad @ (trial - u)):
                    break
                t *= 0.5
            else:
                break
            u, energy_u, constraints_u = trial, energy_t, constraints_t
            value, grad, mu = trial_value, trial_grad, trial_mu
            umax = float(u.max())
            hessian = disc.energy_hessian(energy_u[2])
            steps += 1
        c = constraints_u[0]
        violation = float(np.max(np.abs(c)))
        lam = lam + rho * c
        if violation < _CONSTRAINT_TOL and fraction == schedule[-1]:
            return u, energy_u, constraints_u, lam, rho, steps, True
        if violation > 0.25 * previous_violation:
            rho = min(rho * 10.0, _RHO_MAX)
        previous_violation = violation
    return u, energy_u, constraints_u, lam, rho, steps, False


def solve(problem: VariationalProblem, init: str = "exponential") -> VariationalSolution:
    """Minimize the discrete Dirichlet energy under both constraints.

    An augmented-Lagrangian (AL) outer loop updates the multipliers and the
    penalty; each AL subproblem is solved by projected Newton steps on
    u >= 0 (Bertsekas, SIAM J. Control Optim. 20, 1982). A node is pinned to
    the bound when its gradient would carry it there; the free nodes take the
    Newton step of the AL function in at most two tries, with the exact
    constraint curvature and then, when that step is not a descent direction,
    with its negative part clipped, and an Armijo search runs along the
    projection arc. The energy density |u'|^beta is smoothed to
    (u'^2 + eps^2)^(beta/2) for every beta; the reported objective is the
    unsmoothed one. The outer node is held at the bound. When k < 1, where
    u^k has unbounded slope at 0, the constraints replace u^k below a level
    delta by a quadratic, and delta falls from a tenth of max u to the scale
    of u one grid cell inside the support edge over the outer steps; the
    support edge therefore settles from a smooth problem down instead of
    sticking wherever a node first reaches 0. The returned multipliers solve
    the stationarity equations over the nodes off the bound in the
    least-squares sense.

    The problem is solved coarse to fine (nested iteration; Briggs, Henson &
    McCormick, *A Multigrid Tutorial*, ch. 3) on uniform grids over the same
    [0, R]: each level has (N + 1) // 2 nodes of the one above it, down to
    the last size that is still at least 101, so a grid of fewer than 201
    nodes is solved on its own. ``init`` is evaluated on the coarsest level
    only. Each finer level starts from the level below it: the profile u,
    linearly interpolated and renormalized to unit mass, the multipliers and
    the penalty carry over, and when k < 1 the delta schedule restarts one
    decade above the coarse level's last fraction of max u. A coarse level
    that took the penalty to its cap (as every coarse level that did not
    converge did in ``tools/scans.py draw-300``) hands up only u and delta;
    the multipliers and the penalty then restart as on the coarsest level.
    So the Newton steps barely grow with the grid: 1 to 3 on the finest level
    for n = 1, q = 1 from 801 nodes up. The objective, the multiplier fit,
    ``converged`` and a ``ConvergenceError`` are those of the requested grid;
    ``iterations`` counts the Newton steps of all levels.
    """
    k = problem.k
    steps = 0
    level = None
    for size in _level_sizes(problem.grid.size):
        coarse, level = level, (problem if size == problem.grid.size
                                else replace(problem, grid=np.linspace(0.0, problem.R, size)))
        disc = _Discretization(level)
        if coarse is None:
            u = _initial_profile(level, init, disc)
            first = _DELTA_START
        else:
            u = np.interp(level.grid, coarse.grid, u)
            u = u * float(disc.wgeo @ u**k) ** (-1.0 / k)
            first = 10.0 * schedule[-1]  # one decade above the coarse level's last delta
        u[-1] = 0.0
        # delta of each outer step, in units of max u
        if k < 1.0:
            cell = _DELTA_CELLS * (level.grid[1] / level.R) ** (1.0 / k)
            schedule = [max(first * 0.1**i, cell) for i in range(_MAX_OUTER)]
        else:
            schedule = [0.0] * _MAX_OUTER
        # the energy (e, grad e, W phi''(d)) and the constraints (c, jac) at delta
        # of the current point: each point is evaluated once, and kept with it
        energy_u = disc.energy(u)
        constraints_u = disc.constraints(u, schedule[0] * float(np.max(u)))
        # a coarse level that took the penalty to its cap hands up only u: its
        # penalty would leave the finer level's Newton systems ill-conditioned
        if coarse is None or rho >= _RHO_MAX:
            lam = _least_squares_multipliers(u, energy_u[1], constraints_u[1])
            rho = _RHO_SCALE * max(1.0, abs(energy_u[0]))
        u, energy_u, constraints_u, lam, rho, level_steps, converged = _solve_level(
            disc, u, lam, rho, schedule, energy_u, constraints_u)
        steps += level_steps

    c, jac = constraints_u
    multipliers = _least_squares_multipliers(u, energy_u[1], jac)
    solution = VariationalSolution(
        u_values=u,
        objective=float(disc.wmid @ np.abs(disc.derivative(u)) ** problem.beta),
        constraints_achieved=(float(c[0] + 1.0), float(c[1] + problem.m_target)),
        multipliers=(float(multipliers[0]), float(multipliers[1])),
        iterations=steps,
        converged=converged,
        smoothing_eps=_SMOOTHING_EPS,
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
