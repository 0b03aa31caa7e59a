"""Constrained Dirichlet-energy minimization and the value identity."""

import collections
import math

import numpy as np
import pytest

from qginfo import variational
from qginfo.errors import ConvergenceError, DivergenceError, DomainError
from qginfo.qgaussian import QGaussianParams, closed_fisher, closed_moment_alpha
from qginfo.variational import (
    INITS,
    MAX_NODES,
    VariationalSolution,
    analytic_multipliers,
    check_proposition1,
    euler_lagrange_residual,
    extremal_profile,
    make_problem,
    proposition1_closed_gap,
    solve,
)

EL_TUPLES = [
    (1, 2.0, 1.0, 1.0),
    (1, 2.0, 1.5, 1.0),
    (1, 2.0, 2.0, 0.5),
    (1, 3.0, 1.2, 2.0),
    (2, 2.0, 1.2, 1.0),
    (2, 2.0, 0.9, 1.0),
    (2, 1.5, 1.1, 1.0),
    (3, 2.0, 1.1, 0.7),
    (3, 2.0, 1.0, 1.0),
    (2, 3.0, 1.4, 1.5),
]


class TestAnalyticMultipliers:
    def test_classical_case(self):
        # n=1, alpha=2, q=1, gamma=1: A = beta/k * ... reduces to 1/2, a=-1/2, b=1/2
        params = QGaussianParams(n=1, alpha=2.0, q=1.0, gamma=1.0)
        a, b, A = analytic_multipliers(params)
        assert a == pytest.approx(-A)
        assert b == pytest.approx(A * params.gamma)

    def test_scaling_structure(self):
        params = QGaussianParams(n=2, alpha=2.0, q=1.2, gamma=1.3)
        a, b, A = analytic_multipliers(params)
        assert a == pytest.approx(-A * params.n)
        assert b == pytest.approx(A * (1.0 + params.n * (params.q - 1.0)) * params.gamma)

    def test_requires_positive_k(self):
        # k < 0 voids the substitution u = G^{1/k}
        params = QGaussianParams(n=1, alpha=2.0, q=0.4)
        assert params.k < 0
        with pytest.raises(DomainError):
            analytic_multipliers(params)


class TestEulerLagrange:
    @pytest.mark.parametrize("n,alpha,q,gamma", EL_TUPLES)
    def test_residual_small(self, n, alpha, q, gamma):
        params = QGaussianParams(n=n, alpha=alpha, q=q, gamma=gamma)
        residual, _ = euler_lagrange_residual(params)
        assert residual <= 1e-6, (n, alpha, q, gamma, residual)

    def test_perturbed_multipliers_fail(self):
        # the residual is a real check: wrong multipliers break stationarity
        params = QGaussianParams(n=2, alpha=2.0, q=1.2)
        baseline, (a, b, A) = euler_lagrange_residual(params)
        from qginfo import variational as v

        wrongly_scaled = abs(a * 1.01 + b * closed_moment_alpha(params))
        assert baseline < 1e-8
        assert wrongly_scaled != pytest.approx(abs(a + b * closed_moment_alpha(params)))


class TestValueIdentity:
    @pytest.mark.parametrize("n,alpha,q,gamma", EL_TUPLES)
    def test_closed_gap(self, n, alpha, q, gamma):
        params = QGaussianParams(n=n, alpha=alpha, q=q, gamma=gamma)
        assert proposition1_closed_gap(params) <= 1e-10

    def test_identity_terms(self):
        params = QGaussianParams(n=1, alpha=2.0, q=1.0, gamma=1.0)
        a, b, _ = analytic_multipliers(params)
        k, beta = params.k, params.beta
        lhs = closed_fisher(params) / abs(k) ** beta
        rhs = -(k / beta) * (a + b * closed_moment_alpha(params))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMakeProblem:
    def test_moment_sets_scale(self):
        problem = make_problem(1, 2.0, 1.0, 0.25, num_nodes=101)
        # n/alpha / (m * D) with D = 1 at q = 1
        assert problem.gamma_star == pytest.approx(2.0)
        assert closed_moment_alpha(problem.extremal_params) == pytest.approx(0.25, rel=1e-12)

    def test_compact_truncation(self):
        problem = make_problem(1, 2.0, 2.0, 0.2, num_nodes=101)
        support = problem.extremal_params.support_radius
        assert problem.R == pytest.approx(1.05 * support)

    def test_invalid_moment(self):
        with pytest.raises(DomainError):
            make_problem(1, 2.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            make_problem(1, 2.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            make_problem(1, 2.0, 1.0, math.inf)

    def test_node_count_capped_before_the_grid_is_built(self):
        with pytest.raises(DomainError, match="radial nodes"):
            make_problem(1, 2.0, 1.0, 1.0, num_nodes=MAX_NODES + 1)

    def test_unreachable_moment_constraint(self):
        # q at the divergence bound: no family member has a finite moment
        with pytest.raises(DomainError):
            make_problem(1, 2.0, 1.0 / 3.0, 1.0)

    @pytest.mark.parametrize("n,alpha,q", [(1, 1e5, 0.9), (2, 1e5, 0.9), (3, 1e6, 0.9),
                                           (1, 1e6, 1.0), (3, 1e7, 1.0), (2, 1e300, 1.0)])
    def test_zero_domain_radius_is_divergence(self, n, alpha, q):
        # the extremal member's 0.999 radial quantile is exactly 0.0 here, and
        # growing it by 1.5 until the tail mass falls below 1e-10 never ends
        with pytest.raises(DivergenceError, match="domain radius"):
            make_problem(n, alpha, q, 1.0, num_nodes=50)
        gamma = closed_moment_alpha(QGaussianParams(n=n, alpha=alpha, q=q))
        with pytest.raises(DivergenceError, match="domain radius"):
            euler_lagrange_residual(QGaussianParams(n=n, alpha=alpha, q=q, gamma=gamma))


class TestSolve:
    def test_classical_case_full(self):
        # n=1, alpha=2, q=1, m=1: extremal is the centered normal with
        # variance 1, objective I/|k|^beta = 1/4
        problem = make_problem(1, 2.0, 1.0, 1.0, num_nodes=801)
        solution = solve(problem)
        assert solution.converged
        assert solution.objective == pytest.approx(0.25, rel=1e-4)
        ref = extremal_profile(problem)
        w = problem.grid ** (problem.n - 1)
        num = np.trapezoid(w * (solution.u_values - ref) ** 2, problem.grid)
        den = np.trapezoid(w * ref**2, problem.grid)
        assert math.sqrt(num / den) <= 1e-3
        lhs, rhs, gap = check_proposition1(solution, problem)
        assert gap <= 1e-3

    def test_multipliers_recovered(self):
        problem = make_problem(1, 2.0, 1.0, 1.0, num_nodes=801)
        solution = solve(problem)
        a_ref, b_ref, _ = analytic_multipliers(problem.extremal_params)
        a_got, b_got = solution.multipliers
        assert a_got == pytest.approx(a_ref, rel=1e-3)
        assert b_got == pytest.approx(b_ref, rel=1e-3)

    def test_scale_family_objective(self):
        # doubling the moment target scales gamma* down; objective follows the
        # closed form I(gamma*)/|k|^beta
        problem = make_problem(1, 2.0, 1.0, 4.0, num_nodes=801)
        solution = solve(problem)
        params = problem.extremal_params
        ref = closed_fisher(params) / abs(params.k) ** params.beta
        assert solution.objective == pytest.approx(ref, rel=1e-4)

    def test_compact_support_case(self):
        problem = make_problem(1, 2.0, 1.5, 0.4, num_nodes=801)
        solution = solve(problem, init="flat")
        params = problem.extremal_params
        ref = closed_fisher(params) / abs(params.k) ** params.beta
        assert solution.converged
        assert solution.objective == pytest.approx(ref, rel=1e-3)

    def test_objective_never_below_extremal(self):
        # the minimum over the discretized feasible set cannot beat the
        # continuum optimum by more than discretization error
        problem = make_problem(2, 2.0, 1.2, 1.0, num_nodes=401)
        solution = solve(problem)
        params = problem.extremal_params
        ref = closed_fisher(params) / abs(params.k) ** params.beta
        assert solution.objective >= ref * (1.0 - 1e-3)

    def test_unknown_init_rejected(self):
        problem = make_problem(1, 2.0, 1.0, 1.0, num_nodes=101)
        with pytest.raises(DomainError):
            solve(problem, init="random")
        assert set(INITS) == {"flat", "exponential", "qgaussian-detuned"}

    def test_value_identity_refuses_unconverged(self):
        problem = make_problem(1, 2.0, 1.0, 1.0, num_nodes=101)
        solution = solve(problem)
        fake = VariationalSolution(
            u_values=solution.u_values,
            objective=solution.objective,
            constraints_achieved=solution.constraints_achieved,
            multipliers=solution.multipliers,
            iterations=solution.iterations,
            converged=False,
            smoothing_eps=solution.smoothing_eps,
            problem=problem,
        )
        with pytest.raises(ConvergenceError):
            check_proposition1(fake, problem)

    def test_constraints_met(self):
        problem = make_problem(1, 2.0, 1.0, 1.0, num_nodes=401)
        solution = solve(problem)
        mass, moment = solution.constraints_achieved
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert moment == pytest.approx(problem.m_target, abs=1e-8)

    @pytest.mark.parametrize("nodes", [801, 5001, 20001])
    def test_newton_steps_do_not_grow_with_the_grid(self, nodes):
        # each grid starts from the solution one level coarser; solved from
        # the init on the requested grid alone, this took 55, 132 and 639 steps
        solution = solve(make_problem(1, 2.0, 1.0, 1.0, num_nodes=nodes))
        assert solution.converged
        assert solution.iterations <= 60, solution.iterations

    def test_fine_grid_beyond_one_dimension(self):
        # 144 Newton steps when solved on the 20001-node grid directly
        problem = make_problem(2, 2.0, 1.2, 1.0, num_nodes=20001)
        solution = solve(problem)
        assert solution.converged
        assert solution.iterations <= 72, solution.iterations
        assert _recovery(problem, solution)[0] <= 1e-6

    def test_a_capped_penalty_is_not_handed_up(self):
        # the 166-node level takes the penalty to its cap; carried to the
        # 331-node level, that penalty ended at L2 0.68 with objective gap 28
        problem = make_problem(4, 1.7964834298662784, 2.0233652091712897, 2.5455629964311,
                               num_nodes=331)
        solution = solve(problem)
        l2, objective_gap, prop1_gap = _recovery(problem, solution)
        assert l2 <= 1e-3 and objective_gap <= 1e-4 and prop1_gap <= 1e-3, (l2, objective_gap)

    def test_beta_above_two_is_smoothed_where_the_profile_is_flat(self):
        # beta = 2.15: with the unsmoothed |u'|^beta the energy curvature fell
        # to about 1e-16 where the profile is flat, and this run ended at
        # L2 3.8e-3, objective gap 2.6e-3 and Prop. 1 gap 1.5e-2
        problem = make_problem(1, 1.870320577622628, 1.890297271763339, 2.09355300289704,
                               num_nodes=259)
        solution = solve(problem, init="qgaussian-detuned")
        l2, objective_gap, prop1_gap = _recovery(problem, solution)
        assert l2 <= 1e-3 and objective_gap <= 1e-4 and prop1_gap <= 1e-3, (
            l2, objective_gap, prop1_gap)


def _recovery(problem, solution):
    """Criterion-08 measures: relative L2 distance to the extremal profile,
    relative objective gap to the closed form, and the Prop. 1 gap."""
    ref = extremal_profile(problem)
    w = problem.grid ** (problem.n - 1)
    l2 = math.sqrt(
        np.trapezoid(w * (solution.u_values - ref) ** 2, problem.grid)
        / np.trapezoid(w * ref**2, problem.grid)
    )
    params = problem.extremal_params
    obj_ref = closed_fisher(params) / abs(params.k) ** params.beta
    _, _, prop1_gap = check_proposition1(solution, problem)
    return l2, abs(solution.objective - obj_ref) / obj_ref, prop1_gap


# the (n, q, nodes) cases of the benchmark's solve workload, at alpha = 2 and moment 1
SOLVE_WORKLOAD_CASES = [(1, 1.0, 801), (1, 1.5, 801), (2, 1.2, 201), (3, 1.1, 201), (2, 0.9, 201)]


class TestSolverRecovery:
    def test_no_odd_even_mode_at_q_below_one(self):
        # a centred-difference energy cannot see a node-to-node alternation, and
        # a solver built on it converged to one here (L2 0.74)
        problem = make_problem(2, 2.0, 0.9, 1.0, num_nodes=201)
        solution = solve(problem)
        assert solution.converged
        l2, obj_gap, prop1_gap = _recovery(problem, solution)
        assert l2 <= 1e-3
        assert obj_gap <= 1e-4
        assert prop1_gap <= 1e-3

    @pytest.mark.parametrize("init", INITS)
    @pytest.mark.parametrize("n,q,nodes", SOLVE_WORKLOAD_CASES)
    def test_every_init_converges(self, init, n, q, nodes):
        problem = make_problem(n, 2.0, q, 1.0, num_nodes=nodes)
        solution = solve(problem, init=init)
        assert solution.converged
        l2, obj_gap, prop1_gap = _recovery(problem, solution)
        assert l2 <= 1e-3, (init, n, q, l2)
        assert obj_gap <= 1e-4, (init, n, q, obj_gap)
        assert prop1_gap <= 1e-3, (init, n, q, prop1_gap)

    @pytest.mark.parametrize(
        "n,alpha,q,moment,nodes,max_l2,max_obj_gap,max_prop1_gap",
        [
            (2, 1.5, 1.1, 1.0, 401, 3.2e-4, 4.0e-5, 1e-3),  # beta = 3
            (1, 3.0, 1.2, 1.0, 801, 2.4e-5, 4.9e-6, 2.7e-4),  # beta = 1.5, smoothed energy
            (1, 2.0, 2.0, 0.5, 801, 5.6e-3, 2.1e-3, 1e-3),  # k = 2/3, floor at 1e-12
        ],
    )
    def test_beta_off_two_and_k_below_one(self, n, alpha, q, moment, nodes,
                                          max_l2, max_obj_gap, max_prop1_gap):
        # bounds are the recovery of the earlier quasi-Newton solver on these cases
        problem = make_problem(n, alpha, q, moment, num_nodes=nodes)
        solution = solve(problem)
        assert solution.converged
        l2, obj_gap, prop1_gap = _recovery(problem, solution)
        assert l2 <= max_l2
        assert obj_gap <= max_obj_gap
        assert prop1_gap <= max_prop1_gap

    @pytest.mark.parametrize(
        "n,alpha,q,moment,nodes,init,max_l2",
        [
            (1, 3.94, 2.02, 4.012, 201, "flat", 4.6e-3),
            (3, 1.54, 1.96, 0.162, 301, "qgaussian-detuned", 1.6e-2),
            (1, 1.81, 2.84, 0.855, 50, "flat", 1.8e-2),
            (1, 2.0, 2.0, 1.0, 201, "exponential", 1e-3),
        ],
    )
    def test_k_below_one_support_edge(self, n, alpha, q, moment, nodes, init, max_l2):
        # k < 1: u^k has unbounded slope at 0, so a node at 0 beside the support
        # is a local minimum of the discrete problem; a solver that lets the edge
        # stick early fails these or lands short of the support. Bounds are the
        # recovery of the earlier quasi-Newton solver, and the criterion-08 gate
        problem = make_problem(n, alpha, q, moment, num_nodes=nodes)
        assert problem.k < 1.0
        solution = solve(problem, init=init)
        assert solution.converged
        l2, _, _ = _recovery(problem, solution)
        assert l2 <= max_l2

    def test_each_accepted_point_is_evaluated_once(self, monkeypatch):
        # the line search keeps the AL evaluation of the point it accepts, so
        # the energy is evaluated fewer than twice per Newton step
        calls = []
        energy = variational._Discretization.energy
        monkeypatch.setattr(variational._Discretization, "energy",
                            lambda self, u: calls.append(1) or energy(self, u))
        steps = 0
        for n, q, nodes in SOLVE_WORKLOAD_CASES:
            for init in INITS:
                problem = make_problem(n, 2.0, q, 1.0, num_nodes=nodes)
                steps += solve(problem, init=init).iterations
        assert len(calls) < 2 * steps, (len(calls), steps)

    def test_each_point_forms_its_derivative_once(self, monkeypatch):
        # the Newton step builds the Hessian from the curvature the energy
        # evaluation returned, so D u is formed once per energy call, plus
        # once per solve for the reported objective
        calls = collections.Counter()

        def counted(name, method):
            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)
            return wrapper

        for name in ("derivative", "energy", "constraints"):
            method = getattr(variational._Discretization, name)
            monkeypatch.setattr(variational._Discretization, name, counted(name, method))
        for n, q, nodes in SOLVE_WORKLOAD_CASES:
            for init in INITS:
                solve(make_problem(n, 2.0, q, 1.0, num_nodes=nodes), init=init)
        solves = len(SOLVE_WORKLOAD_CASES) * len(INITS)
        assert calls["derivative"] <= calls["energy"] + solves, calls
        assert calls["constraints"] <= calls["energy"], calls

    def test_no_point_is_evaluated_twice(self, monkeypatch):
        # the warm start, each outer step and the final fit read the energy
        # kept with the current point, so no energy call repeats a point
        seen = collections.Counter()
        energy = variational._Discretization.energy
        monkeypatch.setattr(variational._Discretization, "energy",
                            lambda self, u: seen.update([u.tobytes()]) or energy(self, u))
        for n, q, nodes in SOLVE_WORKLOAD_CASES:
            for init in INITS:
                seen.clear()
                solve(make_problem(n, 2.0, q, 1.0, num_nodes=nodes), init=init)
                assert max(seen.values()) == 1, (n, q, init)

    def test_collapsed_profile_is_a_convergence_failure(self):
        # a heavy tail whose flat start leaves fewer than two independent
        # constraint gradients off the bound: the multiplier fit has no
        # unique solution, and the run must still end as unconverged
        problem = make_problem(2, 2.93, 0.41, 0.877, num_nodes=101)
        with pytest.raises(ConvergenceError):
            solve(problem, init="flat")


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: make_problem(1, 2.0, 1.0, 1.0, num_nodes=49),
                 "need at least 50 radial nodes", id="num_nodes"),
])
def test_input_checks(call, message):
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


# --- the solver's kernels, bit for bit against their loop forms --------------
# The loop forms below are the kernels as they were written slice by slice.
# The package's kernels make a fixed number of numpy calls at every grid size
# and must keep every operand and the order of every sum, so each result has
# the bits of its loop form, signed zeros included.


def _loop_derivative(stencil, u):
    padded = np.concatenate(([0.0], u, [0.0]))
    m = u.size - 1
    return sum(stencil[o] * padded[o:o + m] for o in range(4))


def _loop_energy(disc, u):
    d = _loop_derivative(disc.stencil, u)
    beta = disc.beta
    eps2 = variational._SMOOTHING_EPS * variational._SMOOTHING_EPS
    base = d * d + eps2
    phi = base ** (0.5 * beta)
    dphi = beta * d * base ** (0.5 * beta - 1.0)
    phi2 = beta * base ** (0.5 * beta - 2.0) * ((beta - 1.0) * d * d + eps2)
    value = float(disc.wmid @ phi)
    s = disc.wmid * dphi
    grad = np.zeros(u.size + 2)
    for o in range(4):
        grad[o:o + s.size] += disc.stencil[o] * s
    return value, grad[1:-1], disc.wmid * phi2


def _loop_hessian(stencil, curv):
    m = curv.size
    band = np.zeros((7, m + 3))
    for o1 in range(4):
        for o2 in range(4):
            band[3 + o1 - o2, o2:o2 + m] += curv * stencil[o1] * stencil[o2]
    return band[:, 1:-1]


def _loop_newton_system(hessian, diagonal, grad, jac, pinned):
    f = (~pinned).astype(float)
    ab = np.zeros((10, f.size))
    ab[3:] = hessian
    for o in range(-3, 4):
        lo, hi = max(0, -o), f.size - max(0, o)
        ab[6 + o, lo:hi] *= f[lo:hi] * f[lo + o:hi + o]
    ab[6] += np.where(pinned, 1.0, diagonal)
    jf = jac * f
    return ab, np.column_stack((grad * f, jf.T)), jf


def _loop_newton_step(hessian, diagonal, grad, jac, rho, pinned):
    ab, rhs, jf = _loop_newton_system(hessian, diagonal, grad, jac, pinned)
    _, _, sol, info = variational._special.gbsv(3, 3, ab, rhs, overwrite_ab=True,
                                                overwrite_b=True)
    if info != 0:
        return None
    try:
        capacitance = np.eye(2) / rho + jf @ sol[:, 1:]
        step = sol[:, 1:] @ np.linalg.solve(capacitance, jf @ sol[:, 0]) - sol[:, 0]
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(step)) and grad @ step < 0.0):
        return None
    return step


def _loop_band_matvec(band, x):
    y = band[3] * x
    for o in range(1, 4):
        y[o:] += band[3 + o, :-o] * x[:-o]
        y[:-o] += band[3 - o, o:] * x[o:]
    return y


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _signed(rng, size, low, high):
    """Random values of random sign and magnitude 10^low to 10^high, about a
    tenth of them replaced by +0.0 or -0.0."""
    x = rng.choice((-1.0, 1.0), size) * 10.0 ** rng.uniform(low, high, size)
    zeros = rng.random(size) < 0.1
    x[zeros] = rng.choice((0.0, -0.0), zeros.sum())
    return x


def _kernel_case(n, nodes, seed):
    rng = np.random.default_rng(seed)
    disc = variational._Discretization(make_problem(n, 2.0, 1.2, 1.0, num_nodes=nodes))
    curv = 10.0 ** rng.uniform(-20.0, 5.0, nodes - 1)  # W phi''(d) is positive
    pinned = rng.random(nodes) < rng.uniform(0.0, 0.5)
    pinned[-1] = True
    return rng, disc, curv, pinned


KERNEL_CASES = [(n, nodes, seed) for n in (1, 2, 3) for nodes in (101, 1001) for seed in (0, 1)]


@pytest.mark.parametrize("n,nodes,seed", KERNEL_CASES)
class TestKernelsKeepTheirBits:
    def test_derivative_and_energy(self, n, nodes, seed):
        rng, disc, _, _ = _kernel_case(n, nodes, seed)
        # a profile, values of either sign, and zeros of either sign only
        zeros = rng.choice((0.0, -0.0), nodes)
        for u in (np.abs(_signed(rng, nodes, -3.0, 3.0)), _signed(rng, nodes, -20.0, 5.0), zeros):
            assert _same_bits(disc.derivative(u), _loop_derivative(disc.stencil, u))
            value, grad, curv = disc.energy(u)
            ref_value, ref_grad, ref_curv = _loop_energy(disc, u)
            assert _same_bits(np.float64(value), np.float64(ref_value))
            assert _same_bits(grad, ref_grad)
            assert _same_bits(curv, ref_curv)

    def test_hessian(self, n, nodes, seed):
        _, disc, curv, _ = _kernel_case(n, nodes, seed)
        assert _same_bits(disc.energy_hessian(curv), _loop_hessian(disc.stencil, curv))

    def test_newton_system(self, n, nodes, seed):
        rng, disc, curv, pinned = _kernel_case(n, nodes, seed)
        hessian = disc.energy_hessian(curv)
        diagonal = _signed(rng, nodes, -20.0, 5.0)
        grad = _signed(rng, nodes, -20.0, 5.0)
        jac = _signed(rng, (2, nodes), -20.0, 5.0)
        ab, rhs = disc.newton_system(hessian, diagonal, grad, jac, pinned)
        ref_ab, ref_rhs, _ = _loop_newton_system(hessian, diagonal, grad, jac, pinned)
        assert _same_bits(ab, ref_ab)
        assert _same_bits(rhs.T, ref_rhs)

    def test_newton_step(self, n, nodes, seed):
        # a positive diagonal keeps the system regular, so both forms reach the step
        rng, disc, curv, pinned = _kernel_case(n, nodes, seed)
        hessian = disc.energy_hessian(curv)
        diagonal = 10.0 ** rng.uniform(-3.0, 3.0, nodes)
        grad = _signed(rng, nodes, -3.0, 3.0)
        jac = np.abs(_signed(rng, (2, nodes), -3.0, 0.0))
        step = variational._newton_step(disc, hessian, diagonal, grad, jac, 1e3, pinned)
        ref = _loop_newton_step(hessian, diagonal, grad, jac, 1e3, pinned)
        assert step is not None and ref is not None
        assert _same_bits(step, ref)

    def test_band_matvec(self, n, nodes, seed):
        rng, disc, curv, _ = _kernel_case(n, nodes, seed)
        hessian = disc.energy_hessian(curv)
        zeros = rng.choice((0.0, -0.0), nodes)
        for x in (_signed(rng, nodes, -20.0, 5.0), zeros, np.zeros(nodes), -np.zeros(nodes)):
            assert _same_bits(variational._band_matvec(hessian, x), _loop_band_matvec(hessian, x))
