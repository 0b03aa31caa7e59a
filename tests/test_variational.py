"""Constrained Dirichlet-energy minimization and the value identity."""

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
