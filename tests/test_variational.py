"""Constrained Dirichlet-energy minimization and the value identity."""

import math

import numpy as np
import pytest

from qginfo.errors import ConvergenceError, DomainError
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
