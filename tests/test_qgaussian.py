"""Closed forms for the radial power-law family."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qginfo import validity
from qginfo.errors import DivergenceError, DomainError
from qginfo.measures import MEASURE_KEYS
from qginfo.qgaussian import (
    BRANCH_TOL,
    QGaussianParams,
    closed_fisher,
    closed_measures,
    closed_moment_alpha,
    closed_Mq,
    density,
    entropy_power,
    mu_pnu,
    partition_fn,
    radial_density,
    radial_profile,
    radial_profile_derivative,
    renyi_entropy,
    rescale,
    tsallis_entropy,
)

# independently frozen reference values (high-precision quadrature)
DENSITY_N2_A2_Q09_R1 = 0.11045001651951466
Z_N2_A2_Q09 = 3.490658503988659
M_N2_A2_Q15 = 0.5182412242070032
M_N1_A2_Q2 = 0.6
I_N2_A2_Q12 = 1.944215964808764
STD_NORMAL_ENTROPY_POWER = math.sqrt(2.0 * math.pi * math.e)


class TestParams:
    def test_existence_bound(self):
        # q must exceed (n - alpha)/n
        with pytest.raises(DomainError):
            QGaussianParams(n=3, alpha=2.0, q=1.0 / 3.0)
        QGaussianParams(n=3, alpha=2.0, q=1.0 / 3.0 + 1e-6)

    @pytest.mark.parametrize("field,value", [("alpha", 0.0), ("alpha", -1.0), ("gamma", 0.0), ("n", 0)])
    def test_invalid_fields(self, field, value):
        kwargs = {"n": 1, "alpha": 2.0, "q": 1.0, "gamma": 1.0}
        kwargs[field] = value
        with pytest.raises(DomainError):
            QGaussianParams(**kwargs)

    def test_derived_exponents(self):
        p = QGaussianParams(n=2, alpha=3.0, q=1.2)
        assert p.beta == pytest.approx(1.5)
        assert p.k == pytest.approx(1.5 / (1.5 * 0.2 + 1.0))
        assert p.lam == pytest.approx(2.0 * 0.2 + 1.0)

    def test_beta_is_conjugate(self):
        p = QGaussianParams(n=1, alpha=1.5, q=1.0)
        assert 1.0 / p.alpha + 1.0 / p.beta == pytest.approx(1.0, abs=1e-15)

    def test_support_radius(self):
        p = QGaussianParams(n=1, alpha=2.0, q=2.0, gamma=1.0)
        assert p.support_radius == pytest.approx(1.0)
        assert QGaussianParams(n=1, alpha=2.0, q=1.0).support_radius == math.inf
        assert QGaussianParams(n=1, alpha=2.0, q=0.9).support_radius == math.inf

    def test_branch_flag(self):
        assert QGaussianParams(n=1, alpha=2.0, q=1.0).exponential_branch
        assert QGaussianParams(n=1, alpha=2.0, q=1.0 + BRANCH_TOL / 2).exponential_branch
        assert not QGaussianParams(n=1, alpha=2.0, q=1.1).exponential_branch

    def test_finiteness_flags(self):
        p = QGaussianParams(n=2, alpha=2.0, q=0.51)
        assert p.mq_finite
        assert QGaussianParams(n=2, alpha=2.0, q=0.5).mq_finite is False
        assert QGaussianParams(n=1, alpha=1.0, q=1.0).fisher_finite is False
        assert QGaussianParams(n=1, alpha=2.0, q=1.0).fisher_finite


class TestMu:
    P1 = QGaussianParams(n=1, alpha=2.0, q=1.0)
    P2 = QGaussianParams(n=2, alpha=2.0, q=1.0)

    def test_positive_s(self):
        # n=1, alpha=2, p=0, nu=1, s=1: 2*omega_1/2 * B(1/2, 2) = 4/3
        assert mu_pnu(self.P1, 0.0, 1.0, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_zero_s_is_gamma(self):
        # s=0 branch: (n omega_n / alpha) nu^{-a} Gamma(a)
        assert mu_pnu(self.P1, 0.0, 1.0, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_negative_s(self):
        got = mu_pnu(self.P1, 0.0, 1.0, -0.1)
        direct = 2.0 * quad_reference(lambda r: (1.0 + 0.1 * r * r) ** (-1.0 / 0.1))
        assert got == pytest.approx(direct, rel=1e-10)

    def test_branch_continuity_in_s(self):
        # rel 1e-6 allows for lgamma roundoff at the huge second Beta argument
        eps = 1e-7
        mid = mu_pnu(self.P2, 1.0, 1.0, 0.0)
        assert mu_pnu(self.P2, 1.0, 1.0, eps) == pytest.approx(mid, rel=1e-6)
        assert mu_pnu(self.P2, 1.0, 1.0, -eps) == pytest.approx(mid, rel=1e-6)

    def test_divergence_boundary(self):
        # s <= -nu*alpha/(p+n) has a non-integrable tail
        with pytest.raises(DivergenceError):
            mu_pnu(self.P1, 0.0, 1.0, -2.0)
        with pytest.raises(DivergenceError):
            mu_pnu(self.P1, 0.0, 1.0, -2.5)

    def test_gamma_scaling(self):
        scaled = QGaussianParams(n=1, alpha=2.0, q=1.0, gamma=4.0)
        a = (1.0 + 1.0) / 2.0
        assert mu_pnu(scaled, 1.0, 1.0, 0.5) == pytest.approx(
            4.0 ** (-a) * mu_pnu(self.P1, 1.0, 1.0, 0.5), rel=1e-13
        )


def quad_reference(fn, upper=200.0):
    from scipy.integrate import quad

    val, _ = quad(fn, 0.0, upper, limit=400)
    return val


class TestPartition:
    def test_gaussian(self):
        # exp branch at alpha=2: Z = (pi/gamma)^{n/2}
        p = QGaussianParams(n=1, alpha=2.0, q=1.0, gamma=1.0)
        assert partition_fn(p) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        p2 = QGaussianParams(n=3, alpha=2.0, q=1.0, gamma=2.0)
        assert partition_fn(p2) == pytest.approx((math.pi / 2.0) ** 1.5, rel=1e-14)

    def test_compact_case(self):
        p = QGaussianParams(n=1, alpha=2.0, q=2.0, gamma=1.0)
        assert partition_fn(p) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_frozen_heavy_tail(self):
        p = QGaussianParams(n=2, alpha=2.0, q=0.9, gamma=1.0)
        assert partition_fn(p) == pytest.approx(Z_N2_A2_Q09, rel=1e-12)

    @pytest.mark.parametrize("n,alpha,q,gamma", [(1, 2.0, 1.5, 1.0), (2, 3.0, 0.8, 2.0), (3, 1.5, 1.2, 0.5)])
    def test_density_normalized(self, n, alpha, q, gamma):
        p = QGaussianParams(n=n, alpha=alpha, q=q, gamma=gamma)
        f = radial_density(p)
        from qginfo.measures import quad_Mq

        assert quad_Mq(f, 1.0) == pytest.approx(1.0, rel=1e-9)


class TestDensity:
    def test_frozen_value(self):
        p = QGaussianParams(n=2, alpha=2.0, q=0.9, gamma=1.0)
        x = np.array([1.0, 0.0])
        assert density(p, x) == pytest.approx(DENSITY_N2_A2_Q09_R1, rel=1e-11)

    def test_vanishes_outside_support(self):
        p = QGaussianParams(n=1, alpha=2.0, q=2.0, gamma=1.0)
        assert radial_profile(p, 1.5) == 0.0
        assert radial_profile_derivative(p, 1.5) == 0.0

    def test_branch_continuity_in_q(self):
        below = QGaussianParams(n=2, alpha=2.0, q=1.0 - 1e-7)
        at = QGaussianParams(n=2, alpha=2.0, q=1.0)
        above = QGaussianParams(n=2, alpha=2.0, q=1.0 + 1e-7)
        for r in np.linspace(0.0, 3.0, 7):
            mid = radial_profile(at, r)
            assert radial_profile(below, r) == pytest.approx(mid, rel=1e-5, abs=1e-12)
            assert radial_profile(above, r) == pytest.approx(mid, rel=1e-5, abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        p = QGaussianParams(n=2, alpha=3.0, q=1.3, gamma=0.7)
        h = 1e-6
        for r in (0.3, 0.9, 1.4):
            fd = (radial_profile(p, r + h) - radial_profile(p, r - h)) / (2 * h)
            assert radial_profile_derivative(p, r) == pytest.approx(fd, rel=1e-6)


class TestClosedMeasures:
    def test_frozen_Mq(self):
        assert closed_Mq(QGaussianParams(n=2, alpha=2.0, q=1.5)) == pytest.approx(M_N2_A2_Q15, rel=1e-12)
        assert closed_Mq(QGaussianParams(n=1, alpha=2.0, q=2.0)) == pytest.approx(M_N1_A2_Q2, rel=1e-13)

    def test_moment_rational(self):
        # m = (n/alpha) / (gamma (1 + (q-1)(n+alpha)/alpha))
        p = QGaussianParams(n=2, alpha=3.0, q=0.95, gamma=2.0)
        assert closed_moment_alpha(p) == pytest.approx(4.0 / 11.0, rel=1e-13)

    def test_moment_divergence(self):
        # alpha-moment finite only for q > n/(n+alpha) = 1/3 here
        with pytest.raises(DivergenceError):
            closed_moment_alpha(QGaussianParams(n=1, alpha=2.0, q=0.3))
        with pytest.raises(DivergenceError):
            closed_moment_alpha(QGaussianParams(n=1, alpha=2.0, q=1.0 / 3.0))
        assert closed_moment_alpha(QGaussianParams(n=1, alpha=2.0, q=0.4)) > 0

    def test_frozen_fisher(self):
        assert closed_fisher(QGaussianParams(n=2, alpha=2.0, q=1.2)) == pytest.approx(I_N2_A2_Q12, rel=1e-12)

    def test_compact_anchor(self):
        p = QGaussianParams(n=1, alpha=2.0, q=2.0, gamma=1.0)
        assert closed_moment_alpha(p) == pytest.approx(0.2, rel=1e-13)
        assert closed_fisher(p) == pytest.approx(0.45, rel=1e-13)

    def test_fisher_q1_closed(self):
        # exp branch: I = alpha^beta gamma^{beta/alpha} n / alpha... alpha=2: 2 gamma n
        p = QGaussianParams(n=3, alpha=2.0, q=1.0, gamma=0.7)
        assert closed_fisher(p) == pytest.approx(2.0 * 0.7 * 3.0, rel=1e-12)

    def test_fisher_requires_validity(self):
        with pytest.raises(DomainError):
            closed_fisher(QGaussianParams(n=1, alpha=1.0, q=1.0))

    def test_entropy_branches(self):
        p = QGaussianParams(n=1, alpha=2.0, q=1.0, gamma=1.0)
        # Shannon limit: H = ln Z + n/alpha
        assert renyi_entropy(p) == pytest.approx(math.log(math.sqrt(math.pi)) + 0.5, rel=1e-13)
        assert tsallis_entropy(p) == pytest.approx(renyi_entropy(p), rel=1e-13)
        assert entropy_power(p) == pytest.approx(math.exp(renyi_entropy(p)), rel=1e-13)

    def test_entropy_power_std_normal(self):
        p = QGaussianParams(n=1, alpha=2.0, q=1.0, gamma=0.5)
        assert entropy_power(p) == pytest.approx(STD_NORMAL_ENTROPY_POWER, rel=1e-12)

    def test_entropy_branch_continuity(self):
        ref = renyi_entropy(QGaussianParams(n=2, alpha=2.0, q=1.0))
        # the telescoped form is machine-accurate arbitrarily close to the branch
        assert renyi_entropy(QGaussianParams(n=2, alpha=2.0, q=1.0 + 1e-9)) == pytest.approx(ref, abs=1e-8)
        assert renyi_entropy(QGaussianParams(n=2, alpha=2.0, q=1.0 - 1e-9)) == pytest.approx(ref, abs=1e-8)
        assert renyi_entropy(QGaussianParams(n=2, alpha=2.0, q=1.0 + 1e-11)) == pytest.approx(ref, abs=1e-10)

    def test_tsallis_sign_and_limits(self):
        # 1 > M_q for q > 1 so S_q > 0; matches (1 - M_q)/(q - 1)
        p = QGaussianParams(n=1, alpha=2.0, q=2.0)
        assert tsallis_entropy(p) == pytest.approx((1.0 - 0.6) / 1.0, rel=1e-13)

    def test_tsallis_and_mq_keep_their_branch_formulas(self):
        # H exprel((1-q) H) and exp((1-q) H) with q - 1 read as 0 in the branch
        # band, against the branch-wise formulas they replace
        deltas = (0.0, 1e-13, 1e-11, 1e-8, 1e-5, 1e-3, 0.1, 0.5, 1.0)
        checked = 0
        for n, alpha, delta, sign, gamma in itertools.product(
                (1, 2, 3), (1.5, 2.0, 3.0), deltas, (-1.0, 1.0), (0.3, 7.0)):
            q = 1.0 + sign * delta
            if validity.mq_finite(n, alpha, q):
                continue
            p = QGaussianParams(n=n, alpha=alpha, q=q, gamma=gamma)
            h = renyi_entropy(p)
            if p.exponential_branch:
                assert (tsallis_entropy(p), closed_Mq(p)) == (h, 1.0), q
            else:
                s = q - 1.0
                for got, ref in ((tsallis_entropy(p), -math.expm1(-s * h) / s),
                                 (closed_Mq(p), math.exp((1.0 - q) * h))):
                    assert abs(got - ref) <= 2.0 * math.ulp(ref), (n, alpha, q, gamma)
            checked += 1
        assert checked == 296

    def test_entropy_power_nonincreasing_in_q(self):
        values = [
            entropy_power(QGaussianParams(n=2, alpha=2.0, q=q))
            for q in (0.85, 0.95, 1.0, 1.1, 1.3, 1.7)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestScaling:
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_rescale_matches_direct(self, gamma):
        base = QGaussianParams(n=2, alpha=2.0, q=1.2, gamma=1.0)
        scaled = rescale(base, gamma)
        direct = closed_measures(QGaussianParams(n=2, alpha=2.0, q=1.2, gamma=gamma))
        for key in ("Mq", "Hq", "Sq", "Nq", "m_alpha", "I_bq"):
            assert getattr(scaled, key) == pytest.approx(getattr(direct, key), rel=1e-12), key

    def test_rescale_matches_direct_next_to_q_one(self):
        # H_q was re-derived as log(M_q)/(1-q), which multiplies the rounding
        # error of M_q by 1/|1-q|: H_q and S_q were off by up to 1.6e-4
        deltas = (1e-3, 1e-5, 1e-7, 1e-9, 1e-11)
        for n, alpha, delta, sign, gamma in itertools.product(
                (1, 2, 3), (1.5, 2.0, 3.0), deltas, (-1.0, 1.0), (0.3, 7.0)):
            q = 1.0 + sign * delta
            scaled = rescale(QGaussianParams(n=n, alpha=alpha, q=q), gamma)
            direct = closed_measures(QGaussianParams(n=n, alpha=alpha, q=q, gamma=gamma))
            for key in MEASURE_KEYS:
                assert getattr(scaled, key) == pytest.approx(getattr(direct, key), rel=1e-12), \
                    (n, alpha, q, gamma, key)

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_power_laws(self, gamma):
        p1 = QGaussianParams(n=1, alpha=2.0, q=1.5, gamma=1.0)
        pg = QGaussianParams(n=1, alpha=2.0, q=1.5, gamma=gamma)
        exponent = (p1.n / p1.alpha) * (p1.q - 1.0)
        assert closed_Mq(pg) == pytest.approx(closed_Mq(p1) * gamma ** exponent, rel=1e-11)
        assert closed_moment_alpha(pg) == pytest.approx(closed_moment_alpha(p1) / gamma, rel=1e-11)
        fisher_exp = (p1.beta / p1.alpha) * p1.lam
        assert closed_fisher(pg) == pytest.approx(closed_fisher(p1) * gamma ** fisher_exp, rel=1e-11)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_entropy_shift(self, gamma):
        p1 = QGaussianParams(n=3, alpha=1.5, q=1.1, gamma=1.0)
        pg = QGaussianParams(n=3, alpha=1.5, q=1.1, gamma=gamma)
        shift = (p1.n / p1.alpha) * math.log(gamma)
        assert renyi_entropy(pg) == pytest.approx(renyi_entropy(p1) - shift, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_inequality_ratios_scale_invariant(self, gamma):
        # each sharp ratio is unchanged under dilation
        base = QGaussianParams(n=2, alpha=2.0, q=1.2, gamma=1.0)
        scaled = QGaussianParams(n=2, alpha=2.0, q=1.2, gamma=gamma)
        for p, q_ in ((base, scaled),):
            mb, ms = closed_measures(p), closed_measures(q_)
            lhs_b = mb.I_bq ** (1.0 / p.beta) * mb.m_alpha ** (1.0 / p.alpha)
            lhs_s = ms.I_bq ** (1.0 / p.beta) * ms.m_alpha ** (1.0 / p.alpha)
            rhs_b = (p.n / p.q) * mb.Mq
            rhs_s = (p.n / p.q) * ms.Mq
            assert lhs_b / rhs_b == pytest.approx(lhs_s / rhs_s, rel=1e-9)
