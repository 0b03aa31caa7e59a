"""Quadrature estimators on arbitrary radial densities."""

import math
import random

import numpy as np
import pytest

from qginfo.errors import DivergenceError, DomainError, ZeroDensityError
from qginfo.measures import (
    MeasureSet,
    RadialDensity,
    gaussian_mixture,
    measure_all,
    quad_Mq,
    quad_fisher,
    quad_moment,
    quad_shannon,
    table_profile,
    truncated_exponential,
    uniform_ball,
)
from qginfo.qgaussian import QGaussianParams, closed_measures, partition_fn, radial_density

# frozen mixture references (independent high-precision quadrature):
# 0.5 N(0,1) + 0.5 N(0,4) in one dimension
MIX_A_SHANNON = 1.858245505151058
MIX_A_M2 = 2.5
MIX_A_FISHER = 0.4615091328320424
STD_NORMAL_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)


def std_normal(n=1):
    # q-Gaussian with alpha=2, q=1, gamma=1/2 is the standard normal
    return radial_density(QGaussianParams(n=n, alpha=2.0, q=1.0, gamma=0.5))


class TestQuadOnKnownDensities:
    def test_normalization_std_normal(self):
        assert quad_Mq(std_normal(), 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_normalization_grid(self):
        for n, alpha, q in [(1, 2.0, 1.5), (2, 3.0, 0.8), (3, 2.0, 1.0), (2, 1.5, 2.0)]:
            f = radial_density(QGaussianParams(n=n, alpha=alpha, q=q))
            assert quad_Mq(f, 1.0) == pytest.approx(1.0, rel=1e-9), (n, alpha, q)

    def test_second_moment_std_normal(self):
        assert quad_moment(std_normal(), 2.0) == pytest.approx(1.0, rel=1e-10)

    def test_shannon_std_normal(self):
        assert quad_shannon(std_normal()) == pytest.approx(STD_NORMAL_ENTROPY, rel=1e-10)

    def test_fisher_std_normal(self):
        # classical Fisher information of N(0,1) is 1 (beta=2, q=1)
        assert quad_fisher(std_normal(), 2.0, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_uniform_ball_moment(self):
        # int |x|^2 over the unit ball in R^3, normalized: 3/5
        f = uniform_ball(3, 1.0)
        assert quad_moment(f, 2.0) == pytest.approx(0.6, rel=1e-10)
        assert quad_Mq(f, 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_compact_support_Mq(self):
        # q-Gaussian n=1, alpha=2, q=2 has M_2 = 3/5
        f = radial_density(QGaussianParams(n=1, alpha=2.0, q=2.0))
        assert quad_Mq(f, 2.0) == pytest.approx(0.6, rel=1e-9)


class TestMixtures:
    def test_weights_normalized(self):
        f = gaussian_mixture(1, [(1.0, 1.0), (1.0, 4.0)])
        assert quad_Mq(f, 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_frozen_measures(self):
        f = gaussian_mixture(1, [(0.5, 1.0), (0.5, 4.0)])
        assert quad_shannon(f) == pytest.approx(MIX_A_SHANNON, rel=1e-9)
        assert quad_moment(f, 2.0) == pytest.approx(MIX_A_M2, rel=1e-9)
        assert quad_fisher(f, 2.0, 1.0) == pytest.approx(MIX_A_FISHER, rel=1e-8)

    def test_single_component_is_gaussian(self):
        f = gaussian_mixture(1, [(1.0, 1.0)])
        assert quad_shannon(f) == pytest.approx(STD_NORMAL_ENTROPY, rel=1e-9)

    def test_analytic_derivative(self):
        f = gaussian_mixture(2, [(0.3, 1.0), (0.7, 2.5)])
        h = 1e-6
        for r in (0.4, 1.1, 2.3):
            fd = (f.profile(r + h) - f.profile(r - h)) / (2.0 * h)
            assert f.derivative(r) == pytest.approx(fd, rel=1e-6)


class TestLogRadiusIntegral:
    def test_multiscale_mixture_keeps_its_narrow_component(self):
        # the component of variance 0.0155 was lost next to the one of 9581: mass 0.186
        f = gaussian_mixture(1, [(0.0924, 9581.2), (0.4053, 0.01548)])
        assert quad_Mq(f, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_random_mixtures_keep_their_mass_or_raise(self):
        # a component too narrow to lie inside the window lost its mass below
        # log r = -40: 27 of these mixtures were silently wrong, by up to 1.6e-3.
        # The bound is 10 times the quadrature tolerance: the window's own error
        # estimate under-reports by up to 4 times on a bulk just below log r = 20
        rng = random.Random(2012)
        wrong, raised = [], 0
        for _ in range(300):
            n = rng.choice((1, 2, 3))
            components = [(rng.uniform(0.1, 1.0), 10.0 ** rng.uniform(-30.0, 30.0))
                          for _ in range(rng.randint(1, 3))]
            try:
                mass = quad_Mq(gaussian_mixture(n, components), 1.0)
            except DivergenceError:
                raised += 1
                continue
            if abs(mass - 1.0) > 1e-7:
                wrong.append((n, components, mass))
        assert not wrong
        assert raised <= 10

    def test_very_wide_mixture(self):
        assert quad_Mq(gaussian_mixture(2, [(1.0, 1e15)]), 1.0) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_next_to_q_one(self, n, alpha):
        # the profile kept 1/|q-1| times its rounding error: measure_all raised
        # at q = 1 - 1e-11 on every pair
        qs = [1.0 - 10.0**-k for k in (3, 5, 7, 9, 11)] + [1.0 + 1e-3, 1.0 + 1e-5]
        for q in qs:
            p = QGaussianParams(n=n, alpha=alpha, q=q)
            got, ref = measure_all(radial_density(p), alpha, q), closed_measures(p)
            for key in ("Mq", "m_alpha", "I_bq"):
                assert getattr(got, key) == pytest.approx(getattr(ref, key), rel=1e-6), (q, key)

    def test_power_tail_past_float_range_of_r_alpha(self):
        # r^alpha leaves float range inside the window; the profile takes log r there
        p = QGaussianParams(n=1, alpha=30.0, q=0.5)
        f = radial_density(p)
        assert f.profile(1e30) == pytest.approx(
            math.exp(-2.0 * (math.log(0.5) + 30.0 * math.log(1e30))) / partition_fn(p), rel=1e-12)
        assert quad_moment(f, 30.0) == pytest.approx(closed_measures(p).m_alpha, rel=1e-8)

    def test_underflowed_tail_is_divergence(self):
        # the profile underflows to 0 while r^n f^q has not decayed: an error,
        # not a truncated value
        p = QGaussianParams(n=12, alpha=6.0, q=12.0 / 18.0 + 0.003)
        with pytest.raises(DivergenceError, match="underflows"):
            quad_Mq(radial_density(p), p.q)

    def test_growing_weight_is_divergence(self):
        # M_q of a Cauchy-like tail at q where int f^q diverges
        f = RadialDensity(dim=1, profile=lambda r: 1.0 / (math.pi * (1.0 + r * r)))
        with pytest.raises(DivergenceError, match="does not decay"):
            quad_Mq(f, 0.4)


class TestFactories:
    def test_truncated_exponential_normalized(self):
        f = truncated_exponential(1, rate=1.0, radius=8.0)
        assert quad_Mq(f, 1.0) == pytest.approx(1.0, rel=1e-8)

    def test_truncated_exponential_fisher(self):
        # |d log f/dr|^2 = rate^2 inside the support, any dimension
        f = truncated_exponential(2, rate=3.0, radius=6.0)
        assert quad_fisher(f, 2.0, 1.0) == pytest.approx(9.0, rel=1e-6)

    def test_uniform_ball_not_differentiable(self):
        f = uniform_ball(2, 1.0)
        assert not f.differentiable
        with pytest.raises(DomainError):
            quad_fisher(f, 2.0, 1.0)

    def test_table_profile_roundtrip(self):
        # tabulating a q-Gaussian and re-measuring reproduces its moments
        p = QGaussianParams(n=1, alpha=2.0, q=1.5)
        src = radial_density(p)
        radii = np.linspace(0.0, 12.0, 1500)
        f = table_profile(1, radii, [src.profile(r) for r in radii])
        assert quad_Mq(f, 1.0) == pytest.approx(1.0, rel=1e-8)
        ref = quad_moment(src, 2.0)
        assert quad_moment(f, 2.0) == pytest.approx(ref, rel=1e-5)

    def test_table_profile_rejects_bad_input(self):
        with pytest.raises(DomainError):
            table_profile(1, [0.0, 1.0], [1.0])
        with pytest.raises(DomainError):
            table_profile(1, [0.0, 1.0, 0.5], [1.0, 0.5, 0.7])


class TestFisherEdgeCases:
    def test_finite_difference_fallback(self):
        # dropping the analytic derivative must give the same Fisher value
        p = QGaussianParams(n=1, alpha=2.0, q=1.2)
        src = radial_density(p)
        blind = RadialDensity(
            dim=src.dim,
            profile=src.profile,
            derivative=None,
            support_hint=src.support_hint,
            descriptor="fd-fallback",
        )
        withd = quad_fisher(src, 2.0, 1.2)
        without = quad_fisher(blind, 2.0, 1.2)
        assert without == pytest.approx(withd, rel=1e-5)

    def test_interior_zero_rejected(self):
        f = RadialDensity(dim=1, profile=lambda r: max(0.0, math.sin(r)) * math.exp(-r),
                          derivative=None, support_hint=float("inf"),
                          descriptor="interior-zero")
        with pytest.raises(ZeroDensityError):
            quad_fisher(f, 2.0, 1.0)

    def test_fractional_beta(self):
        # alpha=3 has Holder conjugate beta=1.5
        p = QGaussianParams(n=1, alpha=3.0, q=1.1)
        f = radial_density(p)
        got = quad_fisher(f, 1.5, 1.1)
        assert got == pytest.approx(closed_measures(p).I_bq, rel=1e-7)


class TestMeasureAll:
    def test_matches_closed_forms(self):
        p = QGaussianParams(n=2, alpha=2.0, q=1.2)
        got = measure_all(radial_density(p), 2.0, 1.2)
        ref = closed_measures(p)
        for key in ("Mq", "Hq", "Sq", "Nq", "m_alpha", "I_bq"):
            assert getattr(got, key) == pytest.approx(getattr(ref, key), rel=1e-7), key

    def test_method_tags(self):
        p = QGaussianParams(n=1, alpha=2.0, q=1.5)
        got = measure_all(radial_density(p), 2.0, 1.5)
        assert set(got.method.values()) == {"quadrature"}

    def test_q1_uses_shannon(self):
        f = std_normal()
        got = measure_all(f, 2.0, 1.0)
        assert got.Mq == pytest.approx(1.0, rel=1e-9)
        assert got.Hq == pytest.approx(STD_NORMAL_ENTROPY, rel=1e-9)
        assert got.Sq == pytest.approx(got.Hq, rel=1e-9)
        assert got.Nq == pytest.approx(math.exp(got.Hq), rel=1e-9)

    def test_entropy_power_nonincreasing_in_q(self):
        f = gaussian_mixture(1, [(0.5, 1.0), (0.5, 4.0)])
        values = [measure_all(f, 2.0, q).Nq for q in (0.9, 1.0, 1.15, 1.4)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


class TestMeasureSetInvariants:
    def test_conjugacy_enforced(self):
        with pytest.raises(DomainError):
            MeasureSet(Mq=1.0, Hq=0.0, Sq=0.0, Nq=1.0, m_alpha=1.0, I_bq=1.0,
                       method={}, params_echo=(1, 2.0, 3.0, 1.0))

    def test_consistency_enforced(self):
        # Nq must equal Mq^(1/(1-q))
        with pytest.raises(DomainError):
            MeasureSet(Mq=0.5, Hq=1.0, Sq=1.0, Nq=9.9, m_alpha=1.0, I_bq=1.0,
                       method={}, params_echo=(1, 2.0, 2.0, 2.0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_consistency_holds_next_to_q_one(self, n, alpha):
        # Nq^(1-q) = Mq is checked in the direction that does not multiply
        # Mq's rounding by 1/|1-q|; these members all failed the other one
        for q in (1.0 + s * 10.0**-k for k in (3, 5, 7, 9, 11) for s in (1, -1)):
            closed_measures(QGaussianParams(n=n, alpha=alpha, q=q))

    def test_as_dict_roundtrip(self):
        ms = closed_measures(QGaussianParams(n=1, alpha=2.0, q=2.0))
        d = ms.as_dict()
        assert d["Mq"] == pytest.approx(0.6)
        assert d["params"]["beta"] == pytest.approx(2.0)
