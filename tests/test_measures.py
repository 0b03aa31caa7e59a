"""Quadrature estimators on arbitrary radial densities."""

import math
import random

import numpy as np
import pytest

from qginfo.errors import DivergenceError, DomainError, ZeroDensityError
from qginfo.measures import (
    MeasureSet,
    RadialDensity,
    _fd_derivative,
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
from qginfo.qgaussian import (
    QGaussianParams,
    closed_measures,
    partition_fn,
    radial_density,
)

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
        # The trapezoid rule reaches every one: the worst mass is 1 - 1.8e-15
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
            if abs(mass - 1.0) > 1e-14:
                wrong.append((n, components, mass))
        assert not wrong
        assert raised == 0

    def test_mixtures_at_every_scale(self):
        # 1-3 components of variance 1e-30 to 1e30: mass and second moment to
        # 1e-12 (3.0e-15 measured), none raising. Two were wrong before: a bulk
        # just below log r = 20 lost 2.8e-8 of its mass, and a component of
        # variance below 2.2e-29 at n = 1 raised
        rng = random.Random(11)
        cases = [(1, [(1.0, 7.7e15)]), (1, [(1.0, 1e-30)])]
        for _ in range(1000):
            cases.append((rng.choice((1, 2, 3)), [(rng.uniform(0.1, 1.0), 10.0 ** rng.uniform(-30.0, 30.0))
                                                 for _ in range(rng.randint(1, 3))]))
        for n, components in cases:
            f = gaussian_mixture(n, components)
            second = n * sum(w * v for w, v in components) / sum(w for w, _ in components)
            assert quad_Mq(f, 1.0) == pytest.approx(1.0, rel=1e-12, abs=0.0), (n, components)
            assert quad_moment(f, 2.0) == pytest.approx(second, rel=1e-12), (n, components)

    def test_very_wide_mixture(self):
        assert quad_Mq(gaussian_mixture(2, [(1.0, 1e15)]), 1.0) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_next_to_q_one(self, n, alpha):
        # the profile kept 1/|q-1| times its rounding error: measure_all raised
        # at q = 1 - 1e-11 on every pair; above 1, Gauss-Kronrod on the support
        # ball [0, R] missed the bulk, and 18 of the 45 members raised. With the
        # Beta function right next to q = 1, the worst gap is 1.2e-14
        qs = [1.0 + sign * 10.0**-k for sign in (-1.0, 1.0) for k in (3, 5, 7, 9, 11)]
        for q in qs:
            p = QGaussianParams(n=n, alpha=alpha, q=q)
            got, ref = measure_all(radial_density(p), alpha, q), closed_measures(p)
            for key in ("Mq", "m_alpha", "I_bq"):
                assert getattr(got, key) == pytest.approx(getattr(ref, key), rel=1e-13), (q, key)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_support_hint_is_the_support_radius(self, alpha):
        # next to q = 1 the bulk lies orders of magnitude inside the support
        # ball (near 1, where R is 4.6e4 at n = 1, alpha = 1.5, q = 1 + 1e-7);
        # the compact change of variable resolves it without a narrower hint
        for n in (1, 2, 3):
            for q, gamma in [(1.0 + 10.0**-k, 1.0) for k in (3, 5, 7, 9, 11)] + [
                    (q, 0.7) for q in (1.05, 1.3, 2.0, 5.0)]:
                p = QGaussianParams(n=n, alpha=alpha, q=q, gamma=gamma)
                f, ref = radial_density(p), closed_measures(p)
                assert f.support_hint == p.support_radius, (n, q)
                assert quad_Mq(f, q) == pytest.approx(ref.Mq, rel=1e-12), (n, q)
                assert quad_moment(f, alpha) == pytest.approx(ref.m_alpha, rel=1e-12), (n, q)
                assert quad_fisher(f, alpha / (alpha - 1.0), q) == pytest.approx(
                    ref.I_bq, rel=1e-12), (n, q)

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

    def test_weight_not_exponential_past_the_window_is_divergence(self):
        # r^-1 log(r)^-3 decays in log r, but slower than any exponential:
        # its last two slopes before s = 80 disagree on the remainder
        f = RadialDensity(dim=1, profile=lambda r: 1.0 / ((1.0 + r) * np.log(2.0 + r) ** 3))
        with pytest.raises(DivergenceError, match="not exponential in log r at 80"):
            quad_Mq(f, 1.0)

    def test_unsettled_trapezoid_sum_is_divergence(self):
        # a jump at r = 1 on an infinite support: the rule converges only at first order
        f = RadialDensity(dim=1, profile=lambda r: np.where(r < 1.0, 1.0, 0.5) * np.exp(-r))
        with pytest.raises(DivergenceError, match=r"still moves by 4\.49e-05 at h = 0\.000244141"):
            quad_Mq(f, 1.0)


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

    def test_profiles_take_arrays(self):
        # the quadrature evaluates every profile and derivative on arrays of
        # radii; called on an array, each equals its scalar calls element by
        # element. The family's members at alpha = 30 leave float range of
        # r^alpha; at q = -25, (q-1) r^alpha does so first, at r = 1.71e10,
        # where the profile read 0 until the power law took over from r = 2e10
        radii = np.array([0.0, 1e-300, 1e-8, 0.3, 1.0, 1.3, 2.5, 7.9, 8.0, 12.0, 1e5, 1.71e10,
                          1e11, 1e30])
        table_radii = np.linspace(0.0, 3.0, 40)
        densities = [
            gaussian_mixture(2, [(0.3, 1.0), (0.7, 2.5)]),
            uniform_ball(3, 2.0),
            truncated_exponential(2, rate=3.0, radius=8.0),
            table_profile(1, table_radii, np.exp(-table_radii**2)),
            *(radial_density(QGaussianParams(n=n, alpha=alpha, q=q)) for n, alpha, q in
              [(1, 30.0, -25.0), (1, 30.0, 0.5), (2, 2.0, 1.5), (3, 1.5, 1.0), (3, 1.5, 0.8)]),
        ]
        for f in densities:
            for fn in (f.profile, f.derivative or _fd_derivative(f.profile)):
                scalar = [fn(float(r)) for r in radii]
                np.testing.assert_array_equal(fn(radii), scalar, err_msg=f.descriptor)
        assert densities[4].profile(1.71e10) == pytest.approx(
            densities[4].profile(2e10) * (2e10 / 1.71e10) ** (30.0 / 26.0), rel=1e-12)

    @pytest.mark.parametrize("variance", [1.0, 1e-30])
    @pytest.mark.parametrize("r", [1e200, 1e300])
    def test_mixture_past_float_range_of_r_squared(self, variance, r):
        # r*r and r/v overflow: the profile and derivative are 0, without a warning
        f = gaussian_mixture(1, [(1.0, variance)])
        for fn in (f.profile, f.derivative):
            assert fn(r) == 0.0
            np.testing.assert_array_equal(fn(np.array([r])), [0.0])

    def test_table_profile_rejects_bad_input(self):
        with pytest.raises(DomainError):
            table_profile(1, [0.0, 1.0], [1.0])
        with pytest.raises(DomainError):
            table_profile(1, [0.0, 1.0, 0.5], [1.0, 0.5, 0.7])
        # non-finite entries, and values whose spline slopes overflow, are
        # rejected in the package's own words (scipy's warnings are errors here)
        r = np.linspace(0.0, 4.0, 401)
        values = np.exp(-r * r)
        for radii, table, message in (
            (r, np.where(r == 0.05, math.nan, values), "must be finite"),
            (r, np.where(r == 0.05, math.inf, values), "must be finite"),
            (np.append(r, math.inf), np.append(values, 0.0), "must be finite"),
            (np.where(r == 0.05, math.nan, r), values, "must be finite"),
            (r, 1e308 * values, "overflows its cubic spline"),
            (np.linspace(0.0, 1e-300, 401), 1e300 * values, "overflows its cubic spline"),
        ):
            with pytest.raises(DomainError, match=message):
                table_profile(1, radii, table)

    def test_table_ending_above_zero_is_not_differentiable(self):
        # the profile is 0 past the last radius, so a table whose last value is
        # above 1e-8 of its largest jumps there: its Fisher information is infinite
        radii = [0.0, 1.0, 2.0, 3.0]
        for last, differentiable in ((0.0, True), (1e-8, True), (2e-8, False), (0.5, False)):
            f = table_profile(1, radii, [1.0, 0.8, 0.3, last])
            assert f.differentiable is differentiable, last
        with pytest.raises(DomainError, match="not absolutely continuous"):
            quad_fisher(f, 2.0, 1.0)


def _spline_tables():
    # the benchmark's four shapes exp(-(r/s)^p) on 401 rows to e^-36, two of
    # 4 and 5 rows, and such shapes ending at 0 on random non-uniform radii
    # and values over many scales
    for power, scale in ((1.5, 0.9), (3.0, 1.2), (4.0, 0.7), (3.0, 1.45)):
        radii = np.linspace(0.0, scale * 36.0 ** (1.0 / power), 401)
        yield radii, np.exp(-((radii / scale) ** power))
    yield np.arange(4.0), np.array([1.0, 0.8, 0.3, 0.0])
    yield np.array([0.0, 0.3, 1.7, 2.0, 3.1]), np.array([2.0, 1.9, 0.6, 0.4, 0.0])
    rng = np.random.default_rng(2012)
    for size in (40, 300, 1200):
        for _ in range(4):
            steps = rng.exponential(1.0, size - 1) ** rng.uniform(0.3, 1.5)
            radii = np.concatenate(([0.0], np.cumsum(steps)))
            values = np.exp(-12.0 * (radii / radii[-1]) ** rng.uniform(1.0, 4.0))
            values[-1] = 0.0
            yield radii * 10.0 ** rng.uniform(-3, 3), values * 10.0 ** rng.uniform(-30, 30)


@pytest.mark.parametrize("radii,values", list(_spline_tables()))
def test_table_spline_is_scipys_bit_for_bit(radii, values):
    # the oracle, imported here only: the package computes the same natural
    # spline itself, so every profile and derivative value keeps its bits
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(radii, values, bc_type="natural")
    slope = spline.derivative()
    R = radii[-1]

    def raw(r):
        return np.maximum(spline(r), 0.0) * (r < R)

    mass = RadialDensity(dim=2, profile=raw, support_hint=R).normalization()
    f = table_profile(2, radii, values)
    rng = np.random.default_rng(radii.size)
    spread = np.concatenate((radii, np.linspace(-0.1 * R, 1.2 * R, 2 * radii.size + 100),
                             rng.uniform(0.0, R, 200), [R * (1 + 1e-16), 2 * R, 1e30, -0.0]))
    probes = [np.sort(spread), spread, np.append(spread, math.nan), radii[1:-1],
              *(float(r) for r in (0.0, radii[1], 0.5 * R, R, 1.5 * R, -1.0, math.nan))]
    with np.errstate(all="ignore"):
        for r in probes:
            expected = (raw(r) / mass, slope(r) / mass * (raw(r) > 0.0))
            for got, want in zip((f.profile(r), f.derivative(r)), expected):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), r


def test_table_spline_keeps_scipys_signed_zeros():
    # PPoly sums each polynomial from 0.0, which turns a -0 value at a knot,
    # where every other term is -0, into +0; the spline itself takes any sign
    from scipy.interpolate import CubicSpline

    from qginfo.measures import _natural_spline

    radii = np.array([0.0, 1.0, 2.5, 3.0, 4.0, 6.0])
    r = np.concatenate((radii, np.linspace(-1.0, 7.0, 997)))
    for values in ([-0.0, -1.0, -1.0, 1.0, -1.0, -1.0], [-0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
                   [1.0, -0.0, -0.0, -0.0, 0.0, -0.0]):
        spline = CubicSpline(radii, values, bc_type="natural")
        value, value_and_slope = _natural_spline(radii, np.array(values))
        for got, want in zip((value(r), *value_and_slope(r)),
                             (spline(r), spline(r), spline.derivative()(r))):
            assert got.tobytes() == want.tobytes(), values


def test_table_whose_spacing_squared_overflows_is_rejected():
    # the natural end condition enters the slope system as 0 * dx^2, which
    # overflows, as in scipy, when an end interval is wider than 1.3e154
    for radii in ([0.0, 1e155, 2e155, 3e155], [0.0, 1.0, 2.0, 1e200]):
        with pytest.raises(DomainError, match="overflows its cubic spline"):
            table_profile(1, radii, [1.0, 1.0, 0.5, 0.0])


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
        f = RadialDensity(dim=1, profile=lambda r: np.maximum(0.0, np.sin(r)) * np.exp(-r),
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


_GAUSS = radial_density(QGaussianParams(n=1, alpha=2.0, q=1.0))


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: RadialDensity(0, _GAUSS.profile), DomainError,
                 "dim must be an integer >= 1, got 0", id="dim"),
    pytest.param(lambda: RadialDensity(1, _GAUSS.profile, support_hint=0.0), DomainError,
                 "support_hint must be positive (possibly inf)", id="support_hint"),
    pytest.param(lambda: quad_Mq(_GAUSS, -0.5), DomainError,
                 "quad_Mq requires q >= 0, got -0.5", id="quad_Mq"),
    pytest.param(lambda: quad_moment(_GAUSS, 0), DomainError,
                 "quad_moment requires alpha > 0, got 0", id="quad_moment"),
    pytest.param(lambda: quad_fisher(_GAUSS, 1.0, 1.0), DomainError,
                 "quad_fisher requires beta > 1, got 1.0", id="quad_fisher"),
    pytest.param(lambda: measure_all(_GAUSS, 1.0, 1.0), DomainError,
                 "measure_all requires alpha > 1 so the conjugate exponent beta is finite, "
                 "got alpha = 1", id="measure_all"),
    pytest.param(lambda: gaussian_mixture(1, []), DomainError,
                 "mixture needs at least one component", id="mixture"),
    pytest.param(lambda: truncated_exponential(1, rate=0), DomainError,
                 "rate and radius must be positive", id="truncated_exponential"),
    pytest.param(lambda: table_profile(1, [0, 2, 1, 3], [1, 1, 1, 0]), DomainError,
                 "radii must start at 0 and increase strictly", id="table_radii"),
    pytest.param(lambda: table_profile(1, [0, 1, 2, 3], [1, -1, 1, 0]), DomainError,
                 "profile values must be nonnegative", id="table_values"),
])
def test_input_checks(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
