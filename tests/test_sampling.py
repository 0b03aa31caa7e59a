"""Seeded exact sampling from numpy's radial laws, and the radial inverse CDF."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from qginfo.errors import DivergenceError, DomainError
from qginfo.qgaussian import QGaussianParams, closed_moment_alpha
from qginfo.sampling import (
    MAX_COORDINATES,
    RNG_ALGORITHM,
    SampleBatch,
    empirical_moment,
    radial_cdf,
    radial_quantile,
    radial_tail_mass,
    sample,
)

CASES = [
    QGaussianParams(n=1, alpha=2.0, q=1.0),
    QGaussianParams(n=2, alpha=2.0, q=1.5, gamma=0.5),
    QGaussianParams(n=3, alpha=1.5, q=0.9, gamma=2.0),
    QGaussianParams(n=2, alpha=3.0, q=2.0),
]


class TestQuantile:
    @pytest.mark.parametrize("params", CASES)
    def test_roundtrip(self, params):
        u = np.linspace(1e-6, 1.0 - 1e-6, 41)
        r = radial_quantile(params, u)
        np.testing.assert_allclose(radial_cdf(params, r), u, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("params", CASES)
    def test_monotone(self, params):
        u = np.linspace(1e-4, 1.0 - 1e-4, 100)
        r = radial_quantile(params, u)
        assert np.all(np.diff(r) > 0)

    def test_support_bound(self):
        p = QGaussianParams(n=1, alpha=2.0, q=2.0)
        r = radial_quantile(p, np.array([0.999999, 1.0 - 1e-12]))
        assert np.all(r <= p.support_radius + 1e-12)

    def test_median_of_gaussian(self):
        # one-dimensional standard normal: |X| has median Phi^{-1}(0.75)*... via erfinv
        from scipy.special import erfinv

        p = QGaussianParams(n=1, alpha=2.0, q=1.0, gamma=0.5)
        expected = math.sqrt(2.0) * erfinv(0.5)
        assert radial_quantile(p, np.array([0.5]))[0] == pytest.approx(expected, rel=1e-12)

    def test_beta_prime_tail_kept(self):
        # x = betaincinv(a, b, u) rounds to 1 here, so t = x/(1-x) would be inf;
        # the complement 1 - u is the exact mass above the float u
        p = QGaussianParams(n=4, alpha=1.0, q=0.76)
        u = 1.0 - 1e-12
        r = radial_quantile(p, u)
        assert math.isfinite(r)
        assert radial_tail_mass(p, r) == pytest.approx(1.0 - u, rel=1e-6)

    def test_tail_mass_complements_cdf(self):
        p = QGaussianParams(n=2, alpha=2.0, q=1.3)
        for r in (0.2, 1.0, 2.5):
            assert radial_tail_mass(p, r) == pytest.approx(1.0 - radial_cdf(p, np.array([r]))[0], abs=1e-13)

    def test_tail_mass_accurate_far_out(self):
        # the complement form keeps precision where 1 - cdf would round to 0
        p = QGaussianParams(n=1, alpha=2.0, q=1.0, gamma=0.5)
        from scipy.stats import norm

        assert radial_tail_mass(p, 10.0) == pytest.approx(2.0 * norm.sf(10.0), rel=1e-10)

    def test_invalid_u_rejected(self):
        p = QGaussianParams(n=1, alpha=2.0, q=1.0)
        with pytest.raises(DomainError):
            radial_quantile(p, np.array([-0.1]))
        with pytest.raises(DomainError):
            radial_quantile(p, np.array([1.5]))


def _reference_law(params):
    # the per-law formulas in use before the law became one table with its
    # scale sigma, kept here as the reference those functions must still equal
    a = params.n / params.alpha
    if params.exponential_branch:
        return "gamma", a, None
    if params.q > 1.0:
        return "beta", a, 1.0 / (params.q - 1.0) + 1.0
    return "betaprime", a, 1.0 / (1.0 - params.q) - a


def _reference_quantile(params, u):
    law, a, b = _reference_law(params)
    alpha, gamma, q = params.alpha, params.gamma, params.q
    if law == "gamma":
        return (special.gammaincinv(a, u) / gamma) ** (1.0 / alpha)
    if law == "beta":
        return (special.betaincinv(a, b, u) / (gamma * (q - 1.0))) ** (1.0 / alpha)
    x = special.betaincinv(a, b, np.minimum(u, 0.5))
    y = special.betaincinv(b, a, 1.0 - np.maximum(u, 0.5))
    t = np.where(u > 0.5, (1.0 - y) / y, x / (1.0 - x))
    return (t / (gamma * (1.0 - q))) ** (1.0 / alpha)


def _reference_cdf(params, r):
    law, a, b = _reference_law(params)
    alpha, gamma, q = params.alpha, params.gamma, params.q
    if law == "gamma":
        return special.gammainc(a, gamma * r**alpha)
    if law == "beta":
        return special.betainc(a, b, np.minimum(gamma * (q - 1.0) * r**alpha, 1.0))
    t = gamma * (1.0 - q) * r**alpha
    return special.betainc(a, b, t / (1.0 + t))


def _reference_tail_mass(params, r):
    law, a, b = _reference_law(params)
    alpha, gamma, q = params.alpha, params.gamma, params.q
    if law == "gamma":
        return float(special.gammaincc(a, gamma * r**alpha))
    if law == "beta":
        return float(special.betainc(b, a, 1.0 - min(gamma * (q - 1.0) * r**alpha, 1.0)))
    return float(special.betainc(b, a, 1.0 / (1.0 + gamma * (1.0 - q) * r**alpha)))


LAW_GRID = [
    QGaussianParams(n=n, alpha=alpha, q=q, gamma=gamma)
    for n in (1, 2, 3)
    for alpha in (1.0, 1.5, 2.0, 3.0)
    for q in (0.8, 0.9, 0.97, 1.0, 1.0 + 1e-13, 1.05, 1.3, 2.0)
    for gamma in (0.7, 3.0)
]


class TestRadialLaw:
    """One table of (law, a, b, sigma) gives the values of the per-law formulas it replaced.

    Batches are pinned byte for byte by TestSample.test_points_match_one_stream_inverted_whole.
    """

    def test_values_equal_the_per_law_formulas(self):
        u = np.linspace(0.0, 1.0, 201)[:-1]
        for params in LAW_GRID:
            r = radial_quantile(params, u)
            assert np.array_equal(r, _reference_quantile(params, u)), params
            radii = np.concatenate((r, r * 1.5, [0.0, 1e-3, 0.5, 1.0, 4.0]))
            assert np.array_equal(radial_cdf(params, radii), _reference_cdf(params, radii)), params
            for x in radii:
                assert radial_tail_mass(params, float(x)) == \
                    _reference_tail_mass(params, float(x)), (params, x)

    @pytest.mark.parametrize("q", [0.8, 1.0, 1.5])
    def test_ends_of_every_law(self, q):
        # the beta-prime law gave nan from t/(1+t) = inf/inf at r = inf, and
        # divided by 0 at u = 1; the warning filter makes either one fail here
        params = QGaussianParams(n=2, alpha=2.0, q=q)
        assert radial_cdf(params, math.inf) == 1.0
        assert radial_tail_mass(params, math.inf) == 0.0
        assert radial_quantile(params, 1.0) == pytest.approx(params.support_radius, rel=1e-15)
        assert radial_cdf(params, 0.0) == 0.0
        assert radial_quantile(params, 0.0) == 0.0

    @pytest.mark.parametrize("q", [1.0, 1.5, 0.8])
    def test_finite_radius_past_float_range(self, q):
        # r^alpha = 1e400 is past float range: the tail's float power raises
        # OverflowError and the CDF's numpy power warns unless both are handled
        params = QGaussianParams(n=1, alpha=2.0, q=q)
        assert radial_tail_mass(params, 1e200) == 0.0
        assert radial_cdf(params, 1e200) == 1.0


class TestSample:
    def test_byte_identical_reproducibility(self):
        p = QGaussianParams(n=3, alpha=2.0, q=1.2)
        a = sample(p, 500, seed=42)
        b = sample(p, 500, seed=42)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.rng_algorithm == RNG_ALGORITHM == "PCG64"

    def test_seed_changes_stream(self):
        p = QGaussianParams(n=2, alpha=2.0, q=1.0)
        assert not np.array_equal(sample(p, 100, seed=1).points, sample(p, 100, seed=2).points)

    def test_shape_and_echo(self):
        p = QGaussianParams(n=2, alpha=2.0, q=1.5)
        batch = sample(p, 250, seed=9)
        assert batch.points.shape == (250, 2)
        assert batch.count == 250
        assert batch.seed == 9
        assert batch.params_echo == p

    @pytest.mark.parametrize("params", CASES)
    def test_support_respected(self, params):
        batch = sample(params, 2000, seed=3)
        radii = np.linalg.norm(batch.points, axis=1)
        assert np.all(radii <= params.support_radius * (1.0 + 1e-12))

    def test_isotropy(self):
        p = QGaussianParams(n=3, alpha=2.0, q=1.1)
        batch = sample(p, 40000, seed=11)
        directions = batch.points / np.linalg.norm(batch.points, axis=1, keepdims=True)
        assert np.linalg.norm(directions.mean(axis=0)) < 4.0 / math.sqrt(batch.count)

    def test_radial_ks(self):
        # exact radial laws, the beta-prime one out to a tail with no finite m_alpha
        from scipy.stats import kstest

        for params in [*CASES, QGaussianParams(n=4, alpha=1.0, q=0.76)]:
            batch = sample(params, 20000, seed=17)
            radii = np.linalg.norm(batch.points, axis=1)
            stat = kstest(radii, lambda r: radial_cdf(params, np.asarray(r))).statistic
            assert stat < 3.0 / math.sqrt(batch.count), params

    @pytest.mark.parametrize("params", CASES[:3])
    def test_empirical_moment_matches_closed(self, params):
        batch = sample(params, 200000, seed=5)
        est, se = empirical_moment(batch, params.alpha)
        assert abs(est - closed_moment_alpha(params)) < 4.0 * se

    @pytest.mark.parametrize("count", [1, 2, 1001, 32767, 32768, 32769])
    @pytest.mark.parametrize("params", CASES)
    def test_points_match_one_stream_inverted_whole(self, params, count):
        # every batch is one pass over the bare stream: the radial variates
        # (two gamma arrays for beta-prime), then the normals
        rng = np.random.Generator(np.random.PCG64(29))
        a, q = params.n / params.alpha, params.q
        if q == 1.0:
            t = rng.standard_gamma(a, count) / params.gamma
        elif q > 1.0:
            t = rng.beta(a, 1.0 / (q - 1.0) + 1.0, count) / (params.gamma * (q - 1.0))
        else:
            b = 1.0 / (1.0 - q) - a
            t = rng.standard_gamma(a, count) / rng.standard_gamma(b, count)
            t = t / (params.gamma * (1.0 - q))
        direction = rng.standard_normal((count, params.n))
        radii = t ** (1.0 / params.alpha)
        expected = radii[:, None] * (direction / np.linalg.norm(direction, axis=1)[:, None])
        assert sample(params, count, seed=29).points.tobytes() == expected.tobytes()

    def test_non_finite_draws_rejected(self):
        # standard_gamma(1/0.249 - 4) underflows to 0 on 2 of these 1e5 draws
        p = QGaussianParams(n=4, alpha=1.0, q=0.751)
        with pytest.raises(DivergenceError, match="2 of 100000 radii"):
            sample(p, 100_000, seed=1)

    def test_oversized_batch_rejected_before_seeding(self):
        p = QGaussianParams(n=4, alpha=2.0, q=1.0)
        with pytest.raises(DomainError, match="coordinates"):
            sample(p, MAX_COORDINATES // 4 + 1, seed="not a seed")

    def test_zero_count_rejected(self):
        p = QGaussianParams(n=1, alpha=2.0, q=1.0)
        with pytest.raises(DomainError):
            sample(p, 0, seed=1)

    def test_single_point_se(self):
        p = QGaussianParams(n=1, alpha=2.0, q=1.0)
        est, se = empirical_moment(sample(p, 1, seed=1), 2.0)
        assert se == 0.0 and est >= 0.0

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_reproducible_for_any_seed(self, seed):
        p = QGaussianParams(n=2, alpha=2.0, q=1.3)
        a = sample(p, 16, seed=seed)
        b = sample(p, 16, seed=seed)
        assert a.points.tobytes() == b.points.tobytes()
        assert np.all(np.isfinite(a.points))


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: radial_cdf(CASES[0], -1.0), "radius must be nonnegative", id="cdf"),
    pytest.param(lambda: radial_tail_mass(CASES[0], -1.0), "radius must be nonnegative",
                 id="tail_mass"),
    pytest.param(lambda: empirical_moment(sample(CASES[1], 3, seed=0), 0.0),
                 "alpha must be positive, got 0.0", id="moment_alpha"),
    pytest.param(lambda: empirical_moment(
        SampleBatch(params_echo=CASES[1], seed=0, points=np.zeros((3, 2)), count=2), 2.0),
        "batch is empty or inconsistent", id="moment_batch"),
])
def test_input_checks(call, message):
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message
