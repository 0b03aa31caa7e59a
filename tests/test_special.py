"""Gamma/Beta helpers and unit-sphere geometry."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qginfo.errors import DomainError
from qginfo.special import beta_fn, log_gamma, unit_ball_volume, unit_sphere_area


class TestLogGamma:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (1.0, 0.0),
            (2.0, 0.0),
            (0.5, math.log(math.pi) / 2),
            (5.0, math.log(24.0)),
        ],
    )
    def test_known_values(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)

    @given(st.floats(min_value=1e-3, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_stdlib(self, x):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        # Gamma(x+1) = x Gamma(x) in log form
        assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), rel=1e-12, abs=1e-12)


class TestBetaFn:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (1.0, 1.0, 1.0),
            (2.0, 3.0, 1.0 / 12.0),
            (0.5, 0.5, math.pi),
        ],
    )
    def test_known_values(self, a, b, expected):
        assert beta_fn(a, b) == pytest.approx(expected, rel=1e-14)

    @given(
        st.floats(min_value=0.05, max_value=30.0),
        st.floats(min_value=0.05, max_value=30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b):
        assert beta_fn(a, b) == pytest.approx(beta_fn(b, a), rel=1e-13)

    @given(
        st.floats(min_value=0.1, max_value=20.0),
        st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_gamma_identity(self, a, b):
        expected = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        assert beta_fn(a, b) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a", [1.0 / 3.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_matches_mpmath_with_one_argument_large(self, a):
        # b ~ 1/|q - 1| next to q = 1; exp(betaln) was off by up to 1.1e-8
        # here, the Stirling series of Gamma(b)/Gamma(b + a) by 6.6e-14
        for b in 10.0 ** np.linspace(math.log10(20.0), 13.0, 8 * 12 + 1):
            with mpmath.workdps(40):
                expected = mpmath.beta(mpmath.mpf(a), mpmath.mpf(float(b)))
                assert float(abs(beta_fn(a, b) / expected - 1)) <= 1e-13, (a, b)
            assert beta_fn(b, a) == beta_fn(a, b)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            beta_fn(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_fn(1.0, -2.0)


class TestSphereGeometry:
    @pytest.mark.parametrize(
        "n,volume",
        [
            (1, 2.0),
            (2, math.pi),
            (3, 4.0 * math.pi / 3.0),
        ],
    )
    def test_ball_volumes(self, n, volume):
        assert unit_ball_volume(n) == pytest.approx(volume, rel=1e-14)

    @pytest.mark.parametrize(
        "n,area",
        [
            (1, 2.0),
            (2, 2.0 * math.pi),
            (3, 4.0 * math.pi),
        ],
    )
    def test_sphere_areas(self, n, area):
        assert unit_sphere_area(n) == pytest.approx(area, rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_area_volume_relation(self, n):
        # surface area of the unit sphere equals n times ball volume
        assert unit_sphere_area(n) == pytest.approx(n * unit_ball_volume(n), rel=1e-13)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_area_closed_form(self, n):
        expected = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        assert unit_sphere_area(n) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", [0, -1])
    def test_dimension_rejected(self, n):
        with pytest.raises(DomainError):
            unit_ball_volume(n)

    def test_ball_radial_integral(self):
        # volume as the radial integral of the surface measure
        for n in (1, 2, 3, 5):
            r = np.linspace(0.0, 1.0, 20001)
            integral = np.trapezoid(unit_sphere_area(n) * r ** (n - 1), r)
            assert integral == pytest.approx(unit_ball_volume(n), rel=1e-6)
