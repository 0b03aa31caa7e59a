"""Sharp information inequalities and their equality cases."""

import json
import math

import pytest

from qginfo.errors import DomainError
from qginfo.inequalities import (
    INEQUALITY_NAMES,
    _MeasureBackend,
    check_all,
    check_cramer_rao,
    check_fisher_moment_entropy,
    check_moment_entropy,
    check_stam,
    inapplicable,
)
from qginfo.measures import gaussian_mixture, measure_all, truncated_exponential, uniform_ball
from qginfo.qgaussian import QGaussianParams, radial_density

# frozen strictness ratios (independent high-precision quadrature), ordered
# fisher-moment-entropy, moment-entropy, stam, cramer-rao
MIX_A = [(0.5, 1.0), (0.5, 4.0)]
MIX_A_RATIOS_Q1 = (1.0741381810922215, 1.019016956046428, 1.0540925494112012, 1.0741381810922215)
MIX_A_RATIOS_Q13 = (1.2305425872678009, 1.0598781500033136, 1.121701934603658, 1.1888673713028628)
MIX_B = [(0.3, 1.0), (0.7, 9.0)]
MIX_B_RATIOS_Q1 = (1.1809040962819568, 1.029530782516464, 1.1470313625742143, 1.1809040962819566)
TREXP_RATIOS_Q1 = (1.4046899956690446, 1.0710378246204708, 1.311522304234965, 1.4046899956690444)
BALL_ME_RATIOS = {(2, 1.0): 1.165821990798562, (3, 1.0): 1.1465402438935794,
                  (2, 1.5): 1.088662107903635, (3, 1.2): 1.1057039474927033}

EQUALITY_TUPLES = [
    (1, 2.0, 2.0, 3.0),
    (1, 2.0, 1.0, 1.0),
    (2, 2.0, 1.2, 1.0),
    (3, 2.0, 1.1, 0.7),
    (2, 3.0, 1.5, 1.0),
    (1, 1.5, 0.9, 2.0),
]


def qg(n, alpha, q, gamma=1.0):
    return radial_density(QGaussianParams(n=n, alpha=alpha, q=q, gamma=gamma))


class TestEqualityCases:
    @pytest.mark.parametrize("n,alpha,q,gamma", EQUALITY_TUPLES)
    def test_family_members_achieve_equality(self, n, alpha, q, gamma):
        for report in check_all(qg(n, alpha, q, gamma), alpha, q):
            assert report.passes, report.name
            assert report.equality, report.name
            assert abs(report.ratio - 1.0) <= 1e-5, (report.name, report.ratio)

    def test_standard_normal_anchor(self):
        # fisher-moment-entropy at the normal: lhs = rhs = n/q * 1
        report = check_fisher_moment_entropy(qg(1, 2.0, 1.0, 0.5), 2.0, 1.0)
        assert report.lhs == pytest.approx(1.0, rel=1e-9)
        assert report.rhs == pytest.approx(1.0, rel=1e-9)
        assert report.equality

    def test_gamma_dependence_cancels(self):
        for gamma in (0.25, 1.0, 4.0):
            report = check_cramer_rao(qg(2, 2.0, 1.3, gamma), 2.0, 1.3)
            assert abs(report.ratio - 1.0) <= 1e-6


class TestStrictness:
    @pytest.mark.parametrize(
        "components,q,expected",
        [
            (MIX_A, 1.0, MIX_A_RATIOS_Q1),
            (MIX_A, 1.3, MIX_A_RATIOS_Q13),
            (MIX_B, 1.0, MIX_B_RATIOS_Q1),
        ],
    )
    def test_mixture_ratios(self, components, q, expected):
        f = gaussian_mixture(1, components)
        reports = check_all(f, 2.0, q)
        for report, ref in zip(reports, expected):
            assert report.ratio == pytest.approx(ref, rel=1e-7), report.name
            assert report.passes
            assert not report.equality
            assert report.ratio >= 1.0 + 1e-6

    def test_truncated_exponential_ratios(self):
        f = truncated_exponential(1, rate=1.0, radius=8.0)
        reports = check_all(f, 2.0, 1.0)
        for report, ref in zip(reports, TREXP_RATIOS_Q1):
            assert report.ratio == pytest.approx(ref, rel=1e-7), report.name

    @pytest.mark.parametrize("n,q", sorted(BALL_ME_RATIOS))
    def test_uniform_ball_moment_entropy(self, n, q):
        report = check_moment_entropy(uniform_ball(n, 1.0), 2.0, q)
        assert report.ratio == pytest.approx(BALL_ME_RATIOS[(n, q)], rel=1e-7)
        assert report.passes and not report.equality

    def test_uniform_ball_fisher_rejected(self):
        # no weak derivative at the boundary jump: Fisher-based checks refuse
        with pytest.raises(DomainError):
            check_fisher_moment_entropy(uniform_ball(2, 1.0), 2.0, 1.0)


class TestProductStructure:
    @pytest.mark.parametrize("density_fn,q", [
        (lambda: gaussian_mixture(1, MIX_A), 1.0),
        (lambda: gaussian_mixture(1, MIX_A), 1.3),
        (lambda: gaussian_mixture(1, MIX_B), 1.0),
        (lambda: truncated_exponential(1, 1.0, 8.0), 1.0),
        (lambda: qg(2, 2.0, 1.2), 1.2),
        (lambda: qg(3, 2.0, 1.1), 1.1),
    ])
    def test_nth_root_composition(self, density_fn, q):
        # cramer-rao ratio = moment-entropy ratio * stam ratio^(1/n), exactly
        f = density_fn()
        me = check_moment_entropy(f, 2.0, q)
        st = check_stam(f, 2.0, q)
        cr = check_cramer_rao(f, 2.0, q)
        assert cr.ratio == pytest.approx(me.ratio * st.ratio ** (1.0 / f.dim), rel=1e-9)

    def test_literal_product_in_dimension_one(self):
        f = gaussian_mixture(1, MIX_B)
        me = check_moment_entropy(f, 2.0, 1.0)
        st = check_stam(f, 2.0, 1.0)
        cr = check_cramer_rao(f, 2.0, 1.0)
        assert cr.ratio == pytest.approx(me.ratio * st.ratio, rel=1e-9)


class TestPreconditions:
    def test_stam_dimension_bound(self):
        with pytest.raises(DomainError, match=r"\(n-1\)/n"):
            check_stam(qg(3, 2.0, 0.65), 2.0, 0.65)

    def test_stam_tighter_bound_when_binding(self):
        # for n=1 the binding constraint is the M_q bound, not (n-1)/n = 0
        with pytest.raises(DomainError, match="n/"):
            check_stam(qg(1, 2.0, 0.3), 2.0, 0.3)

    def test_fisher_moment_entropy_needs_alpha_above_one(self):
        f = gaussian_mixture(1, MIX_A)
        with pytest.raises(DomainError):
            check_fisher_moment_entropy(f, 1.0, 1.0)

    def test_inapplicable_reasons_in_request_order(self):
        # the reasons verify --all reports under "skipped", word for word
        reasons = inapplicable(uniform_ball(2, 1.0), 2.0, 1.0)
        assert list(reasons) == ["fisher-moment-entropy", "stam", "cramer-rao"]
        assert reasons["stam"] == ("uniform-ball:n=2,radius=1: profile is not absolutely "
                                   "continuous; its generalized Fisher information is infinite")
        assert inapplicable(gaussian_mixture(3, MIX_A), 2.0, 0.62) == {
            "stam": "stam requires q > (n-1)/n = 0.666667, got q = 0.62",
            "cramer-rao": "cramer-rao requires q > (n-1)/n = 0.666667, got q = 0.62",
        }
        assert inapplicable(gaussian_mixture(1, MIX_A), 2.0, -0.5)["fisher-moment-entropy"] == (
            "fisher-moment-entropy requires q > 0, got q = -0.5")

    def test_moment_entropy_allows_alpha_one(self):
        report = check_moment_entropy(gaussian_mixture(1, MIX_A), 1.0, 1.0)
        assert report.passes


class TestReportShape:
    def test_frozen_keys(self):
        report = check_fisher_moment_entropy(qg(1, 2.0, 1.5), 2.0, 1.5)
        d = report.as_dict()
        assert set(d) == {"name", "lhs", "rhs", "ratio", "deficit", "passes",
                          "equality", "params", "density", "tolerances", "method_tags"}
        assert set(d["params"]) >= {"n", "alpha", "beta", "q", "lambda"}
        assert d["name"] == "fisher-moment-entropy"
        json.dumps(d)  # serializable as emitted

    def test_deficit_sign_convention(self):
        # deficit = ratio - 1 >= 0 when the inequality holds
        report = check_moment_entropy(gaussian_mixture(1, MIX_B), 2.0, 1.0)
        assert report.deficit == pytest.approx(report.ratio - 1.0, abs=1e-15)
        assert report.deficit > 0

    def test_check_all_order(self):
        reports = check_all(qg(1, 2.0, 1.2), 2.0, 1.2)
        assert tuple(r.name for r in reports) == INEQUALITY_NAMES

    def test_gamma_echoed_for_family_members(self):
        report = check_stam(qg(2, 2.0, 1.2, 0.5), 2.0, 1.2)
        assert report.as_dict()["params"].get("gamma") == pytest.approx(0.5)


class TestQuadratureBackend:
    @pytest.mark.parametrize("q", [0.8, 1.0, 1.3])
    def test_entropy_power_is_the_one_measure_all_reports(self, q):
        # verify and measures read the same N_q bits; the backend took
        # M_q^(1/(1-q)) where measure_all takes exp(log(M_q)/(1-q)), and the
        # two differed in the last bits at q = 0.8 and 1.3
        f = gaussian_mixture(1, MIX_B)
        assert _MeasureBackend.of(f, 2.0, q).Nq() == measure_all(f, 2.0, q).Nq
