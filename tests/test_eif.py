import numpy as np
import pytest
from numpy.testing import assert_allclose

from cicdml.data_model import FoldAssignment, PanelDataset
from cicdml.dgp import ConstantNu, LinearNu, gen_stm, named_config, true_nuisances
from cicdml.eif import (
    GTildeSpec,
    gtilde_cdf_indicator,
    gtilde_counterfactual_mean,
    gtilde_quantile,
    integrate_nu_many,
)
from cicdml.errors import NoTreatedInEvaluation
from cicdml.estimator import _CrossFit, att_psi_values
from cicdml.nuisance import NuisanceSet


def const_gamma(value):
    return lambda y, l=None: value if np.isscalar(y) else np.full(np.asarray(y).shape, float(value))


def one_fold(n):
    return FoldAssignment(fold_of=np.zeros(n, dtype=int), K=1)


def units(y1, a):
    """A covariate-free dataset built directly, so that an arm may be
    empty; the baseline outcomes are zero (the tests fix gamma)."""
    y1 = np.asarray(y1, dtype=float)
    return PanelDataset(y0=np.zeros(y1.shape[0]), y1=y1, a=np.asarray(a),
                        l=np.empty((y1.shape[0], 0)))


def engine(eta, y1, a):
    """The score engine over one fold whose nuisances are ``eta``."""
    data = units(y1, a)
    return _CrossFit(data, one_fold(data.n), [eta])


def link_scores(eta, y1, a, link, t):
    """Per-unit scores of an affine link (moment slope -1) at t."""
    cf = engine(eta, y1, a)
    v, corr = cf.terms(link, t)
    return cf.scores(v, corr, -1.0)


def att_scores(eta, y1, a, theta):
    data = units(y1, a)
    return att_psi_values(data, one_fold(data.n), [eta], theta)


def integral(lo, hi, nu):
    return float(integrate_nu_many(np.array([lo]), np.array([hi]), None, nu)[0])


class TestIntegrateNu:
    def test_constant_integrand(self):
        assert integral(1.0, 3.0, ConstantNu(2.0)) == pytest.approx(4.0)

    def test_equal_limits(self):
        assert integral(2.0, 2.0, ConstantNu(5.0)) == 0.0

    def test_linear_integrand_and_sign(self):
        nu = LinearNu(1.0, 0.0)
        assert integral(0.0, 2.0, nu) == pytest.approx(2.0)
        assert integral(2.0, 0.0, nu) == pytest.approx(-2.0)

    def test_orientation_antisymmetry(self):
        rng = np.random.default_rng(21)
        nu = true_nuisances(named_config("stm-exp", n=100)).nu
        for _ in range(10):
            lo, hi = np.exp(rng.normal(size=2))
            assert integral(lo, hi, nu) == pytest.approx(-integral(hi, lo, nu), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        nu = true_nuisances(named_config("did", n=100)).nu
        lo = np.array([0.0, 1.0, -2.0])
        hi = np.array([1.5, -1.0, -2.0])
        got = integrate_nu_many(lo, hi, None, nu)
        want = [integral(a, b, nu) for a, b in zip(lo, hi)]
        assert_allclose(got, want, atol=1e-10)


class TestPsiAtt:
    def test_treated_arithmetic(self):
        eta = NuisanceSet(gamma=const_gamma(3.0), nu=ConstantNu(1.0), pi=0.5)
        # (y1 - gamma - theta) / pi = (5 - 3 - 1) / 0.5.
        assert att_scores(eta, [5.0], [1], theta=1.0)[0] == pytest.approx(2.0)

    def test_control_constant_odds(self):
        eta = NuisanceSet(gamma=const_gamma(4.0), nu=ConstantNu(1.0), pi=0.5)
        # The odds integral from y1 = 1 to gamma = 4 over pi.
        assert att_scores(eta, [1.0], [0], theta=0.0)[0] == pytest.approx(6.0)

    def test_mean_zero_at_truth(self):
        cfg = named_config("did", n=50_000, seed=31)
        data, truth = gen_stm(cfg)
        eta = true_nuisances(cfg)
        psi = att_psi_values(data, one_fold(data.n), [eta], truth.att_true)
        se = psi.std() / np.sqrt(data.n)
        assert abs(psi.mean()) <= 3.0 * se


class TestPsiCdt:
    def test_treated_arithmetic(self):
        eta = NuisanceSet(gamma=const_gamma(2.0), nu=ConstantNu(1.0), pi=0.5)
        # (1{2 < 3} - 0.4) / 0.5.
        psi = link_scores(eta, [9.0], [1], gtilde_cdf_indicator(3.0), 0.4)
        assert psi[0] == pytest.approx(1.2)

    def test_control_inside_interval(self):
        eta = NuisanceSet(gamma=const_gamma(4.0), nu=ConstantNu(1.0), pi=0.5)
        # The jump at 2 lies in (1, 4] with size -1, so C = -1 and the
        # score is -C / pi = 2.
        psi = link_scores(eta, [1.0], [0], gtilde_cdf_indicator(2.0), 0.4)
        assert psi[0] == pytest.approx(2.0)

    def test_control_outside_interval_vanishes(self):
        eta = NuisanceSet(gamma=const_gamma(4.0), nu=ConstantNu(1.0), pi=0.5)
        psi = link_scores(eta, [1.0], [0], gtilde_cdf_indicator(7.0), 0.4)
        assert psi[0] == 0.0


class TestPsiQtt:
    # Two treated units at y1 = 1 and 5 with transported outcome 0, unit
    # densities and pi = 0.5. At tau = 0.5 the treated quantile is 1 and
    # the counterfactual quantile lies just above 0.
    @staticmethod
    def solve():
        eta = NuisanceSet(gamma=const_gamma(0.0), nu=ConstantNu(1.0), pi=0.5,
                          dens_y1_treated=lambda t: 1.0, dens_gamma_treated=lambda t: 1.0)
        return engine(eta, [1.0, 5.0], [1, 1]).solve_qtt(0.5)

    def test_treated_arithmetic(self):
        theta, psi = self.solve()
        assert theta == pytest.approx(1.0, abs=1e-7)
        # y1 > vartheta1 and gamma < vartheta2: both halves contribute 1.
        assert psi[1] == pytest.approx(2.0)

    def test_balanced_treated_unit_is_zero(self):
        _, psi = self.solve()
        # At y1 = vartheta1 the treated-quantile half is -1, and so is
        # the counterfactual-quantile half that it is reduced by.
        assert psi[0] == pytest.approx(0.0)


class TestPsiGeneral:
    def test_zero_denominator(self):
        # Without treated units the pooled equation's denominator is zero.
        eta = NuisanceSet(gamma=const_gamma(1.0), nu=ConstantNu(1.0), pi=0.5)
        with pytest.raises(NoTreatedInEvaluation):
            engine(eta, [1.0, 2.0], [0, 0]).solve_link(gtilde_counterfactual_mean())

    def test_cdt_score_uses_the_half_open_interval(self):
        # A control whose y1 sits exactly at the evaluation point: the
        # increment of the link between y1 and gamma is zero. One whose
        # gamma sits there counts the jump.
        eta = NuisanceSet(gamma=const_gamma(2.0), nu=ConstantNu(1.0), pi=0.5)
        psi = link_scores(eta, [2.0, 0.0], [0, 0], gtilde_cdf_indicator(2.0), 0.4)
        assert psi[0] == 0.0
        assert psi[1] == pytest.approx(2.0)

    def test_jump_outside_interval_contributes_nothing(self):
        eta = NuisanceSet(gamma=const_gamma(3.0), nu=ConstantNu(1.0), pi=0.5)
        psi = link_scores(eta, [1.0], [0], gtilde_cdf_indicator(9.0), 0.0)
        assert psi[0] == 0.0

    def test_smooth_link_integrates_odds_times_dx(self):
        # g(x, t) = x^2 - t: C is the integral of 2x from y1 = 1 to 3.
        link = GTildeSpec(value=lambda x, t: np.asarray(x) ** 2 - t, kind="smooth",
                          dx=lambda x, t: 2.0 * np.asarray(x))
        eta = NuisanceSet(gamma=const_gamma(3.0), nu=ConstantNu(1.0), pi=0.5)
        psi = link_scores(eta, [1.0, 7.0], [0, 1], link, 4.0)
        assert psi[0] == pytest.approx(-16.0, rel=1e-5)
        assert psi[1] == pytest.approx(10.0)

    def test_quantile_spec_marks_density_denominator(self):
        assert gtilde_quantile(0.5).dtheta == "gamma-density"

    def test_smooth_needs_dx(self):
        with pytest.raises(ValueError):
            GTildeSpec(value=lambda x, t: x, kind="smooth")


class TestDidReduction:
    def test_att_score_equals_did_influence_function(self):
        # With constant odds pi/(1-pi) and a pure shift transport, the
        # score collapses to the classical two-group influence function.
        trend, effect, pi = 1.0, 2.0, 0.5
        cfg = named_config("did", n=20_000, seed=41)
        data, truth = gen_stm(cfg)
        eta = true_nuisances(cfg)
        theta = truth.att_true
        psi = att_psi_values(data, one_fold(data.n), [eta], theta)
        diff = data.y1 - data.y0 - trend
        classical = (data.a / pi) * (diff - theta) - ((1 - data.a) / (1 - pi)) * diff
        assert abs(psi.mean() - classical.mean()) <= 1e-8
        assert_allclose(psi, classical, atol=1e-10)
