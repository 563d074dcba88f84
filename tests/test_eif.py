import numpy as np
import pytest
from numpy.testing import assert_allclose

from cicdml.dgp import ConstantNu, LinearNu, gen_did, named_config, gen_stm, true_nuisances
from cicdml.eif import (
    GTildeSpec,
    Observation,
    chi,
    gtilde_cdf_indicator,
    gtilde_counterfactual_mean,
    gtilde_quantile,
    integrate_nu,
    integrate_nu_many,
    psi_att,
    psi_att_many,
    psi_cdt,
    psi_counterfactual_mean,
    psi_general,
    psi_qtt,
)
from cicdml.errors import MissingDensity, ZeroDenominator
from cicdml.estimator import fit_fold_nuisances, CrossFitConfig
from cicdml.data_model import partition_folds
from cicdml.nuisance import NuisanceSet


def const_gamma(value):
    return lambda y, l=None: value if np.isscalar(y) else np.full(np.asarray(y).shape, float(value))


class TestIntegrateNu:
    def test_constant_integrand(self):
        assert integrate_nu(1.0, 3.0, None, ConstantNu(2.0)) == pytest.approx(4.0)

    def test_equal_limits(self):
        assert integrate_nu(2.0, 2.0, None, ConstantNu(5.0)) == 0.0

    def test_linear_integrand_and_sign(self):
        nu = LinearNu(1.0, 0.0)
        assert integrate_nu(0.0, 2.0, None, nu) == pytest.approx(2.0)
        assert integrate_nu(2.0, 0.0, None, nu) == pytest.approx(-2.0)

    def test_orientation_antisymmetry(self):
        rng = np.random.default_rng(21)
        nu = true_nuisances(named_config("stm-exp", n=100)).nu
        for _ in range(10):
            lo, hi = np.exp(rng.normal(size=2))
            fwd = integrate_nu(lo, hi, None, nu)
            bwd = integrate_nu(hi, lo, None, nu)
            assert fwd == pytest.approx(-bwd, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        nu = true_nuisances(named_config("did", n=100)).nu
        lo = np.array([0.0, 1.0, -2.0])
        hi = np.array([1.5, -1.0, -2.0])
        got = integrate_nu_many(lo, hi, None, nu)
        want = [integrate_nu(a, b, None, nu) for a, b in zip(lo, hi)]
        assert_allclose(got, want, atol=1e-10)


class TestPsiAtt:
    def test_treated_arithmetic(self):
        eta = NuisanceSet(gamma=const_gamma(3.0), nu=ConstantNu(1.0), pi=0.5)
        w = Observation(y0=0.0, y1=5.0, a=1)
        assert psi_att(w, theta=1.0, eta=eta) == pytest.approx(2.0)

    def test_control_constant_odds(self):
        eta = NuisanceSet(gamma=const_gamma(4.0), nu=ConstantNu(1.0), pi=0.5)
        w = Observation(y0=0.0, y1=1.0, a=0)
        assert psi_att(w, theta=0.0, eta=eta) == pytest.approx(6.0)

    def test_mean_zero_at_truth(self):
        cfg = named_config("did", n=50_000, seed=31)
        data, truth = gen_stm(cfg)
        eta = true_nuisances(cfg)
        psi = psi_att_many(data.y0, data.y1, data.a, None, truth.att_true, eta)
        se = psi.std() / np.sqrt(data.n)
        assert abs(psi.mean()) <= 3.0 * se


class TestChi:
    # The compound sign is sign(y1 - gamma) restricted to the closed
    # interval between them.
    def test_inside_interval_gamma_above(self):
        w = Observation(y0=0.0, y1=1.0, a=0)
        assert chi(2.0, w, const_gamma(3.0)) == -1

    def test_outside_interval(self):
        w = Observation(y0=0.0, y1=1.0, a=0)
        assert chi(4.0, w, const_gamma(3.0)) == 0

    def test_sign_flip_gamma_below(self):
        w = Observation(y0=0.0, y1=3.0, a=0)
        assert chi(2.0, w, const_gamma(1.0)) == 1

    def test_endpoints_included(self):
        w = Observation(y0=0.0, y1=1.0, a=0)
        assert chi(1.0, w, const_gamma(3.0)) == -1
        assert chi(3.0, w, const_gamma(3.0)) == -1

    def test_degenerate_point_interval(self):
        w = Observation(y0=0.0, y1=3.0, a=0)
        assert chi(3.0, w, const_gamma(3.0)) == 0


class TestPsiCdt:
    def test_treated_arithmetic(self):
        eta = NuisanceSet(gamma=const_gamma(2.0), nu=ConstantNu(1.0), pi=0.5)
        w = Observation(y0=0.0, y1=9.0, a=1)
        assert psi_cdt(w, y=3.0, vartheta=0.4, eta=eta) == pytest.approx(1.2)

    def test_control_inside_interval(self):
        eta = NuisanceSet(gamma=const_gamma(4.0), nu=ConstantNu(1.0), pi=0.5)
        w = Observation(y0=0.0, y1=1.0, a=0)
        # chi(2) = sign(1 - 4) = -1, so the correction is (-1/0.5)*1*(-1) = 2.
        assert psi_cdt(w, y=2.0, vartheta=0.4, eta=eta) == pytest.approx(2.0)

    def test_control_outside_interval_vanishes(self):
        eta = NuisanceSet(gamma=const_gamma(4.0), nu=ConstantNu(1.0), pi=0.5)
        w = Observation(y0=0.0, y1=1.0, a=0)
        assert psi_cdt(w, y=7.0, vartheta=0.4, eta=eta) == 0.0


class TestPsiQtt:
    def test_missing_density_raises(self):
        eta = NuisanceSet(gamma=const_gamma(1.0), nu=ConstantNu(1.0), pi=0.5)
        w = Observation(y0=0.0, y1=1.0, a=1)
        with pytest.raises(MissingDensity):
            psi_qtt(w, tau=0.5, vartheta1=0.0, vartheta2=0.0, eta=eta)

    def test_treated_arithmetic(self):
        eta = NuisanceSet(gamma=const_gamma(0.0), nu=ConstantNu(1.0), pi=0.5,
                          dens_y1_treated=lambda t: 1.0, dens_gamma_treated=lambda t: 1.0)
        w = Observation(y0=0.0, y1=5.0, a=1)
        # y1 > t1 and gamma < t2 with unit densities: both halves contribute 1.
        got = psi_qtt(w, tau=0.5, vartheta1=4.0, vartheta2=1.0, eta=eta)
        assert got == pytest.approx(2.0)

    def test_balanced_treated_unit_is_zero(self):
        eta = NuisanceSet(gamma=const_gamma(3.0), nu=ConstantNu(1.0), pi=0.5,
                          dens_y1_treated=lambda t: 1.0, dens_gamma_treated=lambda t: 1.0)
        w = Observation(y0=0.0, y1=1.0, a=1)
        # 1{y1 <= t1} = tau and 1{gamma < t2} = tau make both numerators vanish.
        got = psi_qtt(w, tau=1.0, vartheta1=1.0, vartheta2=4.0, eta=eta)
        assert got == pytest.approx(0.0)


def _fitted_eta_and_observations(seed=77, n=600, n_obs=100):
    data, _ = gen_did(n, seed=seed)
    folds = partition_folds(data.n, 2, stratify_on=data.a, seed=seed)
    eta = fit_fold_nuisances(data, folds.train_indices(0), CrossFitConfig(K=2))
    fresh, _ = gen_did(n_obs, seed=seed + 1)
    obs = [Observation.from_dataset(fresh, i) for i in range(fresh.n)]
    return eta, obs


class TestPsiGeneral:
    def test_zero_denominator(self):
        eta = NuisanceSet(gamma=const_gamma(1.0), nu=ConstantNu(1.0), pi=0.5)
        w = Observation(y0=0.0, y1=1.0, a=1)
        with pytest.raises(ZeroDenominator):
            psi_general(w, gtilde_counterfactual_mean(), 0.0, eta, denom=0.0)

    def test_counterfactual_mean_matches_att_component(self):
        eta, obs = _fitted_eta_and_observations()
        vartheta = 1.4
        for w in obs:
            direct = psi_counterfactual_mean(w, vartheta, eta)
            via_general = psi_general(w, gtilde_counterfactual_mean(), vartheta, eta,
                                      denom=eta.pi)
            assert abs(direct - via_general) <= 1e-10

    def test_cdf_indicator_matches_cdt_score(self):
        eta, obs = _fitted_eta_and_observations(seed=78)
        y_point = 1.2
        vartheta = 0.35
        for w in obs:
            direct = psi_cdt(w, y_point, vartheta, eta)
            via_general = psi_general(w, gtilde_cdf_indicator(y_point), vartheta, eta,
                                      denom=eta.pi)
            assert abs(direct - via_general) <= 1e-10

    def test_cdt_score_uses_the_half_open_interval(self):
        # A control whose y1 sits exactly at the evaluation point: the
        # increment of the link between y1 and gamma is zero.
        eta = NuisanceSet(gamma=const_gamma(4.0), nu=ConstantNu(1.0), pi=0.5)
        w = Observation(y0=0.0, y1=2.0, a=0)
        direct = psi_cdt(w, 2.0, 0.4, eta)
        via_general = psi_general(w, gtilde_cdf_indicator(2.0), 0.4, eta, denom=eta.pi)
        assert direct == via_general == 0.0

    def test_jump_outside_interval_contributes_nothing(self):
        eta = NuisanceSet(gamma=const_gamma(3.0), nu=ConstantNu(1.0), pi=0.5)
        w = Observation(y0=0.0, y1=1.0, a=0)
        got = psi_general(w, gtilde_cdf_indicator(9.0), 0.0, eta, denom=0.5)
        assert got == 0.0

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
        psi = psi_att_many(data.y0, data.y1, data.a, None, theta, eta)
        diff = data.y1 - data.y0 - trend
        classical = (data.a / pi) * (diff - theta) - ((1 - data.a) / (1 - pi)) * diff
        assert abs(psi.mean() - classical.mean()) <= 1e-8
        assert_allclose(psi, classical, atol=1e-10)
