import numpy as np
import pytest

from cicdml import validation
from cicdml.dgp import AnalyticGamma, named_config, true_pi
from cicdml.estimator import CrossFitConfig
from cicdml.nuisance import NuisanceSet, integrate_nu_many
from cicdml.validation import (
    Perturbation,
    calibrated_linear_nu,
    coverage_study,
    expected_second_order_bias,
    orthogonality_check,
    phi_at,
)


def const_shift(c):
    return lambda y, l=None: np.full(np.shape(y), float(c))


class TestZeroPerturbation:
    def test_orthogonality_check_gives_exact_zeros(self):
        res = orthogonality_check(named_config("did", n=100), Perturbation.zero(), mc_size=500)
        assert (res.phi_prime_0, res.phi_prime_se, res.phi_second_mid,
                res.phi_second_se, res.phi_at_zero, res.phi_zero_se) == (0.0,) * 6

    def test_moment_map_is_flat_along_a_zero_direction(self):
        cfg = named_config("stm-exp", n=100)
        pert = Perturbation.zero()
        assert phi_at(0.0, cfg, pert, mc_size=2000, seed=3) == \
            phi_at(0.5, cfg, pert, mc_size=2000, seed=3)


class TestLambdaRange:
    @pytest.mark.parametrize("lam", [-0.1, 1.0])
    def test_lambda_outside_the_half_open_unit_interval_is_rejected(self, lam):
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1\)"):
            phi_at(lam, named_config("did", n=100), Perturbation.zero(), mc_size=500)


class TestStencilStep:
    @pytest.mark.parametrize("h", [0.0, -0.05, 0.5, 0.7])
    def test_step_outside_the_open_half_interval_is_rejected(self, h):
        # The stencil 0.5 +/- h must stay in [0, 1), and h = 0 divides by zero.
        pert = Perturbation(d_pi=0.01)
        with pytest.raises(ValueError, match="h must lie in"):
            orthogonality_check(named_config("did", n=100), pert, h=h, mc_size=500)


class TestMeanZeroAtTruth:
    @pytest.mark.parametrize("name,mc_size", [("stm-exp", 20_000), ("stm-cov", 1_000)])
    def test_phi_at_zero_within_three_se(self, name, mc_size):
        cfg = named_config(name, n=100)
        # A direction in pi only: the stencil lambdas share the lambda = 0 draw.
        pert = Perturbation(d_pi=0.01)
        res = orthogonality_check(cfg, pert, mc_size=mc_size, seed=5)
        assert phi_at(0.0, cfg, pert, mc_size=mc_size, seed=5) == res.phi_at_zero
        assert abs(res.phi_at_zero) <= 3.0 * res.phi_zero_se


class TestOrthogonality:
    @staticmethod
    def check(name):
        cfg = named_config(name, n=100)
        pert = Perturbation.random_bounded(seed=2, gamma_scale=0.4, nu_scale=0.1)
        res = orthogonality_check(cfg, pert, mc_size=40_000, seed=2)
        assert abs(res.phi_prime_0) <= 4.0 * res.phi_prime_se + 1e-6
        # The direction is not degenerate: the curvature is clearly nonzero.
        assert abs(res.phi_second_mid) > 4.0 * res.phi_second_se

    @pytest.mark.parametrize("name", ["did", "stm-exp"])
    def test_first_derivative_vanishes_at_p0(self, name):
        self.check(name)

    def test_first_derivative_vanishes_with_covariates(self):
        # Measured phi'(0) = -1.96e-3 (se 1.85e-3) and curvature 1.43e-2
        # (se 1.3e-4).
        self.check("stm-cov")


    def test_base_odds_at_p0_are_integrated_by_the_shared_primitive(self, monkeypatch):
        # The perturbed odds integrate their base odds through
        # integrate_nu_many without covariates as with them.
        seen = []

        def spy(lo, hi, l, nu, weight=None):
            seen.append(l.shape[1])
            return integrate_nu_many(lo, hi, l, nu, weight)

        monkeypatch.setattr(validation, "integrate_nu_many", spy)
        phi_at(0.1, named_config("stm-exp", n=100), Perturbation.random_bounded(seed=2),
               mc_size=2000, seed=2)
        assert seen == [0]


class TestClosedFormCurvature:
    C_GAMMA = 0.3

    def test_transport_perturbation_around_linear_odds(self):
        cfg = named_config("did", n=100)
        slope = 0.2
        base = NuisanceSet(gamma=AnalyticGamma(cfg), nu=calibrated_linear_nu(cfg, slope),
                           pi=true_pi(cfg))
        pert = Perturbation(d_gamma=const_shift(self.C_GAMMA))
        res = orthogonality_check(cfg, pert, mc_size=40_000, seed=4, base=base)
        want = expected_second_order_bias(cfg, 0.5, self.C_GAMMA, base_nu_slope=slope)
        assert want != 0.0
        assert res.phi_second_mid == pytest.approx(want, abs=4.0 * res.phi_second_se + 1e-3)
        # Calibration keeps the moment map flat to first order at zero.
        assert abs(res.phi_prime_0) <= 4.0 * res.phi_prime_se + 1e-6

    def test_closed_form_mean_needs_independent_treatment(self):
        with pytest.raises(ValueError, match="independent-treatment"):
            validation.mean_y1_control(named_config("stm-cov"))

    def test_joint_transport_and_linear_odds_direction(self):
        cfg = named_config("did", n=100)
        dnu_slope, dnu_intercept = 0.1, -0.05
        pert = Perturbation(d_gamma=const_shift(self.C_GAMMA),
                            d_nu=lambda x, l=None: dnu_slope * np.asarray(x) + dnu_intercept)
        res = orthogonality_check(cfg, pert, mc_size=40_000, seed=6)
        want = expected_second_order_bias(cfg, 0.5, self.C_GAMMA, dnu_slope=dnu_slope,
                                          dnu_intercept=dnu_intercept)
        assert res.phi_second_mid == pytest.approx(want, abs=4.0 * res.phi_second_se + 1e-3)


class TestCoverageStudy:
    def test_two_replications_are_deterministic(self):
        cfg = named_config("did", n=200)
        cf = CrossFitConfig(K=2)
        first = coverage_study(cfg, cf, 2, master_seed=8)
        assert first == coverage_study(cfg, cf, 2, master_seed=8)
        assert first.n_reps == 2 and first.cover_rate in (0.0, 0.5, 1.0)
        assert first.mean_ci_width > 0.0

    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            coverage_study(named_config("did", n=200), CrossFitConfig(K=2), 1)
