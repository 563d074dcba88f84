import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special
from scipy.stats import ks_2samp

from cicdml.dgp import (
    ConstantNu,
    StmConfig,
    TransformSpec,
    did_config,
    expit,
    gen_did,
    gen_stm,
    logit,
    named_config,
    qq_invariance_diagnostic,
    qq_transform,
    true_nuisances,
    true_pi,
)
from cicdml.errors import InvalidTransform
from cicdml.nuisance import NuFn, _bandwidth_vector, _nw_mean


class TestTransformSpec:
    def test_identity_round_trip(self):
        t = TransformSpec("identity")
        x = np.linspace(-3, 3, 7)
        assert_allclose(t.invert(t.apply(x)), x)

    def test_exp_round_trip(self):
        t = TransformSpec("exp")
        x = np.linspace(-2, 2, 9)
        assert_allclose(t.invert(t.apply(x)), x, atol=1e-12)

    def test_power_is_increasing_on_reals(self):
        t = TransformSpec("power", c=2.0)
        x = np.linspace(-2, 2, 41)
        assert np.all(np.diff(t.apply(x)) > 0)
        assert_allclose(t.invert(t.apply(x)), x, atol=1e-12)

    def test_affine_round_trip(self):
        t = TransformSpec("affine", a=2.0, b=-1.0)
        x = np.linspace(-3, 3, 7)
        assert_array_equal(t.apply(x), 2.0 * x - 1.0)
        assert_array_equal(t.invert(t.apply(x)), x)

    def test_exp_inverse_needs_positive_values(self):
        with pytest.raises(InvalidTransform, match="positive values"):
            TransformSpec("exp").invert(np.array([1.0, 0.0]))

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidTransform):
            TransformSpec("power", c=0.0)
        with pytest.raises(InvalidTransform):
            TransformSpec("affine", a=0.0)
        with pytest.raises(InvalidTransform):
            TransformSpec("spline")

    def test_dict_round_trip(self):
        t = TransformSpec("affine", a=2.0, b=-1.0)
        assert TransformSpec.from_dict(t.to_dict()) == t


class TestGammaTrue:
    def test_identity_transforms_shift(self):
        cfg = did_config(100, trend=1.5)
        gamma = gen_stm(cfg)[1].gamma_true
        y = np.linspace(-2, 2, 11)
        assert_allclose(gamma(y), y + 1.5)

    def test_exp_transform_composition(self):
        cfg = named_config("stm-exp", n=100)
        gamma = gen_stm(cfg)[1].gamma_true
        y = np.linspace(-1, 2, 7)
        assert_allclose(gamma(y), np.exp(y + 0.7 - 0.2))

    def test_additive_effect_truth(self):
        cfg = named_config("stm-exp", n=100, effect=2.0)
        assert gen_stm(cfg)[1].att_true == 2.0

    @pytest.mark.parametrize("option", [{"pi": 0.9}, {"trend": 7.0}])
    def test_did_only_options_rejected_elsewhere(self, option):
        assert named_config("did", n=50, **option).n == 50
        with pytest.raises(ValueError, match="only to the did model"):
            named_config("stm-exp", n=50, **option)

    def test_strictly_increasing(self):
        for name in ("did", "stm-exp", "stm-power"):
            gamma = gen_stm(named_config(name, n=50))[1].gamma_true
            grid = np.linspace(0.05, 3.0, 60) if name == "stm-exp" \
                else np.linspace(-3.0, 3.0, 60)
            assert np.all(np.diff(gamma(grid)) > 0)

    def test_multiplicative_effect_truth_by_monte_carlo(self):
        cfg = StmConfig(n=200, effect=1.5, effect_kind="multiplicative",
                        k1_intercept=1.0, seed=3, mc_size=200_000)
        _, truth = gen_stm(cfg)
        # Treated untreated-outcome mean is 1 (independent assignment), so
        # the contrast is about 0.5.
        assert truth.att_true == pytest.approx(0.5, abs=0.02)


class TestGenDid:
    def test_null_truth(self):
        assert gen_did(100, c=0.0, delta=0.0)[1].att_true == 0.0

    def test_construction_moments(self):
        data, truth = gen_did(100_000, c=1.0, delta=2.0, seed=5)
        assert truth.att_true == 2.0
        ctrl = data.a == 0
        assert np.mean(data.y1[ctrl] - data.y0[ctrl]) == pytest.approx(1.0, abs=0.05)
        treated = data.a == 1
        did = np.mean(data.y1[treated] - data.y0[treated]) - np.mean(
            data.y1[ctrl] - data.y0[ctrl])
        assert did == pytest.approx(2.0, abs=0.05)

    def test_seeded_determinism(self):
        d1, _ = gen_did(500, seed=9)
        d2, _ = gen_did(500, seed=9)
        assert np.array_equal(d1.y0, d2.y0)
        assert np.array_equal(d1.y1, d2.y1)
        assert np.array_equal(d1.a, d2.a)
        d3, _ = gen_did(500, seed=10)
        assert not np.array_equal(d1.y0, d3.y0)

    def test_bad_pi_rejected(self):
        with pytest.raises(ValueError):
            did_config(100, pi=1.0)


class TestStmConfigValidation:
    def test_positivity_bound(self):
        with pytest.raises(ValueError):
            StmConfig(n=100, q=1, m_coeffs=(1.0,), treat_u=(5.0,))

    def test_coefficient_lengths(self):
        with pytest.raises(ValueError):
            StmConfig(n=100, p=2, q=1)

    @pytest.mark.parametrize("values,match", [
        ({"q": 2}, "length q"),
        ({"p": 1, "k0_coef": (0.0,), "k1_coef": (0.0,)}, "treat_l must have length p"),
        ({"eps_sigma": 0.0}, "eps_sigma must be positive"),
        ({"effect_kind": "log"}, "additive or multiplicative"),
        ({"effect_kind": "multiplicative", "effect": 0.0}, "multiplicative effect"),
    ], ids=["q", "treat-l", "eps-sigma", "effect-kind", "multiplicative-effect"])
    def test_inconsistent_settings_rejected(self, values, match):
        with pytest.raises(ValueError, match=match):
            StmConfig(n=100, **values)

    def test_unknown_model_name_rejected(self):
        with pytest.raises(ValueError, match="unknown DGP name 'stm-nope'"):
            named_config("stm-nope")

    def test_dict_round_trip(self):
        cfg = named_config("stm-power", n=321, seed=4)
        assert StmConfig.from_dict(cfg.to_dict()) == cfg


class TestLogisticLink:
    """The link and its inverse, written without scipy, against scipy."""

    def test_logit_is_bit_identical_to_scipy(self):
        grid = list(np.linspace(1e-9, 1.0 - 1e-9, 20_001))
        for edge in (0.3, 0.5, 0.65):
            grid += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
        grid += [5e-324, 2.0 ** -53, 1.0 - 2.0 ** -53]
        got = np.array([logit(float(x)) for x in grid])
        assert_array_equal(got.view(np.int64), special.logit(np.array(grid)).view(np.int64))

    def test_expit_within_2_ulp_of_scipy(self):
        # Past |x| = 36 the value is below 1e-16 and the two can differ
        # by a few more ulp; the analytic odds clip it at 1e-12 anyway.
        x = np.concatenate([np.linspace(-36.0, 36.0, 200_001),
                            np.random.default_rng(0).uniform(-36.0, 36.0, 100_000)])
        want = special.expit(x)
        assert np.all(np.abs(expit(x) - want) <= 2.0 * np.spacing(want))
        assert expit(-800.0) == 0.0 and expit(800.0) == 1.0


class TestTrueNuisances:
    def test_independence_constant_odds(self):
        cfg = did_config(100, pi=0.25)
        eta = true_nuisances(cfg)
        assert eta.pi == pytest.approx(0.25)
        assert eta.nu(0.0) == pytest.approx(0.25 / 0.75)

    def test_balanced_independence_unit_odds(self):
        eta = true_nuisances(did_config(100, pi=0.5))
        assert isinstance(eta.nu, ConstantNu)
        assert eta.nu(3.7) == pytest.approx(1.0)

    def test_true_pi_matches_sample_frequency(self):
        cfg = named_config("stm-exp", n=400_000, seed=21)
        data, _ = gen_stm(cfg)
        assert data.a.mean() == pytest.approx(true_pi(cfg), abs=0.005)

    def test_analytic_odds_match_sample_regression(self):
        # Binned empirical odds of the generated data against the
        # posterior-integral odds.
        cfg = named_config("stm-exp", n=400_000, seed=22)
        data, truth = gen_stm(cfg)
        eta = true_nuisances(cfg)
        x = truth.gamma_true(data.y0)
        edges = np.quantile(x, np.linspace(0.1, 0.9, 9))
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (x >= lo) & (x < hi)
            emp = data.a[sel].mean()
            center = 0.5 * (lo + hi)
            model = eta.nu(center) / (1.0 + eta.nu(center))
            assert abs(emp - model) < 0.02

    # Only the Monte Carlo route draws: elsewhere its size and seed would
    # do nothing.
    @pytest.mark.parametrize("kwargs,match", [
        ({"method": "exact"}, "method must be auto or mc"),
        ({"mc_size": 5}, "apply only to method mc"),
        ({"seed": 9}, "apply only to method mc"),
        ({"mc_size": 5, "seed": 0}, "apply only to method mc"),
    ], ids=["bad-method", "auto-mc-size", "auto-seed", "auto-both"])
    def test_bad_method_or_options_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            true_nuisances(named_config("stm-cov"), **kwargs)

    def test_mc_oracle_seed_defaults_to_zero(self):
        cfg = named_config("stm-exp", n=100)
        default = true_nuisances(cfg, method="mc", mc_size=500).nu
        assert_array_equal(default.z, true_nuisances(cfg, method="mc", mc_size=500, seed=0).nu.z)

    def test_mc_oracle_self_consistency(self):
        cfg = named_config("stm-exp", n=100)
        nu1 = true_nuisances(cfg, method="mc", mc_size=4_000_000, seed=1).nu
        nu2 = true_nuisances(cfg, method="mc", mc_size=4_000_000, seed=2).nu
        grid = np.exp(np.linspace(-0.3, 1.7, 9))
        v1 = nu1(grid)
        v2 = nu2(grid)
        assert np.all(np.abs(v1 / v2 - 1.0) < 0.02)

    @pytest.mark.parametrize("name", ["stm-exp", "stm-cov"])
    def test_mc_oracle_is_the_odds_fitted_at_wider_bandwidths(self, name):
        cfg = named_config(name, n=100)
        nu = true_nuisances(cfg, method="mc", mc_size=3000, seed=3).nu
        assert isinstance(nu, NuFn) and nu.eps_clip == 1e-6 and nu.p == cfg.p
        assert_array_equal(nu.h, 1.5 * _bandwidth_vector(nu.z, None))
        # The clipped Nadaraya-Watson odds, bit for bit.
        rng = np.random.default_rng(4)
        x = np.exp(rng.normal(0.3, 0.5, 50)) if name == "stm-exp" else rng.normal(1.0, 1.5, 50)
        l = rng.standard_normal((50, cfg.p))
        pr = np.clip(_nw_mean(np.column_stack([x, l]), nu.z, nu.a, nu.h, float(nu.a.mean())),
                     1e-6, 1.0 - 1e-6)
        assert_array_equal(nu(x, l), pr / (1.0 - pr))

    def test_mc_oracle_matches_analytic(self):
        cfg = named_config("stm-exp", n=100)
        nu_mc = true_nuisances(cfg, method="mc", mc_size=1_000_000, seed=3).nu
        nu_an = true_nuisances(cfg).nu
        grid = np.exp(np.linspace(-0.3, 1.7, 9))
        assert np.all(np.abs(nu_mc(grid) / nu_an(grid) - 1.0) < 0.03)


class TestQqInvariance:
    def test_shipped_configs_are_invariant(self):
        for name in ("did", "stm-exp", "stm-power", "stm-cov"):
            dev = qq_invariance_diagnostic(named_config(name, n=100))
            assert dev <= 1e-10, name

    def test_broken_config_detected(self):
        dev = qq_invariance_diagnostic(named_config("stm-broken", n=100))
        assert dev > 0.1

    def test_identity_transform_when_periods_match(self):
        cfg = StmConfig(n=100, k0_intercept=0.4, k1_intercept=0.4)
        y = np.linspace(-2, 2, 21)
        for u in (-1.0, 0.0, 2.0):
            assert_allclose(qq_transform(cfg, u, y), y, atol=1e-10)


class TestBridgeProperty:
    def test_transported_controls_match_period1_law(self):
        # The transported baseline outcomes of controls share the
        # distribution of their period-1 outcomes.
        for name in ("did", "stm-exp"):
            cfg = named_config(name, n=10_000, seed=13)
            data, truth = gen_stm(cfg)
            ctrl = data.a == 0
            transported = truth.gamma_true(data.y0[ctrl])
            stat = ks_2samp(transported, data.y1[ctrl]).statistic
            n1 = n2 = int(ctrl.sum())
            critical = 1.6276 * np.sqrt((n1 + n2) / (n1 * n2))
            assert stat <= critical, name

    def test_broken_config_fails_bridge(self):
        cfg = named_config("stm-broken", n=10_000, seed=13)
        data, truth = gen_stm(cfg)
        ctrl = data.a == 0
        transported = truth.gamma_true(data.y0[ctrl])
        stat = ks_2samp(transported, data.y1[ctrl]).statistic
        n1 = n2 = int(ctrl.sum())
        assert stat > 1.6276 * np.sqrt((n1 + n2) / (n1 * n2))
