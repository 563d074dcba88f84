import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cicdml import nuisance
from cicdml.errors import DegenerateArm, InsufficientData
from cicdml.nuisance import (
    KERNELS,
    _product_weights,
    compose_gamma,
    estimate_pi,
    fit_cond_cdf,
    fit_cond_quantile,
    fit_density,
    fit_nu,
    integrate_nu_many,
)


def _einsum_weights(query, train, h, kernel):
    """The product-kernel formulas the per-coordinate loop replaced: one
    coordinate directly, several through a (Q, m, d) tensor."""
    d = train.shape[1]
    if d == 1:
        u = (query[:, 0, None] - train[None, :, 0]) / h[0]
        if kernel == "gaussian":
            u *= u
            u *= -0.5
            return np.exp(u, out=u)
        w = 1.0 - u * u
        np.clip(w, 0.0, None, out=w)
        return 0.75 * w
    u = (query[:, None, :] - train[None, :, :]) / h
    if kernel == "gaussian":
        return np.exp(-0.5 * np.einsum("qmd,qmd->qm", u, u))
    w = 1.0 - u * u
    np.clip(w, 0.0, None, out=w)
    return 0.75 ** d * w.prod(axis=2)


class TestProductWeights:
    @staticmethod
    def draw(d, seed=21):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((37, d)), rng.standard_normal((53, d)),
                rng.uniform(1.0, 2.5, d))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_one_coordinate_is_bit_identical(self, kernel):
        query, train, h = self.draw(1)
        assert_array_equal(_product_weights(query, train, h, kernel),
                           _einsum_weights(query, train, h, kernel))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_several_coordinates_match_the_tensor_formula(self, kernel, d):
        query, train, h = self.draw(d)
        got = _product_weights(query, train, h, kernel)
        want = _einsum_weights(query, train, h, kernel)
        assert (want > 0).mean() > 0.2
        assert_array_equal(got == 0, want == 0)
        pos = want > 0
        rtol = np.full(pos.sum(), 1e-15)
        if kernel == "gaussian":
            # The squared distances may be summed in another order, and
            # exp scales their rounding by the exponent -log(w).
            rtol *= 1.0 - np.log(want[pos])
        assert (np.abs(got[pos] / want[pos] - 1.0) <= rtol).all()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_no_coordinates_gives_ones(self, kernel):
        w = _product_weights(np.empty((4, 0)), np.empty((6, 0)), np.empty(0), kernel)
        assert_array_equal(w, np.ones((4, 6)))


class TestCondCdf:
    def test_empirical_cdf_at_sample_point(self):
        cdf = fit_cond_cdf(np.array([1.0, 2.0, 3.0]))
        assert cdf(2.0) == pytest.approx(2.0 / 3.0)

    def test_empirical_cdf_below_min(self):
        cdf = fit_cond_cdf(np.array([1.0, 2.0, 3.0]))
        assert cdf(0.5) == 0.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_cond_cdf(np.array([1.0]))

    def test_conditional_median_recovered(self):
        # Y | L = l is Normal(l, 1), so F(l | l) = 1/2.
        rng = np.random.default_rng(101)
        n = 10_000
        l = rng.standard_normal((n, 1))
        y = l[:, 0] + rng.standard_normal(n)
        cdf = fit_cond_cdf(y, l)
        for point in (-1.0, 0.0, 1.0):
            got = cdf(point, np.array([point]))
            assert abs(got - 0.5) < 0.05

    def test_monotone_in_y_for_fixed_l(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(300)
        l = rng.standard_normal((300, 2))
        cdf = fit_cond_cdf(y, l)
        grid = np.linspace(y.min(), y.max(), 64)
        vals = cdf.evaluate_many(grid, np.broadcast_to([0.2, -0.4], (64, 2)))
        assert np.all(np.diff(vals) >= 0)
        assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestCondQuantile:
    def test_empirical_quantile(self):
        q = fit_cond_quantile(np.array([10.0, 20.0, 30.0]))
        assert q(2.0 / 3.0) == 20.0

    def test_boundary_clamp(self):
        q = fit_cond_quantile(np.array([10.0, 20.0, 30.0]))
        assert q(1.0) == 30.0
        assert q(0.0) == 10.0

    def test_conditional_median_recovered(self):
        # Y | L = l is Normal(2 l, 1): the conditional median is 2 l.
        rng = np.random.default_rng(202)
        n = 10_000
        l = rng.standard_normal((n, 1))
        y = 2.0 * l[:, 0] + rng.standard_normal(n)
        q = fit_cond_quantile(y, l)
        for point in (-1.0, 0.0, 1.0):
            got = q(0.5, np.array([point]))
            assert abs(got - 2.0 * point) < 0.1

    def test_round_trip_on_small_sample(self):
        y = np.array([1.0, 2.0, 3.0])
        cdf = fit_cond_cdf(y)
        q = fit_cond_quantile(y)
        # Q(F(y)) maps each point within a flat step back to the step's
        # upper sample point.
        for probe, expected in [(1.0, 1.0), (1.5, 1.0), (2.0, 2.0), (2.9, 2.0), (3.0, 3.0)]:
            assert q(cdf(probe)) == expected


def _loop_quantile(q, u, l):
    """Conditional quantile by the per-row searchsorted loop."""
    cum = np.cumsum(q.cdf._weights(l), axis=1)
    total = cum[:, -1]
    cum /= np.where(total > 1e-300, total, 1.0)[:, None]
    target = u * (1.0 - 1e-12)
    rows = [np.searchsorted(cum[i], target[i], side="left") for i in range(u.shape[0])]
    return q.cdf.y_sorted[np.clip(rows, 0, q.cdf.m - 1)]


def _u_hitting(c):
    """A level u whose search target u (1 - 1e-12) equals c exactly."""
    u = c / (1.0 - 1e-12)
    for _ in range(16):
        t = u * (1.0 - 1e-12)
        if t == c:
            return u
        u = np.nextafter(u, np.inf if t < c else -np.inf)
    raise AssertionError(f"no level hits {c!r}")


class TestCondQuantileCount:
    """The vectorised count equals the per-row search it replaced."""

    @pytest.fixture
    def quantile(self):
        rng = np.random.default_rng(31)
        y = np.round(rng.standard_normal(120), 1)          # tied outcomes
        l = rng.standard_normal((120, 2))
        return fit_cond_quantile(y, l)

    def test_interior_and_boundary_levels(self, quantile):
        rng = np.random.default_rng(32)
        u = np.concatenate([rng.uniform(size=40), [0.0, 1.0, 0.0, 1.0]])
        l = rng.standard_normal((u.shape[0], 2))
        assert np.unique(quantile.cdf.y_sorted).size < quantile.cdf.m
        assert_array_equal(quantile.evaluate_many(u, l), _loop_quantile(quantile, u, l))

    def test_rows_without_weight(self, quantile):
        u = np.array([0.0, 0.3, 0.5, 1.0])
        l = np.full((4, 2), 1e3)
        assert (quantile.cdf._weights(l).sum(axis=1) <= 1e-300).all()
        got = quantile.evaluate_many(u, l)
        assert_array_equal(got, _loop_quantile(quantile, u, l))
        assert got[0] == quantile.cdf.y_sorted[0] and got[-1] == quantile.cdf.y_sorted[-1]

    def test_targets_equal_to_a_cumulative_weight(self, quantile):
        l = np.zeros((6, 2))
        cum = np.cumsum(quantile.cdf._weights(l[:1])[0])
        cum /= cum[-1]
        picks = cum[[3, 17, 40, 41, 90, 110]]
        u = np.array([_u_hitting(c) for c in picks])
        assert_array_equal(u * (1.0 - 1e-12), picks)
        assert_array_equal(quantile.evaluate_many(u, l), _loop_quantile(quantile, u, l))


class TestGammaMap:
    def test_hand_composed_transport(self):
        cdf = fit_cond_cdf(np.array([1.0, 2.0, 3.0]))
        quant = fit_cond_quantile(np.array([10.0, 20.0, 30.0]))
        gamma = compose_gamma(cdf, quant)
        assert gamma(2.0) == 20.0

    def test_identity_transport(self):
        y = np.array([0.4, 1.3, 2.2, 5.0])
        gamma = compose_gamma(fit_cond_cdf(y), fit_cond_quantile(y))
        assert_allclose(gamma(y), y)

    def test_shift_transport(self):
        rng = np.random.default_rng(11)
        y0 = rng.standard_normal(500)
        gamma = compose_gamma(fit_cond_cdf(y0), fit_cond_quantile(y0 + 5.0))
        inner = np.sort(y0)[25:-25]
        assert_allclose(gamma(inner), inner + 5.0, atol=1e-12)

    def test_monotone_transform_equivariance(self):
        rng = np.random.default_rng(12)
        y0 = rng.standard_normal(200)
        y1 = rng.standard_normal(200) + 1.0
        gamma = compose_gamma(fit_cond_cdf(y0), fit_cond_quantile(y1))
        for T in (np.exp, lambda x: x ** 3 + x, lambda x: 2.5 * x - 1.0):
            gamma_t = compose_gamma(fit_cond_cdf(T(y0)), fit_cond_quantile(T(y1)))
            assert_allclose(gamma_t(T(y0)), T(gamma(y0)), rtol=0, atol=0)

    def test_monotone_in_y(self):
        rng = np.random.default_rng(13)
        y0 = rng.standard_normal(150)
        y1 = np.exp(rng.standard_normal(150))
        l = rng.standard_normal((150, 1))
        gamma = compose_gamma(fit_cond_cdf(y0, l), fit_cond_quantile(y1, l))
        grid = np.linspace(-2.5, 2.5, 80)
        vals = gamma.evaluate_many(grid, np.broadcast_to([0.3], (80, 1)))
        assert np.all(np.diff(vals) >= 0)

    def test_dimension_mismatch_rejected(self):
        cdf = fit_cond_cdf(np.array([1.0, 2.0]), np.array([[0.0], [1.0]]))
        quant = fit_cond_quantile(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            compose_gamma(cdf, quant)


class TestNuFn:
    def test_independent_treatment_gives_unit_odds(self):
        rng = np.random.default_rng(303)
        n = 10_000
        x = rng.standard_normal(n)
        a = (rng.uniform(size=n) < 0.5).astype(int)
        nu = fit_nu(x, None, a)
        lo, hi = np.quantile(x, [0.15, 0.85])
        grid = np.linspace(lo, hi, 9)
        vals = nu(grid)
        assert np.all(np.abs(vals - 1.0) < 0.15)

    def test_clipping_arithmetic(self):
        # Treated cluster far from the lone control: the fitted propensity
        # saturates and is clipped, so the odds hit (1 - eps) / eps.
        x = np.concatenate([np.zeros(99), [10.0]])
        a = np.concatenate([np.ones(99, dtype=int), [0]])
        nu = fit_nu(x, None, a, bandwidth=0.5, eps_clip=0.01)
        assert nu(0.0) == pytest.approx(0.99 / 0.01)

    def test_logistic_odds_recovered(self):
        rng = np.random.default_rng(404)
        n = 10_000
        x = rng.standard_normal(n)
        a = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-x))).astype(int)
        nu = fit_nu(x, None, a)
        grid = np.linspace(-1.0, 1.0, 9)
        vals = nu(grid)
        assert np.all(np.abs(vals / np.exp(grid) - 1.0) < 0.2)

    def test_values_respect_clip_bounds(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        a = (rng.uniform(size=200) < 0.2).astype(int)
        nu = fit_nu(x, None, a, eps_clip=0.05)
        vals = nu(np.linspace(-30, 30, 101))
        assert vals.min() >= 0.05 / 0.95 - 1e-12
        assert vals.max() <= 0.95 / 0.05 + 1e-12

    def test_degenerate_arm_rejected(self):
        with pytest.raises(DegenerateArm):
            fit_nu(np.arange(5.0), None, np.ones(5, dtype=int))

    def test_integral_matches_direct_quadrature(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(400)
        a = (rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-x))).astype(int)
        nu = fit_nu(x, None, a)
        lo = np.array([-1.0, 0.5, 1.2])
        hi = np.array([0.7, 0.5, -0.8])
        fast = nu.integral_many(lo, hi, None)
        from scipy.integrate import quad
        for j in range(3):
            direct = quad(lambda t: nu(t), lo[j], hi[j], limit=200)[0]
            assert fast[j] == pytest.approx(direct, abs=5e-5)


class TestFactorisedOddsIntegral:
    """NuFn.integral_many with covariates against generic Simpson over
    the odds evaluated at every node."""

    @staticmethod
    def fitted(p, kernel, eps_clip=0.01, m=300, seed=41):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(m)
        l = rng.standard_normal((m, p))
        score = 1.5 * x + l.sum(axis=1)
        a = (rng.uniform(size=m) < 1.0 / (1.0 + np.exp(-score))).astype(int)
        return fit_nu(x, l, a, kernel=kernel, eps_clip=eps_clip), rng

    @staticmethod
    def generic(nu, lo, hi, l):
        return integrate_nu_many(lo, hi, l, nu.__call__)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_generic_simpson(self, p, kernel):
        nu, rng = self.fitted(p, kernel)
        lo = rng.uniform(-2.0, 1.0, 25)
        hi = lo + rng.uniform(-1.5, 2.0, 25)
        hi[:3] = lo[:3]
        l = rng.standard_normal((25, p))
        got = nu.integral_many(lo, hi, l)
        assert_allclose(got, self.generic(nu, lo, hi, l), rtol=1e-12, atol=0)
        assert_array_equal(got[:3], 0.0)
        assert (got[hi < lo] < 0).all() and (got[hi > lo] > 0).all()
        assert_allclose(nu.integral_many(hi, lo, l), -got, rtol=1e-12, atol=0)
        assert_allclose(nu.integral_many(hi, lo, l), self.generic(nu, hi, lo, l),
                        rtol=1e-12, atol=0)

    @pytest.mark.parametrize("budget", [3000, 300_000])
    def test_chunking_does_not_change_the_result(self, monkeypatch, budget):
        # 3000 elements split one interval's nodes into pieces of 10 rows;
        # 300_000 fit three whole intervals per chunk.
        nu, rng = self.fitted(2, "gaussian")
        lo = rng.uniform(-2.0, 1.0, 7)
        hi = lo + rng.uniform(-1.5, 2.0, 7)
        l = rng.standard_normal((7, 2))
        want = nu.integral_many(lo, hi, l)
        monkeypatch.setattr(nuisance, "_CHUNK_BUDGET", budget)
        # Products of other shapes may round differently in the last bit.
        assert_allclose(nu.integral_many(lo, hi, l), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_input(self, kernel):
        nu, _ = self.fitted(2, kernel)
        assert nu.integral_many(np.zeros(0), np.zeros(0), np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("p", [1, 2])
    def test_rows_far_from_the_data_use_the_mean(self, p, kernel):
        nu, _ = self.fitted(p, kernel)
        lo, hi = np.array([-1.0, 0.5]), np.array([1.0, -0.25])
        l = np.full((2, p), 1e3)
        pr = np.clip(nu.a.mean(), nu.eps_clip, 1.0 - nu.eps_clip)
        got = nu.integral_many(lo, hi, l)
        assert_allclose(got, self.generic(nu, lo, hi, l), rtol=1e-12, atol=0)
        assert_allclose(got, pr / (1.0 - pr) * (hi - lo), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("p", [1, 2])
    def test_rows_where_the_clip_binds(self, p, kernel):
        # Arms split on x alone, with covariate windows wide enough that
        # every node has neighbours, so the propensity is 0 or 1 away
        # from x = 0 and the clip binds.
        rng = np.random.default_rng(42)
        x = rng.uniform(-3.0, 3.0, 400)
        l = rng.uniform(-1.0, 1.0, (400, p))
        a = (x > 0.0).astype(int)
        nu = fit_nu(x, l, a, kernel=kernel, bandwidth=[0.3] + [1.0] * p, eps_clip=0.05)
        lo, hi = np.array([1.0, -1.0]), np.array([2.0, -2.0])
        lq = np.zeros((2, p))
        got = nu.integral_many(lo, hi, lq)
        assert_allclose(got, self.generic(nu, lo, hi, lq), rtol=1e-12, atol=0)
        assert_allclose(got, np.array([0.95 / 0.05, 0.05 / 0.95]) * (hi - lo),
                        rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_peak_memory_stays_bounded(self, kernel):
        # Peaks near 16 MiB. A (Q, m, d) weight tensor peaked at 367 MiB
        # (Gaussian) and 550 MiB (Epanechnikov), and 8M-element chunks of
        # node weights at 63 MiB.
        nu, rng = self.fitted(2, kernel, m=800)
        lo = rng.uniform(-2.0, 1.0, 40)
        hi = lo + rng.uniform(0.5, 2.0, 40)
        l = rng.standard_normal((40, 2))
        tracemalloc.start()
        try:
            nu.integral_many(lo, hi, l)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestEstimatePi:
    def test_half(self):
        assert estimate_pi(np.array([1, 0, 1, 0])) == 0.5

    def test_quarter(self):
        assert estimate_pi(np.array([1, 0, 0, 0])) == 0.25

    def test_degenerate(self):
        with pytest.raises(DegenerateArm):
            estimate_pi(np.ones(4, dtype=int))


class TestDensityFn:
    def test_standard_normal_mode(self):
        rng = np.random.default_rng(505)
        dens = fit_density(rng.standard_normal(10_000))
        assert dens(0.0) == pytest.approx(0.3989, abs=0.05)

    def test_uniform_density(self):
        rng = np.random.default_rng(506)
        dens = fit_density(rng.uniform(size=10_000))
        assert dens(0.5) == pytest.approx(1.0, abs=0.15)

    def test_floor_far_from_data(self):
        dens = fit_density(np.array([0.0, 0.1, 0.2]), f_min=1e-3)
        assert dens(1e6) == 1e-3

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            fit_density(np.array([1.0]))
