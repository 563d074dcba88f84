import ast
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from cicdml import nuisance
from cicdml.dgp import (
    AnalyticGamma,
    GaussHermiteNu,
    StmConfig,
    TransformSpec,
    named_config,
    true_nuisances,
)
from cicdml.errors import DegenerateArm, InsufficientData, NonBinaryTreatment
from cicdml.nuisance import (
    ODDS_SCALES,
    CondCdf,
    CondQuantile,
    GammaMap,
    QUANTILE_SLACK,
    _bandwidth_vector,
    _expanded_sq_distances,
    _nw_mean,
    _product_weights,
    _sq_distances,
    estimate_pi,
    fit_cond_cdf,
    fit_cond_quantile,
    fit_density,
    fit_gamma,
    fit_nu,
    silverman_bandwidth,
)


def _einsum_weights(query, train, h):
    """The product-kernel formula the per-coordinate loop replaced: one
    coordinate directly, several through a (Q, m, d) tensor."""
    if train.shape[1] == 1:
        u = (query[:, 0, None] - train[None, :, 0]) / h[0]
        u *= u
        u *= -0.5
        return np.exp(u, out=u)
    u = (query[:, None, :] - train[None, :, :]) / h
    return np.exp(-0.5 * np.einsum("qmd,qmd->qm", u, u))


# Ids of the tests that check the product kernel name it: every kernel
# weight in the package is the Gaussian one.
GAUSSIAN_KERNEL = pytest.mark.parametrize("kernel", ["gaussian"])
# Laws of the training x, named by their densities.
X_LAWS = pytest.mark.parametrize("law", ["gaussian", "epanechnikov"])


class TestProductWeights:
    @staticmethod
    def draw(d, seed=21):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((37, d)), rng.standard_normal((53, d)),
                rng.uniform(1.0, 2.5, d))

    @GAUSSIAN_KERNEL
    def test_one_coordinate_is_bit_identical(self, kernel):
        query, train, h = self.draw(1)
        assert_array_equal(_product_weights(query, train, h), _einsum_weights(query, train, h))

    @GAUSSIAN_KERNEL
    @pytest.mark.parametrize("d", [2, 3])
    def test_several_coordinates_match_the_tensor_formula(self, kernel, d):
        query, train, h = self.draw(d)
        got = _product_weights(query, train, h)
        want = _einsum_weights(query, train, h)
        assert (want > 0).mean() > 0.2
        assert_array_equal(got == 0, want == 0)
        pos = want > 0
        # The squared distances may be summed in another order, and exp
        # scales their rounding by the exponent -log(w).
        rtol = 1e-15 * (1.0 - np.log(want[pos]))
        assert (np.abs(got[pos] / want[pos] - 1.0) <= rtol).all()

    @GAUSSIAN_KERNEL
    def test_no_coordinates_gives_ones(self, kernel):
        w = _product_weights(np.empty((4, 0)), np.empty((6, 0)), np.empty(0))
        assert_array_equal(w, np.ones((4, 6)))


class TestExpandedSqDistances:
    """The product form |q|^2 + |t|^2 - 2 q.t of the summed squared
    distances, on centred and scaled coordinates, against the direct
    per-coordinate sum."""

    @staticmethod
    def bound(query, train, h, c=8.0):
        # Each of the d + 2 products and sums rounds by eps of the sum of
        # the absolute terms, at most 2 (|qs|^2 + |ts|^2); the direct sum
        # rounds by eps of D, which is smaller.
        centre = train.mean(axis=0)
        qs = ((query - centre) / h) ** 2
        ts = ((train - centre) / h) ** 2
        size = qs.sum(axis=1)[:, None] + ts.sum(axis=1)[None, :]
        return c * (train.shape[1] + 2) * np.finfo(float).eps * (1.0 + size)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_within_the_rounding_of_the_product(self, d, offset):
        rng = np.random.default_rng(40 + d)
        train = rng.standard_normal((80, d)) + offset
        h = rng.uniform(0.2, 1.5, d)
        # Rows inside the data, far beyond it, and on training rows.
        far = rng.standard_normal((6, d))
        far += 40.0 * np.sign(far)
        query = np.concatenate([rng.standard_normal((30, d)), far, train[:5] - offset]) + offset
        got = _expanded_sq_distances(train, h)(query)
        want = _sq_distances(query, train, h)
        assert got.shape == want.shape == (41, 80)
        assert (np.abs(got - want) <= self.bound(query, train, h)).all()
        assert want[:30].max() > 1.0 and want[30:36].min() > 100.0

    def test_clamped_at_zero_and_written_into_out(self):
        # A query on a training row is 0 up to rounding, never below it,
        # though the unclamped product rounds some of them below 0.
        rng = np.random.default_rng(44)
        train = 3.0 + rng.standard_normal((200, 3))
        h = np.array([0.1, 0.2, 0.05])
        qs = (train - train.mean(axis=0)) / h
        sq = np.einsum("ij,ij->i", qs, qs)
        raw = np.column_stack([-2.0 * qs, sq, np.ones(200)]) @ np.vstack([qs.T, np.ones(200), sq])
        assert (np.diag(raw) < 0.0).any()
        out = np.full((200, 200), np.nan)
        got = _expanded_sq_distances(train, h)(train, out=out)
        assert got is out
        assert (got >= 0.0).all()
        assert (np.diag(got) <= self.bound(train, train, h).diagonal()).all()

    def test_no_coordinates_gives_zeros(self):
        got = _expanded_sq_distances(np.empty((6, 0)), np.empty(0))(np.empty((4, 0)))
        assert_array_equal(got, np.zeros((4, 6)))


class TestChunks:
    """nuisance._chunks, the row slices of every chunked pass."""

    @pytest.mark.parametrize("n, width, budget", [
        (0, 5, 100), (1, 5, 1), (10, 3, 9), (10, 3, 10), (7, 50, 100), (12, 1, 4), (3, 0, 2)])
    def test_slices_cover_the_rows_once_in_order(self, monkeypatch, n, width, budget):
        monkeypatch.setattr(nuisance, "_CHUNK_BUDGET", budget)
        parts = [range(n)[sl] for sl in nuisance._chunks(n, width)]
        assert [i for part in parts for i in part] == list(range(n))
        assert all(0 < len(part) <= max(1, budget // max(width, 1)) for part in parts)

    @pytest.mark.parametrize("kind", [
        "_nw_mean", "CondCdf", "CondQuantile", "DensityFn", "GaussHermiteNu", "_node_sums"])
    def test_one_row_chunks_equal_one_chunk(self, monkeypatch, kind):
        # At a budget of one element every chunk is one row (one node for
        # the x-weight blocks); the default takes all 40 in one chunk. Bit
        # for bit where no matrix product sums a row.
        rng = np.random.default_rng(72)
        y = np.round(rng.standard_normal(200), 1)
        l = rng.standard_normal((200, 2))
        a = (rng.uniform(size=200) < 0.4).astype(float)
        q, u, lq = rng.standard_normal(40), rng.uniform(size=40), rng.standard_normal((40, 2))
        z, zq = np.column_stack([y, l]), np.column_stack([q, lq])
        fitted = {"CondCdf": fit_cond_cdf(y, l), "CondQuantile": fit_cond_quantile(y, l),
                  "DensityFn": fit_density(y), "NuFn": fit_nu(y, l, a),
                  "GaussHermiteNu": GaussHermiteNu(named_config("stm-cov"))}
        run = {
            "_nw_mean": lambda: _nw_mean(zq, z, a, _bandwidth_vector(z, None), 0.4),
            "CondCdf": lambda: fitted["CondCdf"](q, lq),
            "CondQuantile": lambda: fitted["CondQuantile"](u, lq),
            "DensityFn": lambda: fitted["DensityFn"](q),
            "GaussHermiteNu": lambda: fitted["GaussHermiteNu"](q, lq),
            "_node_sums": lambda: fitted["NuFn"]._node_sums(np.linspace(-2.0, 2.0, 40), lq[:3]),
        }[kind]
        want = run()
        monkeypatch.setattr(nuisance, "_CHUNK_BUDGET", 1)
        got = run()
        if kind in ("_nw_mean", "GaussHermiteNu", "_node_sums"):
            # A one-row matrix product takes another BLAS kernel than a
            # many-row one, which may round differently: measured at most
            # 4 ulps.
            assert_allclose(got, want, rtol=4e-15, atol=0)
        else:
            assert got.tobytes() == want.tobytes()

    def test_the_budget_is_read_only_in_chunks(self):
        # Every chunked pass of the package takes its slices from _chunks:
        # no other code reads _CHUNK_BUDGET or loops range(0, n, step).
        found = []
        for path in sorted(Path(nuisance.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            inside = set()
            if path.name == "nuisance.py":
                chunks = next(node for node in tree.body
                              if isinstance(node, ast.FunctionDef) and node.name == "_chunks")
                inside = {id(node) for node in ast.walk(chunks)}
            for node in ast.walk(tree):
                reads = (isinstance(node, ast.Name) and node.id == "_CHUNK_BUDGET"
                         and isinstance(node.ctx, ast.Load)
                         or isinstance(node, ast.Attribute) and node.attr == "_CHUNK_BUDGET"
                         or isinstance(node, ast.alias) and node.name == "_CHUNK_BUDGET")
                loops = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id == "range" and len(node.args) == 3
                         and isinstance(node.args[0], ast.Constant) and node.args[0].value == 0)
                if reads or loops:
                    found.append((path.name, node.lineno, id(node) in inside))
        assert [where for where in found if not where[2]] == []
        assert len(found) == 2      # the budget read and the loop in _chunks


class TestBandwidthRule:
    def test_zero_iqr_falls_back_to_the_sd(self):
        # 300 of 2000 ones: both quartiles are 0, so min(sd, IQR / 1.34)
        # is 0, and the sd rule gives 0.9 * 0.357 * 2000^(-1/5) = 0.070.
        x = np.zeros(2000)
        x[:300] = 1.0
        h = silverman_bandwidth(x)
        assert h == pytest.approx(0.9 * np.sqrt(0.15 * 0.85) * 2000 ** -0.2, rel=1e-12)
        # The two levels are 14 bandwidths apart: the strata do not pool.
        assert np.exp(-0.5 / h ** 2) < 1e-40

    @pytest.mark.parametrize("value,want", [(0.0, 1.0), (3.0, 1.0), (-5e3, 5.0)])
    def test_a_constant_column_keeps_a_positive_width(self, value, want):
        assert silverman_bandwidth(np.full(50, value)) == want

    def test_one_bandwidth_serves_any_column_count(self):
        for d in (0, 1, 3):
            assert_array_equal(_bandwidth_vector(np.zeros((5, d)), 0.4), np.full(d, 0.4))
        assert fit_cond_cdf(np.arange(4.0), None, bandwidth=0.4).h.shape == (0,)

    @pytest.mark.parametrize("bandwidth,match", [
        ([0.4, 0.4, 0.4], "length-2"), (np.ones((2, 2)), "length-2"),
        ([0.4, 0.0], "positive"), (-0.4, "positive"), ([0.4, -1.0], "positive"),
    ])
    def test_a_wrong_length_or_a_nonpositive_entry_is_rejected(self, bandwidth, match):
        with pytest.raises(ValueError, match=match):
            _bandwidth_vector(np.zeros((5, 2)), bandwidth)


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

    @pytest.mark.parametrize("p", [0, 2])
    def test_sorted_outcomes_and_rows_are_the_stable_take(self, p):
        # Integer-valued outcomes with many ties: the values sorted by
        # value, and the covariate rows in the stable order of y.
        rng = np.random.default_rng(8)
        y = rng.integers(-3, 4, 60).astype(float)
        l = rng.standard_normal((60, p))
        cdf = fit_cond_cdf(y, l)
        order = np.argsort(y, kind="stable")
        assert cdf.y_sorted.tobytes() == y[order].tobytes()
        assert cdf.l_by_y.shape == (60, p)
        assert cdf.l_by_y.tobytes() == l[order].tobytes()


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
    """Conditional quantile by the per-row searchsorted loop; a row
    without kernel weight takes the empirical quantile, sample
    ceil(u m - 1e-9) of m."""
    cum = np.cumsum(q.cdf._weights(l), axis=1)
    total = cum[:, -1]
    m = q.cdf.m
    rows = [np.searchsorted(cum[i] / total[i], u[i] * (1.0 - 1e-12), side="left")
            if total[i] > 1e-300 else int(np.ceil(u[i] * m - 1e-9)) - 1
            for i in range(u.shape[0])]
    return q.cdf.y_sorted[np.clip(rows, 0, m - 1)]


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
        # Beyond the kernel's reach the quantile is the one without
        # covariates, as the CDF there is the unweighted CDF; rows with
        # weight in the same call keep the weighted search.
        u = np.array([0.0, 0.3, 0.5, 1.0, 0.3, 0.5])
        l = np.full((6, 2), 1e3)
        l[4:] = 0.0
        assert (quantile.cdf._weights(l[:4]).sum(axis=1) <= 1e-300).all()
        got = quantile.evaluate_many(u, l)
        assert_array_equal(got, _loop_quantile(quantile, u, l))
        assert_array_equal(got[:4], fit_cond_quantile(quantile.cdf.y_sorted)(u[:4]))
        assert got[0] == quantile.cdf.y_sorted[0] and got[3] == quantile.cdf.y_sorted[-1]

    def test_targets_equal_to_a_cumulative_weight(self, quantile):
        l = np.zeros((6, 2))
        cum = np.cumsum(quantile.cdf._weights(l[:1])[0])
        cum /= cum[-1]
        picks = cum[[3, 17, 40, 41, 90, 110]]
        u = np.array([_u_hitting(c) for c in picks])
        assert_array_equal(u * (1.0 - 1e-12), picks)
        assert_array_equal(quantile.evaluate_many(u, l), _loop_quantile(quantile, u, l))


def _full_cumulative_cdf(cum, y_sorted, y):
    """F-hat at y_i from row i of the full-row cumulative weights cum, in
    y_sorted order: the reference the block sums replaced."""
    k = np.searchsorted(y_sorted, y, side="right")
    total = cum[:, -1]
    num = np.where(k > 0, cum[np.arange(cum.shape[0]), np.maximum(k - 1, 0)], 0.0)
    ok = total > 1e-300
    return np.where(ok, num / np.where(ok, total, 1.0), k / cum.shape[1])


def _full_cumulative_quantile(cum, y_sorted, u):
    """The quantile at u_i from row i of the full-row cumulative weights:
    the count of entries with cum / total below u_i (1 - QUANTILE_SLACK),
    the empirical quantile in rows without weight."""
    m = cum.shape[1]
    total = cum[:, -1]
    ok = total > 1e-300
    count = (cum / np.where(ok, total, 1.0)[:, None]
             < (u * (1.0 - QUANTILE_SLACK))[:, None]).sum(axis=1)
    unweighted = y_sorted[np.clip(np.ceil(u * m - 1e-9).astype(int) - 1, 0, m - 1)]
    return np.where(ok, y_sorted[np.minimum(count, m - 1)], unweighted)


class TestBlockReaders:
    """CondCdf, CondQuantile and the map read the running weight sums
    through block sums and one block's scan; against the full-row
    cumulative sums they replaced. The quantile and the map agree bit for
    bit; the CDF's value is a ratio of sums taken in another order, so it
    agrees within their rounding, and reads exactly 1 from the last rank
    on."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 63, 64, 65, 127, 128, 129, 300]),
           st.integers(1, 3), st.sampled_from([0, 1, 3]), st.sampled_from([1000, 1 << 20]))
    def test_equal_the_full_cumulative_sums(self, seed, m, p, decimals, budget):
        # Tied outcomes (rounded to decimals), query outcomes on the
        # controls' and beyond both ends, query rows near the controls and
        # beyond the kernels' reach; levels 0, below 0, 1, above 1,
        # random, and at the running share of a block's last entry.
        rng = np.random.default_rng(seed)
        y0 = np.round(rng.standard_normal(m), decimals)
        y1 = np.round(y0 + rng.standard_normal(m), decimals)
        l = rng.standard_normal((m, p))
        k = 40
        yq = np.concatenate([rng.standard_normal(k - 8), rng.choice(y0, 6), [-9.0, 9.0]])
        lq = np.concatenate([rng.standard_normal((k - 5, p)), l[rng.integers(0, m, 5)]])
        lq[rng.uniform(size=k) < 0.1] = 80.0
        with mock.patch.object(nuisance, "_CHUNK_BUDGET", budget):
            gamma = fit_gamma(y0, y1, l)
            cdf, quantile = gamma.cdf0, gamma.quantile1
            cum = np.cumsum(quantile.cdf._weights(lq), axis=1)
            width = nuisance._block_width(m)
            ends = np.minimum(width * rng.integers(1, m // width + 2, k), m) - 1
            share = cum[np.arange(k), ends] / np.where(cum[:, -1] > 0.0, cum[:, -1], 1.0)
            u = np.where(rng.uniform(size=k) < 0.5, share, rng.uniform(size=k))
            u[rng.integers(0, k, 8)] = rng.choice([0.0, -0.5, 1.0, 1.5], 8)

            got = quantile.evaluate_many(u, lq)
            want = _full_cumulative_quantile(cum, quantile.cdf.y_sorted, u)
            assert got.tobytes() == want.tobytes()

            got = cdf.evaluate_many(yq, lq)
            want = _full_cumulative_cdf(np.cumsum(cdf._weights(lq), axis=1), cdf.y_sorted, yq)
            assert (np.abs(got - want) <= 4 * m * np.finfo(float).eps * want).all()
            weighted = cdf._weights(lq).sum(axis=1) > 1e-300
            assert (got[(yq >= cdf.y_sorted[-1]) & weighted] == 1.0).all()

            w = np.exp(-0.5 * _expanded_sq_distances(cdf.l_by_y, cdf.h)(lq))
            u0 = _full_cumulative_cdf(np.cumsum(w, axis=1), cdf.y_sorted, yq)
            want = _full_cumulative_quantile(np.cumsum(w[:, gamma.perm], axis=1),
                                             quantile.cdf.y_sorted, u0)
            assert gamma.evaluate_many(yq, lq).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 5, 64, 129])
    def test_sums_rise_along_each_row_and_each_block_ends_on_its_sum(self, m):
        # Entry by entry, the scans of every block of a row, read through
        # the CDF at every rank, rise to the block sums and end on them.
        rng = np.random.default_rng(m)
        w = np.where(rng.uniform(size=(3, m)) < 0.3, 0.0, rng.exponential(size=(3, m)))
        w[np.arange(3), rng.integers(0, m, 3)] += 1.0
        sums = nuisance._block_sums(w)
        width = nuisance._block_width(m)
        assert sums.shape == (3, -(-m // width))
        ranks = np.arange(m + 1)
        cdf = np.stack([nuisance._block_cdf(np.repeat(w[i:i + 1], m + 1, axis=0), ranks,
                                            np.empty((m + 1) * m)) for i in range(3)])
        assert (np.diff(cdf, axis=1) >= 0.0).all()
        assert (cdf[:, 0] == 0.0).all() and (cdf[:, -1] == 1.0).all()
        ends = np.minimum(width * np.arange(1, sums.shape[1] + 1), m)
        assert_array_equal(cdf[:, ends], sums / sums[:, -1:])


class TestGammaMap:
    def test_hand_composed_transport(self):
        gamma = fit_gamma(np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0]))
        assert gamma(2.0) == 20.0

    def test_identity_transport(self):
        y = np.array([0.4, 1.3, 2.2, 5.0])
        gamma = fit_gamma(y, y)
        assert_allclose(gamma(y), y)

    def test_shift_transport(self):
        rng = np.random.default_rng(11)
        y0 = rng.standard_normal(500)
        gamma = fit_gamma(y0, y0 + 5.0)
        inner = np.sort(y0)[25:-25]
        assert_allclose(gamma(inner), inner + 5.0, atol=1e-12)

    def test_monotone_transform_equivariance(self):
        rng = np.random.default_rng(12)
        y0 = rng.standard_normal(200)
        y1 = rng.standard_normal(200) + 1.0
        gamma = fit_gamma(y0, y1)
        for T in (np.exp, lambda x: x ** 3 + x, lambda x: 2.5 * x - 1.0):
            gamma_t = fit_gamma(T(y0), T(y1))
            assert_allclose(gamma_t(T(y0)), T(gamma(y0)), rtol=0, atol=0)

    def test_monotone_in_y(self):
        rng = np.random.default_rng(13)
        y0 = rng.standard_normal(150)
        y1 = np.exp(rng.standard_normal(150))
        l = rng.standard_normal((150, 1))
        gamma = fit_gamma(y0, y1, l)
        grid = np.linspace(-2.5, 2.5, 80)
        vals = gamma.evaluate_many(grid, np.broadcast_to([0.3], (80, 1)))
        assert np.all(np.diff(vals) >= 0)

    def test_ranks_of_sorted_keys_equal_the_per_key_search(self):
        # Integer-valued outcomes, keys unsorted, repeated, tied with the
        # sample and beyond both ends, and samples of unequal size for the
        # two periods: bit for bit the rank arithmetic on one
        # np.searchsorted per key.
        rng = np.random.default_rng(15)
        y0 = rng.integers(-5, 6, 40).astype(float)
        y1 = rng.integers(0, 20, 27).astype(float)
        gamma = GammaMap(cdf0=fit_cond_cdf(y0), quantile1=fit_cond_quantile(y1), perm=None)
        keys = np.concatenate([rng.integers(-8, 9, 200).astype(float),
                               rng.uniform(-8.0, 8.0, 50), [-np.inf, np.inf, -5.0, 5.0]])
        keys = rng.permutation(np.concatenate([keys, keys[:60]]))
        want = []
        for key in keys:
            k = int(np.searchsorted(gamma.cdf0.y_sorted, key, side="right"))
            j = (k * 27 + 40 - 1) // 40
            want.append(gamma.quantile1.cdf.y_sorted[min(max(j - 1, 0), 26)])
        got = gamma.evaluate_many(keys, np.empty((keys.shape[0], 0)))
        assert got.tobytes() == np.array(want).tobytes()

    def test_dimension_mismatch_rejected(self):
        # Both halves are fitted on the same control units.
        with pytest.raises(ValueError):
            fit_gamma(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            fit_gamma(np.array([1.0, 2.0]), np.array([2.0, 1.0]), np.array([[0.0], [1.0], [2.0]]))

    def test_rows_beyond_the_kernels_reach_compose_the_unweighted_halves(self):
        # Covariates N(0, 1); no control carries weight at l = (60, 0), so
        # the map there is the one without covariates, not max(y1).
        rng = np.random.default_rng(16)
        y0 = rng.standard_normal(500)
        y1 = y0 + 0.5 + rng.standard_normal(500)
        l = rng.standard_normal((500, 2))
        gamma = fit_gamma(y0, y1, l)
        y = np.linspace(-1.0, 1.0, 9)
        far = np.broadcast_to([60.0, 0.0], (9, 2))
        assert (gamma.cdf0._weights(far).sum(axis=1) == 0.0).all()
        want = fit_cond_quantile(y1)(fit_cond_cdf(y0)(y))
        assert_array_equal(gamma.evaluate_many(y, far), want)
        assert want.max() < y1.max()

    # 1000 elements make chunks of 3 query rows over 300 controls.
    @pytest.mark.parametrize("budget", [1000, 1 << 20])
    def test_shared_weights_equal_the_composed_halves(self, monkeypatch, budget):
        # The quantile's kernel weights are the CDF's, permuted: bit for
        # bit the composition of the separately evaluated halves, with
        # tied outcomes in both periods.
        monkeypatch.setattr(nuisance, "_CHUNK_BUDGET", budget)
        rng = np.random.default_rng(14)
        y0 = np.round(rng.standard_normal(300), 1)
        y1 = np.round(y0 + rng.standard_normal(300), 1)
        l = rng.standard_normal((300, 2))
        gamma = fit_gamma(y0, y1, l)
        yq, lq = rng.standard_normal(50), rng.standard_normal((50, 2))
        want = gamma.quantile1.evaluate_many(gamma.cdf0.evaluate_many(yq, lq), lq)
        assert_array_equal(gamma.evaluate_many(yq, lq), want)
        assert_array_equal(gamma.quantile1.cdf.l_by_y, gamma.cdf0.l_by_y[gamma.perm])


class TestGammaMapSharedBuffer:
    """The map's weights, in product form, fill one buffer per chunk whose
    second half is the first permuted: the halves share each pair's weight,
    and the map composes the exact halves."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(5, 120), st.integers(1, 3),
           st.sampled_from([0, 1]), st.sampled_from([1000, 1 << 20]))
    def test_equals_the_composed_exact_halves(self, seed, m, p, decimals, budget):
        # Tied outcomes in both periods, query rows near the controls and
        # beyond the kernels' reach; 1000 elements make chunks of at most
        # 100 rows.
        rng = np.random.default_rng(seed)
        y0 = np.round(rng.standard_normal(m), decimals)
        y1 = np.round(y0 + rng.standard_normal(m), decimals)
        l = rng.standard_normal((m, p))
        yq = np.concatenate([rng.standard_normal(30), np.round(y0[:5], decimals)])
        lq = np.concatenate([rng.standard_normal((30, p)), l[:5]])
        lq[rng.uniform(size=35) < 0.1] = 80.0
        with mock.patch.object(nuisance, "_CHUNK_BUDGET", budget):
            gamma = fit_gamma(y0, y1, l)
            want = gamma.quantile1.evaluate_many(gamma.cdf0.evaluate_many(yq, lq), lq)
            got = gamma.evaluate_many(yq, lq)
        assert got.tobytes() == want.tobytes()

    def test_one_chunk_allocates_one_buffer(self):
        # One chunk's buffer holds its weights and their permuted copy,
        # 2 rows m elements; the rest is O((rows + m) (d + 2)).
        rng = np.random.default_rng(17)
        m, d = 2000, 2
        y0 = rng.standard_normal(m)
        gamma = fit_gamma(y0, y0 + rng.standard_normal(m), rng.standard_normal((m, d)))
        rows = nuisance._CHUNK_BUDGET // (2 * m)
        assert [s.stop for s in nuisance._chunks(3 * rows, 2 * m)][0] == rows
        for n in (rows, 3 * rows):
            yq, lq = rng.standard_normal(n), rng.standard_normal((n, d))
            tracemalloc.start()
            try:
                gamma.evaluate_many(yq, lq)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            buffer = 2 * rows * m * 8
            assert buffer < peak <= buffer + 4 * 8 * (rows + m) * (d + 2) + 8 * n + 2**16

    @pytest.mark.parametrize("m", [5, 100])
    def test_the_tallest_chunks_stay_within_the_bound(self, m):
        # Few controls give the most rows a chunk, where (rows, 64)
        # temporaries of the block scans would weigh most: the bound of
        # the test above.
        rng = np.random.default_rng(18)
        d = 2
        y0 = rng.standard_normal(m)
        gamma = fit_gamma(y0, y0 + rng.standard_normal(m), rng.standard_normal((m, d)))
        rows = nuisance._CHUNK_BUDGET // (2 * m)
        for n in (rows, 3 * rows):
            yq, lq = rng.standard_normal(n), rng.standard_normal((n, d))
            tracemalloc.start()
            try:
                gamma.evaluate_many(yq, lq)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            buffer = 2 * rows * m * 8
            assert buffer < peak <= buffer + 4 * 8 * (rows + m) * (d + 2) + 8 * n + 2**16


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

    @pytest.mark.parametrize("p", [0, 1])
    @pytest.mark.parametrize("a", [[0, 0.5, 1, 1, 0, 1], [0, 1, 2, 1, 0, 1],
                                   [-1, 1, 0, 1, 0, 1], [0, 1, np.nan, 1, 0, 1]])
    def test_a_treatment_other_than_0_and_1_is_rejected(self, a, p):
        l = np.linspace(-1.0, 1.0, 6 * p).reshape(6, p)
        with pytest.raises(NonBinaryTreatment, match="only 0 and 1"):
            fit_nu(np.arange(6.0), l, np.array(a))

    @pytest.mark.parametrize("p", [0, 2])
    def test_bools_and_integers_fit_as_0_and_1(self, p):
        rng = np.random.default_rng(8)
        x, l = rng.standard_normal(80), rng.standard_normal((80, p))
        a = rng.uniform(size=80) < 0.4
        want = fit_nu(x, l, a.astype(float))
        for same in (a, a.astype(np.int64)):
            got = fit_nu(x, l, same)
            assert_array_equal(got.a, want.a)
            assert_array_equal(got.h, want.h)

    @pytest.mark.parametrize("eps_clip", [0.0, 0.5])
    def test_clip_outside_the_open_half_interval_is_rejected(self, eps_clip):
        with pytest.raises(ValueError, match="eps_clip must lie in"):
            fit_nu(np.arange(4.0), None, np.array([1, 0, 1, 0]), eps_clip=eps_clip)

    def test_integral_matches_direct_quadrature(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(400)
        a = (rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-x))).astype(int)
        nu = fit_nu(x, None, a)
        lo = np.array([-1.0, 0.5, 1.2])
        hi = np.array([0.7, 0.5, -0.8])
        fast = nu.integral_many(lo, hi, np.empty((lo.shape[0], 0)))
        from scipy.integrate import quad
        for j in range(3):
            direct = quad(lambda t: nu(t), lo[j], hi[j], limit=200)[0]
            assert fast[j] == pytest.approx(direct, abs=5e-5)


class TestOddsBandwidthRule:
    """With covariates, fit_nu scales Silverman's bandwidths by the
    ladder entry with the least held-out Riesz loss."""

    @staticmethod
    def draw(m=1200, p=2, seed=61):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(m)
        l = rng.standard_normal((m, p))
        odds = np.exp(0.8 * x + 0.5 * l.sum(axis=1) - 0.3)
        a = (rng.uniform(size=m) < odds / (1.0 + odds)).astype(int)
        return x, l, a, rng

    @staticmethod
    def odds(query, z, a, h, eps_clip=0.01):
        """Clipped odds at bandwidth h through the Nadaraya-Watson mean."""
        pr = np.clip(_nw_mean(query, z, a, h, fallback=float(a.mean())),
                     eps_clip, 1.0 - eps_clip)
        return pr / (1.0 - pr)

    @staticmethod
    def loss(nu, a):
        return float(np.mean((1.0 - a) * nu * nu - 2.0 * a * nu))

    @pytest.mark.parametrize("budget", [None, 3000])
    @GAUSSIAN_KERNEL
    def test_one_pass_matches_the_regression_at_each_scale(self, monkeypatch, kernel,
                                                           budget):
        # 3000 elements give chunks of one row.
        x, l, a, _ = self.draw(m=500)
        z = np.column_stack([x, l])
        h = _bandwidth_vector(z, None)
        a = a.astype(float)
        if budget is not None:
            monkeypatch.setattr(nuisance, "_CHUNK_BUDGET", budget)
        got = nuisance._scaled_odds(z[1::2], z[::2], a[::2], h, 0.01)
        assert got.shape == (len(ODDS_SCALES), 250)
        for row, s in zip(got, ODDS_SCALES):
            want = self.odds(z[1::2], z[::2], a[::2], s * h)
            assert_allclose(row, want, rtol=1e-12, atol=0)
            assert self.loss(row, a[1::2]) == pytest.approx(self.loss(want, a[1::2]),
                                                          rel=1e-12, abs=0)

    @classmethod
    def four_exp_losses(cls, query, train, a, a_held, h, eps_clip=0.01):
        """The held-out losses at each scale, each scale's weights from an
        exp of its own and its sums from w @ a and the row sums."""
        dist = _expanded_sq_distances(train, h)(query)
        losses = []
        for s in ODDS_SCALES:
            w = np.exp(dist * (-0.5 / (s * s)))
            pr = nuisance._nw_ratio(w @ a, w.sum(axis=1), float(a.mean()))
            losses.append(cls.loss(nuisance._clipped_odds(pr, eps_clip), a_held))
        return np.array(losses)

    def test_squared_weights_pick_the_scale_of_four_exps(self):
        # 60 fits of random size, dimension and odds law; the scales they
        # pick vary, and each is the one that exps at all four scales pick.
        rng = np.random.default_rng(2024)
        picked = []
        for _ in range(60):
            m, p = int(rng.integers(60, 400)), int(rng.integers(1, 4))
            z = rng.standard_normal((m, p + 1))
            score = z @ rng.normal(0.0, rng.uniform(0.2, 2.0), p + 1) + rng.normal(0.0, 0.5)
            a = (rng.uniform(size=m) < 1.0 / (1.0 + np.exp(-score))).astype(float)
            h = _bandwidth_vector(z, None)
            got = nuisance._scaled_odds(z[1::2], z[::2], a[::2], h, 0.01)
            losses = [self.loss(row, a[1::2]) for row in got]
            want = self.four_exp_losses(z[1::2], z[::2], a[::2], a[1::2], h)
            assert np.argmin(losses) == np.argmin(want)
            assert_allclose(losses, want, rtol=1e-12, atol=0)
            picked.append(ODDS_SCALES[int(np.argmin(want))])
        assert len(set(picked)) >= 3

    @GAUSSIAN_KERNEL
    def test_chosen_scale_beats_silverman_on_known_odds(self, kernel):
        x, l, a, rng = self.draw()
        nu = fit_nu(x, l, a)
        z = np.column_stack([x, l])
        h = _bandwidth_vector(z, None)
        scale = nu.h[0] / h[0]
        assert scale in ODDS_SCALES and scale > 1.0
        assert_allclose(nu.h, scale * h, rtol=1e-15, atol=0)
        held = [self.loss(self.odds(z[1::2], z[::2], a[::2].astype(float), s * h),
                          a[1::2]) for s in (scale, 1.0)]
        assert held[0] <= held[1]
        # Closer to the true odds on fresh covariate points, too.
        q = rng.standard_normal((400, 3))
        truth = np.exp(0.8 * q[:, 0] + 0.5 * q[:, 1:].sum(axis=1) - 0.3)
        err = [np.mean((self.odds(q, z, a.astype(float), s * h) - truth) ** 2)
               for s in (scale, 1.0)]
        assert err[0] < err[1]

    def test_explicit_bandwidth_skips_the_selection(self, monkeypatch):
        x, l, a, _ = self.draw(m=300)

        def fail(*args):
            raise AssertionError("selection ran")

        monkeypatch.setattr(nuisance, "_odds_scale", fail)
        assert_array_equal(fit_nu(x, l, a, bandwidth=0.7).h, [0.7, 0.7, 0.7])
        assert_array_equal(fit_nu(x, l, a, bandwidth=[0.5, 1.0, 2.0]).h, [0.5, 1.0, 2.0])

    @GAUSSIAN_KERNEL
    def test_no_covariates_keeps_silverman(self, monkeypatch, kernel):
        x, _, a, _ = self.draw(m=300)
        monkeypatch.setattr(nuisance, "_odds_scale", None)
        assert_array_equal(fit_nu(x, None, a).h, [silverman_bandwidth(x)])

    # A held-out half of controls alone would have its loss pick s = 4.
    @pytest.mark.parametrize("half, arm", [(0, 1), (1, 0)])
    def test_an_inner_half_with_one_arm_keeps_scale_one(self, half, arm):
        x, l, a, _ = self.draw(m=300)
        a[half::2] = arm
        assert 0 < a.sum() < a.shape[0]
        nu = fit_nu(x, l, a)
        assert_array_equal(nu.h, _bandwidth_vector(np.column_stack([x, l]), None))

    @GAUSSIAN_KERNEL
    def test_reruns_are_identical(self, kernel):
        x, l, a, rng = self.draw(m=400)
        first, second = (fit_nu(x, l, a) for _ in range(2))
        assert_array_equal(first.h, second.h)
        q = rng.standard_normal((50, 3))
        assert_array_equal(first.evaluate_many(q[:, 0], q[:, 1:]),
                           second.evaluate_many(q[:, 0], q[:, 1:]))

    @GAUSSIAN_KERNEL
    def test_peak_memory_stays_bounded(self, kernel):
        # A chunk's summed distances and their rescaled copy fill at most
        # 8 MiB / d each. Peaks near 11 MiB, while the next chunk's
        # distances are formed before the last chunk's are freed.
        x, l, a, _ = self.draw(m=6000)
        z = np.column_stack([x, l])
        h = _bandwidth_vector(z, None)
        a = a.astype(float)
        tracemalloc.start()
        try:
            nuisance._scaled_odds(z[1::2], z[::2], a[::2], h, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestGridIntegrals:
    """The shared fourth-order antiderivative, one map or one column per
    interval: exact on quadratic node values, its error falling as the
    fourth power of the node spacing, and odd in its limits."""

    @staticmethod
    def ends(gx, rng):
        # Every inner node, one ulp either side of each, and uniform draws;
        # scaled offsets next to a node land a cell off before correction.
        on = gx[1:-1]
        return np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
                               rng.uniform(gx[0], gx[-1], 300)])

    def test_exact_on_quadratic_node_values(self):
        rng = np.random.default_rng(3)
        gx = nuisance._grid_nodes(-1.7, 2.3, 257)
        lo = self.ends(gx, rng)
        hi = rng.permutation(lo)
        c = rng.standard_normal((3, lo.shape[0]))
        gy = c[0] + c[1] * gx[:, None] + c[2] * gx[:, None] ** 2

        def anti(x, c):
            return c[0] * x + c[1] * x ** 2 / 2.0 + c[2] * x ** 3 / 3.0

        # Rounding only: measured at most 1.3e-14.
        assert_allclose(nuisance._grid_integrals(gx, gy[:, 0], lo, hi),
                        anti(hi, c[:, 0]) - anti(lo, c[:, 0]), rtol=0, atol=1e-13)
        assert_allclose(nuisance._grid_integrals(gx, gy, lo, hi),
                        anti(hi, c) - anti(lo, c), rtol=0, atol=1e-13)

    def test_error_falls_as_the_fourth_power_of_the_spacing(self):
        # Smooth node values with a closed-form antiderivative; each
        # doubling of the nodes cuts the largest error by 16.0-16.7x.
        rng = np.random.default_rng(4)
        lo = rng.uniform(-1.7, 2.3, 300)
        hi = rng.uniform(-1.7, 2.3, 300)

        def anti(x):
            return np.sin(3.0 * x) / 3.0 + 2.0 * np.exp(0.5 * x)

        errors = []
        for n_grid in (64, 128, 256, 512):
            gx = nuisance._grid_nodes(-1.7, 2.3, n_grid)
            gy = np.cos(3.0 * gx) + np.exp(0.5 * gx)
            got = nuisance._grid_integrals(gx, gy, lo, hi)
            errors.append(np.abs(got - (anti(hi) - anti(lo))).max())
        assert all(a >= 12.0 * b for a, b in zip(errors, errors[1:]))

    def test_equal_limits_give_zero_and_swapped_limits_flip_the_sign(self):
        rng = np.random.default_rng(5)
        gx = nuisance._grid_nodes(-1.7, 2.3, nuisance.GRID_MIN)
        lo = self.ends(gx, rng)
        hi = rng.permutation(lo)
        hi[::7] = lo[::7]
        gy = np.exp(rng.standard_normal((gx.shape[0], lo.shape[0])))
        for values in (gy[:, 0], gy):
            got = nuisance._grid_integrals(gx, values, lo, hi)
            assert_array_equal(got[::7], 0.0)
            assert_array_equal(nuisance._grid_integrals(gx, values, hi, lo), -got)


class TestGridValues:
    """The node values' Catmull-Rom interpolant, which the QTT scans read:
    in the antiderivative's cells (one cell rule), through every node
    value, exact on quadratic node values and on equal neighbours, and with
    the antiderivative's cell integrals, end cells included."""

    def test_passes_through_every_node_value(self):
        rng = np.random.default_rng(6)
        gx = nuisance._grid_nodes(-1.7, 2.3, nuisance.GRID_MIN)
        gy = np.exp(rng.standard_normal((gx.shape[0], 3)))
        # Each node opens its cell; the last closes the last cell, at its
        # value up to rounding (measured 1.4e-14).
        assert_array_equal(nuisance._grid_values(gx, gy, gx[:-1]), gy[:-1])
        assert_array_equal(nuisance._grid_values(gx, gy[:, 0], gx[:-1]), gy[:-1, :1])
        assert_allclose(nuisance._grid_values(gx, gy, gx[-1:]), gy[-1:], rtol=1e-13, atol=0)
        # One ulp either side of a node lands in the cell the
        # antiderivative takes, next to the node's value.
        for side in (-np.inf, np.inf):
            near = np.nextafter(gx[1:-1], side)
            assert_allclose(nuisance._grid_values(gx, gy, near), gy[1:-1], rtol=1e-12, atol=0)

    def test_exact_on_quadratic_node_values(self):
        rng = np.random.default_rng(7)
        gx = nuisance._grid_nodes(-1.7, 2.3, nuisance.GRID_MIN)
        x = np.concatenate([TestGridIntegrals.ends(gx, rng), gx[[0, -1]]])
        c = rng.standard_normal((3, 4))
        gy = c[0] + c[1] * gx[:, None] + c[2] * gx[:, None] ** 2
        # Rounding only: measured at most 7.1e-15.
        assert_allclose(nuisance._grid_values(gx, gy, x),
                        c[0] + c[1] * x[:, None] + c[2] * x[:, None] ** 2, rtol=0, atol=1e-13)

    def test_equal_neighbours_give_their_value_exactly(self):
        # Clipped odds are flat where the clip binds.
        rng = np.random.default_rng(8)
        gx = nuisance._grid_nodes(-1.7, 2.3, nuisance.GRID_MIN)
        gy = np.tile([0.3, 1.7, 99.0], (gx.shape[0], 1))
        x = rng.uniform(gx[0], gx[-1], 500)
        assert_array_equal(nuisance._grid_values(gx, gy, x), np.tile(gy[0], (500, 1)))

    def test_cell_integrals_are_the_antiderivatives(self):
        # Simpson's rule is exact on each cell's cubic. Measured at most
        # 3.9e-14 relative.
        rng = np.random.default_rng(9)
        gx = nuisance._grid_nodes(-1.7, 2.3, nuisance.GRID_MIN)
        gy = np.exp(rng.standard_normal((gx.shape[0], 5)))
        mid = 0.5 * (gx[:-1] + gx[1:])
        delta = (gx[-1] - gx[0]) / (gx.shape[0] - 1)
        simpson = (gy[:-1] + 4.0 * nuisance._grid_values(gx, gy, mid) + gy[1:]) * delta / 6.0
        for i in range(gy.shape[1]):
            cells = nuisance._grid_integrals(gx, gy[:, i], gx[:-1], gx[1:])
            assert_allclose(simpson[:, i], cells, rtol=1e-12, atol=0)


class TestArmSplitNodeSums:
    """NuFn._node_sums forms each arm's sums apart: the numerator from the
    treated rows' weights, the denominator from the controls' plus it."""

    @staticmethod
    def one_product(nu, nodes, l):
        """The numerators and denominators of one product of the x-weights
        with [C a, C], over every training row."""
        c = _product_weights(l, nu.z[:, 1:], nu.h[1:])
        sums = _product_weights(nodes[:, None], nu.z[:, :1], nu.h[:1]) @ np.concatenate(
            [c * nu.a, c]).T
        return sums[:, :l.shape[0]], sums[:, l.shape[0]:]

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("treated", ["many", "one"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_equal_the_one_product_sums(self, monkeypatch, p, treated, budget):
        # A budget of one element forms the x-weights one node at a time.
        rng = np.random.default_rng(30 + p)
        x, l = rng.standard_normal(250), rng.standard_normal((250, p))
        a = (rng.uniform(size=250) < 0.4).astype(float)
        if treated == "one":
            a[:] = 0.0
            a[17] = 1.0
        nu = fit_nu(x, l, a)
        nodes = np.linspace(-2.5, 2.5, 60)
        lq = rng.standard_normal((30, p))
        want = self.one_product(nu, nodes, lq)
        if budget is not None:
            monkeypatch.setattr(nuisance, "_CHUNK_BUDGET", budget)
        num, den = nu._node_sums(nodes, lq)
        assert num.shape == den.shape == (60, 30)
        assert (den > 0.0).all()
        assert_allclose(num, want[0], rtol=1e-13, atol=0)
        assert_allclose(den, want[1], rtol=1e-13, atol=0)
        if treated == "one":
            assert_array_equal(num, want[0])


class TestNodeOddsTable:
    """One fold's node odds for the QTT scans, built from the chunks of
    _node_odds_chunks."""

    @pytest.mark.parametrize("p", [0, 2])
    def test_the_table_is_every_rows_node_odds(self, monkeypatch, p):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(300)
        l = rng.standard_normal((300, p))
        nu = fit_nu(x, l, (rng.uniform(size=300) < 0.4).astype(float))
        nodes = nuisance._grid_nodes(-2.0, 2.0, 100)
        rows = l[:40]
        want = nu.node_odds(nodes, rows)
        # Chunks of 7 rows with covariates.
        monkeypatch.setattr(nuisance, "_CHUNK_BUDGET", 7 * nuisance._unit_width(nu, 100))
        table = nuisance._node_odds_table(nodes, rows, nu)
        assert table.shape == (100, 40 if p else 1)
        assert_allclose(table, want, rtol=1e-13, atol=0)

    def test_peak_memory_at_the_most_nodes(self):
        # Analytic odds always take ANTIDERIV_GRID nodes: 1100 rows make a
        # 17.2 MiB table, built in three chunks of at most 512 rows, each
        # chunk's node-by-row grid in blocks of nodes. The temporaries
        # measured 46 MiB over the table, and they do not grow with the
        # rows.
        nu = GaussHermiteNu(named_config("stm-cov"))
        rng = np.random.default_rng(11)
        lo, hi = rng.uniform(-3.0, 3.0, (2, 1100))
        nodes = nuisance._odds_nodes(lo, hi, nu)
        assert nodes.shape[0] == nuisance.ANTIDERIV_GRID
        tracemalloc.start()
        try:
            table = nuisance._node_odds_table(nodes, rng.standard_normal((1100, 2)), nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes + 56 * 2 ** 20


class TestFactorisedOddsIntegral:
    """NuFn.integral_many: the fourth-order antiderivative on shared
    nodes, GRID_PER_BANDWIDTH per x-bandwidth, one column of node odds per
    unit with covariates (p > 0), one shared column without (p = 0).

    ``law`` is the law of the training x: the standard normal, or the
    Epanechnikov law scaled to unit variance, whose support [-sqrt(5),
    sqrt(5)] ends inside the queried range."""

    @staticmethod
    def fitted(p, law="gaussian", eps_clip=0.01, m=300, seed=41):
        rng = np.random.default_rng(seed)
        if law == "gaussian":
            x = rng.standard_normal(m)
        else:
            # Devroye's draw from three uniforms on [-1, 1].
            u = rng.uniform(-1.0, 1.0, (3, m))
            a = np.abs(u)
            x = np.sqrt(5.0) * np.where((a[2] >= a[1]) & (a[2] >= a[0]), u[1], u[2])
        l = rng.standard_normal((m, p))
        score = 1.5 * x + l.sum(axis=1)
        a = (rng.uniform(size=m) < 1.0 / (1.0 + np.exp(-score))).astype(int)
        return fit_nu(x, l, a, eps_clip=eps_clip), rng

    @staticmethod
    def dense(nu, lo, hi, l, nodes=8 * nuisance.ANTIDERIV_GRID + 1):
        """Composite Simpson on ``nodes`` nodes per interval, over the odds
        regression evaluated directly at every node."""
        w = np.ones(nodes)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        t = np.linspace(0.0, 1.0, nodes)
        out = np.empty(lo.shape[0])
        for i in range(lo.shape[0]):
            vals = nu.evaluate_many(lo[i] + (hi[i] - lo[i]) * t,
                                    np.broadcast_to(l[i], (nodes, l.shape[1])))
            out[i] = (vals @ w) * (hi[i] - lo[i]) / (3.0 * (nodes - 1))
        return out

    @X_LAWS
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_matches_a_dense_reference(self, p, law):
        # One interval spans every endpoint; one of length 1e-3 lies inside
        # a single grid cell, where the cubic Hermite antiderivative follows
        # the odds along it (measured at most 7.4e-7 relative; the 2048-node
        # trapezoid, which took the cell's average odds, 2.6e-4).
        nu, rng = self.fitted(p, law)
        lo = rng.uniform(-2.0, 1.0, 4)
        hi = lo + rng.uniform(-1.5, 2.0, 4)
        lo[0], hi[0] = min(lo.min(), hi.min()), max(lo.max(), hi.max())
        lo[1], hi[1] = 0.3, 0.3 + 1e-3
        l = rng.standard_normal((4, p))
        got = nu.integral_many(lo, hi, l)
        want = self.dense(nu, lo, hi, l)
        # The odds are smooth: measured at most 2.2e-7 on 64-114 nodes
        # (the 2048-node trapezoid: 6.8e-7). At p = 0 the node odds come
        # from training x binned h/64 apart on 124-177 nodes: measured at
        # most 8.0e-6, and 5.1e-6 relative on the short interval (2.6e-7
        # and 7.3e-7 from dense sums on the same nodes).
        atol, rel = (2e-5, 1e-5) if p == 0 else (1e-6, 5e-6)
        assert_allclose(got, want, rtol=0, atol=atol)
        assert got[1] == pytest.approx(want[1], rel=rel, abs=0)

    @GAUSSIAN_KERNEL
    def test_equal_limits_give_zero_and_swapped_limits_flip_the_sign(self, kernel):
        nu, rng = self.fitted(2)
        lo = rng.uniform(-2.0, 1.0, 25)
        hi = lo + rng.uniform(-1.5, 2.0, 25)
        hi[:3] = lo[:3]
        l = rng.standard_normal((25, 2))
        got = nu.integral_many(lo, hi, l)
        assert_array_equal(got[:3], 0.0)
        assert (got[hi < lo] < 0).all() and (got[hi > lo] > 0).all()
        assert_array_equal(nu.integral_many(hi, lo, l), -got)

    def test_the_grid_is_sized_by_the_x_bandwidth(self, monkeypatch):
        # ceil(GRID_PER_BANDWIDTH span / h_x) nodes for fitted odds, with
        # covariates and without, with or without a weight; ANTIDERIV_GRID
        # for analytic odds.
        sizes = []
        grid_nodes = nuisance._grid_nodes

        def recorded(lo, hi, n_grid):
            sizes.append(n_grid)
            return grid_nodes(lo, hi, n_grid)

        monkeypatch.setattr(nuisance, "_grid_nodes", recorded)
        nu, rng = self.fitted(2, m=800)
        lo = rng.uniform(-2.0, 1.0, 9)
        hi = lo + rng.uniform(-1.5, 2.0, 9)
        l = rng.standard_normal((9, 2))
        span = max(lo.max(), hi.max()) - min(lo.min(), hi.min())
        want = int(np.ceil(nuisance.GRID_PER_BANDWIDTH * span / nu.h[0]))
        assert nuisance.GRID_MIN < want < nuisance.ANTIDERIV_GRID
        nu.integral_many(lo, hi, l)
        nuisance.integrate_nu_many(lo, hi, l, nu, weight=np.cos)
        assert sizes == [want, want]

        sizes.clear()
        flat, _ = self.fitted(0, m=800)
        want = int(np.ceil(nuisance.GRID_PER_BANDWIDTH * span / flat.h[0]))
        assert nuisance.GRID_MIN < want < nuisance.ANTIDERIV_GRID
        flat.integral_many(lo, hi, np.empty((9, 0)))
        nuisance.integrate_nu_many(lo, hi, np.empty((9, 0)), flat, weight=np.cos)
        analytic = GaussHermiteNu(named_config("stm-cov"))
        nuisance.integrate_nu_many(lo, hi, l, analytic, weight=np.cos)
        assert sizes == [want, want, nuisance.ANTIDERIV_GRID]

    # With m = 300 above the node count, m sets the unit chunks. 1000
    # elements give one grid row per x-weight block and one unit per
    # chunk; 3000 one row and chunks of 5 units; 20_000 blocks of 8 rows
    # and 300_000 blocks of 125 rows, with all 7 units in one chunk.
    @pytest.mark.parametrize("budget", [1000, 3000, 20_000, 300_000])
    def test_chunking_does_not_change_the_result(self, monkeypatch, budget):
        nu, rng = self.fitted(2)
        lo = rng.uniform(-2.0, 1.0, 7)
        hi = lo + rng.uniform(-1.5, 2.0, 7)
        l = rng.standard_normal((7, 2))
        monkeypatch.setattr(nuisance, "_CHUNK_BUDGET", 1 << 30)
        want = nu.integral_many(lo, hi, l)
        monkeypatch.setattr(nuisance, "_CHUNK_BUDGET", budget)
        # Products of other shapes may round differently in the last bit.
        assert_allclose(nu.integral_many(lo, hi, l), want, rtol=1e-12, atol=0)

    @X_LAWS
    def test_empty_input(self, law):
        nu, _ = self.fitted(2, law)
        assert nu.integral_many(np.zeros(0), np.zeros(0), np.zeros((0, 2))).shape == (0,)

    @X_LAWS
    @pytest.mark.parametrize("p", [1, 2])
    def test_rows_far_from_the_data_use_the_mean(self, p, law):
        nu, _ = self.fitted(p, law)
        lo, hi = np.array([-1.0, 0.5]), np.array([1.0, -0.25])
        l = np.full((2, p), 1e3)
        pr = np.clip(nu.a.mean(), nu.eps_clip, 1.0 - nu.eps_clip)
        got = nu.integral_many(lo, hi, l)
        assert_allclose(got, pr / (1.0 - pr) * (hi - lo), rtol=1e-12, atol=0)

    @GAUSSIAN_KERNEL
    @pytest.mark.parametrize("p", [1, 2])
    def test_rows_where_the_clip_binds(self, p, kernel):
        # Arms split on x alone, with covariate windows wide enough that
        # every node has neighbours, so the propensity is 0 or 1 away
        # from x = 0 and the clip binds.
        rng = np.random.default_rng(42)
        x = rng.uniform(-3.0, 3.0, 400)
        l = rng.uniform(-1.0, 1.0, (400, p))
        a = (x > 0.0).astype(int)
        nu = fit_nu(x, l, a, bandwidth=[0.3] + [1.0] * p, eps_clip=0.05)
        lo, hi = np.array([1.0, -1.0]), np.array([2.0, -2.0])
        lq = np.zeros((2, p))
        got = nu.integral_many(lo, hi, lq)
        assert_allclose(got, np.array([0.95 / 0.05, 0.05 / 0.95]) * (hi - lo),
                        rtol=1e-12, atol=0)

    @X_LAWS
    def test_peak_memory_stays_bounded(self, law):
        # About 166 nodes, fewer than the m = 800 training units, so the
        # (m, 2k) covariate weights set the chunks: 1500 units make two
        # chunks of 655 and one of 190. Peaks near 17 MiB; 600 units on
        # 2048 nodes in chunks of 256 peaked near 20 MiB. A (Q, m, d)
        # weight tensor peaked at 367 MiB, and 8M-element chunks of
        # per-unit Simpson node weights at 63 MiB.
        nu, rng = self.fitted(2, law, m=800)
        lo = rng.uniform(-2.0, 1.0, 1500)
        hi = lo + rng.uniform(0.5, 2.0, 1500)
        l = rng.standard_normal((1500, 2))
        tracemalloc.start()
        try:
            nu.integral_many(lo, hi, l)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestAnalyticOddsIntegral:
    """GaussHermiteNu.integral_many against composite Simpson over its
    odds at 16385 nodes per interval (TestFactorisedOddsIntegral.dense).

    With an identity beta1 the integral is the fourth-order antiderivative
    of the odds in the logit mean mu = kappa x + c(l), one column shared by
    every unit; at kappa = 0 the odds are constant in x; a non-identity
    beta1 with covariates takes one column of node odds per unit."""

    COV = named_config("stm-cov")
    CONFIGS = {
        "identity": COV,                                # kappa = 0.3
        "kappa-zero": replace(COV, treat_u=(0.0,)),     # treat_l still (0.4, 0.2)
        "exp-p1": StmConfig(n=100, p=1, beta1=TransformSpec("exp"), k0_coef=(0.5,),
                            k1_intercept=0.7, k1_coef=(0.3,), treat_l=(0.4,),
                            treat_u=(0.6,), eps_sigma=0.5),
    }

    @staticmethod
    def intervals(name, p):
        # One interval spans every endpoint, one has length 1e-3; the
        # exp transform's outcomes are positive.
        rng = np.random.default_rng(5)
        shift = 2.5 if name == "exp-p1" else 0.0
        lo = rng.uniform(-2.0, 1.0, 5) + shift
        hi = lo + rng.uniform(-1.5, 2.0, 5)
        lo[0], hi[0] = min(lo.min(), hi.min()), max(lo.max(), hi.max())
        lo[1], hi[1] = 0.3 + shift, 0.3 + shift + 1e-3
        return lo, hi, rng.standard_normal((5, p))

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_matches_a_dense_reference(self, name):
        nu = GaussHermiteNu(self.CONFIGS[name])
        lo, hi, l = self.intervals(name, nu.p)
        got = nu.integral_many(lo, hi, l)
        want = TestFactorisedOddsIntegral.dense(nu, lo, hi, l)
        # Measured at most 3.2e-10 absolute, and 9.2e-13 relative on the
        # interval of length 1e-3, which lies inside one grid cell.
        assert_allclose(got, want, rtol=0, atol=1e-8)
        assert got[1] == pytest.approx(want[1], rel=1e-10, abs=0)
        if name == "kappa-zero":
            # The constant odds times the length: measured 1.1e-14.
            assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_empty_input(self):
        nu = GaussHermiteNu(self.COV)
        assert nu.integral_many(np.zeros(0), np.zeros(0), np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_equal_limits_give_zero_and_swapped_limits_flip_the_sign(self, name):
        nu = GaussHermiteNu(self.CONFIGS[name])
        lo, hi, l = self.intervals(name, nu.p)
        hi[2] = lo[2]
        got = nu.integral_many(lo, hi, l)
        assert got[2] == 0.0
        assert_array_equal(nu.integral_many(hi, lo, l), -got)


class TestBinnedOddsIntegral:
    """p = 0 NuFn.integral_many, whose antiderivative nodes take the
    regression's sums from linearly binned training x, against the dense
    antiderivative on the same nodes: the fourth-order antiderivative of
    NuFn.evaluate_many at the nodes.

    Binning moves each training point by less than a bin, a quarter of
    the node spacing, so integrals agree to RTOL and propensities at the
    nodes to PR_ATOL wherever the dense denominator is above DENOM_FLOOR
    times its maximum."""

    RTOL = 1e-4          # measured <= 3.9e-5 on these inputs
    PR_ATOL = 1e-4       # measured <= 3e-5 on these inputs
    DENOM_FLOOR = 1e-3

    @staticmethod
    def fitted(m, dist, seed=7):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(m) if dist == "normal" else rng.lognormal(size=m)
        score = x if dist == "normal" else np.log(x)
        a = (rng.uniform(size=m) < 1.0 / (1.0 + np.exp(-score))).astype(int)
        return fit_nu(x, None, a), rng

    @staticmethod
    def dense(nu, lo, hi):
        nodes = nuisance._odds_nodes(lo, hi, nu)
        odds = nu.evaluate_many(nodes, np.empty((nodes.shape[0], 0)))
        return nuisance._grid_integrals(nodes, odds, lo, hi)

    @staticmethod
    def inner_intervals(nu, rng, n=200):
        # Training points lie beyond the queried range on both sides.
        q05, q95 = np.quantile(nu.z[:, 0], [0.05, 0.95])
        lo = rng.uniform(q05, q95, n)
        hi = rng.uniform(q05, q95, n)
        hi[:5] = lo[:5]
        return lo, hi

    @GAUSSIAN_KERNEL
    @pytest.mark.parametrize("dist", ["normal", "lognormal"])
    @pytest.mark.parametrize("m", [400, 16000])
    def test_matches_the_dense_antiderivative(self, m, dist, kernel):
        # Nodes h/16 apart give each node about 4900 kernel taps, within
        # _TAPS_PER_POINT per training point at m=400 too, so both sizes
        # take the binned sums. Measured at most 3.9e-5 relative (m=400)
        # and 6.3e-6 (m=16000).
        nu, rng = self.fitted(m, dist)
        lo, hi = self.inner_intervals(nu, rng)
        nodes = nuisance._odds_nodes(lo, hi, nu)
        assert nuisance._binned_nw_sums(nodes, nu.z[:, 0], nu.a, nu.h[0]) is not None
        got = nu.integral_many(lo, hi, np.empty((lo.shape[0], 0)))
        assert_allclose(got, self.dense(nu, lo, hi), rtol=self.RTOL, atol=0)
        assert_array_equal(got[:5], 0.0)
        assert_array_equal(nu.integral_many(hi, lo, np.empty((lo.shape[0], 0))), -got)

    @GAUSSIAN_KERNEL
    @pytest.mark.parametrize("dist", ["normal", "lognormal"])
    @pytest.mark.parametrize("m", [400, 16000])
    def test_node_sums_match_the_dense_sums(self, monkeypatch, m, dist, kernel):
        # Binned even where the dense sums would be cheaper.
        monkeypatch.setattr(nuisance, "_TAPS_PER_POINT", np.inf)
        nu, _ = self.fitted(m, dist)
        x = nu.z[:, 0]
        nodes = np.linspace(*np.quantile(x, [0.02, 0.98]), nuisance.ANTIDERIV_GRID)
        num, denom = nuisance._binned_nw_sums(nodes, x, nu.a, nu.h[0])
        w = _product_weights(nodes[:, None], nu.z, nu.h)
        want_num, want_denom = w @ nu.a, w.sum(axis=1)
        ok = want_denom > self.DENOM_FLOOR * want_denom.max()
        assert ok.mean() > 0.9
        assert_allclose((num / denom)[ok], (want_num / want_denom)[ok],
                        atol=self.PR_ATOL, rtol=0)
        assert_allclose(denom, want_denom, atol=self.RTOL * want_denom.max(), rtol=0)

    def test_sparse_gaussian_tails_keep_their_ratio(self):
        # Nodes up to 3 beyond the data (about 20 bandwidths), where the
        # dense denominators fall to 1e-117: taps are cut only where the
        # kernel weight is exactly zero, so the ratio survives there.
        nu, _ = self.fitted(16000, "normal", seed=1)
        x = nu.z[:, 0]
        nodes = np.linspace(x.min() - 3.0, x.max() + 3.0, nuisance.ANTIDERIV_GRID)
        num, denom = nuisance._binned_nw_sums(nodes, x, nu.a, nu.h[0])
        w = _product_weights(nodes[:, None], nu.z, nu.h)
        want_num, want_denom = w @ nu.a, w.sum(axis=1)
        assert want_denom.min() < 1e-100
        assert_allclose(num / denom, want_num / want_denom, atol=1e-5, rtol=0)

    @pytest.mark.parametrize("case", ["one node", "unequal spacing", "bins wider than h/8"])
    def test_nodes_it_cannot_serve_take_the_dense_sums(self, monkeypatch, case):
        # Rejected at any cost, and with no 0/0 at one node, which
        # filterwarnings = error would raise.
        monkeypatch.setattr(nuisance, "_TAPS_PER_POINT", np.inf)
        nu, _ = self.fitted(16000, "normal")
        x, h = nu.z[:, 0], nu.h[0]
        widest = nuisance.ANTIDERIV_REFINE * nuisance._BIN_MAX_WIDTH * h
        even = np.linspace(-1.0, 1.0, 65)
        uneven = even.copy()
        uneven[30] += 1e-5 * (even[1] - even[0])    # ten times the tolerance
        nodes = {"one node": np.array([0.3]), "unequal spacing": uneven,
                 "bins wider than h/8": np.arange(-8, 9) * widest * (1.0 + 1e-9)}[case]
        assert nuisance._binned_nw_sums(nodes, x, nu.a, h) is None
        assert_array_equal(nu.node_odds(nodes, np.empty((3, 0)))[:, 0], nu(nodes))
        # The even nodes are served.
        assert nuisance._binned_nw_sums(even, x, nu.a, h) is not None

    def test_the_widest_bins_stay_near_the_dense_odds(self, monkeypatch):
        # Heavy-tailed x, nodes spaced h / 2 apart (bins h / 8 wide).
        # Measured: 2.6e-3 relative over the central 96% of x, 8.3e-3 over
        # all of it.
        monkeypatch.setattr(nuisance, "_TAPS_PER_POINT", np.inf)
        nu, _ = self.fitted(16000, "lognormal")
        x, h = nu.z[:, 0], nu.h[0]
        spacing = nuisance.ANTIDERIV_REFINE * nuisance._BIN_MAX_WIDTH * h * (1.0 - 1e-9)
        for (lo, hi), rtol in (((0.02, 0.98), 5e-3), ((0.0, 1.0), 2e-2)):
            start, stop = np.quantile(x, [lo, hi])
            nodes = start + spacing * np.arange(int((stop - start) / spacing) + 2)
            sums = nuisance._binned_nw_sums(nodes, x, nu.a, h)
            assert sums is not None
            dense = nu.evaluate_many(nodes, np.empty((nodes.shape[0], 0)))
            assert_allclose(nu._odds(*sums), dense, rtol=rtol, atol=0)

    @GAUSSIAN_KERNEL
    def test_taps_are_cut_only_where_the_weight_is_zero(self, kernel):
        # The weight is zero at the reach and beyond, but not 0.01 short of it.
        reach = nuisance._KERNEL_REACH
        u = np.array([[reach - 0.01], [reach]])
        w = _product_weights(u, np.zeros((1, 1)), np.ones(1))[:, 0]
        assert w[0] > 0.0 and w[1] == 0.0

    @GAUSSIAN_KERNEL
    def test_empty_input(self, kernel):
        nu, _ = self.fitted(400, "normal")
        assert nu.integral_many(np.zeros(0), np.zeros(0), np.empty((0, 0))).shape == (0,)

    @GAUSSIAN_KERNEL
    def test_rows_where_the_clip_binds(self, kernel):
        # Arms split on x, so the propensity is 0 or 1 away from x = 0.
        rng = np.random.default_rng(42)
        x = rng.uniform(-3.0, 3.0, 16000)
        nu = fit_nu(x, None, (x > 0.0).astype(int), bandwidth=0.3, eps_clip=0.05)
        lo, hi = np.array([1.0, -1.0]), np.array([2.0, -2.0])
        got = nu.integral_many(lo, hi, np.empty((lo.shape[0], 0)))
        assert_allclose(got, self.dense(nu, lo, hi), rtol=1e-12, atol=0)
        assert_allclose(got, np.array([0.95 / 0.05, 0.05 / 0.95]) * (hi - lo),
                        rtol=1e-12, atol=0)

    @GAUSSIAN_KERNEL
    def test_narrow_ranges_use_the_dense_sums(self, kernel):
        # A node range of 1e-6 would need about 1e11 taps per node; the
        # dense sums are cheaper, and are what runs.
        nu, _ = self.fitted(16000, "normal")
        lo = np.array([0.3, 0.3, 0.3 + 1e-6])
        hi = np.array([0.3 + 1e-6, 0.3, 0.3])
        tracemalloc.start()
        try:
            got = nu.integral_many(lo, hi, np.empty((lo.shape[0], 0)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_array_equal(got, self.dense(nu, lo, hi))
        assert peak < 32 * 2 ** 20

    @GAUSSIAN_KERNEL
    def test_peak_memory_stays_bounded(self, kernel):
        # Peaks near 2 MiB. The dense sums, in 8 MiB chunks of kernel
        # weights, peaked at 16 MiB.
        nu, rng = self.fitted(16000, "normal")
        lo, hi = self.inner_intervals(nu, rng, n=400)
        tracemalloc.start()
        try:
            nu.integral_many(lo, hi, np.empty((lo.shape[0], 0)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


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

    @pytest.mark.parametrize("bandwidth", [0.0, -0.1])
    def test_nonpositive_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            fit_density(np.array([0.0, 0.1, 0.2]), bandwidth=bandwidth)


def _fitted(kind, p):
    """A function of (x, l) with p covariates, fitted or analytic, of the
    class named by kind."""
    rng = np.random.default_rng(41)
    m = 200
    y0 = rng.standard_normal(m)
    l = rng.standard_normal((m, p))
    y1 = y0 + 0.5 + l.sum(axis=1) + 0.3 * rng.standard_normal(m)
    a = (rng.uniform(size=m) < 0.5).astype(int)
    cfg = named_config("stm-cov" if p else "stm-exp")
    return {
        "CondCdf": lambda: fit_cond_cdf(y0, l),
        "CondQuantile": lambda: fit_cond_quantile(y0, l),
        "GammaMap": lambda: fit_gamma(y0, y1, l),
        "NuFn": lambda: fit_nu(y0, l, a),
        "AnalyticGamma": lambda: AnalyticGamma(cfg),
        "GaussHermiteNu": lambda: GaussHermiteNu(cfg),
        # The Monte Carlo odds oracle; its id is the name of the class it
        # replaced, dgp._McNu.
        "_McNu": lambda: true_nuisances(cfg, method="mc", mc_size=500, seed=3).nu,
    }[kind]()


POINTWISE_FNS = pytest.mark.parametrize("kind", [
    "CondCdf", "CondQuantile", "GammaMap", "NuFn", "AnalyticGamma", "GaussHermiteNu", "_McNu"])


class TestCovariateBoundary:
    """The call f(x, l) of every function of an outcome and covariates:
    the public covariate forms become the (n, p) matrix in one place."""

    X = np.linspace(0.05, 0.95, 7)      # levels for CondQuantile, outcomes for the rest

    @POINTWISE_FNS
    def test_none_and_an_empty_matrix_agree_at_p0(self, kind):
        f = _fitted(kind, 0)
        want = f(self.X)
        assert want.shape == self.X.shape
        assert_array_equal(f(self.X, None), want)
        assert_array_equal(f(self.X, np.empty((self.X.shape[0], 0))), want)

    @POINTWISE_FNS
    def test_one_covariate_row_is_shared_by_every_point(self, kind):
        f = _fitted(kind, 2)
        row = np.array([0.4, -0.7])
        # Equal to rounding: a matrix product over the broadcast row may
        # sum in another order than over a stored matrix.
        assert_allclose(f(self.X, row), f(self.X, np.tile(row, (self.X.shape[0], 1))),
                        rtol=1e-14, atol=0)

    @POINTWISE_FNS
    @pytest.mark.parametrize("p", [0, 2])
    def test_scalar_x_gives_a_float(self, kind, p):
        f = _fitted(kind, p)
        row = np.array([0.4, -0.7])[:p]
        got = f(0.3, row)
        assert type(got) is float
        assert got == f(np.array([0.3]), row[None, :])[0]

    @POINTWISE_FNS
    def test_covariates_of_another_shape_are_rejected(self, kind):
        f = _fitted(kind, 2)
        with pytest.raises(ValueError):
            f(self.X, np.zeros(3))
        with pytest.raises(ValueError):
            f(self.X, np.zeros((self.X.shape[0] + 1, 2)))
