import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import erfinv, ndtri

from cicdml import estimator, nuisance
from cicdml.data_model import EstimandSpec, FoldAssignment, PanelDataset, partition_folds
from cicdml.dgp import ConstantNu, gen_did, gen_stm, named_config, true_nuisances
from cicdml.eif import gtilde_counterfactual_mean, gtilde_quantile
from cicdml.errors import (
    CicError,
    DegenerateArm,
    InsufficientData,
    NoBracket,
    NoTreatedInEvaluation,
)
from cicdml.estimator import (
    CrossFitConfig,
    _CrossFit,
    att_psi_values,
    confidence_interval,
    estimate,
    fit_fold_nuisances,
    median_adjust,
    solve_att_once,
    solve_quantile_root,
    weighted_quantile,
)
from cicdml.nuisance import NuisanceSet, fit_cond_quantile


def _general(gtilde):
    from cicdml.data_model import EstimandKind
    return EstimandSpec(kind=EstimandKind.GENERAL_MOMENT, gtilde=gtilde)


class LookupGamma:
    """Maps chosen baseline outcomes to chosen transported values."""

    def __init__(self, table):
        self.table = dict(table)

    def __call__(self, y, l=None):
        if np.isscalar(y):
            return self.table[float(y)]
        return np.array([self.table[float(v)] for v in np.asarray(y)])


def two_fold_assignment(n):
    # Alternating folds keep the construction independent of RNG details.
    return FoldAssignment(fold_of=np.arange(n) % 2, K=2)


class TestSolveAttOnce:
    def test_all_treated_reduces_to_mean_gain(self):
        y0 = np.array([1.0, 2.0, 3.0, 4.0])
        y1 = np.array([3.0, 2.5, 4.0, 7.0])
        data = PanelDataset(y0=y0, y1=y1, a=np.ones(4, dtype=int), l=np.empty((4, 0)))
        eta = NuisanceSet(gamma=lambda y, l=None: np.asarray(y, dtype=float),
                          nu=ConstantNu(1.0), pi=1.0)
        folds = two_fold_assignment(4)
        theta, _ = solve_att_once(data, folds, [eta, eta])
        assert theta == pytest.approx(np.mean(y1 - y0))

    def test_hand_computed_estimating_equation(self):
        # Treated contrasts 2 and 3; control odds integrals +2 and -2;
        # two treated units: theta = (2 + 3 + 2 - 2) / 2 = 2.5.
        y0 = np.array([0.5, 0.6, 0.7, 0.8])
        y1 = np.array([5.0, 7.0, 1.0, 4.0])
        a = np.array([1, 1, 0, 0])
        gamma = LookupGamma({0.5: 3.0, 0.6: 4.0, 0.7: 3.0, 0.8: 2.0})
        eta = NuisanceSet(gamma=gamma, nu=ConstantNu(1.0), pi=0.5)
        data = PanelDataset(y0=y0, y1=y1, a=a, l=np.empty((4, 0)))
        folds = two_fold_assignment(4)
        theta, _ = solve_att_once(data, folds, [eta, eta])
        assert theta == pytest.approx(2.5)

    def test_variance_of_mean_zero_scores(self):
        # Treated contrasts (2, 0, 1, 1) give theta = 1 and scores
        # (1, -1, 0, 0), whose mean square is 0.5.
        y0 = np.zeros(4)
        y1 = np.array([2.0, 0.0, 1.0, 1.0])
        data = PanelDataset(y0=y0, y1=y1, a=np.ones(4, dtype=int), l=np.empty((4, 0)))
        eta = NuisanceSet(gamma=lambda y, l=None: np.zeros_like(np.asarray(y, dtype=float)),
                          nu=ConstantNu(1.0), pi=1.0)
        folds = two_fold_assignment(4)
        theta, sigma2 = solve_att_once(data, folds, [eta, eta])
        assert theta == pytest.approx(1.0)
        assert sigma2 == pytest.approx(0.5)

    def test_estimating_equation_residual(self):
        data, _ = gen_did(600, seed=9)
        folds = partition_folds(data.n, 3, stratify_on=data.a, seed=9)
        cfg = CrossFitConfig(K=3)
        fitted = [fit_fold_nuisances(data, folds.train_indices(k), cfg) for k in range(3)]
        theta, _ = solve_att_once(data, folds, fitted)
        psi = att_psi_values(data, folds, fitted, theta)
        assert abs(psi.sum()) <= 1e-8 * data.n


class TestFitFoldNuisances:
    def test_a_set_bandwidth_reaches_every_fit(self):
        data, _ = gen_stm(named_config("stm-cov", n=200, seed=3))
        eta = fit_fold_nuisances(data, np.arange(data.n), CrossFitConfig(bandwidth=0.3),
                                 EstimandSpec.qtt(0.5))
        assert np.all(eta.nu.h == 0.3)
        assert np.all(eta.gamma.cdf0.h == 0.3)
        assert eta.dens_y1_treated.h == 0.3
        assert eta.dens_gamma_treated.h == 0.3

    # The QTT alone reads the y1 density, in its treated quantile; every
    # quantile-type link reads the transported outcome's.
    @pytest.mark.parametrize("spec,densities", [
        (None, (False, False)),
        (EstimandSpec.att(), (False, False)),
        (EstimandSpec.cdt(1.0), (False, False)),
        (EstimandSpec.qtt(0.5), (True, True)),
        (_general(gtilde_quantile(0.5)), (False, True)),
        (_general(gtilde_counterfactual_mean()), (False, False)),
    ], ids=["none", "att", "cdt", "qtt", "quantile-link", "mean-link"])
    def test_each_estimand_fits_the_densities_it_reads(self, spec, densities):
        data, _ = gen_did(200, seed=3)
        eta = fit_fold_nuisances(data, np.arange(data.n), CrossFitConfig(), spec)
        assert (eta.dens_y1_treated is not None, eta.dens_gamma_treated is not None) == densities

    @pytest.mark.parametrize("a,error,match", [
        ([1, 1, 1, 1], DegenerateArm, "lost a treatment arm"),
        ([0, 0, 0, 0], DegenerateArm, "lost a treatment arm"),
        ([1, 1, 1, 0], InsufficientData, "at least 2 control units"),
    ], ids=["no-controls", "no-treated", "one-control"])
    def test_a_complement_needs_both_arms_and_two_controls(self, a, error, match):
        data = PanelDataset(y0=np.arange(6.0), y1=np.arange(6.0), a=np.array(a + [1, 0]),
                            l=np.empty((6, 0)))
        with pytest.raises(error, match=match):
            fit_fold_nuisances(data, np.arange(4), CrossFitConfig())

    # No vector can serve every fit: the transport map takes p
    # bandwidths, the odds regression 1 + p and the densities one.
    @pytest.mark.parametrize("bandwidth", [[0.3, 0.3], [0.3, 0.3, 0.3], np.array([0.3]),
                                           np.inf, np.nan, 0.0, -0.3])
    def test_the_bandwidth_is_one_finite_positive_number(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            CrossFitConfig(bandwidth=bandwidth)
        assert CrossFitConfig(bandwidth=np.float64(0.3)).bandwidth == 0.3

    # An infinite floor would make every score zero, and the interval a
    # point.
    @pytest.mark.parametrize("f_min", [np.inf, np.nan, 0.0, -1e-3])
    def test_the_density_floor_is_finite_and_positive(self, f_min):
        with pytest.raises(ValueError, match="f_min must be finite and positive"):
            CrossFitConfig(f_min=f_min)
        assert CrossFitConfig(f_min=2e-3).f_min == 2e-3

    def test_at_least_one_repetition(self):
        with pytest.raises(ValueError, match="S must be at least 1"):
            CrossFitConfig(S=0)


class TestSolveQuantileRoot:
    """The two quantile rules: the treated quantile read from weighted
    cumulative sums, and the first crossing of a moment by scans."""

    def test_empirical_cdf_median(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        assert weighted_quantile(samples, np.ones(4), 0.5) == 2.0

    def test_empirical_cdf_three_quarters(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        assert weighted_quantile(samples, np.ones(4), 0.75) == 3.0

    @staticmethod
    def brute_force_quantile(y, w, tau):
        """The smallest y_i at which the weighted CDF reaches tau, in
        exact rational arithmetic with tau as written."""
        total = sum(Fraction(int(v)) for v in w)
        for t in np.sort(y):
            if sum(Fraction(int(v)) for v in w[y <= t]) >= Fraction(str(tau)) * total:
                return float(t)

    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_quantile_with_ties_and_integer_weights(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        y = rng.integers(0, 6, n).astype(float)  # many ties
        w = rng.integers(1, 5, n).astype(float)
        for tau in (0.1, 0.25, 0.3, 0.5, 0.75, 0.9):
            assert weighted_quantile(y, w, tau) == self.brute_force_quantile(y, w, tau), tau

    def test_weighted_quantile_where_the_cdf_meets_tau(self):
        # Sorted, y = 1, 1, 2, 3, 3 with weights 2, 1, 3, 1, 1: the CDF
        # is 3/8 at 1 and 6/8 at 2, so tau = 3/8 and 6/8 stop there.
        y = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
        w = np.array([1.0, 2.0, 1.0, 3.0, 1.0])
        for tau, want in ((0.3, 1.0), (0.375, 1.0), (0.4, 2.0), (0.75, 2.0), (0.76, 3.0)):
            assert weighted_quantile(y, w, tau) == want == self.brute_force_quantile(y, w, tau)

    def test_unit_weights_agree_with_the_empirical_quantile(self):
        # tau * m can round up past an integer: 0.07 * 100 is
        # 7.000000000000001, and the quantile is still the 7th outcome.
        taus = np.arange(1, 100) / 100
        for m in range(2, 200):
            y = np.arange(1.0, m + 1)
            got = [weighted_quantile(y, np.ones(m), tau) for tau in taus]
            assert_array_equal(got, fit_cond_quantile(y)(taus), err_msg=f"m = {m}")

    def test_equal_fold_weights_take_the_treated_rank(self, monkeypatch):
        # Every fold has the same pi, so the 95 treated units weigh the
        # same, and tau = 0.2 is the 19th treated outcome.
        data, _ = gen_stm(named_config("did", n=200, seed=14))
        picked = []

        def spy(y, w, tau):
            picked.append(weighted_quantile(y, w, tau))
            return picked[-1]

        monkeypatch.setattr(estimator, "weighted_quantile", spy)
        estimate(data, EstimandSpec.qtt(0.2), CrossFitConfig(seed=14))
        treated = np.sort(data.y1[data.a == 1])
        assert treated.shape[0] == 95 and picked == [treated[18]]

    def test_treated_quantile_needs_treated_units(self):
        cf = _CrossFit(PanelDataset(y0=np.zeros(2), y1=np.array([1.0, 2.0]),
                                    a=np.zeros(2, dtype=int), l=np.empty((2, 0))),
                       FoldAssignment(fold_of=np.zeros(2, dtype=int), K=1),
                       [NuisanceSet(gamma=lambda y, l=None: np.zeros(np.shape(y)),
                                    nu=ConstantNu(1.0), pi=0.5)])
        with pytest.raises(CicError):
            cf.solve(EstimandSpec.qtt(0.5))

    def test_bisection_on_continuous_function(self):
        got = solve_quantile_root(lambda t: t - 1.5, bracket=(0.0, 4.0))
        assert got == pytest.approx(1.5, abs=1e-8)

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            solve_quantile_root(lambda t: -1.0, bracket=(0.0, 1.0))

    def test_a_moment_nonnegative_at_the_left_end_returns_it(self):
        calls = []

        def moment(t):
            calls.append(t.shape[0])
            return t - 0.5

        assert solve_quantile_root(moment, bracket=(0.5, 4.0)) == 0.5
        assert calls == [estimator.ROOT_SCAN_POINTS]

    def test_first_crossing_of_a_moment_that_is_not_monotone(self):
        # Negative, positive on (0.5, 0.6), negative, positive past 3.
        # Fitted QTT moments can cross zero more than once; the scan keeps
        # the smallest crossing, where bisection over the scan grid would
        # land on 3.
        def moment(t):
            return (t - 0.5) * (t - 0.6) * (t - 3.0)

        got = solve_quantile_root(moment, bracket=(0.0, 4.0))
        assert got == pytest.approx(0.5, abs=1e-8)
        assert moment(got) >= 0.0

    def test_first_crossing_inside_the_first_scan_cell(self):
        # Three crossings, all inside the first scan's cell [0, 1]; the
        # rescans of that cell keep the first, at 0.2.
        calls = []

        def moment(t):
            calls.append(t.shape[0])
            return (t - 0.2) * (t - 0.4) * (t - 0.9)

        got = solve_quantile_root(moment, bracket=(0.0, 255.0))
        # 5 calls: the scan, then one per 255-fold narrowing of [0, 1].
        assert len(calls) == 1 + math.ceil(math.log(1.0 / estimator.ROOT_TOL) / math.log(255))
        assert got == pytest.approx(0.2, abs=1e-8)
        assert moment(np.array([got]))[0] >= 0.0

    def test_root_at_float_resolution_ends(self):
        # Near 1e9 adjacent floats lie 1.2e-7 apart, wider than ROOT_TOL:
        # the scans stop at the cell of two adjacent floats, whose right
        # end is the first float where t - root >= 0.
        root = 1e9 + 0.3
        assert solve_quantile_root(lambda t: t - root, bracket=(1e9, 1e9 + 1.0)) == root


def fitted_engine(name, n, K=3, seed=11):
    """The score engine over K cross-fitted folds of a named model's data."""
    data, _ = gen_stm(named_config(name, n=n, seed=seed))
    folds = partition_folds(data.n, K, stratify_on=data.a, seed=seed)
    cfg = CrossFitConfig(K=K)
    return _CrossFit(data, folds, [fit_fold_nuisances(data, folds.train_indices(k), cfg)
                                   for k in range(K)])


def oracle_engine(name, n, seed=11):
    """The score engine over one fold with the model's true nuisances."""
    config = named_config(name, n=n, seed=seed)
    data, _ = gen_stm(config)
    return _CrossFit(data, FoldAssignment(fold_of=np.zeros(data.n, dtype=int), K=1),
                     [true_nuisances(config)])


def constant_odds_engine():
    """TestPsiQtt's two treated units at y1 = 1 and 5, with two controls
    at y1 = 0.5 and -1, the transported outcome 0 and unit odds."""
    y1 = np.array([1.0, 5.0, 0.5, -1.0])
    data = PanelDataset(y0=np.zeros(4), y1=y1, a=np.array([1, 1, 0, 0]), l=np.empty((4, 0)))
    eta = NuisanceSet(gamma=lambda y, l=None: np.zeros(np.shape(y)), nu=ConstantNu(1.0),
                      pi=0.5)
    return _CrossFit(data, FoldAssignment(fold_of=np.zeros(4, dtype=int), K=1), [eta])


def captured_moment(monkeypatch, cf, link):
    """The estimating function and scan nodes of ``cf.quantile_root(link)``,
    and the number of calls the root solve made of it."""
    seen = {"calls": 0}
    solve = estimator.solve_quantile_root

    def record(fn, bracket):
        def counted(t):
            seen["calls"] += 1
            return fn(t)
        seen.update(fn=fn, bracket=bracket, nodes=np.linspace(*bracket, 256))
        return solve(counted, bracket)

    monkeypatch.setattr(estimator, "solve_quantile_root", record)
    cf.quantile_root(link)
    monkeypatch.setattr(estimator, "solve_quantile_root", solve)
    return seen


def one_fold(cf, k=0):
    """The engine with fold k's nuisances for every unit: one fold, whose
    node-odds table is the whole moment's."""
    return _CrossFit(cf.data, FoldAssignment(fold_of=np.zeros(cf.data.n, dtype=int), K=1),
                     [cf.fitted[k]])


def table_nodes(cf, k=0):
    """The nodes of fold k's node-odds table: those of its controls' odds
    integral."""
    ctrl = cf.ctrl_of[k]
    return nuisance._odds_nodes(cf.data.y1[ctrl], cf.gamma_of[ctrl], cf.fitted[k].nu)


class TestQuantileMoment:
    """The QTT moment of the root solve, which reads each fold's node-odds
    table through its interpolant, against the per-point formula: the link
    summed over the treated minus the pi-weighted control corrections at
    each t, from the exact signed odds."""

    @staticmethod
    def per_point(cf, link, t):
        """The moment at t, its control part, and the sum of the absolute
        values of its terms."""
        treated = cf.data.a == 1
        v = np.asarray(link.value(cf.gamma_of[treated], t)) / cf.pi_of[treated]
        c = cf.terms(link, t)[1][~treated] / cf.pi_of[~treated]
        return np.sum(v) - np.sum(c), -np.sum(c), np.abs(v).sum() + np.abs(c).sum()

    def check(self, monkeypatch, cf, bound, t=None):
        """The moment at the points t, by default the first scan's 256
        nodes, within bound times the scale of the per-point formula's
        terms, with a control part that is not vacuous."""
        link = gtilde_quantile(0.5)
        moment = captured_moment(monkeypatch, cf, link)
        t = moment["nodes"] if t is None else t
        got = moment["fn"](t)
        want, ctrl, scale = np.array([self.per_point(cf, link, x) for x in t]).T
        assert np.all(np.abs(got - want) <= bound * scale)
        assert np.count_nonzero(ctrl) >= 20
        return got

    def check_root(self, monkeypatch, cf):
        """The root of the table's moment is the per-point moment's."""
        link = gtilde_quantile(0.5)
        bracket = captured_moment(monkeypatch, cf, link)["bracket"]
        exact = solve_quantile_root(
            lambda t: np.array([self.per_point(cf, link, x)[0] for x in t]), bracket)
        assert cf.quantile_root(link) == exact

    def check_engine(self, monkeypatch, cf, scan_bound):
        """At the table's own nodes (one fold), where the interpolant is the
        table, the per-point moment up to rounding; at the 256 nodes of the
        first scan, within the measured interpolation bound; and the same
        root."""
        one = one_fold(cf)
        self.check(monkeypatch, one, 1e-12, table_nodes(one))
        self.check(monkeypatch, cf, scan_bound)
        self.check_root(monkeypatch, cf)

    def test_fitted_odds_without_covariates(self, monkeypatch):
        # The per-point formula's one node takes the dense sums; so do the
        # tables here. Measured at the scan nodes: 1.8e-7.
        monkeypatch.setattr(nuisance, "_TAPS_PER_POINT", 0)
        self.check_engine(monkeypatch, fitted_engine("did", 400), 2e-7)

    def test_binned_scan_odds_stay_near_the_dense_ones(self, monkeypatch):
        # Every fold's table takes the binned sums on its nodes, h / 16
        # apart. Measured at the scan nodes: 6.9e-7 of the moment's absolute
        # terms.
        cf = fitted_engine("did", 1000)
        for k, eta in enumerate(cf.fitted):
            nu = eta.nu
            assert nuisance._binned_nw_sums(table_nodes(cf, k), nu.z[:, 0], nu.a,
                                            nu.h[0]) is not None
        link = gtilde_quantile(0.5)
        moment = captured_moment(monkeypatch, cf, link)
        nodes = moment["nodes"]
        binned = moment["fn"](nodes)
        monkeypatch.setattr(nuisance, "_TAPS_PER_POINT", 0)
        dense = captured_moment(monkeypatch, cf, link)["fn"](nodes)
        scale = np.array([self.per_point(cf, link, t)[2] for t in nodes])
        assert np.all(np.abs(binned - dense) <= 1e-4 * scale)
        assert not np.array_equal(binned, dense)

    def test_fitted_odds_with_covariates_across_unit_chunks(self, monkeypatch):
        # 4000 elements make tables of 7-unit chunks (m is about 267) and
        # scans of chunks of 20 to 62 points. Measured at the scan nodes:
        # 3.4e-7.
        monkeypatch.setattr(nuisance, "_CHUNK_BUDGET", 4000)
        cf = fitted_engine("stm-cov", 400)
        self.check_engine(monkeypatch, cf, 4e-7)
        nu = cf.fitted[0].nu
        assert 4000 // nuisance._unit_width(nu, table_nodes(cf).shape[0]) == 7

    def test_analytic_odds_with_covariates(self, monkeypatch):
        # GaussHermiteNu's node odds are its values on the node-by-unit
        # grid of ANTIDERIV_GRID nodes. Measured at the scan nodes: 5.0e-12.
        self.check_engine(monkeypatch, oracle_engine("stm-cov", 400), 1e-11)

    def test_odds_that_grow_fast_in_the_right_tail(self, monkeypatch):
        # stm-exp's odds grow fast in its long right tail, where the moment
        # is far from 0: measured 9.4e-4 at t = 23, under 1e-6 below t = 8.
        cf = fitted_engine("stm-exp", 400)
        self.check(monkeypatch, cf, 1e-3)
        self.check_root(monkeypatch, cf)

    def test_constant_odds(self, monkeypatch):
        # Equal node odds interpolate to their value exactly.
        link = gtilde_quantile(0.5)
        cf = constant_odds_engine()
        moment = captured_moment(monkeypatch, cf, link)
        got = moment["fn"](moment["nodes"])
        want = np.array([self.per_point(cf, link, t)[0] for t in moment["nodes"]])
        assert_allclose(got, want, rtol=1e-12, atol=0)
        # -2 up to -1, 0 on (-1, 0.5] where the controls cancel the
        # treated, 2 from 0.5 on.
        assert set(got) == {-2.0, 0.0, 2.0}
        self.check(monkeypatch, cf, 0.0, table_nodes(cf)[::8])
        self.check_root(monkeypatch, cf)

    @pytest.mark.parametrize("name", ["did", "stm-cov"])
    def test_one_table_and_one_root_correction_per_fold(self, monkeypatch, name):
        # However many scans the root solve makes, each fold calls
        # node_odds once for its table and once for its correction at the
        # root.
        cf = fitted_engine(name, 400)
        calls = []
        node_odds = nuisance.NuFn.node_odds

        def counted(nu, nodes, l):
            calls.append(np.shape(nodes)[0])
            return node_odds(nu, nodes, l)

        monkeypatch.setattr(nuisance.NuFn, "node_odds", counted)
        link = gtilde_quantile(0.5)
        moment = captured_moment(monkeypatch, cf, link)
        assert moment["calls"] >= 3 and len(calls) == 3
        calls.clear()
        cf.terms(link, cf.quantile_root(link))
        assert len(calls) == 2 * 3 and calls[3:] == [1, 1, 1]

    def test_link_solve_rescans_the_crossing_cell(self, monkeypatch):
        # One call on the scan grid, then one per 255-fold narrowing of
        # the grid cell that holds the crossing.
        cf = fitted_engine("stm-cov", 400)
        moment = captured_moment(monkeypatch, cf, gtilde_quantile(0.5))
        lo, hi = moment["bracket"]
        cell = (hi - lo) / 255
        assert moment["calls"] <= 1 + math.ceil(math.log(cell / estimator.ROOT_TOL)
                                                / math.log(255))

    def test_peak_memory_stays_bounded(self, monkeypatch):
        # One fold over all 2000 units: the table of about 1000 control
        # units is built in chunks of 262 against m = 2000 training rows,
        # and every scan reads it. Peaks near 17.3 MiB, table and scans
        # included; node odds for all units in one chunk peaked at 63 MiB.
        data, _ = gen_stm(named_config("stm-cov", n=2000, seed=1))
        eta = fit_fold_nuisances(data, np.arange(data.n), CrossFitConfig(K=5))
        cf = _CrossFit(data, FoldAssignment(fold_of=np.zeros(data.n, dtype=int), K=1), [eta])
        tracemalloc.start()
        try:
            cf.quantile_root(gtilde_quantile(0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 34 * 2 ** 20


class TestMedianAdjust:
    def test_single_repetition_identity(self):
        assert median_adjust([(1.7, 0.3)]) == (1.7, 0.3)

    def test_odd_count(self):
        theta, sigma2 = median_adjust([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
        assert theta == 2.0
        assert sigma2 == 2.0

    def test_even_count_uses_central_average(self):
        theta, sigma2 = median_adjust([(2.0, 4.0), (2.0, 6.0)])
        assert theta == 2.0
        assert sigma2 == 5.0

    def test_permutation_invariant(self):
        reps = [(0.3, 1.0), (1.1, 0.5), (-0.2, 2.0), (0.9, 0.1), (0.5, 0.7)]
        base = median_adjust(reps)
        rng = np.random.default_rng(1)
        for _ in range(5):
            perm = [reps[i] for i in rng.permutation(len(reps))]
            assert median_adjust(perm) == base


class TestConfidenceInterval:
    Z_975 = 1.959963984540054  # standard normal upper 2.5% point

    def test_nominal_95(self):
        lo, hi = confidence_interval(0.0, 1.0, 100, 0.05)
        assert lo == pytest.approx(-self.Z_975 / 10.0, abs=1e-12)
        assert hi == pytest.approx(self.Z_975 / 10.0, abs=1e-12)

    def test_zero_variance_degenerates(self):
        assert confidence_interval(1.3, 0.0, 50, 0.05) == (1.3, 1.3)

    def test_alpha_32_against_erfinv_oracle(self):
        z = float(np.sqrt(2.0) * erfinv(1.0 - 0.32))
        lo, hi = confidence_interval(0.0, 1.0, 1, 0.32)
        assert hi == pytest.approx(z, abs=1e-12)
        assert hi == pytest.approx(0.994458, abs=1e-6)

    @pytest.mark.parametrize("alpha", [1e-6, 0.001, 0.01, 0.05, 0.1, 0.2, 0.32, 0.5, 0.9])
    def test_quantile_within_4_ulp_of_scipy(self, alpha):
        # z comes from the standard library's NormalDist, not scipy.
        _, z = confidence_interval(0.0, 1.0, 1, alpha)
        want = float(ndtri(1.0 - alpha / 2.0))
        assert abs(z - want) <= 4.0 * np.spacing(want)


class TestEstimate:
    def test_att_accuracy_on_linear_model(self):
        data, truth = gen_did(5000, c=1.0, delta=2.0, seed=17)
        report = estimate(data, EstimandSpec.att(), CrossFitConfig(K=5, S=3, seed=17))
        assert abs(report.theta_hat - truth.att_true) <= 0.1
        assert report.ci_lo <= report.theta_hat <= report.ci_hi
        assert len(report.per_rep) == 3

    def test_bit_identical_reruns(self):
        data, _ = gen_did(800, seed=23)
        cfg = CrossFitConfig(K=4, S=2, seed=5)
        r1 = estimate(data, EstimandSpec.att(), cfg)
        r2 = estimate(data, EstimandSpec.att(), cfg)
        assert r1 == r2

    def test_k2_and_k5_both_cover(self):
        data, truth = gen_did(3000, seed=29)
        for K in (2, 5):
            report = estimate(data, EstimandSpec.att(), CrossFitConfig(K=K, seed=29))
            assert report.ci_lo <= truth.att_true <= report.ci_hi

    def test_ci_width_shrinks_at_root_n(self):
        widths = {400: [], 800: []}
        cfg = CrossFitConfig(K=3, S=1)
        for seed in range(50):
            for n in (400, 800):
                data, _ = gen_did(n, seed=1000 + seed)
                report = estimate(data, EstimandSpec.att(),
                                  CrossFitConfig(K=3, S=1, seed=seed))
                widths[n].append(report.ci_hi - report.ci_lo)
        ratio = np.mean(widths[400]) / np.mean(widths[800])
        assert abs(ratio - np.sqrt(2.0)) <= 0.15 * np.sqrt(2.0)

    def test_unstratified_path_runs(self):
        data, truth = gen_did(1500, seed=31)
        report = estimate(data, EstimandSpec.att(),
                          CrossFitConfig(K=5, seed=31, stratify=False))
        assert abs(report.theta_hat - truth.att_true) <= 0.2

    def test_cdt_estimate_matches_normal_cdf(self):
        # Untreated period-1 outcome is Normal(1, 2); its CDF at the
        # mean is one half.
        data, _ = gen_did(4000, c=1.0, delta=2.0, seed=37)
        report = estimate(data, EstimandSpec.cdt(1.0), CrossFitConfig(K=5, seed=37))
        assert abs(report.theta_hat - 0.5) <= 0.05

    def test_qtt_null_effect(self):
        cfg_null = named_config("did", n=4000, seed=43, effect=0.0)
        data, _ = gen_stm(cfg_null)
        report = estimate(data, EstimandSpec.qtt(0.5), CrossFitConfig(K=5, seed=43))
        assert abs(report.theta_hat) <= 0.1
        assert report.sigma2_hat > 0

    def test_general_moment_counterfactual_mean(self):
        from cicdml.data_model import EstimandKind
        from cicdml.eif import gtilde_counterfactual_mean
        data, _ = gen_did(2000, c=1.0, delta=2.0, seed=47)
        spec = EstimandSpec(kind=EstimandKind.GENERAL_MOMENT,
                            gtilde=gtilde_counterfactual_mean())
        report = estimate(data, spec, CrossFitConfig(K=5, seed=47))
        att = estimate(data, EstimandSpec.att(), CrossFitConfig(K=5, seed=47))
        mean_treated_y1 = float(np.mean(data.y1[data.a == 1]))
        assert report.theta_hat == pytest.approx(mean_treated_y1 - att.theta_hat,
                                                 abs=1e-8)


def _arm_balanced(data, K):
    """Drop the last units of each arm so both arm sizes divide by K; then
    every training complement has the same treated share."""
    keep = []
    for arm in (1, 0):
        idx = np.nonzero(data.a == arm)[0]
        keep.append(idx[:idx.size - idx.size % K])
    sel = np.sort(np.concatenate(keep))
    return PanelDataset(y0=data.y0[sel], y1=data.y1[sel], a=data.a[sel], l=data.l[sel])


class TestGeneralMomentLinks:
    @pytest.mark.parametrize("name,n,y", [("did", 2000, 1.0), ("stm-cov", 400, 1.0)])
    def test_cdf_indicator_link_equals_cdt(self, name, n, y):
        from cicdml.eif import gtilde_cdf_indicator
        data, _ = gen_stm(named_config(name, n=n, seed=5))
        cfg = CrossFitConfig(K=5)
        cdt = estimate(data, EstimandSpec.cdt(y), cfg)
        general = estimate(data, _general(gtilde_cdf_indicator(y)), cfg)
        assert 0.0 < cdt.theta_hat < 1.0
        assert general.theta_hat == pytest.approx(cdt.theta_hat, abs=1e-10)
        assert general.sigma2_hat == pytest.approx(cdt.sigma2_hat, rel=1e-10)

    @pytest.mark.parametrize("name,n", [("did", 2000), ("stm-cov", 400)])
    def test_treated_quantile_minus_quantile_link_equals_qtt(self, name, n):
        from cicdml.eif import gtilde_quantile
        K = 5
        data, _ = gen_stm(named_config(name, n=n, seed=5))
        data = _arm_balanced(data, K)
        y1_treated = np.sort(data.y1[data.a == 1])
        n1 = y1_treated.size
        # tau * n1 sits halfway between integers, so the quantile is unambiguous.
        tau = (n1 // 2 + 0.5) / n1
        cfg = CrossFitConfig(K=K, seed=3)
        qtt = estimate(data, EstimandSpec.qtt(tau), cfg)
        general = estimate(data, _general(gtilde_quantile(tau)), cfg)
        treated_q = float(y1_treated[n1 // 2])
        assert qtt.theta_hat == pytest.approx(treated_q - general.theta_hat, abs=1e-10)


class TestOneSolve:
    """Every estimand is a treated part minus a counterfactual link, or
    the link alone, solved by ``_CrossFit.solve``."""

    @pytest.mark.parametrize("name", ["did", "stm-cov"])
    def test_att_is_the_treated_mean_minus_the_mean_link(self, name):
        cf = fitted_engine(name, 400)
        data, w = cf.data, cf.data.a / cf.pi_of
        theta, psi = cf.solve(EstimandSpec.att())
        treated_mean = float(np.sum(w * data.y1) / np.sum(w))
        link, link_psi = cf.solve(_general(gtilde_counterfactual_mean()))
        assert theta == pytest.approx(treated_mean - link, abs=1e-12, rel=0)
        assert_allclose(psi, w * (data.y1 - treated_mean) - link_psi, rtol=0, atol=1e-12)
        # The joint closed form over the treated contrasts y1 - gamma.
        h, corr = cf.terms(gtilde_counterfactual_mean(), 0.0)
        joint = np.sum(w * (data.y1 - h) + (1 - data.a) * corr / cf.pi_of) / np.sum(w)
        assert theta == pytest.approx(joint, abs=1e-12, rel=0)

    def test_no_treated_units_raise_in_the_treated_mean(self):
        # The QTT's case is test_treated_quantile_needs_treated_units.
        cf = _CrossFit(PanelDataset(y0=np.zeros(2), y1=np.array([1.0, 2.0]),
                                    a=np.zeros(2, dtype=int), l=np.empty((2, 0))),
                       FoldAssignment(fold_of=np.zeros(2, dtype=int), K=1),
                       [NuisanceSet(gamma=lambda y, l=None: np.zeros(np.shape(y)),
                                    nu=ConstantNu(1.0), pi=0.5)])
        with pytest.raises(NoTreatedInEvaluation, match="no treated units"):
            cf.solve(EstimandSpec.att())


class TestParityPins:
    """End-to-end estimates pinned at rtol 1e-12, with and without covariates."""

    Y_POINT = {"did": 1.0, "stm-exp": 2.0, "stm-cov": 1.0}
    # The ATT pins moved when the odds antiderivative became fourth order
    # and p = 2 fitted odds took a grid sized by their x-bandwidth. The
    # 2048-node trapezoid antiderivative gave
    # (2.120972061067494, 8.541735598504788),
    # (2.725148810008458, 159.82974839663893) and
    # (1.9371820497320544, 8.361188205036278).
    # The p = 0 ATT pins moved again when p = 0 fitted odds took the
    # bandwidth-sized grid too; the fourth-order antiderivative on 2048
    # nodes gave (2.1209720379747634, 8.541736664529404) and
    # (2.7251490140582817, 159.82982184602517).
    PINNED = {
        ("did", "att"): (2.1209720364338547, 8.541736650735434),
        ("did", "cdt"): (0.5181396781912045, 1.1009073116074013),
        # The QTT pins move within ROOT_TOL when the link root's scan cell
        # is rescanned rather than bisected; bisection gave
        # (2.2471379202469537, 18.955723752492773),
        # (1.5715154170253296, 79.03628014163505) and
        # (2.081468745568436, 15.631747900154947).
        ("did", "qtt"): (2.2471379222512953, 18.95572373610454),
        ("stm-exp", "att"): (2.725148987079816, 159.82981761396763),
        ("stm-exp", "cdt"): (0.34610624216110186, 0.6814906332478567),
        ("stm-exp", "qtt"): (1.5715154203807988, 79.03627997026646),
        # Per-unit composite Simpson on 257 nodes gave
        # (1.9371820702266787, 8.361187680266523).
        ("stm-cov", "att"): (1.9371820711912053, 8.36118768842064),
        ("stm-cov", "cdt"): (0.44999982560885227, 1.0206760415541578),
        ("stm-cov", "qtt"): (2.0814687480930867, 15.63174790321695),
    }

    @pytest.mark.parametrize("name", ["did", "stm-exp", "stm-cov"])
    def test_pinned_estimates(self, name):
        data, _ = gen_stm(named_config(name, n=400, seed=11))
        specs = {"att": EstimandSpec.att(), "cdt": EstimandSpec.cdt(self.Y_POINT[name]),
                 "qtt": EstimandSpec.qtt(0.5)}
        for kind, spec in specs.items():
            report = estimate(data, spec, CrossFitConfig(K=3, seed=11))
            theta, sigma2 = self.PINNED[(name, kind)]
            assert report.theta_hat == pytest.approx(theta, rel=1e-12, abs=0), kind
            assert report.sigma2_hat == pytest.approx(sigma2, rel=1e-12, abs=0), kind

    # At n=4000 the p = 0 odds antiderivative takes its node sums from
    # binned training x. The trapezoid antiderivative gave
    # (2.0117710969829035, 8.260273460325386) and
    # (2.0587517497034367, 292.9280745584288) from binned sums, and
    # (2.0117711005524312, 8.260273556922177) and
    # (2.0587504423366556, 292.928390611057) from dense sums. The
    # fourth-order antiderivative on 2048 nodes gave
    # (2.011771053048796, 8.260272359748535) and
    # (2.05874853670364, 292.9278393519126); the bandwidth-sized grid
    # moved them.
    BINNED = {
        "did": (2.011770997650153, 8.260270856631383),
        "stm-exp": (2.0587501720099706, 292.92701248930524),
    }

    @pytest.mark.parametrize("name", ["did", "stm-exp"])
    def test_pinned_binned_odds_integral(self, monkeypatch, name):
        data, _ = gen_stm(named_config(name, n=4000, seed=11))
        config = CrossFitConfig(K=3, seed=11)
        binned = []
        sums = nuisance._binned_nw_sums

        def recorded(*args):
            binned.append(sums(*args))
            return binned[-1]

        monkeypatch.setattr(nuisance, "_binned_nw_sums", recorded)
        report = estimate(data, EstimandSpec.att(), config)
        assert len(binned) == 3 and all(b is not None for b in binned)
        theta, sigma2 = self.BINNED[name]
        assert report.theta_hat == pytest.approx(theta, rel=1e-12, abs=0)
        assert report.sigma2_hat == pytest.approx(sigma2, rel=1e-12, abs=0)
        # Within 1e-5 of the dense sums' estimate, and 1e-4 relative in
        # the variance.
        monkeypatch.setattr(nuisance, "_TAPS_PER_POINT", 0)
        dense = estimate(data, EstimandSpec.att(), config)
        assert report.theta_hat == pytest.approx(dense.theta_hat, abs=1e-5, rel=0)
        assert report.sigma2_hat == pytest.approx(dense.sigma2_hat, rel=1e-4, abs=0)

    # QTT at tau = 0.5, n=4000, K=5: the binned odds move no scan's sign,
    # so the estimate is the all-dense run's bit for bit. Every fold's
    # node-odds table takes the binned sums; the scans read the tables.
    BINNED_QTT = {
        "did": (1.9421447647559893, 17.442698250571347),
        "stm-exp": (2.0420531389360552, 42.15265578505238),
    }

    @pytest.mark.parametrize("name", ["did", "stm-exp"])
    def test_pinned_binned_qtt_scans(self, monkeypatch, name):
        data, _ = gen_stm(named_config(name, n=4000, seed=1))
        config = CrossFitConfig(K=5, seed=1)
        served = []
        sums = nuisance._binned_nw_sums

        def recorded(*args):
            out = sums(*args)
            served.append(out is not None)
            return out

        monkeypatch.setattr(nuisance, "_binned_nw_sums", recorded)
        report = estimate(data, EstimandSpec.qtt(0.5), config)
        theta, sigma2 = self.BINNED_QTT[name]
        # One binned table per fold, then one dense single-node call per
        # fold for the correction at the root.
        assert served == [True] * 5 + [False] * 5
        assert report.theta_hat == pytest.approx(theta, rel=1e-12, abs=0)
        assert report.sigma2_hat == pytest.approx(sigma2, rel=1e-12, abs=0)
        monkeypatch.setattr(nuisance, "_TAPS_PER_POINT", 0)
        dense = estimate(data, EstimandSpec.qtt(0.5), config)
        assert (report.theta_hat, report.sigma2_hat) == (dense.theta_hat, dense.sigma2_hat)

    def test_grid_odds_integral_matches_per_unit_simpson(self, monkeypatch):
        """The p = 2 ATT from the shared-grid odds antiderivative against
        per-unit composite Simpson on 257 nodes per interval, the rule
        integrate_nu_many once applied to odds without an integral_many of
        their own. Measured: 9.6e-10 in the estimate and 9.8e-10 relative in
        the variance."""
        def simpson_integrals(lo, hi, l, nu):
            t = np.linspace(0.0, 1.0, 257)
            w = np.ones(257)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            x = lo[:, None] + (hi - lo)[:, None] * t[None, :]
            vals = np.asarray(nu(x.ravel(), np.repeat(l, 257, axis=0))).reshape(-1, 257)
            return (vals @ w) * (hi - lo) / (3.0 * 256)

        data, _ = gen_stm(named_config("stm-cov", n=400, seed=11))
        config = CrossFitConfig(K=3, seed=11)
        grid = estimate(data, EstimandSpec.att(), config)
        monkeypatch.setattr(estimator, "integrate_nu_many", simpson_integrals)
        simpson = estimate(data, EstimandSpec.att(), config)
        assert grid.theta_hat == pytest.approx(simpson.theta_hat, abs=1e-5, rel=0)
        assert grid.sigma2_hat == pytest.approx(simpson.sigma2_hat, rel=1e-4, abs=0)
        assert simpson.theta_hat == pytest.approx(1.9371820702266787, rel=1e-12, abs=0)
