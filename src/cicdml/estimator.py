"""Cross-fitted estimation: repetitions, estimating equations, inference.

The full procedure: repeat S times {partition into K folds, fit nuisances
on each fold's complement, solve the pooled estimating equation built
from the orthogonal score, estimate its variance}; aggregate the S
repetitions by medians (variance inflated by the squared deviation of
each repetition from the median point estimate); form a normal-quantile
confidence interval. One engine, ``_CrossFit``, forms every score,
the controls' correction included, and one solve, ``_CrossFit.solve``,
serves every estimand: the ATT is the treated mean minus the mean link,
the QTT the treated quantile minus the quantile link, a CDT or general
moment the link alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist
from typing import Callable, List, Optional, Tuple

import numpy as np

from .data_model import (
    EstimandKind,
    EstimandSpec,
    FoldAssignment,
    PanelDataset,
    partition_folds,
    validate,
)
from .eif import GTildeSpec, gtilde_cdf_indicator, gtilde_counterfactual_mean, gtilde_quantile
from .errors import (
    DegenerateArm,
    InsufficientData,
    NoBracket,
    NonFiniteValue,
    NoTreatedInEvaluation,
)
from .nuisance import (
    DEFAULT_EPS_CLIP,
    DEFAULT_F_MIN,
    QUANTILE_SLACK,
    NuisanceSet,
    _grid_nodes,
    _node_odds_table,
    _odds_nodes,
    _signed_prefix,
    _signed_values,
    estimate_pi,
    fit_density,
    fit_gamma,
    fit_nu,
    integrate_nu_many,
    signed_odds,
)

ROOT_SCAN_POINTS = 256  # equally spaced points of each root-solver scan
ROOT_TOL = 1e-8         # width of the scan cell that ends the root solve


@dataclass(frozen=True)
class CrossFitConfig:
    """Settings for the cross-fitted estimator.

    K folds, S repetitions, confidence level alpha, master seed,
    nuisance options (bandwidth, propensity clip, density floor ``f_min``,
    in units of 1/sd of each density's sample, see
    :class:`cicdml.nuisance.DensityFn`), and
    whether folds are stratified by treatment arm. Every nuisance uses
    the Gaussian product kernel. A ``bandwidth``, one finite positive
    number, is used for every kernel coordinate; None keeps each
    nuisance fit's own rule (see :func:`cicdml.nuisance.fit_nu`).
    """

    K: int = 5
    S: int = 1
    alpha: float = 0.05
    seed: int = 0
    bandwidth: Optional[float] = None
    eps_clip: float = DEFAULT_EPS_CLIP
    f_min: float = DEFAULT_F_MIN
    stratify: bool = True

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("K must be at least 2")
        if self.S < 1:
            raise ValueError("S must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if 1.0 - self.alpha / 2.0 == 1.0:
            raise ValueError("alpha is too small: 1 - alpha/2 rounds to 1")
        if not 0.0 < self.eps_clip < 0.5:
            raise ValueError("eps_clip must lie in (0, 0.5)")
        if not 0.0 < self.f_min < np.inf:
            raise ValueError("f_min must be finite and positive")
        bw = self.bandwidth
        if bw is not None and not (np.ndim(bw) == 0 and 0.0 < float(bw) < np.inf):
            raise ValueError("bandwidth must be one finite positive number")


@dataclass(frozen=True)
class EstimateReport:
    """Output of one cross-fitted run: estimate, variance, interval,
    per-repetition diagnostics, and configuration echoes."""

    theta_hat: float
    sigma2_hat: float
    ci_lo: float
    ci_hi: float
    per_rep: Tuple[Tuple[float, float], ...]
    estimand: EstimandSpec
    n: int
    K: int
    S: int
    alpha: float
    seed: int

    def to_dict(self) -> dict:
        """The fields in order, the estimand as its kind, then the
        estimand's ``y_point`` or ``tau`` when set."""
        d = dict(vars(self), estimand=self.estimand.kind.value)
        if self.estimand.y_point is not None:
            d["y_point"] = self.estimand.y_point
        if self.estimand.tau is not None:
            d["tau"] = self.estimand.tau
        return d


def _rep_seed(seed: int, s: int) -> int:
    return int(np.random.SeedSequence(entropy=(int(seed), int(s), 0xCF17)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Per-fold nuisance fitting
# ---------------------------------------------------------------------------


def fit_fold_nuisances(data: PanelDataset, train_idx: np.ndarray, cfg: CrossFitConfig,
                       spec: Optional[EstimandSpec] = None) -> NuisanceSet:
    """Fit (gamma, nu, pi), and the treated outcome densities that the
    estimand ``spec`` reads, on a training complement.

    A quantile-type counterfactual link reads the density of the
    transported outcome, and the QTT's treated quantile that of y1
    (:meth:`_CrossFit.solve`); other estimands, and ``spec`` None, read
    neither. The transport map is fitted on training controls only; the odds
    regression uses the whole training set with the fitted map applied
    first, and with covariates picks its bandwidth scale by held-out
    Riesz loss within the complement (:func:`cicdml.nuisance.fit_nu`).
    ``cfg.bandwidth``, when set, replaces every rule-of-thumb bandwidth.
    """
    y0 = data.y0[train_idx]
    y1 = data.y1[train_idx]
    a = data.a[train_idx]
    l = data.l[train_idx]
    n_treated = int((a == 1).sum())
    n_control = int((a == 0).sum())
    if n_treated == 0 or n_control == 0:
        raise DegenerateArm("training complement lost a treatment arm")
    if n_control < 2:
        raise InsufficientData("need at least 2 control units to fit the transport map")

    ctrl = a == 0
    gamma = fit_gamma(y0[ctrl], y1[ctrl], l[ctrl], bandwidth=cfg.bandwidth)

    x_train = gamma(y0, l)
    nu = fit_nu(x_train, l, a, bandwidth=cfg.bandwidth, eps_clip=cfg.eps_clip)
    pi = estimate_pi(a)

    dens_y1 = dens_gamma = None
    if spec is not None:
        treated = a == 1
        if counterfactual_link(spec).dtheta == "gamma-density":
            dens_gamma = fit_density(x_train[treated], bandwidth=cfg.bandwidth, f_min=cfg.f_min)
        if spec.kind == EstimandKind.QTT:
            dens_y1 = fit_density(y1[treated], bandwidth=cfg.bandwidth, f_min=cfg.f_min)
    return NuisanceSet(gamma=gamma, nu=nu, pi=pi,
                       dens_y1_treated=dens_y1, dens_gamma_treated=dens_gamma)


def counterfactual_link(spec: EstimandSpec) -> GTildeSpec:
    """The counterfactual link of an estimand: the mean link for the ATT,
    the quantile link at tau for the QTT, the distribution link at
    y_point for the CDT, and a general moment's own link."""
    if spec.kind == EstimandKind.ATT:
        return gtilde_counterfactual_mean()
    if spec.kind == EstimandKind.QTT:
        return gtilde_quantile(spec.tau)
    if spec.kind == EstimandKind.CDT:
        return gtilde_cdf_indicator(spec.y_point)
    return spec.gtilde


class _Fold:
    """One fold: its nuisances ``eta``, evaluation ``units`` and their
    transported outcomes ``gamma``; its controls' indices ``ctrl``,
    intervals (``lo``, ``hi``) = (y1, gamma), covariates ``l`` and weights
    ``w`` = 1/pi, each sliced once; and their odds ``nodes``, node-odds
    ``table`` and the table's weighted running sums in the order of each
    end, ``prefix`` (:func:`cicdml.nuisance._signed_prefix`), each built on
    first use and kept for every later solve."""

    def __init__(self, data: PanelDataset, eta: NuisanceSet, units: np.ndarray):
        self.eta, self.units = eta, units
        self.gamma = eta.gamma(data.y0[units], data.l[units])
        is_ctrl = data.a[units] == 0
        self.ctrl = units[is_ctrl]
        self.lo, self.hi, self.l = data.y1[self.ctrl], self.gamma[is_ctrl], data.l[self.ctrl]
        self.w = np.full(self.ctrl.shape[0], 1.0 / eta.pi)

    @cached_property
    def nodes(self) -> np.ndarray:
        return _odds_nodes(self.lo, self.hi, self.eta.nu)

    @cached_property
    def table(self) -> np.ndarray:
        return _node_odds_table(self.nodes, self.l, self.eta.nu)

    @cached_property
    def prefix(self) -> tuple:
        return _signed_prefix(self.table, self.lo, self.hi, self.w)


class _CrossFit:
    """One repetition's folds (:class:`_Fold`), with each unit's
    transported baseline outcome and fold-specific pi in dataset order,
    computed once and shared by every solve."""

    def __init__(self, data: PanelDataset, folds: FoldAssignment,
                 fitted: List[NuisanceSet]):
        self.data = data
        self.folds = [_Fold(data, eta, folds.eval_indices(k)) for k, eta in enumerate(fitted)]
        self.gamma_of = self.fold_values(lambda f: f.gamma)
        self.pi_of = self.fold_values(lambda f: f.eta.pi)

    def fold_values(self, fn: Callable[[_Fold], object]) -> np.ndarray:
        """``fn`` of each unit's fold, a value per fold or per fold unit."""
        out = np.empty(self.data.n)
        for f in self.folds:
            out[f.units] = fn(f)
        return out

    def terms(self, link: GTildeSpec, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Link value at every unit's transported outcome, and the control
        correction C, with the odds of each control's fold, in dataset
        order (zero for treated units).

        C is the oriented integral of the odds against the link's
        variation in x over (y1, gamma], or minus it over (gamma, y1]. A
        smooth link integrates the odds times ``dx``
        (:func:`cicdml.nuisance.integrate_nu_many`): a constant ``dx``
        scales the plain odds integral, a callable one weights the node
        odds. A step link sums its jump sizes against the signed odds at
        its jumps (:func:`cicdml.nuisance.signed_odds`), one call per
        fold: the QTT's correction at its root is one."""
        corr = np.zeros(self.data.n)
        if link.jumps is not None:
            pts, sizes = link.jumps(t)
            sizes = np.asarray(sizes, dtype=float)
            for f in self.folds:
                for j, signed in signed_odds(pts, f.lo, f.hi, f.l, f.eta.nu):
                    corr[f.ctrl[j]] = sizes @ signed
                    del signed
        else:
            # Called by this module's name, so a wrapper installed on
            # estimator.integrate_nu_many sees every odds integral.
            for f in self.folds:
                if f.ctrl.size:
                    args = (f.lo, f.hi, f.l, f.eta.nu)
                    corr[f.ctrl] = (integrate_nu_many(*args, lambda x: link.dx(x, t))
                                    if callable(link.dx) else link.dx * integrate_nu_many(*args))
        return np.asarray(link.value(self.gamma_of, t), dtype=float), corr

    def scores(self, v: np.ndarray, corr: np.ndarray, slope) -> np.ndarray:
        """Per-unit scores ``(a v - (1 - a) C) / (-pi slope)``."""
        a = self.data.a
        return (a * v - (1 - a) * corr) / (-self.pi_of * slope)

    def solve_affine(self, h: np.ndarray, corr: np.ndarray,
                     dtheta: float) -> Tuple[float, np.ndarray]:
        """Closed-form root of a moment affine in the target,
        ``t = sum((a h - (1 - a) C) / pi) / (-dtheta sum(a / pi))`` with h
        the link value at t = 0, and the per-unit scores at the root."""
        a = self.data.a
        den = -dtheta * float(np.sum(a / self.pi_of))
        if den == 0.0:
            raise NoTreatedInEvaluation("no treated units in the evaluation folds")
        t = float(np.sum((a * h - (1 - a) * corr) / self.pi_of)) / den
        return t, self.scores(h + dtheta * t, corr, dtheta)

    def quantile_root(self, link: GTildeSpec) -> float:
        """First crossing of zero of a quantile-type link's pi-weighted
        moment (:func:`solve_quantile_root`): scans of the outcome range,
        padded as the odds antiderivative's nodes are
        (:func:`cicdml.nuisance._grid_nodes`), then of the cell that holds
        the crossing. A fitted moment need not be monotone; the smallest
        crossing is kept.

        The moment is evaluated on an array of t as two lookups, each a
        binary search and a few reads per point. The link's value summed
        over the treated is, for a link 1{x < t} - c, the running 1/pi
        weight of the sorted treated transported outcomes below t plus
        value(+inf, t) times their total weight. The controls' part is the
        1/pi-weighted sum, over the controls whose interval (y1, gamma] or
        (gamma, y1] holds t, of the interval's sign times the odds, which
        is minus the control correction of the link's unit step down at t.
        It takes each fold's node odds (:attr:`_Fold.table`, built on the
        first scan and kept) through their Catmull-Rom interpolant, and
        reads it from the table's running sums in the order of each end
        (:attr:`_Fold.prefix`, :func:`cicdml.nuisance._signed_values`), as
        the interpolant is linear in the node odds. The correction at the
        root, from which the scores are formed, takes the exact signed odds
        (:meth:`terms`).
        """
        data = self.data
        treated = data.a == 1
        g_treat = self.gamma_of[treated]
        order = np.argsort(g_treat, kind="stable")
        g_treat = g_treat[order]
        w_run = np.concatenate([[0.0], np.cumsum(1.0 / self.pi_of[treated][order])])
        folds = [f for f in self.folds if f.ctrl.size]

        def moment(t: np.ndarray) -> np.ndarray:
            val = w_run[np.searchsorted(g_treat, t)]
            val += np.asarray(link.value(np.inf, t), dtype=float) * w_run[-1]
            for f in folds:
                val += _signed_values(f.nodes, f.table, f.prefix, t)
            return val

        return solve_quantile_root(moment, bracket=_grid_nodes(data.y1, self.gamma_of, 2))

    def solve_link(self, link: GTildeSpec) -> Tuple[float, np.ndarray]:
        """Target value and per-unit scores of a link's pooled estimating
        equation: closed form for affine links, root-solved for
        quantile-type links (with the fold densities of the transported
        outcome as the moment derivative)."""
        if link.dtheta != "gamma-density":
            h, corr = self.terms(link, 0.0)
            return self.solve_affine(h, corr, float(link.dtheta))
        t = self.quantile_root(link)
        v, corr = self.terms(link, t)
        return t, self.scores(v, corr, self.fold_values(
            lambda f: float(f.eta.dens_gamma_treated(t))))

    def solve(self, spec: EstimandSpec) -> Tuple[float, np.ndarray]:
        """Target value and per-unit scores of an estimand: its treated
        part, the 1/pi-weighted treated mean or tau-quantile
        (:func:`weighted_quantile`, with the fold densities of y1 as its
        moment derivative), minus its :func:`counterfactual_link`, or the
        link alone. The treated part is solved first, so that folds
        without treated units raise :class:`NoTreatedInEvaluation` there."""
        data = self.data
        if spec.kind == EstimandKind.ATT:
            t1, psi1 = self.solve_affine(data.y1, np.zeros(data.n), -1.0)
        elif spec.kind == EstimandKind.QTT:
            tr = data.a == 1
            t1 = weighted_quantile(data.y1[tr], 1.0 / self.pi_of[tr], spec.tau)
            f1 = self.fold_values(lambda f: float(f.eta.dens_y1_treated(t1)))
            psi1 = data.a / self.pi_of * ((data.y1 <= t1) - spec.tau) / (-f1)
        else:
            return self.solve_link(counterfactual_link(spec))
        t2, psi2 = self.solve_link(counterfactual_link(spec))
        return t1 - t2, psi1 - psi2


def solve_att_once(data: PanelDataset, folds: FoldAssignment,
                   fitted: List[NuisanceSet]) -> Tuple[float, float]:
    """Solve the pooled ATT estimating equation for one fold assignment:
    the 1/pi-weighted treated mean minus the counterfactual-mean link,
    each in closed form (:meth:`_CrossFit.solve`). Returns the point
    estimate and the mean squared score (:func:`_mean_square`)."""
    theta, psi = _CrossFit(data, folds, fitted).solve(EstimandSpec.att())
    return theta, _mean_square(psi)


def _mean_square(psi: np.ndarray) -> float:
    """A repetition's variance, the mean of the squared scores: inf,
    without a numpy warning, where a square or their sum overflows, so
    that :func:`estimate`'s finiteness check is the one report of it."""
    with np.errstate(over="ignore"):
        return float(np.mean(psi * psi))


def att_psi_values(data: PanelDataset, folds: FoldAssignment, fitted: List[NuisanceSet],
                   theta: float) -> np.ndarray:
    """Per-unit ATT scores at a given target value: the ATT score that
    ``validation`` evaluates along its nuisance perturbations (one fold,
    the same nuisances for every unit)."""
    cf = _CrossFit(data, folds, fitted)
    h, corr = cf.terms(gtilde_counterfactual_mean(), 0.0)
    return cf.scores(data.y1 - h - theta, -corr, -1.0)


# ---------------------------------------------------------------------------
# Root finding for quantile-type estimating equations
# ---------------------------------------------------------------------------


def solve_quantile_root(estimating_fn: Callable, bracket: Tuple[float, float]) -> float:
    """Smallest point where an empirical moment crosses zero.

    ``estimating_fn`` takes an array of points and returns the moment at
    each. One call on ``ROOT_SCAN_POINTS`` equally spaced points of the
    bracket finds the first point where the moment is nonnegative. The
    cell before it is scanned in the same way, at its inner points, and so
    on until the cell is at most tol = ``ROOT_TOL`` min(1, bracket width)
    wide or holds no float inside: at most 1 + ceil(log(cell / tol) /
    log(ROOT_SCAN_POINTS - 1)) calls. A bracket under 1 wide so scales its
    tolerance with it. The right end of the last cell is returned. A
    moment that crosses zero more than once keeps its first crossing.
    """
    def nonnegative(t: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(estimating_fn(t), dtype=float), t.shape) >= 0.0

    lo, hi = float(bracket[0]), float(bracket[1])
    tol = ROOT_TOL * min(hi - lo, 1.0)
    grid = np.linspace(lo, hi, ROOT_SCAN_POINTS)
    hits = np.flatnonzero(nonnegative(grid))
    if hits.size == 0:
        raise NoBracket(f"no sign change on [{lo:g}, {hi:g}]")
    j = int(hits[0])
    if j == 0:
        return lo
    # A cell with no float inside, at large outcomes, cannot shrink.
    while grid[j] - grid[j - 1] > tol and np.nextafter(grid[j - 1], grid[j]) < grid[j]:
        grid = np.linspace(grid[j - 1], grid[j], ROOT_SCAN_POINTS)
        # The moment is negative at the cell's left end and nonnegative
        # at its right end.
        j = 1 + int(np.argmax(np.append(nonnegative(grid[1:-1]), True)))
    return float(grid[j])


def weighted_quantile(y: np.ndarray, w: np.ndarray, tau: float) -> float:
    """The w-weighted tau-quantile of y: the generalized inverse
    inf{t : sum(w 1{y <= t}) >= tau sum(w)}, read from the cumulative
    weights of y in sorted order, with the target lowered by
    ``QUANTILE_SLACK`` as :class:`cicdml.nuisance.CondQuantile` lowers it."""
    if y.shape[0] == 0:
        raise NoTreatedInEvaluation("no treated units for the treated quantile")
    order = np.argsort(y, kind="stable")
    cum = np.cumsum(w[order])
    return float(y[order[np.searchsorted(cum, tau * cum[-1] * (1.0 - QUANTILE_SLACK))]])


# ---------------------------------------------------------------------------
# Aggregation and intervals
# ---------------------------------------------------------------------------


def median_adjust(reps: List[Tuple[float, float]]) -> Tuple[float, float]:
    """Median-aggregate repetition estimates and variances.

    The point estimate is the median of the per-repetition estimates;
    the variance is the median of the per-repetition variances inflated
    by the squared distance of each estimate from the median. Even
    counts use the average of the two central order statistics.
    """
    thetas = np.array([r[0] for r in reps], dtype=float)
    sig2s = np.array([r[1] for r in reps], dtype=float)
    theta_hat = float(np.median(thetas))
    sigma2_hat = float(np.median(sig2s + (thetas - theta_hat) ** 2))
    return theta_hat, sigma2_hat


def confidence_interval(theta_hat: float, sigma2_hat: float, n: int,
                        alpha: float) -> Tuple[float, float]:
    """Normal interval: theta +/- z_{alpha/2} sigma / sqrt(n).

    The quantile z_{alpha/2} is the standard library's
    ``NormalDist().inv_cdf``, within a few ulp of scipy's ``norm.ppf``."""
    half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * np.sqrt(sigma2_hat / n)
    return theta_hat - half, theta_hat + half


# ---------------------------------------------------------------------------
# Full cross-fitted procedure
# ---------------------------------------------------------------------------


def _check_scale(data: PanelDataset, cfg: CrossFitConfig) -> None:
    """Reject, before any fit, data too large for float arithmetic and a
    set bandwidth too small for them, from each column's two ends, read
    once. Each column (y0, y1 and every covariate) enters sums of its n
    values, as means, and of n squared deviations, as the rule-of-thumb
    bandwidths' variances: its largest magnitude must stay under max float
    / n and its spread under r = sqrt(max float / n). The odds grid's node
    count, ``GRID_PER_BANDWIDTH`` times the outcomes' spread over a
    bandwidth, is then finite too. A mean-type score's numerator, a
    treated unit's link value or a control's odds (at most 1 / eps_clip)
    over its interval (y1, gamma], is at most the outcomes' spread over
    eps_clip, and the variance sums n of their squares: the outcomes'
    spread must stay under eps_clip r.

    A kernel coordinate is an outcome on y1's scale or a covariate; its
    values lie within 1.1 times its spread in the data of each other and
    of their mean (the odds nodes pad the outcomes' range by 5% a side).
    So every term that the product form of the distances
    (:func:`cicdml.nuisance._expanded_sq_distances`) sums over d <= p + 1
    coordinates is at most 4 d (1.1 spread / h)^2, which a set bandwidth h
    must keep finite for the widest of y1 and the covariates."""
    root = float(np.sqrt(np.finfo(float).max / data.n))
    ends = [(float(c.min()), float(c.max())) for c in (data.y0, data.y1, *data.l.T)]
    spread = [hi - lo for lo, hi in ends]      # a float difference overflows to inf
    for what, value, limit in (
            ("the outcomes' spread", max(spread[:2]), cfg.eps_clip * root),
            ("the covariates' spread", max(spread[2:], default=0.0), root),
            ("their largest magnitude", max(max(-lo, hi) for lo, hi in ends), root * root)):
        if not value < limit:
            raise ValueError(f"these data are too large for float arithmetic: {what}, "
                             f"{value:.6g}, passes {limit:.6g}, where the bandwidths, the "
                             f"odds grid or the variance over {data.n} units overflow")
    if cfg.bandwidth is None:
        return
    widest = max(spread[1:])
    limit = cfg.bandwidth * np.sqrt(np.finfo(float).max / (4.84 * (data.l.shape[1] + 1)))
    if not widest < limit:
        raise ValueError(f"bandwidth {cfg.bandwidth!r} is too small for these data: their "
                         f"spread, {widest:.6g}, passes {limit:.6g}, where the kernels' "
                         f"squared distances overflow")


def estimate(data: PanelDataset, spec: EstimandSpec, cfg: CrossFitConfig) -> EstimateReport:
    """Run the full cross-fitted procedure for one estimand.

    For each repetition: random (optionally arm-stratified) K-fold
    partition with a seed derived from (cfg.seed, repetition), fold-wise
    nuisance fits on complements, estimating-equation solve, variance.
    Repetitions are median-aggregated and a normal interval is attached.
    Deterministic given the configuration. Data too large for float
    arithmetic, and a set bandwidth too small for them, raise ValueError
    before any fit (one check, :func:`_check_scale`); a repetition whose
    estimate or variance (:func:`_mean_square`) is not finite raises
    :class:`NonFiniteValue`, which no numpy warning precedes.
    """
    validate(data)
    _check_scale(data, cfg)
    reps: List[Tuple[float, float]] = []
    for s in range(1, cfg.S + 1):
        folds = partition_folds(data.n, cfg.K,
                                stratify_on=data.a if cfg.stratify else None,
                                seed=_rep_seed(cfg.seed, s))
        fitted = [fit_fold_nuisances(data, folds.train_indices(k), cfg, spec)
                  for k in range(cfg.K)]
        if spec.kind == EstimandKind.ATT:
            # Called by this module's name: perfbench/layers.py wraps
            # estimator.solve_att_once, and tests/test_perfbench_layers.py
            # requires spans from it.
            rep = solve_att_once(data, folds, fitted)
        else:
            theta, psi = _CrossFit(data, folds, fitted).solve(spec)
            rep = (theta, _mean_square(psi))
        if not np.isfinite(rep).all():
            raise NonFiniteValue(f"repetition {s}: the estimate or its variance is not finite")
        reps.append(rep)
    theta_hat, sigma2_hat = median_adjust(reps)
    ci_lo, ci_hi = confidence_interval(theta_hat, sigma2_hat, data.n, cfg.alpha)
    return EstimateReport(theta_hat=theta_hat, sigma2_hat=sigma2_hat,
                          ci_lo=ci_lo, ci_hi=ci_hi, per_rep=tuple(reps),
                          estimand=spec, n=data.n, K=cfg.K, S=cfg.S,
                          alpha=cfg.alpha, seed=cfg.seed)
