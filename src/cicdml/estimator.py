"""Cross-fitted estimation: repetitions, estimating equations, inference.

The full procedure: repeat S times {partition into K folds, fit nuisances
on each fold's complement, solve the pooled estimating equation built
from the orthogonal score, estimate its variance}; aggregate the S
repetitions by medians (variance inflated by the squared deviation of
each repetition from the median point estimate); form a normal-quantile
confidence interval. Plug-in estimators that evaluate the identification
formulas directly (no cross-fitting, no inference) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .eif import (
    GTildeSpec,
    control_correction,
    gtilde_cdf_indicator,
    gtilde_counterfactual_mean,
    gtilde_quantile,
)
from .errors import DegenerateArm, InsufficientData, NoBracket, NoTreatedInEvaluation
from .nuisance import (
    DEFAULT_EPS_CLIP,
    DEFAULT_F_MIN,
    NuisanceSet,
    _grid_nodes,
    _row_chunk,
    estimate_pi,
    fit_cond_quantile,
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
    nuisance options (bandwidth, propensity clip, density floor), and
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
        if not 0.0 < self.eps_clip < 0.5:
            raise ValueError("eps_clip must lie in (0, 0.5)")
        if not self.f_min > 0.0:
            raise ValueError("f_min must be positive")
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
        d = {
            "theta_hat": self.theta_hat,
            "sigma2_hat": self.sigma2_hat,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "per_rep": [list(t) for t in self.per_rep],
            "estimand": self.estimand.kind.value,
            "n": self.n,
            "K": self.K,
            "S": self.S,
            "alpha": self.alpha,
            "seed": self.seed,
        }
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
                       need_densities: bool = False) -> NuisanceSet:
    """Fit (gamma, nu, pi) — and the treated outcome densities when asked —
    on a training complement.

    The transport map is fitted on training controls only; the odds
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
    if need_densities:
        treated = a == 1
        dens_y1 = fit_density(y1[treated], bandwidth=cfg.bandwidth, f_min=cfg.f_min)
        dens_gamma = fit_density(x_train[treated], bandwidth=cfg.bandwidth, f_min=cfg.f_min)
    return NuisanceSet(gamma=gamma, nu=nu, pi=pi,
                       dens_y1_treated=dens_y1, dens_gamma_treated=dens_gamma)


class _CrossFit:
    """One repetition's fold assignment and fitted nuisances, with each
    unit's transported baseline outcome and fold-specific pi in dataset
    order, computed once and shared by every estimand's solve."""

    def __init__(self, data: PanelDataset, folds: FoldAssignment,
                 fitted: List[NuisanceSet]):
        self.data = data
        self.folds = folds
        self.fitted = fitted
        self.gamma_of = np.empty(data.n)
        for k, eta in enumerate(fitted):
            ev = folds.eval_indices(k)
            self.gamma_of[ev] = eta.gamma(data.y0[ev], data.l[ev])
        self.pi_of = self.fold_values(lambda eta: eta.pi)
        self.ctrl = np.nonzero(data.a == 0)[0]

    def fold_values(self, fn: Callable[[NuisanceSet], float]) -> np.ndarray:
        """``fn`` of each unit's fold nuisances, per unit."""
        out = np.empty(self.data.n)
        for k, eta in enumerate(self.fitted):
            out[self.folds.eval_indices(k)] = fn(eta)
        return out

    def correction(self, link: GTildeSpec, t: float) -> np.ndarray:
        """Control correction of each control unit (in ``self.ctrl``
        order), with the odds of the unit's fold."""
        data = self.data
        out = np.empty(self.ctrl.shape[0])
        fold_c = self.folds.fold_of[self.ctrl]
        for k, eta in enumerate(self.fitted):
            sel = fold_c == k
            if sel.any():
                idx = self.ctrl[sel]
                # Passed by this module's name, so a wrapper installed on
                # estimator.integrate_nu_many sees every odds integral.
                out[sel] = control_correction(data.y1[idx], self.gamma_of[idx],
                                              data.l[idx], eta.nu, link, t,
                                              integrate=integrate_nu_many)
        return out

    def terms(self, link: GTildeSpec, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Link value at every unit's transported outcome, and the control
        correction in dataset order (zero for treated units)."""
        corr = np.zeros(self.data.n)
        corr[self.ctrl] = self.correction(link, t)
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

        The moment is evaluated on an array of t: the link's value summed
        over the treated at each t (row by row, as at a single t), plus
        the 1/pi-weighted sum of the signed odds of each fold's controls
        whose interval (y1, gamma] or (gamma, y1] holds t
        (:func:`cicdml.nuisance.signed_odds`), which is minus the control
        correction of the link's unit step down at t.
        """
        data = self.data
        treated = data.a == 1
        w_treat = 1.0 / self.pi_of[treated]
        g_treat = self.gamma_of[treated]
        fold_c = self.folds.fold_of[self.ctrl]
        folds = [(eta.nu, self.ctrl[fold_c == k]) for k, eta in enumerate(self.fitted)]

        def moment(t: np.ndarray) -> np.ndarray:
            val = np.empty(t.shape[0])
            step = _row_chunk(g_treat.shape[0])
            for start in range(0, t.shape[0], step):
                tc = t[start:start + step, None]
                val[start:start + step] = np.sum(
                    w_treat * np.asarray(link.value(g_treat, tc), dtype=float), axis=1)
            for nu, idx in folds:
                for j, signed in signed_odds(t, data.y1[idx], self.gamma_of[idx],
                                             data.l[idx], nu):
                    val += signed @ (1.0 / self.pi_of[idx[j]])
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
            lambda eta: float(eta.dens_gamma_treated(t))))

    def att_terms(self) -> Tuple[np.ndarray, np.ndarray]:
        """ATT as the treated outcome minus the counterfactual-mean link."""
        h, corr = self.terms(gtilde_counterfactual_mean(), 0.0)
        return self.data.y1 - h, -corr

    def solve_qtt(self, tau: float) -> Tuple[float, np.ndarray]:
        """QTT as the treated quantile minus the counterfactual-quantile
        link. The treated quantile is the 1/pi-weighted tau-quantile of
        the treated y1 (:func:`weighted_quantile`), the first root of its
        moment sum(a / pi (1{y1 <= t} - tau))."""
        data = self.data
        treated = data.a == 1
        vartheta1 = weighted_quantile(data.y1[treated], 1.0 / self.pi_of[treated], tau)
        vartheta2, psi2 = self.solve_link(gtilde_quantile(tau))
        f1 = self.fold_values(lambda eta: float(eta.dens_y1_treated(vartheta1)))
        first = data.a / self.pi_of * ((data.y1 <= vartheta1) - tau) / (-f1)
        return vartheta1 - vartheta2, first - psi2


def solve_att_once(data: PanelDataset, folds: FoldAssignment,
                   fitted: List[NuisanceSet]) -> Tuple[float, float]:
    """Solve the pooled ATT estimating equation for one fold assignment.

    The ATT is the treated outcome minus the counterfactual-mean link.
    Its score is linear in the target with coefficient a / pi_fold, so
    the solution is closed-form: a pi-weighted ratio of the treated
    outcome contrasts plus the control odds integrals over the treated
    weights. With stratified folds all fold pi's coincide and this
    reduces to the plain ratio. Returns the point estimate and the mean
    squared score.
    """
    cf = _CrossFit(data, folds, fitted)
    theta, psi = cf.solve_affine(*cf.att_terms(), -1.0)
    return theta, float(np.mean(psi * psi))


def att_psi_values(data: PanelDataset, folds: FoldAssignment, fitted: List[NuisanceSet],
                   theta: float) -> np.ndarray:
    """Per-unit ATT scores at a given target value: the ATT score that
    ``validation`` evaluates along its nuisance perturbations (one fold,
    the same nuisances for every unit)."""
    cf = _CrossFit(data, folds, fitted)
    h, corr = cf.att_terms()
    return cf.scores(h - theta, corr, -1.0)


# ---------------------------------------------------------------------------
# Root finding for quantile-type estimating equations
# ---------------------------------------------------------------------------


def solve_quantile_root(estimating_fn: Callable, bracket: Tuple[float, float]) -> float:
    """Smallest point where an empirical moment crosses zero.

    ``estimating_fn`` takes an array of points and returns the moment at
    each. One call on ``ROOT_SCAN_POINTS`` equally spaced points of the
    bracket finds the first point where the moment is nonnegative. The
    cell before it is scanned in the same way, at its inner points, and so
    on until the cell is at most ``ROOT_TOL`` wide or holds no float
    inside: at most 1 + ceil(log(cell / ROOT_TOL) / log(ROOT_SCAN_POINTS
    - 1)) calls. The right end of the last cell is returned. A moment that
    crosses zero more than once keeps its first crossing.
    """
    def nonnegative(t: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(estimating_fn(t), dtype=float), t.shape) >= 0.0

    lo, hi = float(bracket[0]), float(bracket[1])
    grid = np.linspace(lo, hi, ROOT_SCAN_POINTS)
    hits = np.flatnonzero(nonnegative(grid))
    if hits.size == 0:
        raise NoBracket(f"no sign change on [{lo:g}, {hi:g}]")
    j = int(hits[0])
    if j == 0:
        return lo
    # A cell with no float inside, at large outcomes, cannot shrink.
    while grid[j] - grid[j - 1] > ROOT_TOL and np.nextafter(grid[j - 1], grid[j]) < grid[j]:
        grid = np.linspace(grid[j - 1], grid[j], ROOT_SCAN_POINTS)
        # The moment is negative at the cell's left end and nonnegative
        # at its right end.
        j = 1 + int(np.argmax(np.append(nonnegative(grid[1:-1]), True)))
    return float(grid[j])


def weighted_quantile(y: np.ndarray, w: np.ndarray, tau: float) -> float:
    """The w-weighted tau-quantile of y: the generalized inverse
    inf{t : sum(w 1{y <= t}) >= tau sum(w)}, read from the cumulative
    weights of y in sorted order."""
    if y.shape[0] == 0:
        raise NoTreatedInEvaluation("no treated units for the treated quantile")
    order = np.argsort(y, kind="stable")
    cum = np.cumsum(w[order])
    return float(y[order[np.searchsorted(cum, tau * cum[-1])]])


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


def estimate(data: PanelDataset, spec: EstimandSpec, cfg: CrossFitConfig) -> EstimateReport:
    """Run the full cross-fitted procedure for one estimand.

    For each repetition: random (optionally arm-stratified) K-fold
    partition with a seed derived from (cfg.seed, repetition), fold-wise
    nuisance fits on complements, estimating-equation solve, variance.
    Repetitions are median-aggregated and a normal interval is attached.
    Deterministic given the configuration.
    """
    validate(data)
    need_densities = spec.kind == EstimandKind.QTT or (
        spec.kind == EstimandKind.GENERAL_MOMENT
        and getattr(spec.gtilde, "dtheta", None) == "gamma-density")
    reps: List[Tuple[float, float]] = []
    for s in range(1, cfg.S + 1):
        folds = partition_folds(data.n, cfg.K,
                                stratify_on=data.a if cfg.stratify else None,
                                seed=_rep_seed(cfg.seed, s))
        fitted = [fit_fold_nuisances(data, folds.train_indices(k), cfg,
                                     need_densities=need_densities)
                  for k in range(cfg.K)]
        if spec.kind == EstimandKind.ATT:
            reps.append(solve_att_once(data, folds, fitted))
            continue
        cf = _CrossFit(data, folds, fitted)
        if spec.kind == EstimandKind.QTT:
            theta, psi = cf.solve_qtt(spec.tau)
        elif spec.kind == EstimandKind.CDT:
            theta, psi = cf.solve_link(gtilde_cdf_indicator(spec.y_point))
        else:
            theta, psi = cf.solve_link(spec.gtilde)
        reps.append((theta, float(np.mean(psi * psi))))
    theta_hat, sigma2_hat = median_adjust(reps)
    ci_lo, ci_hi = confidence_interval(theta_hat, sigma2_hat, data.n, cfg.alpha)
    return EstimateReport(theta_hat=theta_hat, sigma2_hat=sigma2_hat,
                          ci_lo=ci_lo, ci_hi=ci_hi, per_rep=tuple(reps),
                          estimand=spec, n=data.n, K=cfg.K, S=cfg.S,
                          alpha=cfg.alpha, seed=cfg.seed)


# ---------------------------------------------------------------------------
# Identification-formula plug-ins
# ---------------------------------------------------------------------------


def _fit_full_gamma(data: PanelDataset, bandwidth):
    a = data.a
    if (a == 1).sum() == 0 or (a == 0).sum() == 0:
        raise DegenerateArm("plug-in estimators need both treatment arms")
    ctrl = a == 0
    return fit_gamma(data.y0[ctrl], data.y1[ctrl], data.l[ctrl], bandwidth=bandwidth)


def imputed_counterfactuals(data: PanelDataset, bandwidth=None) -> np.ndarray:
    """Transported baseline outcomes of the treated units (their imputed
    untreated period-1 outcomes)."""
    gamma = _fit_full_gamma(data, bandwidth)
    treated = data.a == 1
    return np.asarray(gamma(data.y0[treated], data.l[treated]))


def plugin_att(data: PanelDataset, bandwidth=None) -> float:
    """Direct plug-in of the identification formula: fit the transport map
    on all controls and average y1 minus the transported y0 over the
    treated. No cross-fitting, no interval."""
    return float(np.mean(data.y1[data.a == 1] - imputed_counterfactuals(data, bandwidth)))


def plugin_cdt(data: PanelDataset, y: float, bandwidth=None) -> float:
    """Plug-in counterfactual distribution at y: the share of treated units
    whose transported baseline outcome falls strictly below y."""
    g = imputed_counterfactuals(data, bandwidth=bandwidth)
    return float(np.mean(g < y))


def plugin_qtt(data: PanelDataset, tau: float, bandwidth=None) -> float:
    """Plug-in quantile treatment effect on the treated: the empirical
    tau-quantile of treated y1 minus that of the treated units' transported
    baseline outcomes, each the generalized inverse of an empirical CDF
    (a covariate-free :class:`cicdml.nuisance.CondQuantile`)."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    g = imputed_counterfactuals(data, bandwidth=bandwidth)
    return fit_cond_quantile(data.y1[data.a == 1])(tau) - fit_cond_quantile(g)(tau)
