"""Numerical checks of the estimator's theoretical structure.

Verifies, by Monte Carlo, that the ATT score has mean zero at the truth,
that its moment map is flat to first order in nuisance perturbations
(with the second-order curvature matching its closed form for tractable
perturbations), that confidence intervals attain nominal coverage, and
that nuisance errors shrink with the sample size.

The moment map is Phi(lambda) = E[psi(W; theta_true, eta_lambda)] along
the segment eta_lambda = eta + lambda * (eta_tilde - eta), lambda in
[0, 1). Derivatives at zero use one-sided second-order stencils (never
negative lambda), optionally Richardson-refined at half step; all
lambda values share one set of Monte Carlo draws, so stencil noise is
estimated per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .data_model import EstimandSpec, FoldAssignment
from .dgp import (
    LinearNu,
    StmConfig,
    _GH_W,
    _GH_X,
    _SQRT_PI,
    gen_stm,
    true_nuisances,
    true_pi,
)
from .estimator import CrossFitConfig, att_psi_values, estimate
from .nuisance import (
    GridAntiderivative,
    NuisanceSet,
    _bandwidth_vector,
    compose_gamma,
    fit_cond_cdf,
    fit_cond_quantile,
    fit_nu,
)

DEFAULT_MC_SIZE = 200_000
DEFAULT_FD_STEP = 0.05
_PHI_GRID = 8192


@dataclass(frozen=True)
class Perturbation:
    """A bounded direction in nuisance space.

    ``d_gamma(y, l)`` and ``d_nu(x, l)`` are vectorized callables (None
    means zero); ``d_pi`` is a scalar. Callers keep the perturbed pi
    inside (0, 1) and the perturbed odds positive over the data range.
    """

    d_gamma: Optional[Callable] = None
    d_nu: Optional[Callable] = None
    d_pi: float = 0.0

    @classmethod
    def zero(cls) -> "Perturbation":
        return cls()

    @property
    def is_zero(self) -> bool:
        return self.d_gamma is None and self.d_nu is None and self.d_pi == 0.0

    @classmethod
    def random_bounded(cls, seed: int, gamma_scale: float = 0.5,
                       nu_scale: float = 0.3, pi_room: float = 0.0) -> "Perturbation":
        """Smooth random directions: affine-plus-tanh curves with sup norm
        at most the given scales; ``pi_room`` bounds |d_pi|."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0xBD1)))
        cg = rng.uniform(-1.0, 1.0, 2)
        cn = rng.uniform(-1.0, 1.0, 2)
        wg = rng.uniform(0.5, 2.0)
        wn = rng.uniform(0.5, 2.0)

        def d_gamma(y, l=None, _c=cg, _w=wg, _s=gamma_scale):
            y = np.asarray(y, dtype=float)
            return _s * 0.5 * (_c[0] + _c[1] * np.tanh(y / _w))

        def d_nu(x, l=None, _c=cn, _w=wn, _s=nu_scale):
            x = np.asarray(x, dtype=float)
            return _s * 0.5 * (_c[0] + _c[1] * np.tanh(x / _w))

        d_pi = float(rng.uniform(-1.0, 1.0) * pi_room)
        return cls(d_gamma=d_gamma if gamma_scale > 0 else None,
                   d_nu=d_nu if nu_scale > 0 else None, d_pi=d_pi)


def _derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence(entropy=(int(seed), int(tag), 0xA11)).generate_state(1)[0])


def _psi_lambda_matrix(dgp: StmConfig, pert: Perturbation, lambdas: Sequence[float],
                       mc_size: int, seed: int,
                       base: Optional[NuisanceSet] = None) -> np.ndarray:
    """Per-draw ATT scores at each lambda, sharing one Monte Carlo sample.

    Returns an array of shape (len(lambdas), mc_size); row j is the
    vectorised ATT score under the nuisances perturbed by lambda_j. With
    no covariates the odds integrals interpolate two antiderivatives, of
    the base odds and of the odds direction, built once on a grid that
    covers every lambda's endpoints.
    """
    cfg = replace(dgp, n=mc_size, seed=_derived_seed(seed, 11))
    data, truth = gen_stm(cfg)
    eta = base if base is not None else true_nuisances(dgp)
    one_fold = FoldAssignment(fold_of=np.zeros(data.n, dtype=int), K=1)
    lam_arr = np.asarray(list(lambdas), dtype=float)

    grids = None
    if dgp.p == 0:
        ctrl = data.a == 0
        g0 = np.asarray(eta.gamma(data.y0[ctrl], None))
        dg = np.zeros_like(g0) if pert.d_gamma is None else np.asarray(pert.d_gamma(data.y0[ctrl]))
        ends = np.concatenate([data.y1[ctrl], g0 + lam_arr.min(initial=0.0) * dg,
                               g0 + lam_arr.max(initial=0.0) * dg])
        grids = [GridAntiderivative(lambda x: eta.nu(x, None), n_grid=_PHI_GRID)]
        if pert.d_nu is not None:
            grids.append(GridAntiderivative(lambda x: pert.d_nu(x, None), n_grid=_PHI_GRID))
        for grid in grids:
            grid.cover(float(ends.min()), float(ends.max()))

    out = np.empty((lam_arr.shape[0], data.n))
    for j, lam in enumerate(lam_arr):
        nu = (_Perturbed(eta.nu, pert.d_nu, lam) if grids is None
              else _GridPerturbedNu(eta.nu, pert.d_nu, lam, grids))
        eta_lam = NuisanceSet(gamma=_Perturbed(eta.gamma, pert.d_gamma, lam), nu=nu,
                              pi=eta.pi + lam * pert.d_pi)
        out[j] = att_psi_values(data, one_fold, [eta_lam], truth.att_true)
    return out


class _Perturbed:
    """The map f0 + lam * d of (x, l); d None means zero."""

    def __init__(self, f0, d, lam):
        self.f0 = f0
        self.d = d
        self.lam = lam

    def __call__(self, x, l=None):
        base = np.asarray(self.f0(x, l))
        return base if self.d is None else base + self.lam * np.asarray(self.d(x, l))


class _GridPerturbedNu(_Perturbed):
    """Covariate-free perturbed odds, integrated through antiderivatives
    of the base odds and of the odds direction shared by every lambda."""

    def __init__(self, f0, d, lam, grids):
        super().__init__(f0, d, lam)
        self.grids = grids

    def integral_many(self, lo, hi, l=None):
        out = self.grids[0].integrate(lo, hi)
        for grid in self.grids[1:]:
            out = out + self.lam * grid.integrate(lo, hi)
        return out


def phi_at(lam: float, dgp: StmConfig, pert: Perturbation, mc_size: int = DEFAULT_MC_SIZE,
           seed: int = 0, base: Optional[NuisanceSet] = None) -> float:
    """Monte Carlo estimate of the moment map at one lambda."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    psi = _psi_lambda_matrix(dgp, pert, [lam], mc_size, seed, base=base)
    return float(psi[0].mean())


@dataclass(frozen=True)
class OrthogonalityResult:
    """Stencil estimates of the moment map's derivatives, with per-draw
    standard errors from common random numbers."""

    phi_prime_0: float
    phi_prime_se: float
    phi_second_mid: float
    phi_second_se: float
    phi_at_zero: float
    phi_zero_se: float
    h: float
    mc_size: int


def orthogonality_check(dgp: StmConfig, pert: Perturbation, h: float = DEFAULT_FD_STEP,
                        mc_size: int = DEFAULT_MC_SIZE, seed: int = 0,
                        base: Optional[NuisanceSet] = None,
                        richardson: bool = True) -> OrthogonalityResult:
    """First derivative at zero and curvature at the segment midpoint.

    The derivative uses the one-sided three-point stencil on [0, 1)
    (never negative lambda), Richardson-refined at h/2 by default; the
    curvature is the central second difference at lambda = 0.5. A zero
    perturbation returns exact zeros. The step h must lie in (0, 0.5),
    so that every stencil point 0.5 +/- h stays in [0, 1).
    """
    if not 0.0 < h < 0.5:
        raise ValueError("h must lie in (0, 0.5)")
    if pert.is_zero:
        return OrthogonalityResult(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, h, mc_size)
    lambdas = [0.0, 0.5 * h, h, 2.0 * h, 0.5 - h, 0.5, 0.5 + h]
    psi = _psi_lambda_matrix(dgp, pert, lambdas, mc_size, seed, base=base)
    p0, ph2, ph, p2h, pml, pm, pmr = psi

    d_h = (-3.0 * p0 + 4.0 * ph - p2h) / (2.0 * h)
    if richardson:
        d_h2 = (-3.0 * p0 + 4.0 * ph2 - ph) / h
        d = (4.0 * d_h2 - d_h) / 3.0
    else:
        d = d_h
    second = (pml - 2.0 * pm + pmr) / (h * h)

    root_n = math.sqrt(mc_size)
    return OrthogonalityResult(
        phi_prime_0=float(d.mean()),
        phi_prime_se=float(d.std(ddof=1) / root_n),
        phi_second_mid=float(second.mean()),
        phi_second_se=float(second.std(ddof=1) / root_n),
        phi_at_zero=float(p0.mean()),
        phi_zero_se=float(p0.std(ddof=1) / root_n),
        h=h,
        mc_size=mc_size,
    )


# ---------------------------------------------------------------------------
# Closed-form curvature for tractable perturbations
# ---------------------------------------------------------------------------


def mean_y1_control(cfg: StmConfig) -> float:
    """E[Y1 untreated] for an independent-treatment configuration.

    Equals the mean of the transported baseline outcome among controls,
    which the curvature formula needs. Computed by Gauss-Hermite over
    the Gaussian index (exact for the shipped transform family).
    """
    if not cfg.treatment_independent:
        raise ValueError("closed-form mean needs an independent-treatment model")
    var = (sum(c * c for c in cfg.k1_coef) + sum(c * c for c in cfg.m_coeffs)
           + cfg.eps_sigma ** 2)
    nodes = cfg.k1_intercept + math.sqrt(2.0 * var) * _GH_X
    vals = cfg.beta1.apply(nodes)
    return float(vals @ _GH_W / _SQRT_PI)


def expected_second_order_bias(cfg: StmConfig, lam: float, c_gamma: float,
                               dnu_slope: float = 0.0, dnu_intercept: float = 0.0,
                               base_nu_slope: float = 0.0) -> float:
    """Closed-form curvature of the moment map for a constant transport
    perturbation and odds that are linear in the transported outcome.

    Covers both tractable cases: perturbing the odds along a linear
    direction around the truth, and perturbing only the transport map
    around a linear base odds with slope ``base_nu_slope``. Requires an
    independent-treatment model and no pi perturbation.
    """
    pi = true_pi(cfg)
    m1 = mean_y1_control(cfg)
    bracket = (2.0 * c_gamma * (dnu_slope * (m1 + lam * c_gamma) + dnu_intercept)
               + c_gamma ** 2 * (base_nu_slope + lam * dnu_slope))
    return (1.0 - pi) / pi * bracket


def calibrated_linear_nu(cfg: StmConfig, slope: float) -> LinearNu:
    """Linear odds model matched to the moment condition of an
    independent-treatment configuration, so that a constant transport
    perturbation around it keeps the moment map flat at zero."""
    pi = true_pi(cfg)
    intercept = pi / (1.0 - pi) - slope * mean_y1_control(cfg)
    return LinearNu(slope, intercept)


# ---------------------------------------------------------------------------
# Coverage and convergence diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageReport:
    """Monte Carlo interval-coverage summary over replicated datasets."""

    n_reps: int
    cover_rate: float
    mean_ci_width: float
    rmse: float
    mean_bias: float

    def to_dict(self) -> dict:
        return {
            "n_reps": self.n_reps,
            "cover_rate": self.cover_rate,
            "mean_ci_width": self.mean_ci_width,
            "rmse": self.rmse,
            "mean_bias": self.mean_bias,
        }


def coverage_study(dgp: StmConfig, cfg: CrossFitConfig, n_reps: int,
                   master_seed: int = 0) -> CoverageReport:
    """Replicate generate-and-estimate and count interval coverage of the
    true effect. Deterministic given the master seed; replication seeds
    are derived per index."""
    if n_reps < 2:
        raise ValueError("need at least 2 replications")
    covered = 0
    widths = np.empty(n_reps)
    errors = np.empty(n_reps)
    for r in range(n_reps):
        seed_r = _derived_seed(master_seed, 1000 + r)
        data, truth = gen_stm(replace(dgp, seed=seed_r))
        report = estimate(data, EstimandSpec.att(), replace(cfg, seed=seed_r))
        covered += int(report.ci_lo <= truth.att_true <= report.ci_hi)
        widths[r] = report.ci_hi - report.ci_lo
        errors[r] = report.theta_hat - truth.att_true
    return CoverageReport(
        n_reps=n_reps,
        cover_rate=covered / n_reps,
        mean_ci_width=float(widths.mean()),
        rmse=float(np.sqrt(np.mean(errors ** 2))),
        mean_bias=float(errors.mean()),
    )


def rate_probe(dgp: StmConfig, n_ladder: Sequence[int] = (500, 2000, 8000),
               bandwidth_scales: Sequence[float] = (1.0,), eval_size: int = 4000,
               seed: int = 0, kernel: str = "gaussian") -> List[dict]:
    """Empirical L2 errors of the fitted transport map and odds against
    their oracles, across sample sizes and bandwidth scales.

    Fits on a fresh draw of each ladder size, evaluates squared errors
    on an independent draw, and returns one row per (n, scale).
    """
    truth_eta = true_nuisances(dgp)
    eval_data, _ = gen_stm(replace(dgp, n=eval_size, seed=_derived_seed(seed, 77)))
    l_eval = eval_data.l if dgp.p else None
    g_true = np.asarray(truth_eta.gamma(eval_data.y0, l_eval))
    nu_true = np.asarray(truth_eta.nu(g_true, l_eval))
    rows = []
    for n in n_ladder:
        data, _ = gen_stm(replace(dgp, n=int(n), seed=_derived_seed(seed, int(n))))
        ctrl = data.a == 0
        l_ctrl = data.l[ctrl] if dgp.p else None
        cdf0 = fit_cond_cdf(data.y0[ctrl], l_ctrl, kernel=kernel)
        quant1 = fit_cond_quantile(data.y1[ctrl], l_ctrl, kernel=kernel)
        gamma_hat = compose_gamma(cdf0, quant1)
        x_train = gamma_hat(data.y0, data.l if dgp.p else None)
        z = np.column_stack([x_train, data.l]) if dgp.p else x_train.reshape(-1, 1)
        base_h = _bandwidth_vector(z, None)
        g_hat = np.asarray(gamma_hat(eval_data.y0, l_eval))
        gamma_l2 = float(np.sqrt(np.mean((g_hat - g_true) ** 2)))
        for scale in bandwidth_scales:
            nu_hat = fit_nu(x_train, data.l if dgp.p else None, data.a,
                            kernel=kernel, bandwidth=base_h * scale)
            nu_vals = np.asarray(nu_hat(g_true, l_eval))
            nu_l2 = float(np.sqrt(np.mean((nu_vals - nu_true) ** 2)))
            rows.append({"n": int(n), "bandwidth_scale": float(scale),
                         "gamma_l2": gamma_l2, "nu_l2": nu_l2})
    return rows
