"""Simulation data generators with oracle ground truth.

The core generator is a semiparametric transformation model: untreated
outcomes are a strictly increasing time-specific transform of a linear
index in covariates, latent confounders, and noise, with treatment
assigned by a logistic rule over covariates and confounders. The model
admits a closed-form transport map, an exact (Gauss-Hermite) treatment
odds function for the linear-Gaussian family, and an analytic
quantile-quantile invariance diagnostic. The linear special case with
identity transforms and independent treatment reproduces the classical
two-period difference-in-differences design.

Latent confounders and the assignment noise live only inside this
module; nothing downstream ever observes them. The logistic link and its
inverse are written here on numpy and ``math``, so that the package
imports numpy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .data_model import PanelDataset, validate
from .errors import InvalidTransform
from .nuisance import (
    ANTIDERIV_GRID,
    NuisanceSet,
    _PointwiseFn,
    _bandwidth_vector,
    _chunks,
    _covariate_matrix,
    _grid_integrals,
    _grid_nodes,
    _node_odds_integrals,
    fit_nu,
)

GH_NODES = 64
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(GH_NODES)
_SQRT_PI = math.sqrt(math.pi)

# |intercept| + 3 * ||slopes|| must stay below this logit so propensities
# remain well inside (0, 1) over the bulk of the covariate distribution.
MAX_TREAT_LOGIT = 6.9

TRANSFORM_KINDS = ("identity", "exp", "power", "affine")


def logit(x: float) -> float:
    """log(x / (1 - x)), by scipy.special.logit's formula: near x = 1/2,
    where that quotient loses precision, log1p(s) - log1p(-s) with
    s = 2 (x - 1/2). The result is bit-identical to scipy's."""
    if x < 0.3 or x > 0.65:
        return math.log(x / (1.0 - x))
    s = 2.0 * (x - 0.5)
    return math.log1p(s) - math.log1p(-s)


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise, by
    scipy.special.expit's formula on numpy's exp: within an ulp or two of
    scipy's. Used only by the analytic odds, never by a draw."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def gauss_hermite_mean(f, mu, var):
    """E f(mu + sqrt(var) Z) for a standard normal Z, by Gauss-Hermite on
    ``GH_NODES`` nodes: a number for a number mu, one value per mean for
    an array of means. The one Gaussian expectation of the analytic odds,
    the treatment share and the controls' mean outcome."""
    x = np.asarray(mu, dtype=float)[..., None] + math.sqrt(2.0 * var) * _GH_X
    return f(x) @ _GH_W / _SQRT_PI


@dataclass(frozen=True)
class TransformSpec:
    """A strictly increasing outcome transform.

    kinds: ``identity``; ``exp``; ``power`` with exponent c > 0, acting as
    sign(x) |x|^c so it is increasing on all of R; ``affine`` a * x + b
    with a > 0.
    """

    kind: str
    a: float = 1.0
    b: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise InvalidTransform(f"unknown transform kind {self.kind!r}")
        if self.kind == "power" and self.c <= 0:
            raise InvalidTransform("power transform needs a positive exponent")
        if self.kind == "affine" and self.a <= 0:
            raise InvalidTransform("affine transform needs a positive slope")

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x
        if self.kind == "exp":
            return np.exp(x)
        if self.kind == "power":
            return np.sign(x) * np.abs(x) ** self.c
        return self.a * x + self.b

    def invert(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "identity":
            return y
        if self.kind == "exp":
            if np.any(y <= 0):
                raise InvalidTransform("exp transform inverse needs positive values")
            return np.log(y)
        if self.kind == "power":
            return np.sign(y) * np.abs(y) ** (1.0 / self.c)
        return (y - self.b) / self.a

    def invert_extended(self, y):
        """Inverse with constant continuation below the range (for odds
        evaluation off the outcome support, e.g. under perturbed maps)."""
        y = np.asarray(y, dtype=float)
        if self.kind == "exp":
            return np.log(np.clip(y, 1e-12, None))
        return self.invert(y)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TransformSpec":
        return cls(**d)


identity = TransformSpec("identity")


@dataclass(frozen=True)
class StmConfig:
    """Parameters of the semiparametric transformation model.

    Untreated outcomes: ``Y_t = beta_t(k_t(L) + m(U) + eps_t)`` with
    ``k_t(L)`` linear in the covariates, ``m(U)`` linear in the latent
    confounders and ``eps_t`` iid Gaussian noise. Treatment:
    ``A = 1{b0 + bL L + bU U + logistic noise > 0}``. The treated
    period-1 outcome adds ``effect`` (or multiplies by it when
    ``effect_kind="multiplicative"``).

    ``eps_u_scale > 0`` deliberately violates the transport assumption by
    scaling the period-1 noise with the first latent coordinate; it
    exists for diagnostics only.
    """

    n: int
    p: int = 0
    q: int = 1
    beta0: TransformSpec = identity
    beta1: TransformSpec = identity
    k0_intercept: float = 0.0
    k0_coef: tuple = ()
    k1_intercept: float = 0.0
    k1_coef: tuple = ()
    m_coeffs: tuple = (1.0,)
    treat_intercept: float = 0.0
    treat_l: tuple = ()
    treat_u: tuple = (0.0,)
    eps_sigma: float = 1.0
    effect: float = 0.0
    effect_kind: str = "additive"
    eps_u_scale: float = 0.0
    seed: int = 0
    mc_size: int = 1_000_000

    def __post_init__(self):
        if len(self.k0_coef) != self.p or len(self.k1_coef) != self.p:
            raise ValueError("k0_coef and k1_coef must have length p")
        if len(self.m_coeffs) != self.q or len(self.treat_u) != self.q:
            raise ValueError("m_coeffs and treat_u must have length q")
        if len(self.treat_l) != self.p:
            raise ValueError("treat_l must have length p")
        if self.eps_sigma <= 0:
            raise ValueError("eps_sigma must be positive")
        if self.effect_kind not in ("additive", "multiplicative"):
            raise ValueError("effect_kind must be additive or multiplicative")
        if self.effect_kind == "multiplicative" and self.effect <= 0:
            raise ValueError("multiplicative effect must be positive")
        slope_norm = math.sqrt(sum(c * c for c in self.treat_l)
                               + sum(c * c for c in self.treat_u))
        if abs(self.treat_intercept) + 3.0 * slope_norm > MAX_TREAT_LOGIT:
            raise ValueError(
                "treatment model too extreme: positivity bound "
                f"|b0| + 3 ||slopes|| <= {MAX_TREAT_LOGIT} violated")

    @property
    def treatment_independent(self) -> bool:
        return all(c == 0.0 for c in self.treat_l) and all(c == 0.0 for c in self.treat_u)

    def k0(self, l):
        return self.k0_intercept + l @ np.asarray(self.k0_coef)

    def k1(self, l):
        return self.k1_intercept + l @ np.asarray(self.k1_coef)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "StmConfig":
        d = dict(d)
        d["beta0"] = TransformSpec.from_dict(d["beta0"])
        d["beta1"] = TransformSpec.from_dict(d["beta1"])
        for key in ("k0_coef", "k1_coef", "m_coeffs", "treat_l", "treat_u"):
            d[key] = tuple(d[key])
        return cls(**d)


class AnalyticGamma(_PointwiseFn):
    """Closed-form transport map of the transformation model:
    ``beta1(beta0^{-1}(y) + k1(l) - k0(l))``, strictly increasing in y."""

    def __init__(self, cfg: StmConfig):
        self.cfg = cfg
        self.p = cfg.p

    def evaluate_many(self, y, l):
        cfg = self.cfg
        return cfg.beta1.apply(cfg.beta0.invert(y) + (cfg.k1(l) - cfg.k0(l)))


class LinearNu:
    """Odds linear in the transported outcome: slope * x + intercept."""

    def __init__(self, slope: float, intercept: float):
        self.slope = float(slope)
        self.intercept = float(intercept)

    def __call__(self, x, l=None):
        out = self.slope * np.asarray(x, dtype=float) + self.intercept
        return float(out) if np.isscalar(x) else out

    def node_odds(self, nodes, l=None):
        return self(np.asarray(nodes, dtype=float))[:, None]


class ConstantNu(LinearNu):
    """Constant treatment odds (independent assignment): linear odds of
    slope 0."""

    def __init__(self, value: float):
        super().__init__(0.0, value)


class GaussHermiteNu(_PointwiseFn):
    """Exact treatment odds for the linear-Gaussian logistic family.

    Conditioning on the transported outcome pins down the latent index
    up to a Gaussian posterior, so the propensity is a one-dimensional
    Gaussian integral of the logistic link around the logit mean
    mu = b0 + kappa (beta1^{-1}(x) - k1(l)) + l bL, by Gauss-Hermite.
    """

    def __init__(self, cfg: StmConfig):
        self.cfg = cfg
        self.p = cfg.p
        m = np.asarray(cfg.m_coeffs, dtype=float)
        bu = np.asarray(cfg.treat_u, dtype=float)
        var_z = float(m @ m) + cfg.eps_sigma ** 2
        cov_mb = float(m @ bu)
        self._kappa = cov_mb / var_z
        self._post_var = max(float(bu @ bu) - cov_mb ** 2 / var_z, 0.0)

    def _mu(self, z, l):
        """Posterior logit mean at outcome index z and covariates l."""
        return self.cfg.treat_intercept + self._kappa * z + l @ np.asarray(self.cfg.treat_l)

    def _odds(self, mu):
        """Odds at posterior logit means mu, in row chunks of the kernel
        budget (``GH_NODES`` logistic values per mean)."""
        p = np.empty(mu.shape[0])
        for sl in _chunks(mu.shape[0], GH_NODES):
            p[sl] = gauss_hermite_mean(expit, mu[sl], self._post_var)
        np.clip(p, 1e-12, 1.0 - 1e-12, out=p)
        return p / (1.0 - p)

    def evaluate_many(self, x, l):
        cfg = self.cfg
        return self._odds(self._mu(cfg.beta1.invert_extended(x) - cfg.k1(l), l))

    def node_odds(self, nodes, l):
        """Odds at the G nodes for each of the k covariate rows of l, shape
        (G, k), on the node-by-row grid; one column (G, 1) without them.
        The grid is formed in blocks of nodes that fill an eighth of the
        budget, as in ``NuFn._node_sums``."""
        rows = l if l.shape[1] else np.empty((1, 0))
        k = rows.shape[0]
        out = np.empty((nodes.shape[0], k))
        for sl in _chunks(nodes.shape[0], 8 * k):
            block = nodes[sl]
            vals = self.evaluate_many(np.repeat(block, k), np.tile(rows, (block.shape[0], 1)))
            out[sl] = vals.reshape(block.shape[0], k)
        return out

    def integral_many(self, lo, hi, l):
        """Signed odds integrals over [lo_i, hi_i] at covariates l_i.

        With an identity beta1, mu = kappa x + c(l), so each integral is
        that of the odds in mu between kappa lo_i + c(l_i) and
        kappa hi_i + c(l_i), over kappa: the fourth-order antiderivative
        on ``ANTIDERIV_GRID`` mu-nodes shared by every unit. At kappa = 0 the
        odds are constant in x. Otherwise the node odds' antiderivative."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape[0] == 0:
            return np.zeros(0)
        if self.cfg.beta1.kind != "identity":
            return _node_odds_integrals(lo, hi, l, self)
        c = self._mu(-self.cfg.k1(l), l)
        if self._kappa == 0.0:
            return self._odds(c) * (hi - lo)
        mu_lo, mu_hi = self._kappa * lo + c, self._kappa * hi + c
        nodes = _grid_nodes(mu_lo, mu_hi, ANTIDERIV_GRID)
        return _grid_integrals(nodes, self._odds(nodes), mu_lo, mu_hi) / self._kappa


@dataclass(frozen=True)
class OracleTruth:
    """Ground truth carried alongside a generated dataset."""

    gamma_true: AnalyticGamma
    att_true: float


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(tag), 0x5D6)))


def _draw(cfg: StmConfig, n: int, rng: np.random.Generator):
    """One draw of (l, u, a, y0, y1_untreated) from the model."""
    l = rng.standard_normal((n, cfg.p))
    u = rng.standard_normal((n, cfg.q))
    noise = rng.logistic(0.0, 1.0, n)
    logit_index = (cfg.treat_intercept + noise + l @ np.asarray(cfg.treat_l)
                   + u @ np.asarray(cfg.treat_u))
    a = (logit_index > 0.0).astype(int)
    m_u = u @ np.asarray(cfg.m_coeffs)
    eps0 = rng.normal(0.0, cfg.eps_sigma, n)
    eps1 = rng.normal(0.0, cfg.eps_sigma, n)
    if cfg.eps_u_scale:
        eps1 = eps1 * (1.0 + cfg.eps_u_scale * np.abs(u[:, 0]))
    y0 = cfg.beta0.apply(cfg.k0(l) + m_u + eps0)
    y1_untreated = cfg.beta1.apply(cfg.k1(l) + m_u + eps1)
    return l, u, a, y0, y1_untreated


def _apply_effect(cfg: StmConfig, y1_untreated: np.ndarray) -> np.ndarray:
    if cfg.effect_kind == "additive":
        return y1_untreated + cfg.effect
    return y1_untreated * cfg.effect


def gen_stm(cfg: StmConfig) -> tuple[PanelDataset, OracleTruth]:
    """Generate a dataset from the transformation model with its oracle.

    The ATT truth is the additive effect directly, or a Monte Carlo
    average of the treated counterfactual contrast for multiplicative
    effects (``cfg.mc_size`` fresh draws).
    """
    rng = _rng(cfg.seed, 1)
    l, _, a, y0, y1_untreated = _draw(cfg, cfg.n, rng)
    y1 = np.where(a == 1, _apply_effect(cfg, y1_untreated), y1_untreated)
    data = PanelDataset(y0=y0, y1=y1, a=a, l=l)
    validate(data)
    if cfg.effect_kind == "additive":
        att = float(cfg.effect)
    else:
        mc_rng = _rng(cfg.seed, 2)
        _, _, a_mc, _, y1u_mc = _draw(cfg, cfg.mc_size, mc_rng)
        treated = a_mc == 1
        att = float(np.mean(_apply_effect(cfg, y1u_mc[treated]) - y1u_mc[treated]))
    truth = OracleTruth(gamma_true=AnalyticGamma(cfg), att_true=att)
    return data, truth


def did_config(n: int, trend: float = 1.0, effect: float = 2.0, pi: float = 0.5,
               seed: int = 0) -> StmConfig:
    """The linear special case: identity transforms, no covariates,
    treatment independent of everything."""
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie in (0, 1)")
    return StmConfig(n=n, p=0, q=1, k0_intercept=0.0, k1_intercept=float(trend),
                     m_coeffs=(1.0,), treat_intercept=logit(pi),
                     treat_u=(0.0,), eps_sigma=1.0, effect=float(effect), seed=seed)


def gen_did(n: int, c: float = 1.0, delta: float = 2.0, pi: float = 0.5,
            seed: int = 0) -> tuple[PanelDataset, OracleTruth]:
    """Generate from the linear model; the transport map is y + c and the
    treatment odds are the constant pi / (1 - pi)."""
    return gen_stm(did_config(n, trend=c, effect=delta, pi=pi, seed=seed))


def true_pi(cfg: StmConfig) -> float:
    """Marginal treatment probability implied by the logistic model."""
    slope_sq = sum(c * c for c in cfg.treat_l) + sum(c * c for c in cfg.treat_u)
    if slope_sq == 0.0:
        return float(expit(cfg.treat_intercept))
    return float(gauss_hermite_mean(expit, cfg.treat_intercept, slope_sq))


def true_nuisances(cfg: StmConfig, method: str = "auto",
                   mc_size: Optional[int] = None, seed: Optional[int] = None) -> NuisanceSet:
    """Oracle nuisance set for a model configuration.

    ``method="auto"`` uses the closed-form transport map, the exact
    constant odds under independent treatment, and the Gauss-Hermite
    posterior odds otherwise. ``method="mc"`` replaces the odds with a
    Monte Carlo oracle, kept as an independent cross-check of the
    analytic route: the odds of A fitted on the true transported outcome
    and covariates of ``mc_size`` fresh draws (default ``cfg.mc_size``)
    from ``seed`` (default 0) at 1.5 times Silverman's bandwidths,
    trading a little bias for low variance, and clipped at 1e-6. Only
    that route takes ``mc_size`` and ``seed``.
    """
    if method not in ("auto", "mc"):
        raise ValueError("method must be auto or mc")
    if method != "mc" and (mc_size is not None or seed is not None):
        raise ValueError("mc_size and seed apply only to method mc")
    gamma = AnalyticGamma(cfg)
    pi = true_pi(cfg)
    if method == "mc":
        l, _, a, y0, _ = _draw(cfg, mc_size or cfg.mc_size, _rng(seed or 0, 3))
        x = gamma(y0, l)
        h = 1.5 * _bandwidth_vector(np.column_stack([x, l]), None)
        nu = fit_nu(x, l, a, bandwidth=h, eps_clip=1e-6)
    elif cfg.treatment_independent:
        nu = ConstantNu(pi / (1.0 - pi))
    else:
        nu = GaussHermiteNu(cfg)
    return NuisanceSet(gamma=gamma, nu=nu, pi=pi)


# ---------------------------------------------------------------------------
# Quantile-quantile invariance diagnostic
# ---------------------------------------------------------------------------


def qq_transform(cfg: StmConfig, u: float, y, l=None) -> np.ndarray:
    """Latent-conditional quantile-quantile transform at confounder value u.

    Computed analytically from the model: the period-0 outcome is mapped
    through the u-conditional CDF at t = 0 and the u-conditional quantile
    at t = 1. When the noise law is the same in both periods all
    u-dependence cancels; the ``eps_u_scale`` violation leaves a
    u-dependent stretch.
    """
    y = np.asarray(y, dtype=float)
    l = _covariate_matrix(l, y.shape[0], cfg.p)
    m_u = float(cfg.m_coeffs[0]) * u
    ratio = 1.0 + cfg.eps_u_scale * abs(u)
    inner = cfg.k1(l) + m_u + ratio * (cfg.beta0.invert(y) - m_u - cfg.k0(l))
    return cfg.beta1.apply(inner)


def qq_invariance_diagnostic(cfg: StmConfig) -> float:
    """Max deviation of the latent-conditional transform across confounder
    values: zero (to rounding) when the transport assumption holds,
    strictly positive under the period-asymmetric noise violation.

    Taken over 7 confounder values in [-2, 2], 41 period-0 outcomes whose
    period-0 index spans 2.5 of its standard deviations around k0's
    intercept, and the covariate rows with every coordinate 0, 0.7 or -0.7.
    """
    width = math.sqrt(sum(c * c for c in cfg.k0_coef)
                      + sum(c * c for c in cfg.m_coeffs) + cfg.eps_sigma ** 2)
    z = np.linspace(cfg.k0_intercept - 2.5 * width, cfg.k0_intercept + 2.5 * width, 41)
    y_grid = cfg.beta0.apply(z)
    worst = 0.0
    for c in (0.0, 0.7, -0.7):
        vals = np.stack([qq_transform(cfg, float(u), y_grid, np.full(cfg.p, c))
                         for u in np.linspace(-2.0, 2.0, 7)])
        worst = max(worst, float(np.max(vals.max(axis=0) - vals.min(axis=0))))
    return worst


# ---------------------------------------------------------------------------
# Named configurations
# ---------------------------------------------------------------------------

DGP_NAMES = ("did", "stm-exp", "stm-power", "stm-broken", "stm-cov")


def named_config(name: str, n: int = 2000, seed: int = 0,
                 effect: Optional[float] = None, trend: Optional[float] = None,
                 pi: Optional[float] = None) -> StmConfig:
    """Shipped model configurations addressable by name from the CLI.

    ``trend`` and ``pi`` set the time trend and treatment share of the
    did model; every other model fixes its own, so passing them there is
    an error.
    """
    if name == "did":
        return did_config(n, trend=1.0 if trend is None else trend,
                          effect=2.0 if effect is None else effect,
                          pi=0.5 if pi is None else pi, seed=seed)
    if name in DGP_NAMES and (trend is not None or pi is not None):
        raise ValueError(f"trend and pi apply only to the did model, not {name!r}")
    if name == "stm-exp":
        return StmConfig(n=n, p=0, q=1, beta0=identity, beta1=TransformSpec("exp"),
                         k0_intercept=0.2, k1_intercept=0.7, m_coeffs=(1.0,),
                         treat_intercept=0.0, treat_u=(0.8,), eps_sigma=0.5,
                         effect=2.0 if effect is None else effect, seed=seed)
    if name == "stm-power":
        return StmConfig(n=n, p=0, q=2, beta0=identity, beta1=TransformSpec("power", c=2.0),
                         k0_intercept=0.3, k1_intercept=0.8, m_coeffs=(0.8, 0.6),
                         treat_intercept=0.2, treat_u=(0.6, -0.4), eps_sigma=0.7,
                         effect=1.5 if effect is None else effect, seed=seed)
    if name == "stm-broken":
        cfg = named_config("stm-exp", n=n, seed=seed, effect=effect)
        return replace(cfg, eps_u_scale=0.75)
    if name == "stm-cov":
        return StmConfig(n=n, p=2, q=1, beta0=identity, beta1=identity,
                         k0_intercept=0.0, k0_coef=(0.5, -0.3),
                         k1_intercept=0.8, k1_coef=(0.8, 0.1), m_coeffs=(1.0,),
                         treat_intercept=0.0, treat_l=(0.4, 0.2), treat_u=(0.6,),
                         eps_sigma=1.0, effect=2.0 if effect is None else effect,
                         seed=seed)
    raise ValueError(f"unknown DGP name {name!r}; expected one of {DGP_NAMES}")
