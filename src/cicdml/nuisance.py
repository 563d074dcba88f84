"""Nuisance function estimation: transport map, treatment odds, densities.

Fits the three ingredients of the orthogonal estimating function — the
outcome transport map ``gamma`` (conditional quantile composed with a
conditional CDF), the treatment-odds regression ``nu``, and the marginal
treatment probability ``pi`` — plus the outcome densities needed by
quantile-type targets. Estimators are kernel-based: Nadaraya-Watson
smoothing over covariates with Silverman-type per-coordinate bandwidths.
With no covariates they reduce exactly to the empirical CDF, empirical
quantile, and sample means.

Kernel weights are formed in row chunks of at most ``_CHUNK_BUDGET``
elements, one coordinate at a time. Odds integrals with covariates use
the product kernel's factorisation into an outcome part and a covariate
part, so each unit's covariate weights are formed once per integral
rather than once per quadrature node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateArm, InsufficientData

ANTIDERIV_GRID = 2048      # grid for cached odds antiderivatives (p = 0)
SIMPSON_NODES = 257        # fixed composite-Simpson nodes per odds integral (p > 0)
# Max elements per kernel-weight chunk. A chunk of float64 temporaries of
# this size is 8 MiB, below glibc's 32 MiB dynamic mmap ceiling, so the
# allocator reuses heap memory instead of mapping, faulting in and
# unmapping a fresh region for every chunk.
_CHUNK_BUDGET = 1 << 20
DEFAULT_EPS_CLIP = 0.01
DEFAULT_F_MIN = 1e-3

KERNELS = ("gaussian", "epanechnikov")

# Composite-Simpson nodes on [0, 1] and their 1-4-2-...-4-1 weights.
_SIMPSON_T = np.linspace(0.0, 1.0, SIMPSON_NODES)
_SIMPSON_W = np.ones(SIMPSON_NODES)
_SIMPSON_W[1:-1:2] = 4.0
_SIMPSON_W[2:-1:2] = 2.0


def _row_chunk(m: int) -> int:
    """Query rows per chunk when each row has m kernel weights."""
    return max(1, _CHUNK_BUDGET // max(m, 1))


def silverman_bandwidth(x: np.ndarray) -> float:
    """Silverman rule-of-thumb bandwidth: 0.9 min(sd, iqr/1.34) m^(-1/5)."""
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    sd = float(np.std(x))
    q75, q25 = np.percentile(x, [75, 25])
    spread = min(sd, (q75 - q25) / 1.34)
    h = 0.9 * spread * m ** (-0.2)
    if h <= 0.0:
        # Degenerate coordinate: any positive width gives uniform weights.
        h = max(1.0, abs(float(np.mean(x))) * 1e-3)
    return h


def _check_kernel(kernel: str) -> str:
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


def _bandwidth_vector(x: np.ndarray, bandwidth) -> np.ndarray:
    """Per-coordinate bandwidths for the columns of x (m, d)."""
    d = x.shape[1]
    if bandwidth is None:
        return np.array([silverman_bandwidth(x[:, j]) for j in range(d)])
    h = np.atleast_1d(np.asarray(bandwidth, dtype=float))
    if h.shape == (1,) and d > 1:
        h = np.repeat(h, d)
    if h.shape != (d,):
        raise ValueError(f"bandwidth must be a scalar or length-{d} vector")
    if (h <= 0).any():
        raise ValueError("bandwidths must be positive")
    return h


def _product_weights(query: np.ndarray, train: np.ndarray, h: np.ndarray, kernel: str) -> np.ndarray:
    """Unnormalized product-kernel weights, shape (Q, m). d = 0 gives ones.

    One (Q, m) buffer per coordinate: the Gaussian sums the squared
    scaled distances before one exp, the Epanechnikov multiplies the
    per-coordinate factors max(0, 1 - u^2) and scales by 0.75^d.
    """
    d = train.shape[1]
    if d == 0:
        return np.ones((query.shape[0], train.shape[0]))
    acc = None
    for j in range(d):
        u = (query[:, j, None] - train[None, :, j]) / h[j]
        u *= u
        if kernel != "gaussian":
            np.subtract(1.0, u, out=u)
            np.clip(u, 0.0, None, out=u)
        if acc is None:
            acc = u
        elif kernel == "gaussian":
            acc += u
        else:
            acc *= u
    if kernel == "gaussian":
        acc *= -0.5
        return np.exp(acc, out=acc)
    acc *= 0.75 ** d
    return acc


def _nw_ratio(num, denom, fallback):
    """Nadaraya-Watson estimate num / denom, or fallback where no training
    row carries weight."""
    ok = denom > 1e-300
    return np.where(ok, num / np.where(ok, denom, 1.0), fallback)


def _nw_mean(query, train, resp, h, kernel, fallback):
    """Chunked Nadaraya-Watson regression of resp on train, at query rows."""
    out = np.empty(query.shape[0])
    step = _row_chunk(train.shape[0])
    for start in range(0, query.shape[0], step):
        sl = slice(start, start + step)
        w = _product_weights(query[sl], train, h, kernel)
        out[sl] = _nw_ratio(w @ resp, w.sum(axis=1), fallback)
    return out


class GridAntiderivative:
    """Cached trapezoid antiderivative of a smooth one-dimensional map.

    Built lazily over the requested endpoint range (with padding) and
    rebuilt on the union range if later requests exceed it; signed
    integrals reduce to two interpolations.
    """

    def __init__(self, fn, n_grid: int = ANTIDERIV_GRID):
        self.fn = fn
        self.n_grid = n_grid
        self._gx = None
        self._anti = None

    def cover(self, lo: float, hi: float):
        """Make the grid span [lo, hi], building or widening it as needed."""
        pad = 1e-9 + 0.05 * max(hi - lo, 1e-12)
        if self._gx is not None:
            if self._gx[0] <= lo - 0.5 * pad and self._gx[-1] >= hi + 0.5 * pad:
                return
            lo = min(lo, float(self._gx[0]))
            hi = max(hi, float(self._gx[-1]))
        gx = np.linspace(lo - pad, hi + pad, self.n_grid)
        gy = np.asarray(self.fn(gx))
        self._gx = gx
        self._anti = np.concatenate(
            [[0.0], np.cumsum(0.5 * (gy[1:] + gy[:-1]) * np.diff(gx))])

    def integrate(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.size == 0:
            return np.zeros(0)
        self.cover(float(min(lo.min(), hi.min())), float(max(lo.max(), hi.max())))
        return np.interp(hi, self._gx, self._anti) - np.interp(lo, self._gx, self._anti)


def integrate_nu_many(lo, hi, l, nu) -> np.ndarray:
    """Signed integrals of the odds over per-unit intervals [lo_i, hi_i].

    The one place where the rule is chosen: the odds object's own
    ``integral_many`` when it has one (closed forms for analytic odds,
    the factorised Simpson rule of fitted odds with covariates); with no
    covariates (``l`` None or empty), a trapezoid antiderivative on a
    dense grid; otherwise composite Simpson on ``SIMPSON_NODES`` fixed
    nodes per interval. Swapping the limits flips the sign.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.shape[0]
    if n == 0:
        return np.zeros(0)
    own = getattr(nu, "integral_many", None)
    if own is not None:
        return own(lo, hi, l)
    if l is None or np.asarray(l).size == 0:
        return GridAntiderivative(lambda gx: nu(gx, None)).integrate(lo, hi)
    x = lo[:, None] + (hi - lo)[:, None] * _SIMPSON_T[None, :]
    l_rep = np.repeat(np.asarray(l, dtype=float), SIMPSON_NODES, axis=0)
    vals = np.asarray(nu(x.ravel(), l_rep)).reshape(n, SIMPSON_NODES)
    return _simpson_sum(vals, lo, hi)


def _simpson_sum(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Composite Simpson from values at the ``SIMPSON_NODES`` nodes, (n, nodes)."""
    return (vals @ _SIMPSON_W) * (hi - lo) / (3.0 * (SIMPSON_NODES - 1))


# ---------------------------------------------------------------------------
# Conditional CDF / quantile / transport map
# ---------------------------------------------------------------------------


@dataclass
class CondCdf:
    """Kernel-regression conditional CDF of an outcome given covariates.

    Nadaraya-Watson regression of the indicator 1{Y <= y} on the
    covariates: a right-continuous step function in y for every fixed
    covariate value, nondecreasing by construction because the smoothing
    weights do not depend on y. With p = 0 this is exactly the empirical
    CDF of the fit sample.
    """

    y_sorted: np.ndarray
    l_by_y: np.ndarray
    h: np.ndarray
    kernel: str = "gaussian"

    @property
    def m(self) -> int:
        return self.y_sorted.shape[0]

    @property
    def p(self) -> int:
        return self.l_by_y.shape[1]

    def _weights(self, l_query: np.ndarray) -> np.ndarray:
        return _product_weights(l_query, self.l_by_y, self.h, self.kernel)

    def evaluate_many(self, y: np.ndarray, l: np.ndarray) -> np.ndarray:
        """F-hat(y_i, l_i) for paired query arrays."""
        y = np.asarray(y, dtype=float)
        if self.p == 0:
            return np.searchsorted(self.y_sorted, y, side="right") / self.m
        out = np.empty(y.shape[0])
        step = _row_chunk(self.m)
        for start in range(0, y.shape[0], step):
            sl = slice(start, start + step)
            w = self._weights(l[sl])
            cum = np.cumsum(w, axis=1)
            total = cum[:, -1]
            k = np.searchsorted(self.y_sorted, y[sl], side="right")
            num = np.where(k > 0, cum[np.arange(w.shape[0]), np.maximum(k - 1, 0)], 0.0)
            ok = total > 1e-300
            out[sl] = np.where(ok, num / np.where(ok, total, 1.0), k / self.m)
        return out

    def __call__(self, y, l=None):
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        l_arr = _coerce_l(l, y_arr.shape[0], self.p)
        res = self.evaluate_many(y_arr, l_arr)
        return float(res[0]) if np.isscalar(y) else res


def _coerce_l(l, n: int, p: int) -> np.ndarray:
    if p == 0:
        return np.empty((n, 0))
    l = np.asarray(l, dtype=float)
    if l.ndim == 1:
        # A single covariate row broadcast to every query.
        if l.shape[0] != p:
            raise ValueError(f"covariate row must have length {p}")
        return np.broadcast_to(l, (n, p))
    return l


def _as_matrix(l, m: int) -> np.ndarray:
    """Fit-sample covariates as an (m, p) matrix; None means p = 0."""
    if l is None:
        return np.empty((m, 0))
    l = np.asarray(l, dtype=float)
    if l.ndim == 1:
        l = l.reshape(-1, 1)
    if l.shape[0] != m:
        raise ValueError(f"covariate matrix must have {m} rows, got {l.shape[0]}")
    return l


@dataclass
class CondQuantile:
    """Generalized inverse of a fitted :class:`CondCdf`.

    Evaluates inf{y : F-hat(y, l) >= u} exactly: the fitted CDF is a
    step function jumping only at fit-sample outcomes, so the infimum is
    located by a cumulative-weight search (the limit of bisection over
    the observed outcome range). u is clamped to the sample range at the
    boundaries: u <= 0 gives the minimum sample, u >= 1 the maximum.
    """

    cdf: CondCdf

    @property
    def p(self) -> int:
        return self.cdf.p

    def evaluate_many(self, u: np.ndarray, l: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        ys = self.cdf.y_sorted
        m = self.cdf.m
        if self.p == 0:
            idx = np.ceil(u * m - 1e-9).astype(int) - 1
            return ys[np.clip(idx, 0, m - 1)]
        out = np.empty(u.shape[0])
        step = _row_chunk(m)
        for start in range(0, u.shape[0], step):
            sl = slice(start, start + step)
            w = self.cdf._weights(l[sl])
            cum = np.cumsum(w, axis=1)
            total = cum[:, -1]
            ok = total > 1e-300
            cum /= np.where(ok, total, 1.0)[:, None]
            target = u[sl] * (1.0 - 1e-12)
            # Each row of cum is nondecreasing, so counting the entries
            # below the target is a left-sided searchsorted per row.
            rows = (cum < target[:, None]).sum(axis=1)
            out[sl] = ys[np.clip(rows, 0, m - 1)]
        return out

    def __call__(self, u, l=None):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        l_arr = _coerce_l(l, u_arr.shape[0], self.p)
        res = self.evaluate_many(u_arr, l_arr)
        return float(res[0]) if np.isscalar(u) else res


@dataclass
class GammaMap:
    """Outcome transport map: conditional quantile of period-1 controls
    composed with the conditional CDF of period-0 controls.

    Nondecreasing in y for every fixed covariate value because both
    members are; outputs lie in the observed period-1 control range.
    """

    cdf0: CondCdf
    quantile1: CondQuantile

    @property
    def p(self) -> int:
        return self.cdf0.p

    def evaluate_many(self, y: np.ndarray, l: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.p == 0:
            # Integer rank arithmetic keeps the composition exact.
            m0 = self.cdf0.m
            m1 = self.quantile1.cdf.m
            k = np.searchsorted(self.cdf0.y_sorted, y, side="right")
            j = (k * m1 + m0 - 1) // m0
            return self.quantile1.cdf.y_sorted[np.clip(j - 1, 0, m1 - 1)]
        u = self.cdf0.evaluate_many(y, l)
        return self.quantile1.evaluate_many(u, l)

    def __call__(self, y, l=None):
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        l_arr = _coerce_l(l, y_arr.shape[0], self.p)
        res = self.evaluate_many(y_arr, l_arr)
        return float(res[0]) if np.isscalar(y) else res


def fit_cond_cdf(y, l=None, kernel: str = "gaussian", bandwidth=None) -> CondCdf:
    """Fit the conditional CDF of y given l on a sample of pairs.

    Parameters
    ----------
    y : array, shape (m,)
    l : array, shape (m, p) or None
        None or an (m, 0) matrix means no covariates.
    bandwidth : None, scalar or length-p vector
        None selects Silverman's rule per coordinate.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 2:
        raise InsufficientData("need at least 2 samples to fit a conditional CDF")
    l = _as_matrix(l, y.shape[0])
    order = np.argsort(y, kind="stable")
    h = _bandwidth_vector(l, bandwidth) if l.shape[1] else np.empty(0)
    return CondCdf(y_sorted=y[order], l_by_y=l[order], h=h, kernel=_check_kernel(kernel))


def fit_cond_quantile(y, l=None, kernel: str = "gaussian", bandwidth=None) -> CondQuantile:
    """Fit the conditional quantile of y given l (inverse of a fitted CDF)."""
    return CondQuantile(cdf=fit_cond_cdf(y, l, kernel=kernel, bandwidth=bandwidth))


def compose_gamma(cdf: CondCdf, quant: CondQuantile) -> GammaMap:
    """Compose a period-0 CDF with a period-1 quantile into the transport map."""
    if cdf.p != quant.p:
        raise ValueError(f"covariate dimensions differ: {cdf.p} vs {quant.p}")
    return GammaMap(cdf0=cdf, quantile1=quant)


# ---------------------------------------------------------------------------
# Treatment odds and marginal treatment probability
# ---------------------------------------------------------------------------


@dataclass
class NuFn:
    """Treatment-odds regression: odds of A = 1 given (x, l).

    Nadaraya-Watson regression of A on the transported baseline outcome
    x and the covariates; the fitted propensity is clipped to
    [eps_clip, 1 - eps_clip] before forming odds, so evaluations stay in
    [eps/(1-eps), (1-eps)/eps].
    """

    z: np.ndarray            # (m, 1 + p) training features, column 0 is x
    a: np.ndarray
    h: np.ndarray
    eps_clip: float = DEFAULT_EPS_CLIP
    kernel: str = "gaussian"

    @property
    def p(self) -> int:
        return self.z.shape[1] - 1

    def propensity_many(self, x: np.ndarray, l: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        query = np.column_stack([x, l]) if self.p else x.reshape(-1, 1)
        raw = _nw_mean(query, self.z, self.a.astype(float), self.h, self.kernel,
                       fallback=float(self.a.mean()))
        return np.clip(raw, self.eps_clip, 1.0 - self.eps_clip)

    def evaluate_many(self, x: np.ndarray, l: np.ndarray) -> np.ndarray:
        pr = self.propensity_many(x, l)
        return pr / (1.0 - pr)

    def __call__(self, x, l=None):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        l_arr = _coerce_l(l, x_arr.shape[0], self.p)
        res = self.evaluate_many(x_arr, l_arr)
        return float(res[0]) if np.isscalar(x) else res

    def integral_many(self, lo: np.ndarray, hi: np.ndarray, l: np.ndarray) -> np.ndarray:
        """Signed integrals of the odds over [lo_i, hi_i] at covariates l_i.

        Without covariates, the grid antiderivative of
        :func:`integrate_nu_many` (handed the bound call, which has no
        ``integral_many`` of its own). With covariates, the same
        composite Simpson rule on the same nodes, computed from the
        factorised product kernel K(x) C(l): each unit's covariate
        weights C are formed once and reused at all its nodes, and one
        batched product with [C a, C] gives the regression's numerator
        and denominator at every node.
        """
        if self.p == 0:
            return integrate_nu_many(lo, hi, l, self.__call__)
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        l = np.asarray(l, dtype=float)
        n = lo.shape[0]
        m = self.z.shape[0]
        fallback = float(self.a.mean())
        x_train = self.z[:, :1]
        # Whole intervals per chunk while their node weights fit the
        # budget; past that, one interval with its nodes in pieces.
        node_step = min(SIMPSON_NODES, _row_chunk(m))
        step = max(1, _row_chunk(m) // SIMPSON_NODES)
        out = np.empty(n)
        for start in range(0, n, step):
            sl = slice(start, start + step)
            c = _product_weights(l[sl], self.z[:, 1:], self.h[1:], self.kernel)
            ca = np.stack([c * self.a, c], axis=2)
            x = lo[sl, None] + (hi[sl] - lo[sl])[:, None] * _SIMPSON_T[None, :]
            nd = np.empty(x.shape + (2,))
            for s0 in range(0, SIMPSON_NODES, node_step):
                xs = x[:, s0:s0 + node_step]
                kx = _product_weights(xs.reshape(-1, 1), x_train, self.h[:1], self.kernel)
                nd[:, s0:s0 + node_step] = np.matmul(kx.reshape(xs.shape + (m,)), ca)
            pr = np.clip(_nw_ratio(nd[..., 0], nd[..., 1], fallback),
                         self.eps_clip, 1.0 - self.eps_clip)
            out[sl] = _simpson_sum(pr / (1.0 - pr), lo[sl], hi[sl])
        return out


def fit_nu(x, l, a, kernel: str = "gaussian", bandwidth=None,
           eps_clip: float = DEFAULT_EPS_CLIP) -> NuFn:
    """Fit the treatment-odds function by regressing A on (x, l).

    ``x`` is the transported baseline outcome evaluated on the training
    units; ``l`` their covariates (None for p = 0); ``a`` the indicator.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a)
    l = _as_matrix(l, x.shape[0])
    if not 0.0 < eps_clip < 0.5:
        raise ValueError("eps_clip must lie in (0, 0.5)")
    if a.min() == a.max():
        raise DegenerateArm("odds regression needs both treatment arms")
    z = np.column_stack([x, l]) if l.shape[1] else x.reshape(-1, 1)
    h = _bandwidth_vector(z, bandwidth)
    return NuFn(z=z, a=a.astype(float), h=h, eps_clip=eps_clip,
                kernel=_check_kernel(kernel))


def estimate_pi(a) -> float:
    """Sample treatment frequency; raises DegenerateArm at 0 or 1."""
    a = np.asarray(a)
    pi = float(a.mean())
    if not 0.0 < pi < 1.0:
        raise DegenerateArm("treatment frequency must be strictly inside (0, 1)")
    return pi


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


@dataclass
class DensityFn:
    """Kernel density estimate with a floor for use in denominators."""

    x: np.ndarray
    h: float
    f_min: float = DEFAULT_F_MIN
    kernel: str = "gaussian"

    def evaluate_many(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape[0])
        inv = 1.0 / (self.x.shape[0] * self.h)
        step = _row_chunk(self.x.shape[0])
        for start in range(0, t.shape[0], step):
            sl = slice(start, start + step)
            u = (t[sl, None] - self.x[None, :]) / self.h
            if self.kernel == "gaussian":
                k = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
            else:
                k = 0.75 * np.clip(1.0 - u * u, 0.0, None)
            out[sl] = k.sum(axis=1) * inv
        return np.maximum(out, self.f_min)

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        res = self.evaluate_many(t_arr)
        return float(res[0]) if np.isscalar(t) else res


def fit_density(x, kernel: str = "gaussian", bandwidth: Optional[float] = None,
                f_min: float = DEFAULT_F_MIN) -> DensityFn:
    """Kernel density estimate with Silverman bandwidth and a value floor."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] < 2:
        raise InsufficientData("need at least 2 samples to fit a density")
    h = silverman_bandwidth(x) if bandwidth is None else float(bandwidth)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    return DensityFn(x=x, h=h, f_min=f_min, kernel=_check_kernel(kernel))


# ---------------------------------------------------------------------------
# The fitted bundle
# ---------------------------------------------------------------------------


@dataclass
class NuisanceSet:
    """Everything the influence functions need, fitted on one training set.

    ``gamma`` maps (y, l) to the transported baseline outcome, ``nu``
    gives treatment odds at (x, l), ``pi`` the marginal treatment
    probability. The two densities are only required for quantile-type
    targets and may be None otherwise. Analytic stand-ins with the same
    call signatures are accepted everywhere fitted objects are.
    """

    gamma: object
    nu: object
    pi: float
    dens_y1_treated: Optional[object] = None
    dens_gamma_treated: Optional[object] = None


# ---------------------------------------------------------------------------
# Tuning-parameter selection (optional cross-validation)
# ---------------------------------------------------------------------------

ZETA_LADDER = (0.5, 0.75, 1.0, 1.5, 2.0)


def select_bandwidth_scale(y0, y1, a, l, K_prime: int, seed: int = 0,
                           kernel: str = "gaussian", ladder=ZETA_LADDER) -> float:
    """Pick a bandwidth scale by K'-fold cross-validation.

    Scores each candidate scale by the integrated squared error of the
    conditional CDF of the period-0 control outcome (CRPS-style, on a
    grid) plus the log-loss of the propensity regression behind the odds
    function, both on held-out folds. Returns the best scale; the
    rule-of-thumb (scale 1.0) is the no-CV default elsewhere.
    """
    from .data_model import partition_folds

    y0 = np.asarray(y0, dtype=float)
    a = np.asarray(a)
    n = y0.shape[0]
    l = _as_matrix(l, n)
    folds = partition_folds(n, K_prime, stratify_on=None, seed=seed, min_stratum=0)
    grid = np.linspace(y0.min(), y0.max(), 64)
    scores = np.zeros(len(ladder))
    for j, scale in enumerate(ladder):
        total = 0.0
        for k in range(K_prime):
            tr = folds.train_indices(k)
            ev = folds.eval_indices(k)
            ctrl = tr[a[tr] == 0]
            ev_ctrl = ev[a[ev] == 0]
            if ctrl.size < 2 or ev_ctrl.size == 0 or a[tr].min() == a[tr].max():
                continue
            base_h = _bandwidth_vector(l[ctrl], None) if l.shape[1] else None
            cdf = fit_cond_cdf(y0[ctrl], l[ctrl], kernel=kernel,
                               bandwidth=None if base_h is None else base_h * scale)
            # CRPS on the held-out control units.
            F = np.stack([cdf.evaluate_many(np.full(ev_ctrl.size, g), l[ev_ctrl])
                          for g in grid], axis=1)
            ind = (y0[ev_ctrl, None] <= grid[None, :]).astype(float)
            total += float(np.mean((F - ind) ** 2))
            # Log-loss of the propensity regression at the same scale.
            q1 = fit_cond_quantile(y1[ctrl], l[ctrl], kernel=kernel,
                                   bandwidth=None if base_h is None else base_h * scale)
            gam = compose_gamma(cdf, q1)
            x_tr = gam.evaluate_many(y0[tr], l[tr])
            z_h = _bandwidth_vector(
                np.column_stack([x_tr, l[tr]]) if l.shape[1] else x_tr.reshape(-1, 1),
                None)
            nu = fit_nu(x_tr, l[tr] if l.shape[1] else None, a[tr], kernel=kernel,
                        bandwidth=z_h * scale)
            x_ev = gam.evaluate_many(y0[ev], l[ev])
            pr = nu.propensity_many(x_ev, l[ev])
            total += float(-np.mean(a[ev] * np.log(pr) + (1 - a[ev]) * np.log1p(-pr)))
        scores[j] = total
    return float(ladder[int(np.argmin(scores))])
