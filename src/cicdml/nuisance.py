"""Nuisance function estimation: transport map, treatment odds, densities.

Fits the three ingredients of the orthogonal estimating function — the
outcome transport map ``gamma`` (conditional quantile composed with a
conditional CDF), the treatment-odds regression ``nu``, and the marginal
treatment probability ``pi`` — plus the outcome densities needed by
quantile-type targets. Estimators are kernel-based: Nadaraya-Watson
smoothing over covariates with Silverman-type per-coordinate bandwidths.
With no covariates they reduce exactly to the empirical CDF, empirical
quantile, and sample means. Every kernel is the Gaussian product kernel
exp(-D / 2), with D the summed squared scaled distances over the
coordinates (:func:`_sq_distances`).

Covariates are an (n, p) float matrix everywhere inside the package, and
p = 0 is an (n, 0) matrix. :func:`_covariate_matrix` is the one place
where the public forms (None for p = 0, a single covariate row) become
that matrix: at every fit and every call ``f(x, l)``
(:class:`_PointwiseFn`).

With covariates, the odds regression's Silverman bandwidths, whose
one-dimensional rate m^(-1/5) undersmooths a regression on x and p
covariates, are multiplied by the scale in ``ODDS_SCALES`` (1 to 4) with
the least Riesz loss E[(1 - A) nu^2] - 2 E[A nu], fitted on the training
units at even positions and scored on those at odd positions.

Kernel weights are formed in row chunks of at most ``_CHUNK_BUDGET``
elements, one coordinate at a time. The transport map forms each
chunk's covariate weights once for its CDF and its quantile, which are
fitted on the same control units.

``node_odds(nodes, l)`` is the one primitive for odds at many outcome
nodes: the odds at every node for each unit's covariates, one shared
column without covariates. Fitted odds factorise the product kernel into
an outcome part, formed once at the nodes, and a covariate part, formed
once per unit, so one matrix product gives every unit's regression sums
at every node. Every odds integral is one fourth-order antiderivative on
equally spaced shared nodes (:func:`_grid_integrals`), of the node odds
unless the odds tabulate a closed form. Fitted odds with covariates take
``GRID_PER_BANDWIDTH`` nodes per x-bandwidth, at least ``GRID_MIN`` and
at most ``ANTIDERIV_GRID``; other odds take ``ANTIDERIV_GRID``. Without
covariates ``node_odds`` alone, for every caller, takes the one column's
sums from training x binned on a grid ``ANTIDERIV_REFINE`` times finer,
by one direct kernel convolution per sub-grid phase, when the nodes are
two or more, equally spaced, in bins at most ``_BIN_MAX_WIDTH`` h wide,
and the dense sums cost more; otherwise dense.

Step links take the odds at points, not integrals: the node odds at a
link's jumps, or at the QTT moment's scan nodes, signed by whether each
unit's interval holds the node (:func:`signed_odds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateArm, InsufficientData

ANTIDERIV_GRID = 2048      # odds antiderivative nodes (at most, for fitted odds with covariates)
GRID_PER_BANDWIDTH = 16    # antiderivative nodes per x-bandwidth of fitted odds with covariates
GRID_MIN = 64              # the fewest antiderivative nodes of fitted odds with covariates
ANTIDERIV_REFINE = 4       # p = 0 training x is binned this many times finer than the nodes
ODDS_SCALES = (1.0, 2.0, 3.0, 4.0)  # odds bandwidth scales scored by held-out loss (p > 0)
# Max elements per kernel-weight chunk. A chunk of float64 temporaries of
# this size is 8 MiB, below glibc's 32 MiB dynamic mmap ceiling, so the
# allocator reuses heap memory instead of mapping, faulting in and
# unmapping a fresh region for every chunk.
_CHUNK_BUDGET = 1 << 20
DEFAULT_EPS_CLIP = 0.01
DEFAULT_F_MIN = 1e-3

# Scaled distance |u| past which the float64 kernel weight is exactly 0.0:
# exp(-u^2 / 2) underflows to zero from u = 38.604 on. Binned kernel sums
# cut their taps there and nowhere nearer, so sparse tails keep every
# weight the dense sums see.
_KERNEL_REACH = 38.61
# Binned kernel sums are used while their taps per node number at most
# this many per training point, about where both cost the same: a tap
# costs two multiply-adds in np.convolve, a dense weight an exp and
# several array passes. Smaller samples, and node ranges narrow against
# the bandwidth, take the dense sums.
_TAPS_PER_POINT = 16
# Widest bin of binned kernel sums, in bandwidths (node spacing h / 2): there
# binned odds were within 2.6e-3 relative of dense over the central 96% of x,
# 2.2e-2 at its sparse ends; QTT scans 2-2.7 h apart were up to 7% off.
_BIN_MAX_WIDTH = 0.125

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


def _sq_distances(query: np.ndarray, train: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Summed squared scaled distances sum_j ((q_j - t_j) / h_j)^2, shape
    (Q, m), in at most two (Q, m) buffers. d = 0 gives zeros."""
    acc = u = None
    for j in range(train.shape[1]):
        u = np.subtract(query[:, j, None], train[None, :, j], out=u)
        u /= h[j]
        u *= u
        if acc is None:
            acc, u = u, None
        else:
            acc += u
    return np.zeros((query.shape[0], train.shape[0])) if acc is None else acc


def _product_weights(query: np.ndarray, train: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Unnormalized Gaussian product-kernel weights exp(-D / 2), shape
    (Q, m), with D from :func:`_sq_distances`. d = 0 gives ones."""
    w = _sq_distances(query, train, h)
    w *= -0.5
    return np.exp(w, out=w)


def _nw_ratio(num, denom, fallback):
    """Nadaraya-Watson estimate num / denom, or fallback where no training
    row carries weight."""
    return np.divide(num, denom, out=np.full(np.shape(num), float(fallback)),
                     where=denom > 1e-300)


def _clipped_odds(pr: np.ndarray, eps_clip: float) -> np.ndarray:
    """Odds pr / (1 - pr) of propensities clipped to [eps_clip,
    1 - eps_clip], in place of pr."""
    np.clip(pr, eps_clip, 1.0 - eps_clip, out=pr)
    return np.divide(pr, 1.0 - pr, out=pr)


def _nw_mean(query, train, resp, h, fallback):
    """Chunked Nadaraya-Watson regression of resp on train, at query rows."""
    out = np.empty(query.shape[0])
    step = _row_chunk(train.shape[0])
    for start in range(0, query.shape[0], step):
        sl = slice(start, start + step)
        w = _product_weights(query[sl], train, h)
        out[sl] = _nw_ratio(w @ resp, w.sum(axis=1), fallback)
    return out


def _binned_nw_sums(nodes, x, resp, h):
    """One-dimensional Nadaraya-Watson numerator and denominator at
    equally spaced nodes, from linearly binned training points (Wand 1994;
    Fan & Marron 1994). None for fewer than two nodes, spacings that differ
    from their mean by over 1e-6 of it, bins wider than ``_BIN_MAX_WIDTH``
    h, or binned sums that cost more than the dense ones.

    The bin grid is ``ANTIDERIV_REFINE`` (R) times finer than the nodes,
    with node k on bin R k, and spans every bin within the kernel's reach
    of a node. A training point at bin coordinate t gives weight
    1 - frac(t) to bin floor(t) and frac(t) to the next. Bins R q + r of
    one phase r meet node k through the taps K((R (k - q) - r) delta / h),
    so one direct convolution per phase and per sum gives the sums at the
    nodes alone. No FFT: its rounding error, relative to the total
    weight, would swamp the ratio where the weight is sparse.
    """
    R = ANTIDERIV_REFINE
    n_nodes = nodes.shape[0]
    spacing = (nodes[-1] - nodes[0]) / max(n_nodes - 1, 1)    # 0 at one node
    if (not 0.0 < spacing <= R * _BIN_MAX_WIDTH * h
            or np.abs(np.diff(nodes) - spacing).max() > 1e-6 * spacing):
        return None
    delta = spacing / R
    reach = _KERNEL_REACH * h / delta                   # in bins; weight 0 beyond
    if not 2.0 * reach <= _TAPS_PER_POINT * x.shape[0]:  # NaN too
        return None
    S = int(reach) // R + 2                             # taps per side and phase
    s = np.arange(-S, S + 1)
    offsets = (R * s[None, :] - np.arange(R)[:, None]) * delta
    taps = _product_weights(offsets.reshape(-1, 1), np.zeros((1, 1)),
                            np.array([h])).reshape(R, 2 * S + 1)
    n_bins = R * (n_nodes + 2 * S)
    t = np.clip((x - nodes[0]) / delta + R * S, -1.0, float(n_bins))
    lower = np.floor(t)
    frac = t - lower
    idx = np.concatenate([lower, lower + 1.0]).astype(np.int64)
    w = np.concatenate([1.0 - frac, frac])
    keep = (idx >= 0) & (idx < n_bins)
    idx, w = idx[keep], w[keep]
    binned = np.stack([np.bincount(idx, weights=w * np.tile(resp, 2)[keep], minlength=n_bins),
                       np.bincount(idx, weights=w, minlength=n_bins)]).reshape(2, -1, R)
    num, denom = (sum(np.convolve(b[:, r], taps[r], mode="valid") for r in range(R))
                  for b in binned)
    return num, denom


def _grid_nodes(lo, hi, n_grid: int) -> np.ndarray:
    """Equally spaced antiderivative nodes spanning every endpoint in lo
    and hi (scalars or arrays), padded on each side by 5% of the span."""
    start = float(min(np.min(lo), np.min(hi)))
    stop = float(max(np.max(lo), np.max(hi)))
    pad = 1e-9 + 0.05 * max(stop - start, 1e-12)
    return np.linspace(start - pad, stop + pad, n_grid)


def _grid_integrals(gx: np.ndarray, gy: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """Signed integrals over [lo_i, hi_i] of the fourth-order
    antiderivative of node values gy at the G >= 4 equally spaced nodes
    gx, which span every endpoint.

    gy of shape (G,) is one map shared by every interval; gy of shape
    (G, k) gives interval i its own column i. At the nodes the
    antiderivative F sums cell integrals of the cubic through four
    neighbouring node values, delta/24 (-y[j-1] + 13 y[j] + 13 y[j+1] -
    y[j+2]), and in the two end cells of the cubic through the four end
    values, delta/24 (9 y[0] + 19 y[1] - 5 y[2] + y[3]) and its mirror.
    Inside a cell F is the cubic Hermite interpolant of F and F' = gy at
    the cell's two nodes, so an interval inside one cell follows the
    odds along it. Both steps are exact when the node values lie on a
    quadratic; the error falls as delta^4 on smooth node values.
    """
    gy = gy.reshape(gx.shape[0], -1)
    last = gx.shape[0] - 2
    delta = (gx[-1] - gx[0]) / (last + 1)
    cell = np.empty((last + 1, gy.shape[1]))
    inner = np.add(gy[1:-2], gy[2:-1], out=cell[1:-1])
    inner *= 13.0
    inner -= gy[:-3]
    inner -= gy[3:]
    cell[0] = 9.0 * gy[0] + 19.0 * gy[1] - 5.0 * gy[2] + gy[3]
    cell[-1] = 9.0 * gy[-1] + 19.0 * gy[-2] - 5.0 * gy[-3] + gy[-4]
    cell *= delta / 24.0
    anti = np.empty_like(gy)
    anti[0] = 0.0
    np.cumsum(cell, axis=0, out=anti[1:])
    cols = 0 if gy.shape[1] == 1 else np.arange(lo.shape[0])

    def at(x):
        # The cell [gx[j], gx[j + 1]) holding x, as np.interp finds it: the
        # equal spacing puts x within one cell of its scaled offset.
        j = np.minimum((x - gx[0]) / delta, last).astype(np.intp)
        j -= gx[j] > x
        j += gx[j + 1] <= x
        np.minimum(j, last, out=j)
        t = (x - gx[j]) / delta
        u = 1.0 - t
        # F[j] + h01(t) (F[j + 1] - F[j]) + delta (h10(t) y[j] + h11(t) y[j + 1]).
        return (anti[j, cols] + t * t * (3.0 - 2.0 * t) * cell[j, cols]
                + delta * t * u * (u * gy[j, cols] - t * gy[j + 1, cols]))

    return at(hi) - at(lo)


def integrate_nu_many(lo, hi, l, nu, weight=None) -> np.ndarray:
    """Signed integrals of the odds over per-unit intervals [lo_i, hi_i].

    The odds object's own ``integral_many`` when it has one; otherwise,
    and whenever ``weight`` (a function of x) multiplies the odds, the
    node odds' antiderivative (:func:`_node_odds_integrals`). Swapping
    the limits flips the sign.
    """
    own = getattr(nu, "integral_many", None)
    if own is not None and weight is None:
        return own(lo, hi, l)
    return _node_odds_integrals(lo, hi, l, nu, weight)


def _node_odds_integrals(lo, hi, l, nu, weight=None) -> np.ndarray:
    """Signed integrals over [lo_i, hi_i] of the fourth-order
    antiderivative (:func:`_grid_integrals`) of ``nu.node_odds`` (times
    ``weight``) on nodes spanning every endpoint: one column shared by
    every unit without covariates, so one chunk; one per unit with them,
    in chunks.

    Fitted odds with covariates are smooth on the scale of their
    x-bandwidth h_x = ``nu.h[0]`` (odds scale included), so they take
    ceil(``GRID_PER_BANDWIDTH`` span / h_x) nodes, span being the range
    of the endpoints, clamped to [``GRID_MIN``, ``ANTIDERIV_GRID``].
    Other odds take ``ANTIDERIV_GRID`` nodes."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape[0] == 0:
        return np.zeros(0)
    n_grid = ANTIDERIV_GRID
    if isinstance(nu, NuFn) and nu.p:
        span = max(np.max(lo), np.max(hi)) - min(np.min(lo), np.min(hi))
        n_grid = int(np.clip(np.ceil(GRID_PER_BANDWIDTH * span / nu.h[0]),
                             GRID_MIN, ANTIDERIV_GRID))
    nodes = _grid_nodes(lo, hi, n_grid)
    wx = None if weight is None else np.asarray(weight(nodes), dtype=float)[:, None]
    step = lo.shape[0] if l.shape[1] == 0 else _units_per_chunk(nu, nodes.shape[0])
    out = np.empty(lo.shape[0])
    for start in range(0, lo.shape[0], step):
        sl = slice(start, start + step)
        odds = nu.node_odds(nodes, l[sl])
        out[sl] = _grid_integrals(nodes, odds if wx is None else odds * wx, lo[sl], hi[sl])
    return out


# ---------------------------------------------------------------------------
# Covariates and the call of a fitted function
# ---------------------------------------------------------------------------


def _covariate_matrix(l, n: int, p: Optional[int]) -> np.ndarray:
    """Covariates as an (n, p) float matrix, the one form that every
    internal function takes; p = 0 is an (n, 0) matrix.

    The boundary of every fit and every call of a fitted function: None
    means p = 0. At a call (p the function's covariate count), a 1-D l is
    one covariate row shared by all n queries; at a fit (p None), a 1-D l
    is one covariate column.
    """
    l = np.empty((n, 0)) if l is None else np.asarray(l, dtype=float)
    if l.ndim == 1:
        l = l.reshape(-1, 1) if p is None else np.broadcast_to(l, (n, l.shape[0]))
    if l.shape[0] != n or p is not None and l.shape[1] != p:
        raise ValueError(f"covariates must form an ({n}, {'p' if p is None else p}) "
                         f"matrix, got shape {l.shape}")
    return l


class _PointwiseFn:
    """The call ``f(x, l)`` that every fitted or analytic function of an
    outcome and covariates shares: x a scalar or n points, l as
    :func:`_covariate_matrix` takes it at the function's ``p``. The
    values come from the class's ``evaluate_many`` on the (n, p) matrix;
    a scalar x gives a float."""

    def __call__(self, x, l=None):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        res = self.evaluate_many(x_arr, _covariate_matrix(l, x_arr.shape[0], self.p))
        return float(res[0]) if np.isscalar(x) else res

    def node_odds(self, nodes, l) -> np.ndarray:
        """Values at every node for each covariate row of l, shape (G, k),
        from ``evaluate_many`` on the node-by-row grid; one column (G, 1)
        shared by every row without covariates."""
        nodes = np.asarray(nodes, dtype=float)
        rows = l if l.shape[1] else np.empty((1, 0))
        k = rows.shape[0]
        vals = self.evaluate_many(np.repeat(nodes, k), np.tile(rows, (nodes.shape[0], 1)))
        return vals.reshape(nodes.shape[0], k)


# ---------------------------------------------------------------------------
# Conditional CDF / quantile / transport map
# ---------------------------------------------------------------------------


@dataclass
class CondCdf(_PointwiseFn):
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

    @property
    def m(self) -> int:
        return self.y_sorted.shape[0]

    @property
    def p(self) -> int:
        return self.l_by_y.shape[1]

    def _weights(self, l_query: np.ndarray) -> np.ndarray:
        return _product_weights(l_query, self.l_by_y, self.h)

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
            out[sl] = self._from_cumulative(np.cumsum(w, axis=1, out=w), y[sl])
        return out

    def _from_cumulative(self, cum: np.ndarray, y: np.ndarray) -> np.ndarray:
        """F-hat at y_i from row i of the cumulative kernel weights, in
        ``y_sorted`` order."""
        total = cum[:, -1]
        k = np.searchsorted(self.y_sorted, y, side="right")
        num = np.where(k > 0, cum[np.arange(cum.shape[0]), np.maximum(k - 1, 0)], 0.0)
        ok = total > 1e-300
        return np.where(ok, num / np.where(ok, total, 1.0), k / self.m)


@dataclass
class CondQuantile(_PointwiseFn):
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
        m = self.cdf.m
        if self.p == 0:
            idx = np.ceil(u * m - 1e-9).astype(int) - 1
            return self.cdf.y_sorted[np.clip(idx, 0, m - 1)]
        out = np.empty(u.shape[0])
        step = _row_chunk(m)
        for start in range(0, u.shape[0], step):
            sl = slice(start, start + step)
            w = self.cdf._weights(l[sl])
            out[sl] = self._from_cumulative(np.cumsum(w, axis=1, out=w), u[sl])
        return out

    def _from_cumulative(self, cum: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The quantile at u_i from row i of the cumulative kernel weights,
        in the fitted CDF's ``y_sorted`` order; cum is normalised in place."""
        total = cum[:, -1]
        ok = total > 1e-300
        cum /= np.where(ok, total, 1.0)[:, None]
        target = u * (1.0 - 1e-12)
        # Each row of cum is nondecreasing, so counting the entries below
        # the target is a left-sided searchsorted per row.
        rows = (cum < target[:, None]).sum(axis=1)
        return self.cdf.y_sorted[np.clip(rows, 0, self.cdf.m - 1)]


@dataclass
class GammaMap(_PointwiseFn):
    """Outcome transport map: conditional quantile of period-1 controls
    composed with the conditional CDF of period-0 controls, both fitted
    on the same control units (:func:`fit_gamma`).

    Nondecreasing in y for every fixed covariate value because both
    members are; outputs lie in the observed period-1 control range.
    With covariates both members weight the same units with the same
    bandwidths, in another order: ``perm`` lists the quantile's units as
    positions in the CDF's order (None for p = 0, where ranks compose),
    so each chunk's kernel weights are formed once and permuted for the
    quantile.
    """

    cdf0: CondCdf
    quantile1: CondQuantile
    perm: Optional[np.ndarray]

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
        out = np.empty(y.shape[0])
        step = _row_chunk(self.cdf0.m)
        for start in range(0, y.shape[0], step):
            sl = slice(start, start + step)
            w = self.cdf0._weights(l[sl])
            w1 = w[:, self.perm]
            u = self.cdf0._from_cumulative(np.cumsum(w, axis=1, out=w), y[sl])
            out[sl] = self.quantile1._from_cumulative(np.cumsum(w1, axis=1, out=w1), u)
            # Freed before the next chunk's weights are formed, so that at
            # most two chunk buffers are alive at once.
            del w, w1
        return out


def fit_cond_cdf(y, l=None, bandwidth=None) -> CondCdf:
    """Fit the conditional CDF of y given l on a sample of pairs.

    Parameters
    ----------
    y : array, shape (m,)
    l : array, shape (m, p), or None
        None or an (m, 0) matrix means no covariates (p = 0).
    bandwidth : None, scalar or length-p vector
        None selects Silverman's rule per coordinate.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 2:
        raise InsufficientData("need at least 2 samples to fit a conditional CDF")
    l = _covariate_matrix(l, y.shape[0], None)
    order = np.argsort(y, kind="stable")
    h = _bandwidth_vector(l, bandwidth) if l.shape[1] else np.empty(0)
    return CondCdf(y_sorted=y[order], l_by_y=l[order], h=h)


def fit_cond_quantile(y, l=None, bandwidth=None) -> CondQuantile:
    """Fit the conditional quantile of y given l (inverse of a fitted CDF)."""
    return CondQuantile(cdf=fit_cond_cdf(y, l, bandwidth=bandwidth))


def fit_gamma(y0, y1, l=None, bandwidth=None) -> GammaMap:
    """Fit the transport map on control units' paired outcomes: the
    conditional CDF of y0 and the conditional quantile of y1, both given
    the units' covariates l with the same bandwidths."""
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    if y0.shape != y1.shape:
        raise ValueError("y0 and y1 must pair the same units")
    cdf0 = fit_cond_cdf(y0, l, bandwidth=bandwidth)
    quant1 = fit_cond_quantile(y1, l, bandwidth=bandwidth)
    perm = (np.argsort(np.argsort(y0, kind="stable"))[np.argsort(y1, kind="stable")]
            if cdf0.p else None)
    return GammaMap(cdf0=cdf0, quantile1=quant1, perm=perm)


# ---------------------------------------------------------------------------
# Treatment odds and marginal treatment probability
# ---------------------------------------------------------------------------


@dataclass
class NuFn(_PointwiseFn):
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

    @property
    def p(self) -> int:
        return self.z.shape[1] - 1

    def evaluate_many(self, x: np.ndarray, l: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _clipped_odds(_nw_mean(np.column_stack([x, l]), self.z, self.a.astype(float),
                                      self.h, fallback=float(self.a.mean())), self.eps_clip)

    def integral_many(self, lo: np.ndarray, hi: np.ndarray, l: np.ndarray) -> np.ndarray:
        """Signed integrals of the odds over [lo_i, hi_i] at covariates l_i,
        the node odds' antiderivative (:func:`_node_odds_integrals`): no
        branch of its own on p, as :meth:`node_odds` picks binned or dense."""
        return _node_odds_integrals(lo, hi, l, self)

    def node_odds(self, nodes: np.ndarray, l) -> np.ndarray:
        """Clipped odds at every node for each covariate row of l, shape
        (G, k): the one odds primitive behind the odds integral
        (:meth:`integral_many`) and the step links' signed odds
        (:func:`signed_odds`).

        Without covariates (l of shape (k, 0)) it is one column (G, 1)
        shared by every unit, from the binned sums wherever
        :func:`_binned_nw_sums` serves the nodes (two or more, equally
        spaced, bins at most ``_BIN_MAX_WIDTH`` h, cheaper than dense),
        otherwise from the dense sums. With covariates the Gaussian product
        kernel factorises into an outcome part and a covariate part K(x)
        C(l): the x-weights at the nodes are formed once, each row's
        covariate weights C once, and one matrix product with [C a, C]
        gives every row's numerator and denominator at every node. Callers
        pass at most :func:`_units_per_chunk` rows, so that the (G, 2k) sums
        and the (m, 2k) weights fit ``_CHUNK_BUDGET``.
        """
        nodes = np.asarray(nodes, dtype=float)
        if self.p == 0:
            sums = _binned_nw_sums(nodes, self.z[:, 0], self.a, self.h[0])
            return (self.evaluate_many(nodes, np.empty((nodes.shape[0], 0))) if sums is None
                    else self._odds(*sums))[:, None]
        nd = self._node_sums(nodes, l)
        k = nd.shape[1] // 2
        return self._odds(nd[:, :k], nd[:, k:])

    def _node_sums(self, nodes, l):
        """The regression's numerators (first k columns) and denominators
        (last k) at every node for each of the k covariate rows of l.

        The x-weights are formed in blocks of nodes that fill an eighth
        of the budget, so a block and its temporaries stay well below it.
        """
        c = _product_weights(l, self.z[:, 1:], self.h[1:])
        ca = np.concatenate([c * self.a, c]).T
        rows = _row_chunk(8 * self.z.shape[0])
        nd = np.empty((nodes.shape[0], ca.shape[1]))
        for r in range(0, nodes.shape[0], rows):
            kx = _product_weights(nodes[r:r + rows, None], self.z[:, :1], self.h[:1])
            np.matmul(kx, ca, out=nd[r:r + rows])
        return nd

    def _odds(self, num, denom):
        """Odds of the clipped regression num / denom."""
        return _clipped_odds(_nw_ratio(num, denom, float(self.a.mean())), self.eps_clip)


def _units_per_chunk(nu, n_nodes: int) -> int:
    """Covariate rows per ``node_odds`` call at n_nodes nodes: for fitted
    odds their (G, 2k) sums and (m, 2k) weights fit the budget, so the
    larger of G and the m training units sets the rows (256 at G = m =
    ``ANTIDERIV_GRID``; a bandwidth-sized grid is usually below m), for
    other odds their (G, k) values."""
    if not isinstance(nu, NuFn):
        return _row_chunk(n_nodes)
    return _row_chunk(2 * max(n_nodes, nu.z.shape[0]))


def signed_odds(nodes, lo, hi, l, nu):
    """Chunks (idx, S) of the units i whose interval meets [min(nodes),
    max(nodes)], S[g, j] = s_i(t_g) nu(t_g, l_i) for i = idx[j], with
    s_i(t) = 1 for t in (lo_i, hi_i], -1 for t in (hi_i, lo_i] and 0
    elsewhere.

    The signed odds of every step-link correction: the control correction
    of a step link sums the jump sizes against S at its jumps, and the
    QTT moment weights S at its scan nodes. The odds are the odds
    object's ``node_odds``: one column shared by every unit without
    covariates, per chunk of :func:`_units_per_chunk` units with them.
    """
    nodes = np.asarray(nodes, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    units = np.flatnonzero((np.minimum(lo, hi) < nodes.max(initial=-np.inf))
                           & (np.maximum(lo, hi) >= nodes.min(initial=np.inf)))
    if units.size == 0:
        return
    shared = nu.node_odds(nodes, l[units]) if l.shape[1] == 0 else None
    step = (_row_chunk(nodes.shape[0]) if shared is not None
            else _units_per_chunk(nu, nodes.shape[0]))
    t = nodes[:, None]
    for start in range(0, units.size, step):
        idx = units[start:start + step]
        s = ((lo[idx] < t) & (t <= hi[idx])).astype(float) - ((hi[idx] < t) & (t <= lo[idx]))
        odds = shared if shared is not None else nu.node_odds(nodes, l[idx])
        yield idx, np.multiply(s, odds, out=s)


def _scaled_odds(query, train, a, h, eps_clip) -> np.ndarray:
    """Clipped Nadaraya-Watson odds of a on train at the query rows, at
    the bandwidths s h for every s in ``ODDS_SCALES``, one row per s.

    One pass over the query rows: each chunk's summed squared scaled
    distances D (:func:`_sq_distances`) are formed once, and each scale
    takes one exp(-D / (2 s^2)). A chunk's distances fill at most
    ``_CHUNK_BUDGET`` / d elements.
    """
    m, d = train.shape
    fallback = float(a.mean())
    out = np.empty((len(ODDS_SCALES), query.shape[0]))
    step = _row_chunk(m * d)
    for start in range(0, query.shape[0], step):
        dist = _sq_distances(query[start:start + step], train, h)
        w = np.empty_like(dist)
        for k, s in enumerate(ODDS_SCALES):
            np.exp(np.multiply(dist, -0.5 / (s * s), out=w), out=w)
            out[k, start:start + step] = _clipped_odds(_nw_ratio(w @ a, w.sum(axis=1), fallback),
                                                       eps_clip)
    return out


def _odds_scale(z, a, h, eps_clip) -> float:
    """The odds bandwidth scale of :func:`fit_nu`."""
    fit, held = slice(0, None, 2), slice(1, None, 2)
    if not all(0.0 < a[half].sum() < a[half].shape[0] for half in (fit, held)):
        return 1.0
    nu = _scaled_odds(z[held], z[fit], a[fit], h, eps_clip)
    a_held = a[held]
    loss = ((1.0 - a_held) * nu * nu - 2.0 * a_held * nu).mean(axis=1)
    return ODDS_SCALES[int(np.argmin(loss))]


def fit_nu(x, l, a, bandwidth=None, eps_clip: float = DEFAULT_EPS_CLIP) -> NuFn:
    """Fit the treatment-odds function by regressing A on (x, l).

    ``x`` is the transported baseline outcome evaluated on the training
    units; ``l`` their covariates (None or an (m, 0) matrix for p = 0);
    ``a`` the indicator.
    ``bandwidth`` None takes Silverman's rule per coordinate of (x, l),
    with covariates times the scale in ``ODDS_SCALES`` whose odds, fitted
    on the units at even positions (no seed; a sorted input still splits
    evenly), have the least Riesz loss mean((1 - A) nu^2 - 2 A nu) on
    those at odd positions, or 1 when a half lacks an arm. The true odds
    minimise this loss (uLSIF, Kanamori, Hido & Sugiyama 2009; Riesz
    regression, Chernozhukov, Newey & Singh 2022).
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a).astype(float)
    l = _covariate_matrix(l, x.shape[0], None)
    if not 0.0 < eps_clip < 0.5:
        raise ValueError("eps_clip must lie in (0, 0.5)")
    if a.min() == a.max():
        raise DegenerateArm("odds regression needs both treatment arms")
    z = np.column_stack([x, l])
    h = _bandwidth_vector(z, bandwidth)
    if bandwidth is None and l.shape[1]:
        h = h * _odds_scale(z, a, h, eps_clip)
    return NuFn(z=z, a=a, h=h, eps_clip=eps_clip)


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

    def evaluate_many(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape[0])
        # _product_weights leaves the Gaussian unnormalised.
        inv = 1.0 / (self.x.shape[0] * self.h * np.sqrt(2.0 * np.pi))
        train, h = self.x[:, None], np.array([self.h])
        step = _row_chunk(self.x.shape[0])
        for start in range(0, t.shape[0], step):
            sl = slice(start, start + step)
            out[sl] = _product_weights(t[sl, None], train, h).sum(axis=1) * inv
        return np.maximum(out, self.f_min)

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        res = self.evaluate_many(t_arr)
        return float(res[0]) if np.isscalar(t) else res


def fit_density(x, bandwidth: Optional[float] = None,
                f_min: float = DEFAULT_F_MIN) -> DensityFn:
    """Kernel density estimate with Silverman bandwidth and a value floor."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] < 2:
        raise InsufficientData("need at least 2 samples to fit a density")
    h = silverman_bandwidth(x) if bandwidth is None else float(bandwidth)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    return DensityFn(x=x, h=h, f_min=f_min)


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
    call signatures, odds with a ``node_odds``, are accepted everywhere
    fitted objects are.
    """

    gamma: object
    nu: object
    pi: float
    dens_y1_treated: Optional[object] = None
    dens_gamma_treated: Optional[object] = None
