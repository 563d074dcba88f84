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
coordinates (:func:`_sq_distances`, or its product form
:func:`_expanded_sq_distances`).

Covariates are an (n, p) float matrix everywhere inside the package, and
p = 0 is an (n, 0) matrix. :func:`_covariate_matrix` is the one place
where the public forms (None for p = 0, a single covariate row) become
that matrix: at every fit and every call ``f(x, l)``
(:class:`_PointwiseFn`).

With covariates, the odds regression's Silverman bandwidths, whose
one-dimensional rate m^(-1/5) undersmooths a regression on x and p
covariates, are multiplied by the scale in ``ODDS_SCALES`` (1 to 4) with
the least Riesz loss E[(1 - A) nu^2] - 2 E[A nu], fitted on the training
units at even positions and scored on those at odd positions. The weights
at a scale whose double is a scale too are those at the double squared
twice, so of 1 to 4 only 3 and 4 take an exp (:func:`_scaled_odds`).

Every chunked pass (here, in the estimator's root solve and in the
analytic odds) takes its row slices from :func:`_chunks`, the one reader
of ``_CHUNK_BUDGET``. Kernels whose values are returned (the odds and
their node sums, the densities, ``CondCdf`` and ``CondQuantile``, the
binned taps) form their weights one coordinate at a time
(:func:`_product_weights`). The two kernels that are read only through
comparisons take D from one small matrix product instead
(:func:`_expanded_sq_distances`): the transport map, whose value is an
order statistic of the controls' y1, and the odds-scale score
(:func:`_scaled_odds`), read through an argmin. The product rounds the
weights by about 1e-13 relative, which moves an output only where a
cumulative share or a loss lies that close to its comparand. The
transport map forms each chunk's weights once, for its CDF and its
quantile, which are fitted on the same control units, in one buffer that
also holds them in the quantile's order; both kernels form their
training side once per call.

The conditional CDF and quantile, alone and inside the transport map,
read a row's running weight sums through two levels (:func:`_block_sums`,
:func:`_block_scan`): 64-column block sums and their running sum, then
one block's entries, summed in order on from the sum before it. The CDF
half reads the sum through one rank; the quantile half finds the block
that first reaches its target share, then the entry in it. Neither forms
a full-row cumulative sum. A block's scan takes a scratch of two
(rows, width) arrays, width at most half a row, which the map keeps in
whichever half of its chunk buffer is idle. Summed in this order a share
can differ from the full running sum's by rounding, which moves an
output only where a share lies that close to its target.

``node_odds(nodes, l)`` is the one primitive for odds at many outcome
nodes: the odds at every node for each unit's covariates, one shared
column without covariates. Fitted odds factorise the product kernel into
an outcome part, formed once at the nodes, and a covariate part, formed
once per unit, each over the treated and the control training units
apart. A is 0/1, so one matrix product per arm gives every unit's sums at
every node: the treated sums are the numerators, and with the controls'
added the denominators (:meth:`NuFn._node_sums`). Every odds integral is
one fourth-order antiderivative on equally spaced shared nodes
(:func:`_grid_integrals`), of the node odds unless the odds tabulate a
closed form. Fitted odds, with covariates or
without, take ``GRID_PER_BANDWIDTH`` nodes per x-bandwidth, at least
``GRID_MIN`` and at most ``ANTIDERIV_GRID`` (:func:`_odds_nodes`);
analytic and perturbed odds take ``ANTIDERIV_GRID``. Without
covariates ``node_odds`` alone, for every caller, takes the one column's
sums from training x binned on a grid ``ANTIDERIV_REFINE`` times finer,
by one direct kernel convolution per sub-grid phase, when the nodes are
two or more, equally spaced, in bins at most ``_BIN_MAX_WIDTH`` h wide,
and the dense sums cost more; otherwise dense.

Step links take the odds at points, not integrals: the node odds at a
link's jumps, signed by whether each unit's interval holds the node
(:func:`signed_odds`, with the signs of :func:`_interval_signs`), the QTT's
correction at its root included. The QTT moment's scans read instead one
table per fold of its controls' node odds on their odds integral's nodes
(:func:`_node_odds_table`), through its Catmull-Rom interpolant
(:func:`_grid_values`), which finds its cells as the antiderivative does
(:func:`_grid_cell`) and has the antiderivative's cell integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import Optional

import numpy as np

from .errors import DegenerateArm, InsufficientData, NonBinaryTreatment

ANTIDERIV_GRID = 2048      # antiderivative nodes of analytic odds; the most for fitted odds
GRID_PER_BANDWIDTH = 16    # antiderivative nodes per x-bandwidth of fitted odds, at any p
GRID_MIN = 64              # the fewest antiderivative nodes of fitted odds
ANTIDERIV_REFINE = 4       # p = 0 training x is binned this many times finer than the nodes
ODDS_SCALES = (1.0, 2.0, 3.0, 4.0)  # odds bandwidth scales scored by held-out loss (p > 0)
# Max elements per kernel-weight chunk. A chunk of float64 temporaries of
# this size is 8 MiB, below glibc's 32 MiB dynamic mmap ceiling, so the
# allocator reuses heap memory instead of mapping, faulting in and
# unmapping a fresh region for every chunk.
_CHUNK_BUDGET = 1 << 20
DEFAULT_EPS_CLIP = 0.01
DEFAULT_F_MIN = 1e-3
# Relative slack under a quantile's target share of the cumulative
# weights, so that a target such as 0.07 * 100, which rounds up to
# 7.000000000000001, stops at the 7th order statistic and not the 8th.
QUANTILE_SLACK = 1e-12
# Columns per block of the running kernel-weight sums of CondCdf,
# CondQuantile and GammaMap; a block is at most half a row wide, so that
# a scan of one block per row and its gather indices fit in a buffer the
# size of the weights.
_BLOCK = 64

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

def _chunks(n: int, width: int):
    """The row slices of a chunked pass over n rows of width elements
    each: in order, covering range(n) once, each at most
    max(1, ``_CHUNK_BUDGET`` // width) rows."""
    step = max(1, _CHUNK_BUDGET // max(width, 1))
    for start in range(0, n, step):
        yield slice(start, start + step)


def silverman_bandwidth(x: np.ndarray) -> float:
    """Silverman rule-of-thumb bandwidth: 0.9 min(sd, iqr/1.34) m^(-1/5),
    with the sd alone where the IQR is 0, as in R's ``bw.nrd0``."""
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    sd = float(np.std(x))
    q75, q25 = np.percentile(x, [75, 25])
    spread = min(sd, (q75 - q25) / 1.34) or sd
    h = 0.9 * spread * m ** (-0.2)
    if h <= 0.0:
        # Constant coordinate: any positive width gives uniform weights.
        h = max(1.0, abs(float(np.mean(x))) * 1e-3)
    return h


def _bandwidth_vector(x: np.ndarray, bandwidth) -> np.ndarray:
    """Per-coordinate bandwidths for the columns of x (m, d); a single
    bandwidth serves every column, none at d = 0."""
    d = x.shape[1]
    if bandwidth is None:
        return np.array([silverman_bandwidth(x[:, j]) for j in range(d)])
    h = np.atleast_1d(np.asarray(bandwidth, dtype=float))
    if (h <= 0).any():
        raise ValueError("bandwidths must be positive")
    if h.shape == (1,):
        h = np.repeat(h, d)
    if h.shape != (d,):
        raise ValueError(f"bandwidth must be a scalar or length-{d} vector")
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


def _expanded_sq_distances(train: np.ndarray, h: np.ndarray, scale: float = 1.0):
    """The distances of :func:`_sq_distances` to the training rows train
    in product form, times scale: a function of (query, out=None) that
    gives them for the Q query rows, shape (Q, m), written into out.

    D = |q|^2 + |t|^2 - 2 q.t is one (Q, d + 2) by (d + 2, m) matrix
    product, clamped at 0. Both sides are first centred on the training
    rows' mean and scaled by h, so a shift of the covariates costs no
    precision; the product rounds D by about eps (|q|^2 + |t|^2) in those
    units, not by eps D as the direct sum does, so only kernels read
    through comparisons take it. The training side (the mean, the centred
    and scaled rows and the (d + 2, m) factor, which carries scale) is
    formed here once, for every query chunk of a pass. scale is a power
    of two, so the product rounds as without it: -0.5 gives the kernel's
    exponent -D / 2 bit for bit."""
    centre = train.mean(axis=0)
    ts = (train - centre) / h
    right = np.vstack([ts.T, np.ones(len(ts)), np.einsum("ij,ij->i", ts, ts)])
    right *= scale
    clamp = np.maximum if scale > 0.0 else np.minimum

    def distances(query: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        qs = (query - centre) / h
        left = np.column_stack([-2.0 * qs, np.einsum("ij,ij->i", qs, qs), np.ones(len(qs))])
        dist = np.matmul(left, right, out=out)
        return clamp(dist, 0.0, out=dist)

    return distances


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
    for sl in _chunks(query.shape[0], train.shape[0]):
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


def _grid_cell(gx: np.ndarray, x: np.ndarray):
    """The cell j of each x among the G >= 2 equally spaced nodes gx, which
    span every x, and x's offset in it in node spacings: [gx[j], gx[j + 1])
    as np.interp finds it, the last cell closed. The equal spacing puts x
    within one cell of its scaled offset."""
    last = gx.shape[0] - 2
    delta = (gx[-1] - gx[0]) / (last + 1)
    j = np.minimum((x - gx[0]) / delta, last).astype(np.intp)
    j -= gx[j] > x
    j += gx[j + 1] <= x
    np.minimum(j, last, out=j)
    return j, (x - gx[j]) / delta


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
        j, t = _grid_cell(gx, x)
        u = 1.0 - t
        # F[j] + h01(t) (F[j + 1] - F[j]) + delta (h10(t) y[j] + h11(t) y[j + 1]).
        return (anti[j, cols] + t * t * (3.0 - 2.0 * t) * cell[j, cols]
                + delta * t * u * (u * gy[j, cols] - t * gy[j + 1, cols]))

    return at(hi) - at(lo)


# Coefficients of the end cells' differences (columns e0, e1, e2 of the
# four end values) from the interior cells' (rows a0, a1, a2), with the
# node beyond the end on the cubic through the four end values.
_FIRST_CELL = np.array([[3.0, -3.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_LAST_CELL = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -3.0, 3.0]])


def _grid_values(gx: np.ndarray, gy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values at x of the Catmull-Rom interpolant of node values gy at the
    G >= 4 equally spaced nodes gx, which span every x: shape (len(x), k)
    for gy of shape (G, k), (len(x), 1) for gy of shape (G,).

    In the cell [gx[j], gx[j + 1]) of :func:`_grid_cell` it is the cubic
    Hermite interpolant of y[j] and y[j + 1] with the slopes
    (y[j + 1] - y[j - 1]) / 2 and (y[j + 2] - y[j]) / 2 per spacing; the
    end cells take the node beyond the end from the cubic through the four
    end values, 4 y[0] - 6 y[1] + 4 y[2] - y[3] and its mirror. It takes
    each node's value at the node (the last, which closes the last cell, up
    to rounding), is exact on quadratic node values, and its integral over
    each cell is that of the fourth-order antiderivative
    (:func:`_grid_integrals`). It adds differences of neighbouring node
    values to y[j], so equal neighbours give their value exactly.
    """
    gy = gy.reshape(gx.shape[0], -1)
    j, u = _grid_cell(gx, x)
    v = 1.0 - u
    # y[j] + a0 d0 + a1 d1 + a2 d2, with d0 = y[j] - y[j - 1], d1 = y[j + 1] - y[j]
    # and d2 = y[j + 2] - y[j + 1].
    coef = np.stack([0.5 * u * v * v, u * (0.5 + u * (1.5 - u)), -0.5 * u * u * v], axis=1)
    for end, cell in ((j == 0, _FIRST_CELL), (j == gx.shape[0] - 2, _LAST_CELL)):
        coef[end] = coef[end] @ cell
    # The differences e0, e1, e2 of the four node values from base on.
    base = np.clip(j - 1, 0, gx.shape[0] - 4)
    out = gy[j]
    lower = gy[base]
    for r in range(3):
        upper = gy[base + r + 1]
        diff = np.subtract(upper, lower, out=lower)
        diff *= coef[:, r, None]
        out += diff
        lower = upper
    return out


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


def _odds_nodes(lo, hi, nu) -> np.ndarray:
    """The antiderivative nodes of the odds nu over intervals with
    endpoints lo and hi (:func:`_grid_nodes`).

    Fitted odds (:class:`NuFn`) are smooth on the scale of their
    x-bandwidth h_x = ``nu.h[0]`` (odds scale included), with covariates
    or without, so they take ceil(``GRID_PER_BANDWIDTH`` span / h_x)
    nodes, span being the range of the endpoints, clamped to
    [``GRID_MIN``, ``ANTIDERIV_GRID``]. Other odds, analytic or
    perturbed, take ``ANTIDERIV_GRID`` nodes."""
    n_grid = ANTIDERIV_GRID
    if isinstance(nu, NuFn):
        span = max(np.max(lo), np.max(hi)) - min(np.min(lo), np.min(hi))
        n_grid = int(np.clip(np.ceil(GRID_PER_BANDWIDTH * span / nu.h[0]),
                             GRID_MIN, ANTIDERIV_GRID))
    return _grid_nodes(lo, hi, n_grid)


def _node_odds_integrals(lo, hi, l, nu, weight=None) -> np.ndarray:
    """Signed integrals over [lo_i, hi_i] of the fourth-order
    antiderivative (:func:`_grid_integrals`) of the node odds of
    :func:`_node_odds_chunks` (times ``weight``) on the nodes of
    :func:`_odds_nodes`, a few scalars per unit."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape[0] == 0:
        return np.zeros(0)
    nodes = _odds_nodes(lo, hi, nu)
    wx = None if weight is None else np.asarray(weight(nodes), dtype=float)[:, None]
    out = np.empty(lo.shape[0])
    for sl, odds in _node_odds_chunks(nodes, l, nu, 1):
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


# ---------------------------------------------------------------------------
# Conditional CDF / quantile / transport map
# ---------------------------------------------------------------------------


def _block_width(m: int) -> int:
    """Columns per block of a row of m >= 2 weights: min(``_BLOCK``,
    m // 2); the blocks start at multiples of it, the last one possibly
    narrower."""
    return min(_BLOCK, m // 2)


def _block_sums(w: np.ndarray) -> np.ndarray:
    """Running block sums P (rows, nb) of the weights w (rows, m): P[i, c]
    sums row i's blocks 0..c, so P[:, -1] is each row's total."""
    sums = np.add.reduceat(w, np.arange(0, w.shape[1], _block_width(w.shape[1])), axis=1)
    return np.cumsum(sums, axis=1, out=sums)


def _block_scan(w: np.ndarray, sums: np.ndarray, b: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """Running sums through the entries of block b[i] of row i, from the
    block sums of :func:`_block_sums`: shape (width, rows), column i
    running down row i's block.

    The block's weights are gathered and summed in order on from the
    running sum before the block (0 in the first), then capped at its
    running block sum, which every entry from its last on reads. Along a
    row the sums so rise through each block and across blocks, and each
    block ends on its block sum. scratch, a float buffer of at least
    2 rows width elements that holds nothing the call needs, takes the
    gather indices (the first rows width elements, free again on
    return) and the sums (the next rows width)."""
    rows, m = w.shape
    width = _block_width(m)
    n = rows * width
    idx = scratch[:n].view(np.intp).reshape(width, rows)
    run = scratch[n:2 * n].reshape(width, rows)
    at = np.arange(rows)
    first = b * width
    idx[...] = at * m + first
    idx += np.arange(width)[:, None]
    # mode="clip" writes straight into run; past the end of a row it reads
    # the next row's weights, which the last block's end below overwrites.
    np.take(w.reshape(-1), idx, out=run, mode="clip")
    run[0] += np.where(b > 0, sums[at, b - 1], 0.0)
    # Entry by entry, each a pass over the rows: np.cumsum along either
    # axis of the block is slower.
    for t in range(1, width):
        np.add(run[t - 1], run[t], out=run[t])
    end = sums[at, b]
    np.minimum(run, end, out=run)
    run[-1] = end
    tail = m - (sums.shape[1] - 1) * width        # entries of the last block
    if tail < width:
        last = b == sums.shape[1] - 1
        run[tail - 1:, last] = end[last]
    return run


def _block_cdf(w: np.ndarray, k: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """F-hat at the ranks k (0 to m) from the kernel weights w (rows, m)
    in ``y_sorted`` order: the running sum through entry k_i - 1, the sum
    of the blocks before it and a scan of its own (:func:`_block_scan`),
    over the row's total; k_i / m in rows without weight, as the CDF
    there is the unweighted one. scratch is a float buffer of rows m
    elements that holds nothing the call needs."""
    width = _block_width(w.shape[1])
    sums = _block_sums(w)
    j = np.maximum(k - 1, 0)
    b = j // width
    run = _block_scan(w, sums, b, scratch)
    num = np.where(k > 0, run[j - b * width, np.arange(k.shape[0])], 0.0)
    total = sums[:, -1]
    ok = total > 1e-300
    return np.where(ok, num / np.where(ok, total, 1.0), k / w.shape[1])


def _block_quantile(w: np.ndarray, u: np.ndarray, scratch: np.ndarray):
    """The first entry of each row of the kernel weights w (rows, m), in
    ``y_sorted`` order, whose running sum over the row's total reaches the
    target u_i (1 - ``QUANTILE_SLACK``), or the last entry where none
    does; and which rows carry weight.

    The entry's block is the first whose running block sum reaches the
    target, and the entry is found by counting the entries of that block
    alone that fall short of it (:func:`_block_scan`). The sums are those
    of :func:`_block_cdf`, so the quantile at a level that the CDF gave
    reads the same shares. scratch is a float buffer of rows m elements
    that holds nothing the call needs."""
    rows, m = w.shape
    width = _block_width(m)
    sums = _block_sums(w)
    total = sums[:, -1]
    ok = total > 1e-300
    scale = np.where(ok, total, 1.0)
    target = u * (1.0 - QUANTILE_SLACK)
    shares = np.divide(sums, scale[:, None], out=scratch[:sums.size].reshape(sums.shape))
    b = np.minimum((shares < target[:, None]).sum(axis=1), sums.shape[1] - 1)
    run = _block_scan(w, sums, b, scratch)
    run /= scale
    # The comparison goes where the scan's gather indices were.
    below = np.less(run, target, out=scratch[:rows * width].view(np.bool_)[:rows * width]
                    .reshape(width, rows))
    return np.minimum(b * width + below.sum(axis=0), m - 1), ok


@dataclass
class CondCdf(_PointwiseFn):
    """Kernel-regression conditional CDF of an outcome given covariates.

    Nadaraya-Watson regression of the indicator 1{Y <= y} on the
    covariates: a right-continuous step function in y for every fixed
    covariate value, nondecreasing by construction because the smoothing
    weights do not depend on y. With p = 0 this is exactly the empirical
    CDF of the fit sample.

    With covariates, the value at rank k (the fit outcomes up to y) is the
    running sum of a row's weights through entry k - 1 over the row's
    total, read from the row's 64-column block sums: the sum of the blocks
    before the entry's block plus a scan of that block alone
    (:func:`_block_cdf`). Each block's scan ends on its block sum, so the
    sums stay nondecreasing along the row and the value at rank m is 1.
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
        k = np.searchsorted(self.y_sorted, y, side="right")
        if self.p == 0:
            return k / self.m
        out = np.empty(y.shape[0])
        for sl in _chunks(y.shape[0], self.m):
            w = self._weights(l[sl])
            out[sl] = _block_cdf(w, k[sl], np.empty(w.size))
        return out


@dataclass
class CondQuantile(_PointwiseFn):
    """Generalized inverse of a fitted :class:`CondCdf`.

    Evaluates inf{y : F-hat(y, l) >= u} exactly: the fitted CDF is a
    step function jumping only at fit-sample outcomes, so the infimum is
    located by a cumulative-weight search (the limit of bisection over
    the observed outcome range). u is clamped to the sample range at the
    boundaries: u <= 0 gives the minimum sample, u >= 1 the maximum.
    Rows where no fit-sample unit carries kernel weight take the quantile
    without covariates, as the CDF there is the unweighted CDF.

    With covariates the search reads the CDF's block sums
    (:func:`_block_quantile`): the first block whose running sum reaches
    the target share, then the first entry of that block that does; the
    target is u (1 - ``QUANTILE_SLACK``). A level that :class:`CondCdf`
    gave on the same weights so finds the entry it was read at.
    """

    cdf: CondCdf

    @property
    def p(self) -> int:
        return self.cdf.p

    def evaluate_many(self, u: np.ndarray, l: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.p == 0:
            return self._unweighted(u)
        out = np.empty(u.shape[0])
        for sl in _chunks(u.shape[0], self.cdf.m):
            w = self.cdf._weights(l[sl])
            out[sl] = self._from_weights(w, u[sl], np.empty(w.size))
        return out

    def _unweighted(self, u: np.ndarray) -> np.ndarray:
        """The quantile at u of the fit sample's empirical CDF."""
        idx = np.ceil(u * self.cdf.m - 1e-9).astype(int) - 1
        return self.cdf.y_sorted[np.clip(idx, 0, self.cdf.m - 1)]

    def _from_weights(self, w: np.ndarray, u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The quantile at u_i from row i of the kernel weights w, in the
        fitted CDF's ``y_sorted`` order (:func:`_block_quantile`, scratch
        its buffer); rows without weight take :meth:`_unweighted`."""
        pos, ok = _block_quantile(w, u, scratch)
        out = self.cdf.y_sorted[pos]
        if not ok.all():
            out[~ok] = self._unweighted(u[~ok])
        return out


@dataclass
class GammaMap(_PointwiseFn):
    """Outcome transport map: conditional quantile of period-1 controls
    composed with the conditional CDF of period-0 controls, both fitted
    on the same control units (:func:`fit_gamma`).

    Nondecreasing in y for every fixed covariate value because both
    members are; outputs lie in the observed period-1 control range.
    Without covariates the ranks compose in integer arithmetic: each
    key's rank among the period-0 outcomes comes from one binary search
    over the keys in sorted order, whose bounds carry from key to key,
    and is scattered back to the key's position. With covariates both
    members weight the same units with the same bandwidths, in another
    order: ``perm`` lists the quantile's units as positions in the CDF's
    order (None for p = 0). The training side of the product-form
    distances (:func:`_expanded_sq_distances`) is formed once per call.
    Each chunk allocates one buffer of two halves, and its kernel weights
    fill the first. The CDF half reads them through its block sums
    (:func:`_block_cdf`), with its scan scratch in the second half; the
    second half then takes the weights in the quantile's order, and the
    quantile half reads them (:func:`_block_quantile`) with its scratch in
    the first. The halves share each pair's weight bit for bit and read it
    through the same block sums, so the map is the composition of
    :class:`CondCdf` and :class:`CondQuantile` on these weights.
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
            order = np.argsort(y)
            k = np.empty(y.shape[0], dtype=np.intp)
            k[order] = np.searchsorted(self.cdf0.y_sorted, y[order], side="right")
            j = (k * m1 + m0 - 1) // m0
            return self.quantile1.cdf.y_sorted[np.clip(j - 1, 0, m1 - 1)]
        out = np.empty(y.shape[0])
        m = self.cdf0.m
        exponent = _expanded_sq_distances(self.cdf0.l_by_y, self.cdf0.h, -0.5)
        for sl in _chunks(y.shape[0], 2 * m):
            lq = l[sl]
            buf = np.empty((2, lq.shape[0], m))
            w = np.exp(exponent(lq, out=buf[0]), out=buf[0])
            k = np.searchsorted(self.cdf0.y_sorted, y[sl], side="right")
            # The CDF's scan scratch goes in buf[1] before the take fills
            # it, the quantile's in buf[0] once the take has read it.
            u = _block_cdf(w, k, buf[1].reshape(-1))
            # mode="clip" writes straight into buf[1]; "raise" would buffer it.
            w1 = np.take(w, self.perm, axis=1, out=buf[1], mode="clip")
            out[sl] = self.quantile1._from_weights(w1, u, buf[0].reshape(-1))
            # Freed before the next chunk's buffer is allocated, which then
            # reuses its memory: one chunk buffer is alive at a time.
            del buf, w, w1
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

    Without covariates ``y_sorted`` is y sorted by value. With them the
    outcomes and covariate rows take the stable order of y, so tied
    outcomes keep their units' input order in ``l_by_y``.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 2:
        raise InsufficientData("need at least 2 samples to fit a conditional CDF")
    l = _covariate_matrix(l, y.shape[0], None)
    h = _bandwidth_vector(l, bandwidth)
    if l.shape[1] == 0:
        return CondCdf(y_sorted=np.sort(y), l_by_y=l, h=h)
    order = np.argsort(y, kind="stable")
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
        C(l), and :meth:`_node_sums` gives every row's numerator and
        denominator at every node from the x-weights at the nodes and each
        row's covariate weights, for the rows of a chunk of
        :func:`_node_odds_chunks`.
        """
        nodes = np.asarray(nodes, dtype=float)
        if self.p == 0:
            sums = _binned_nw_sums(nodes, self.z[:, 0], self.a, self.h[0])
            return (self.evaluate_many(nodes, np.empty((nodes.shape[0], 0))) if sums is None
                    else self._odds(*sums))[:, None]
        return self._odds(*self._node_sums(nodes, l))

    def _node_sums(self, nodes, l):
        """The regression's numerators and denominators, each (G, k), at
        every node for each of the k covariate rows of l.

        A is 0/1, so the numerator sums the treated training rows' kernel
        weights and the denominator adds the controls' to it. Each arm's
        covariate weights C, (m_arm, k), and x-weights K at the nodes,
        (G, m_arm), are formed apart: num = K_t C_t and den = K_c C_c +
        num. The x-weights are formed in blocks of nodes that fill an
        eighth of the budget, so a block and its temporaries stay well
        below it.
        """
        treated = self.a == 1.0
        arms = [(z[:, :1], _product_weights(l, z[:, 1:], self.h[1:]).T)
                for z in (self.z[np.flatnonzero(arm)] for arm in (treated, ~treated))]
        num, den = np.empty((2, nodes.shape[0], l.shape[0]))
        for sl in _chunks(nodes.shape[0], 8 * self.z.shape[0]):
            for (x, c), sums in zip(arms, (num, den)):
                np.matmul(_product_weights(nodes[sl, None], x, self.h[:1]), c, out=sums[sl])
            den[sl] += num[sl]
        return num, den

    def _odds(self, num, denom):
        """Odds of the clipped regression num / denom."""
        return _clipped_odds(_nw_ratio(num, denom, float(self.a.mean())), self.eps_clip)


def _unit_width(nu, n_nodes: int) -> int:
    """Elements per covariate row of ``nu.node_odds`` at n_nodes nodes:
    for fitted odds 2 max(G, m), the row's two columns of (G, k) node sums
    or its covariate weights over the m training rows of both arms with
    their temporaries (256 covariate rows a chunk at G = m =
    ``ANTIDERIV_GRID``), else its G values."""
    return 2 * max(n_nodes, nu.z.shape[0]) if isinstance(nu, NuFn) else n_nodes


def _node_odds_chunks(nodes, l, nu, shared_width: int):
    """Chunks (sl, odds) of the rows of l, odds (G, k) the node odds of the
    chunk's k rows: without covariates one column (G, 1), formed once by
    ``nu.node_odds`` and shared, the caller forming shared_width elements
    per row; with them ``nu.node_odds`` of each chunk (:func:`_unit_width`)."""
    shared = None if l.shape[1] else nu.node_odds(nodes, l)
    width = shared_width if shared is not None else _unit_width(nu, nodes.shape[0])
    for sl in _chunks(l.shape[0], width):
        yield sl, nu.node_odds(nodes, l[sl]) if shared is None else shared


def _node_odds_table(nodes, l, nu) -> np.ndarray:
    """The node odds of :func:`_node_odds_chunks` for the k >= 1 rows of l
    in one table: (G, k) with covariates, the one shared column (G, 1)
    without them."""
    chunks = _node_odds_chunks(nodes, l, nu, 1)
    if not l.shape[1]:
        return next(chunks)[1]
    table = np.empty((nodes.shape[0], l.shape[0]))
    for sl, odds in chunks:
        table[:, sl] = odds
    return table


def _interval_signs(t, lo, hi) -> np.ndarray:
    """s_i(t_g), shape (G, k) for G points t and k intervals: 1 for t in
    (lo_i, hi_i], -1 for t in (hi_i, lo_i] and 0 elsewhere."""
    t = t[:, None]
    s = (lo < t).astype(float)
    s -= hi < t
    return s


def signed_odds(nodes, lo, hi, l, nu):
    """Chunks (idx, S) of the units i whose interval meets [min(nodes),
    max(nodes)], S[g, j] = s_i(t_g) nu(t_g, l_i) for i = idx[j], with the
    signs s_i of :func:`_interval_signs`.

    The estimator reads it once per fold for a step link's control
    correction, its jump sizes against S at the jumps, the QTT's at its
    root included. The odds are the node odds of
    :func:`_node_odds_chunks`, with a unit's G signs per row.
    """
    nodes = np.asarray(nodes, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    units = np.flatnonzero((np.minimum(lo, hi) < nodes.max(initial=-np.inf))
                           & (np.maximum(lo, hi) >= nodes.min(initial=np.inf)))
    if units.size == 0:
        return
    for sl, odds in _node_odds_chunks(nodes, l[units], nu, nodes.shape[0]):
        idx = units[sl]
        s = _interval_signs(nodes, lo[idx], hi[idx])
        yield idx, np.multiply(s, odds, out=s)


def _scaled_odds(query, train, a, h, eps_clip) -> np.ndarray:
    """Clipped Nadaraya-Watson odds of a on train at the query rows, at
    the bandwidths s h for every s in ``ODDS_SCALES``, one row per s.

    One pass over the query rows: each chunk's summed squared scaled
    distances D are formed once, in product form
    (:func:`_expanded_sq_distances`, its training side once per call), as
    :func:`_odds_scale` reads the odds only through the argmin of their
    losses. A scale whose double is not in ``ODDS_SCALES`` takes one
    exp(-D / (2 s^2)); a scale whose double is takes the double's weights
    squared twice, as exp(-D / (2 s^2)) = exp(-D / (8 s^2))^4, so each
    chain s, s / 2, s / 4, ... of scales shares one exp. Each scale's
    numerator and denominator come from one product w [a, 1]. A chunk's D
    and weights share one buffer, each half at most ``_CHUNK_BUDGET`` / d
    elements.
    """
    fallback = float(a.mean())
    chains = [list(takewhile(ODDS_SCALES.__contains__,
                             (s / 2 ** i for i in range(len(ODDS_SCALES)))))
              for s in ODDS_SCALES if 2.0 * s not in ODDS_SCALES]
    out = np.empty((len(ODDS_SCALES), query.shape[0]))
    distances = _expanded_sq_distances(train, h)
    a_one = np.column_stack([a, np.ones_like(a)])
    for sl in _chunks(query.shape[0], train.size):
        q = query[sl]
        dist, w = np.empty((2, q.shape[0], train.shape[0]))
        distances(q, out=dist)
        for chain in chains:
            np.exp(np.multiply(dist, -0.5 / (chain[0] * chain[0]), out=w), out=w)
            for i, s in enumerate(chain):
                if i:
                    w *= w
                    w *= w
                sums = w @ a_one
                out[ODDS_SCALES.index(s), sl] = _clipped_odds(
                    _nw_ratio(sums[:, 0], sums[:, 1], fallback), eps_clip)
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
    ``a`` the treatment indicator, 0 or 1 (bools too): any other value
    raises :class:`NonBinaryTreatment`, a ``ValueError``, as the odds
    sums take the treated rows for the numerator.
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
    if not np.isin(a, (0.0, 1.0)).all():
        raise NonBinaryTreatment("treatment indicator must contain only 0 and 1")
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
class DensityFn(_PointwiseFn):
    """Kernel density of the outcome (p = 0), floored for use in denominators."""

    x: np.ndarray
    h: float
    f_min: float = DEFAULT_F_MIN
    p = 0

    def evaluate_many(self, t: np.ndarray, l: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape[0])
        # _product_weights leaves the Gaussian unnormalised.
        inv = 1.0 / (self.x.shape[0] * self.h * np.sqrt(2.0 * np.pi))
        train, h = self.x[:, None], np.array([self.h])
        for sl in _chunks(t.shape[0], self.x.shape[0]):
            out[sl] = _product_weights(t[sl, None], train, h).sum(axis=1) * inv
        return np.maximum(out, self.f_min)


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
    probability. The density of the transported outcome is required only
    for quantile-type links, that of y1 only for the QTT's treated
    quantile; each may be None otherwise. Analytic stand-ins with the same
    call signatures, odds with a ``node_odds``, are accepted everywhere
    fitted objects are.
    """

    gamma: object
    nu: object
    pi: float
    dens_y1_treated: Optional[object] = None
    dens_gamma_treated: Optional[object] = None
