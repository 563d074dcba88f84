"""Efficient influence functions for the ATT and distributional targets.

Every target is a moment of a link function ``g(x, t)`` of the
transported baseline outcome x = gamma(y0, l) among the treated. Its
orthogonal score, built from the nuisance triple (gamma, nu, pi), is

    psi = (a * g(gamma(y0, l), t) - (1 - a) * C) / denom,

where ``denom`` is minus pi times the derivative of the moment in t and
C, the control correction, integrates the treatment odds against the
link's variation in x over the half-open interval (y1, gamma(y0, l)]:
the odds-weighted x-derivative for smooth links, the odds-weighted jump
sum for step links. The counterfactual mean, distribution and quantile
are links; the ATT is the treated outcome minus the counterfactual-mean
link and the QTT the treated quantile minus the counterfactual-quantile
link. Odds integrals go through :func:`integrate_nu_many`: a closed form
when the odds object has one, a grid antiderivative without covariates,
fixed-node composite Simpson with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import MissingDensity, ZeroDenominator
from .nuisance import NuisanceSet, integrate_nu_many


@dataclass(frozen=True)
class Observation:
    """A single observed data point (y0, y1, a, l)."""

    y0: float
    y1: float
    a: int
    l: np.ndarray = None

    def __post_init__(self):
        l = np.empty(0) if self.l is None else np.asarray(self.l, dtype=float)
        object.__setattr__(self, "l", l)

    @classmethod
    def from_dataset(cls, dataset, i: int) -> "Observation":
        return cls(y0=float(dataset.y0[i]), y1=float(dataset.y1[i]),
                   a=int(dataset.a[i]), l=dataset.l[i])

    def as_arrays(self):
        """(y0, y1, a, l) as one-row arrays; l is None without covariates."""
        return (np.array([self.y0]), np.array([self.y1]), np.array([self.a]),
                _l_rows(self.l))


def _l_rows(l):
    """Covariates as an (n, p) matrix, or None when there are none."""
    if l is None or np.asarray(l).size == 0:
        return None
    l = np.asarray(l, dtype=float)
    return l.reshape(1, -1) if l.ndim == 1 else l


def integrate_nu(lo: float, hi: float, l, nu) -> float:
    """Signed integral of the odds function over [lo, hi] at covariates l.

    Orientation: swapping the limits flips the sign, so
    ``integrate_nu(hi, lo, ...) == -integrate_nu(lo, hi, ...)``.
    """
    return float(integrate_nu_many([float(lo)], [float(hi)], _l_rows(l), nu)[0])


def chi(x: float, w: Observation, gamma) -> int:
    """Compound sign: sign(y1 - gamma(y0, l)) if x lies in the closed
    interval between y1 and gamma(y0, l), else 0."""
    g = float(gamma(w.y0, w.l))
    if not min(w.y1, g) <= x <= max(w.y1, g):
        return 0
    if w.y1 > g:
        return 1
    if w.y1 < g:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Links
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GTildeSpec:
    """Link function of the transported outcome defining a moment target.

    Either smooth, with ``dx`` its partial derivative in x (a callable of
    (x, t), or a number when it is constant), or a step function whose
    jump locations and sizes ``jumps(t)`` may depend on the target value.
    Bounded variation on the outcome range is assumed.

    ``dtheta`` is d/dt of the conditional moment among the treated: a
    nonzero constant for links affine in t (mean- and CDF-type), solved
    in closed form, or ``"gamma-density"`` for quantile-type links, whose
    moment is nondecreasing in t; they are root-solved and the derivative
    is a kernel density of the transported outcome.
    """

    value: Callable[[float, float], float]
    kind: str
    dx: object = None
    jumps: Optional[Callable[[float], tuple]] = None
    dtheta: object = -1.0

    def __post_init__(self):
        if self.kind not in ("smooth", "step"):
            raise ValueError("kind must be 'smooth' or 'step'")
        if self.kind == "smooth" and self.dx is None:
            raise ValueError("smooth link needs its x-derivative")
        if self.kind == "step" and self.jumps is None:
            raise ValueError("step link needs jump locations and sizes")
        if self.dtheta != "gamma-density" and float(self.dtheta) == 0.0:
            raise ValueError("dtheta must be a nonzero constant or 'gamma-density'")


def gtilde_counterfactual_mean() -> GTildeSpec:
    """g(x, t) = x - t: the counterfactual mean on the treated."""
    return GTildeSpec(value=lambda x, t: np.asarray(x, dtype=float) - t, kind="smooth", dx=1.0)


def gtilde_cdf_indicator(y: float) -> GTildeSpec:
    """g(x, t) = 1{x < y} - t: the counterfactual distribution at y."""
    return GTildeSpec(
        value=lambda x, t: (np.asarray(x) < y).astype(float) - t,
        kind="step",
        jumps=lambda t: (np.array([y]), np.array([-1.0])),
    )


def gtilde_quantile(tau: float) -> GTildeSpec:
    """g(x, t) = 1{x < t} - tau: the counterfactual quantile at level tau."""
    return GTildeSpec(
        value=lambda x, t: (np.asarray(x) < t).astype(float) - tau,
        kind="step",
        jumps=lambda t: (np.array([t]), np.array([-1.0])),
        dtheta="gamma-density",
    )


def control_correction(y1, g, l, nu, link: GTildeSpec, t: float,
                       integrate=integrate_nu_many) -> np.ndarray:
    """Control correction of a link at target value t, per unit.

    The oriented Lebesgue-Stieltjes integral of the odds against the
    link's variation in x over the half-open interval (y1_i, g_i]; when
    g_i < y1_i the interval is (g_i, y1_i] and the sign flips. Smooth
    links integrate nu times ``dx`` with ``integrate`` (a constant ``dx``
    scales the plain odds integral); step links sum the odds times the
    jump size over the jumps inside the interval. Without covariates
    (``l`` None) the odds at a jump are one number, evaluated once.
    """
    y1 = np.asarray(y1, dtype=float)
    g = np.asarray(g, dtype=float)
    if link.kind == "smooth":
        if not callable(link.dx):
            return link.dx * integrate(y1, g, l, nu)
        return integrate(y1, g, l, lambda x, lx=None: (np.asarray(nu(x, lx))
                                                       * np.asarray(link.dx(x, t))))
    out = np.zeros(y1.shape[0])
    pts, sizes = link.jumps(t)
    for pt, size in zip(np.asarray(pts, dtype=float), np.asarray(sizes, dtype=float)):
        fwd = (pt > y1) & (pt <= g)
        active = fwd | ((pt > g) & (pt <= y1))
        if active.any():
            odds = nu(pt, None) if l is None else nu(np.full(int(active.sum()), pt), l[active])
            out[active] += np.where(fwd[active], size, -size) * odds
    return out


# ---------------------------------------------------------------------------
# Vectorized scores
# ---------------------------------------------------------------------------


def psi_general_many(y0, y1, a, l, spec: GTildeSpec, vartheta: float, eta: NuisanceSet,
                     denom: float) -> np.ndarray:
    """Score of a general moment-type target over arrays of observations.

    ``denom`` is minus pi times the derivative of the conditional moment
    in the target value (a known constant for mean- and CDF-type links;
    a density for quantile-type links), supplied by the caller.
    """
    if denom == 0.0:
        raise ZeroDenominator("moment-derivative denominator is zero")
    y1 = np.asarray(y1, dtype=float)
    a = np.asarray(a)
    l = _l_rows(l)
    g = np.asarray(eta.gamma(np.asarray(y0, dtype=float), l), dtype=float)
    num = a * np.asarray(spec.value(g, vartheta), dtype=float)
    ctrl = a == 0
    if ctrl.any():
        num[ctrl] -= control_correction(y1[ctrl], g[ctrl], None if l is None else l[ctrl],
                                        eta.nu, spec, vartheta)
    return num / denom


def psi_att_many(y0, y1, a, l, theta: float, eta: NuisanceSet) -> np.ndarray:
    """ATT score over arrays: the treated outcome's score minus the
    counterfactual-mean link's score at zero."""
    a = np.asarray(a)
    treated = a * (np.asarray(y1, dtype=float) - theta) / eta.pi
    return treated - psi_general_many(y0, y1, a, l, gtilde_counterfactual_mean(), 0.0, eta,
                                      eta.pi)


def psi_qtt_many(y0, y1, a, l, tau: float, vartheta1: float, vartheta2: float,
                 eta: NuisanceSet) -> np.ndarray:
    """QTT score over arrays: the treated quantile's score minus the
    counterfactual-quantile link's; needs both fitted densities."""
    if eta.dens_y1_treated is None or eta.dens_gamma_treated is None:
        raise MissingDensity("QTT score needs dens_y1_treated and dens_gamma_treated")
    f1 = float(eta.dens_y1_treated(vartheta1))
    f2 = float(eta.dens_gamma_treated(vartheta2))
    a = np.asarray(a)
    first = a / eta.pi * ((np.asarray(y1) <= vartheta1) - tau) / (-f1)
    return first - psi_general_many(y0, y1, a, l, gtilde_quantile(tau), vartheta2, eta,
                                    -eta.pi * f2)


# ---------------------------------------------------------------------------
# One-observation scores
# ---------------------------------------------------------------------------


def psi_general(w: Observation, spec: GTildeSpec, vartheta: float, eta: NuisanceSet,
                denom: float) -> float:
    """Score for a general moment-type target at one observation."""
    return float(psi_general_many(*w.as_arrays(), spec, vartheta, eta, denom)[0])


def psi_att(w: Observation, theta: float, eta: NuisanceSet) -> float:
    """ATT score at one observation.

    Treated arm: ``(a / pi) * ((y1 - gamma(y0, l)) - theta)``.
    Control arm: ``((1 - a) / pi)`` times the odds integral from y1 to
    the transported baseline outcome.
    """
    return float(psi_att_many(*w.as_arrays(), theta, eta)[0])


def psi_counterfactual_mean(w: Observation, vartheta: float, eta: NuisanceSet) -> float:
    """Score of the counterfactual mean on the treated."""
    return psi_general(w, gtilde_counterfactual_mean(), vartheta, eta, eta.pi)


def psi_cdt(w: Observation, y: float, vartheta: float, eta: NuisanceSet) -> float:
    """Counterfactual-distribution score at evaluation point y."""
    return psi_general(w, gtilde_cdf_indicator(y), vartheta, eta, eta.pi)


def psi_qtt(w: Observation, tau: float, vartheta1: float, vartheta2: float,
            eta: NuisanceSet) -> float:
    """Quantile-treatment-effect score; needs both fitted densities."""
    return float(psi_qtt_many(*w.as_arrays(), tau, vartheta1, vartheta2, eta)[0])
