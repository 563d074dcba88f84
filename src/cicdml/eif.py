"""Links and the control correction of the orthogonal scores.

Every target is a moment of a link function ``g(x, t)`` of the
transported baseline outcome x = gamma(y0, l) among the treated. Its
orthogonal score, built from the nuisance triple (gamma, nu, pi), is
the link value for treated units and minus the control correction C
for controls, over minus pi times the derivative of the moment in t.
C integrates the treatment odds against the link's variation in x over
the half-open interval (y1, gamma(y0, l)]: the odds-weighted
x-derivative for smooth links, the odds-weighted jump sum for step
links. The counterfactual mean, distribution and quantile are links;
the ATT is the treated outcome minus the counterfactual-mean link and
the QTT the treated quantile minus the counterfactual-quantile link.

This module holds the links and :func:`control_correction`; scores
are formed only by ``estimator._CrossFit``. Odds integrals go through
:func:`integrate_nu_many`: a closed form when the odds object has one,
a grid antiderivative without covariates, fixed-node composite Simpson
with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .nuisance import integrate_nu_many


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
