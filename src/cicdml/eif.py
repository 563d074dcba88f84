"""Links: the functions of the transported outcome that define targets.

Every target is a moment of a link function ``g(x, t)`` of the
transported baseline outcome x = gamma(y0, l) among the treated. Its
orthogonal score, built from the nuisance triple (gamma, nu, pi), is
the link value for treated units and minus the control correction C
for controls, over minus pi times the derivative of the moment in t.
C integrates the treatment odds against the link's variation in x over
the half-open interval (y1, gamma(y0, l)]: the odds-weighted
x-derivative for smooth links, the jump sizes times the odds at each
jump inside the interval for step links. The counterfactual mean,
distribution and quantile are links; the ATT is the 1/pi-weighted
treated mean minus the counterfactual-mean link and the QTT the treated
quantile minus the counterfactual-quantile link.

This module holds the links only. Scores and control corrections are
formed by ``estimator._CrossFit``, from the odds integrals of
:func:`cicdml.nuisance.integrate_nu_many` and the signed odds of
:func:`cicdml.nuisance.signed_odds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class GTildeSpec:
    """Link function of the transported outcome defining a moment target.

    A link is smooth when it has ``dx``, its partial derivative in x (a
    callable of (x, t), or a number when it is constant), and a step
    function when it has ``jumps``, whose jump locations and sizes
    ``jumps(t)`` may depend on the target value; it has exactly one of
    the two. Bounded variation on the outcome range is assumed.

    ``dtheta`` is d/dt of the conditional moment among the treated: a
    nonzero constant for links affine in t (mean- and CDF-type), solved
    in closed form, or ``"gamma-density"`` for quantile-type links
    1{x < t} - c, whose one jump, of size -1, sits at t. They are
    root-solved at the first crossing of zero of their moment (a fitted
    moment need not be monotone) by repeated scans of an array of t. The
    scans rely on that form: a weighted sum of the value over the treated
    is the weight of those whose x lies below t plus value(+inf, t) times
    the total weight, read from running weights; the controls' part is
    read from running sums of one table of node odds per fold. The control
    correction at the root takes the signed odds there. The derivative is
    a kernel density of the transported outcome.
    """

    value: Callable[[float, float], float]
    dx: object = None
    jumps: Optional[Callable[[float], tuple]] = None
    dtheta: object = -1.0

    def __post_init__(self):
        if (self.dx is None) == (self.jumps is None):
            raise ValueError("a link needs exactly one of its x-derivative dx (smooth) "
                             "and its jumps (step)")
        if self.dtheta != "gamma-density" and float(self.dtheta) == 0.0:
            raise ValueError("dtheta must be a nonzero constant or 'gamma-density'")


def gtilde_counterfactual_mean() -> GTildeSpec:
    """g(x, t) = x - t: the counterfactual mean on the treated."""
    return GTildeSpec(value=lambda x, t: np.asarray(x, dtype=float) - t, dx=1.0)


def gtilde_cdf_indicator(y: float) -> GTildeSpec:
    """g(x, t) = 1{x < y} - t: the counterfactual distribution at y."""
    return GTildeSpec(
        value=lambda x, t: (np.asarray(x) < y).astype(float) - t,
        jumps=lambda t: (np.array([y]), np.array([-1.0])),
    )


def gtilde_quantile(tau: float) -> GTildeSpec:
    """g(x, t) = 1{x < t} - tau: the counterfactual quantile at level tau."""
    return GTildeSpec(
        value=lambda x, t: (np.asarray(x) < t).astype(float) - tau,
        jumps=lambda t: (np.array([t]), np.array([-1.0])),
        dtheta="gamma-density",
    )
