"""Links and the control correction of the orthogonal scores.

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

This module holds the links and :func:`control_correction`; scores
are formed only by ``estimator._CrossFit``, odds integrals by
:func:`cicdml.nuisance.integrate_nu_many`, and the odds at step links'
jumps by :func:`cicdml.nuisance.signed_odds`, which the QTT moment
shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .nuisance import integrate_nu_many, signed_odds


# ---------------------------------------------------------------------------
# Links
# ---------------------------------------------------------------------------


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
    moment need not be monotone) by repeated scans, with the value taken
    on an array of t and the controls' part from the signed odds at every
    scan node; the derivative is a kernel density of the transported
    outcome.
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


def control_correction(y1, g, l, nu, link: GTildeSpec, t: float,
                       integrate=integrate_nu_many) -> np.ndarray:
    """Control correction of a link at target value t, per unit.

    The oriented Lebesgue-Stieltjes integral of the odds against the
    link's variation in x over the half-open interval (y1_i, g_i]; when
    g_i < y1_i the interval is (g_i, y1_i] and the sign flips. Smooth
    links integrate nu times ``dx`` with ``integrate``: a constant ``dx``
    scales the plain odds integral, a callable one multiplies the node
    odds at the nodes (its ``weight``). Step links sum the jump sizes
    against the signed odds at the jumps (:func:`signed_odds`), for the
    units whose interval holds a jump. ``l`` holds the units' covariates
    as an (n, p) matrix.
    """
    y1 = np.asarray(y1, dtype=float)
    g = np.asarray(g, dtype=float)
    if link.dx is not None:
        if not callable(link.dx):
            return link.dx * integrate(y1, g, l, nu)
        return integrate(y1, g, l, nu, lambda x: link.dx(x, t))
    out = np.zeros(y1.shape[0])
    pts, sizes = link.jumps(t)
    for idx, signed in signed_odds(pts, y1, g, l, nu):
        out[idx] = np.asarray(sizes, dtype=float) @ signed
    return out
