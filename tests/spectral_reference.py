"""Quadrature reference for the spectral function of the Kac kernel.

Integrates Q(s) = E|sin theta|^s + E|cos theta|^s - 1 over the uniform
angle density directly, an independent check of the Gamma-function closed
form in KacKernel.pair_moment.  It uses nothing from kactails.
"""

import math

import numpy as np
from scipy import integrate


def kac_Q_quadrature(s, nodes=2048):
    """(Q(s), error bound): adaptive quadrature of the angle density, with
    the bound the larger of quad's estimate and the gap to a midpoint rule
    on `nodes` points."""
    theta = (np.arange(nodes) + 0.5) * (2.0 * math.pi / nodes)
    vals = np.abs(np.sin(theta)) ** s + np.abs(np.cos(theta)) ** s
    coarse = float(vals.mean()) - 1.0
    fine, err = integrate.quad(
        lambda th: (abs(math.sin(th)) ** s + abs(math.cos(th)) ** s) / (2.0 * math.pi),
        0.0, 2.0 * math.pi, limit=200,
    )
    return fine - 1.0, max(err, abs(fine - 1.0 - coarse))
