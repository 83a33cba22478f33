import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from srdf_kit import CovarianceModel


def random_model(rng, m, jitter=0.5):
    """Random SPD covariance of size m."""
    a = rng.standard_normal((m, m))
    return CovarianceModel(a @ a.T + jitter * np.eye(m))


def knot_simpson(kernel, points, knots, panels=2000):
    """(M, integrated variance) of a field kernel sampled at ``points``, by Simpson's rule.

    M is the integral over [0, 1] of c(u) c(u)^T, with c(u) the kernel between
    u and the points.  Each interval between consecutive knots of
    {0, 1} and ``knots`` gets ``panels`` panels, so the rule is fine wherever
    the knots hold every crease of the integrands.
    """
    pts = np.asarray(points, dtype=float)
    knots = np.unique(np.concatenate(([0.0, 1.0], np.asarray(knots, dtype=float))))
    mass, variance = np.zeros((len(pts), len(pts))), 0.0
    for lo, hi in zip(knots, knots[1:]):
        u = np.linspace(lo, hi, 2 * panels + 1)
        w = np.full(u.size, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= (hi - lo) / (6 * panels)
        c = kernel.corr(u[:, None], pts[None, :])
        mass += (c * w[:, None]).T @ c
        variance += float(w @ kernel.corr(u, u))
    return mass, variance
