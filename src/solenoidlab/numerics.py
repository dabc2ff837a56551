"""Low-level numerical helpers: bracketed Newton inversion and interval trig.

Everything here is vectorized over numpy arrays and used by the map,
coding, and thermodynamic modules.  ``solve_increasing`` is not the
inverse lift's main path: ``SolenoidSpec.eta_inverse_lift`` starts from a
per-spec table, takes one Newton step and checks a residual bound, and
calls it only to build that table and for the elements that miss the
check.  The interval routines return outward enclosures (min, max) so
callers can build rigorous sup/inf bounds.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def solve_increasing(f, fprime, targets, lo, hi, tol=1e-13, max_iter=80):
    """Solve f(x) = target on a strictly increasing branch, vectorized.

    Newton iteration clamped to the bracket [lo, hi]; falls back to the
    bracket midpoint whenever a Newton step leaves the bracket.  Returns
    the root array, shaped like `targets`.  An element that has not
    converged after `max_iter` steps is returned as its last iterate;
    nothing is raised.  f and fprime are called on 1-d arrays.
    """
    targets = np.asarray(targets, dtype=float)
    t = targets.ravel()
    lo = np.broadcast_to(np.asarray(lo, dtype=float), targets.shape).ravel()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), targets.shape).ravel()
    root = 0.5 * (lo + hi)
    # Only the unconverged elements, `root[active]`, are iterated, so results
    # are identical under any batch chunking.
    active, x = np.arange(t.size), root
    for _ in range(max_iter):
        fx = f(x) - t
        lo = np.where(fx < 0.0, x, lo)
        hi = np.where(fx > 0.0, x, hi)
        dfx = fprime(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fx / dfx
        x_new = x - step
        bad = ~np.isfinite(x_new) | (x_new < lo) | (x_new > hi)
        x_new = np.where(bad, 0.5 * (lo + hi), x_new)
        going = ~(np.abs(x_new - x) <= tol * np.maximum(1.0, np.abs(x_new)))
        root[active] = x_new
        if not going.any():
            break
        active, x, t = active[going], x_new[going], t[going]
        lo, hi = lo[going], hi[going]
    return root.reshape(targets.shape)


def _crosses(lo, hi, theta):
    """True where the interval [lo, hi] contains theta modulo 2*pi."""
    k = np.ceil((lo - theta) / TWO_PI)
    return theta + TWO_PI * k <= hi


def interval_sin(lo, hi):
    """Range of sin over [lo, hi], returned as (min, max) arrays."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    slo, shi = np.sin(lo), np.sin(hi)
    smin = np.where(_crosses(lo, hi, -0.5 * np.pi), -1.0, np.minimum(slo, shi))
    smax = np.where(_crosses(lo, hi, 0.5 * np.pi), 1.0, np.maximum(slo, shi))
    return smin, smax


def interval_cos(lo, hi):
    """Range of cos over [lo, hi], returned as (min, max) arrays."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    clo, chi = np.cos(lo), np.cos(hi)
    cmin = np.where(_crosses(lo, hi, np.pi), -1.0, np.minimum(clo, chi))
    cmax = np.where(_crosses(lo, hi, 0.0), 1.0, np.maximum(clo, chi))
    return cmin, cmax


def interval_mul(alo, ahi, blo, bhi):
    """Product of two intervals, (min, max) of the four corner products."""
    p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    pmin = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    pmax = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return pmin, pmax


def interval_square(lo, hi):
    """Range of x**2 over [lo, hi]."""
    smax = np.maximum(lo * lo, hi * hi)
    smin = np.where((lo <= 0.0) & (hi >= 0.0), 0.0, np.minimum(lo * lo, hi * hi))
    return smin, smax
