"""Low-level numerical helpers: bracketed Newton inversion and interval trig.

Everything here is vectorized over numpy arrays and used by the map,
coding, and thermodynamic modules.  ``solve_increasing`` is not the
inverse lift's main path: ``SolenoidSpec.eta_inverse_lift`` starts from a
per-spec table, takes one Newton step and checks a residual bound, and
calls it only to build that table and for the elements that miss the
check.  ``trig_range`` encloses sin or cos over intervals as (min, max),
from the function's values at the ends, so callers can build rigorous
sup/inf bounds and take each endpoint's sin and cos once.
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


SIN_PEAKS = (-0.5 * np.pi, 0.5 * np.pi)  # phases of sin's -1 and +1
COS_PEAKS = (np.pi, 0.0)


def trig_range(lo, hi, f_lo, f_hi, peaks, out):
    """Range of sin or cos over [lo, hi] from its values f_lo, f_hi there.

    peaks holds the phases of the function's -1 and +1 (SIN_PEAKS or
    COS_PEAKS).  Writes (min, max) into out, shape (2,) + the broadcast
    shape, and returns it.
    """
    np.minimum(f_lo, f_hi, out=out[0])
    np.maximum(f_lo, f_hi, out=out[1])
    np.copyto(out[0], -1.0, where=_crosses(lo, hi, peaks[0]))
    np.copyto(out[1], 1.0, where=_crosses(lo, hi, peaks[1]))
    return out
