"""Symbolic dynamics: words as digit rows, cylinders, attractor points.

A word is a digit row over {0, ..., d-1}.  Backward words list the
branches of the backward base orbit in chronological order: the last
symbol is the most recent preimage branch (the "leading" symbol i0 that
labels generation-one tubes), the first symbol is the deepest past.  With
this convention the lexicographic index of a word has its most recent
symbol as the lowest base-d digit, which is exactly the layout produced by
the level-by-level inverse-branch descent; ``_digit_rows`` turns indices
into rows and ``_word_label`` rows into the text of every artifact.
Forward words, the labels of the cylinder table, list the branch
intervals visited by the forward orbit of a base point, starting with the
interval containing the point itself.

Every backward chain comes from one descent, ``descend_levels``.  Without
digits each level fans out over all d branches (cloud representatives, the
Birkhoff table, forward cylinder endpoints); given digit rows each row
follows its own word (leaves, margin chains).  Leaf slopes dy/dx (the jets
behind crossing refinement and angles) ride along the same descent and
forward pass, in ``_leaf_jets``.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError, WordTooShortError
from .maps import SolenoidSpec, branch_points
from .numerics import TWO_PI

ENUMERATION_CAP = 2 ** 24

# Least numpy inner-loop length of a forward-pass level's broadcast updates.
INNER_RUN = 64


# ---------------------------------------------------------------------------
# Bulk backward-chain machinery
# ---------------------------------------------------------------------------

def descend_levels(spec: SolenoidSpec, lifts: np.ndarray, n: int,
                   digits: np.ndarray | None = None) -> list:
    """The n levels x <- eta^-1(x + 2*pi*b) of the backward descent from lifts.

    Without digits every level fans out over all d branches: level j has
    shape lifts.shape + (d**j,), column sum_k i_(-k) * d**(k-1) following
    the j most recent symbols, i.e. the lexicographic word index mod d**j.
    Given digit rows (m, n), deepest symbol first, row i takes branch
    digits[i, n - j] at level j; lifts of shape (k,) or (m, k) give levels
    of shape (m, k).
    """
    lifts = np.asarray(lifts, dtype=float)
    x = lifts[..., None] if digits is None else lifts
    levels = []
    for j in range(1, n + 1):
        if digits is None:
            x = np.concatenate([x + TWO_PI * b for b in range(spec.d)],
                               axis=-1)
        else:
            x = x + TWO_PI * digits[:, n - j, None]
        x = spec.eta_inverse_lift(x)
        levels.append(x)
    return levels


def _coefficient(c0, c1, trig):
    """c0 + c1 * trig, the linear factor of lam or nu at the chain points.

    With c1 = 0 and c0 != 0 it is the float c0: c0 + (+-0.0) is c0.
    """
    if c1 == 0.0 and c0 != 0.0:
        return c0
    out = c1 * trig
    out += c0
    return out


def _fiber_forward(spec, chain, shape, dx=None):
    """Anchor discs' centers (x_(-n), 0, 0) iterated forward along chains.

    chain[j-1] holds the depth-j base points and broadcasts to `shape`,
    the shape of the returned (y, z) arrays.  Each level takes one sin and
    one cos of its chain points, never of broadcast copies, scales them in
    place into the v and u terms, and updates y and z in place in the
    operation order of ``maps`` (lam + u, nu + v), so the result is bit for
    bit that of the map expressions, signed zeros included.  A factor
    lam0 + lam1 sin x (nu0 + nu1 cos x) with lam1 = 0 (nu1 = 0) is a
    float.  A zero lam2 (nu2) makes lam2 y**2 (nu2 y z) a signed zero,
    which can only turn -0.0 into +0.0; when lam0 > |lam1| (nu0 > |nu1|)
    the factor is positive, y (z) never holds -0.0, and the term is
    skipped.  Otherwise it is formed in one scratch buffer.  A level that
    broadcasts over deeper axes has its sin and cos widened (``_widen``),
    so each update runs numpy inner loops at least INNER_RUN long.

    Given dx[j-1] = d x_(-j) / dx, the slope dy/dx rides along by the
    chain rule through lam and u, from the same sin and cos, and (y, dy)
    is returned instead: z, which no slope user reads, is not computed;
    y does not change.
    """
    lam2, nu2 = spec.lam2, spec.nu2
    sq_term = lam2 != 0.0 or not spec.lam0 > abs(spec.lam1)
    yz_term = dx is None and (nu2 != 0.0 or not spec.nu0 > abs(spec.nu1))
    y = np.zeros(shape)
    z = np.zeros(shape) if dx is None else None
    dy = None if dx is None else np.zeros(shape)
    scratch = np.empty(shape)  # its pages are touched only when used
    for j in reversed(range(len(chain))):
        sin = _widen(np.sin(chain[j]), shape)
        cos = _widen(np.cos(chain[j]), shape)
        if dx is None:
            if yz_term:
                np.multiply(y, nu2, out=scratch)
                scratch *= z
            z *= _coefficient(spec.nu0, spec.nu1, cos)
            if yz_term:
                z += scratch
            lam = _coefficient(spec.lam0, spec.lam1, sin)
            sin *= spec.v_amp
            z += sin
        else:
            # dy <- ((lam1 cos x) y - u_amp sin x) dx + (lam + 2 lam2 y) dy
            lam = _coefficient(spec.lam0, spec.lam1, sin)
            if sq_term:
                np.multiply(y, 2.0 * lam2, out=scratch)
                scratch += lam
                dy *= scratch
            else:
                dy *= lam
            np.multiply(y, spec.lam1 * cos, out=scratch)
            sin *= spec.u_amp
            scratch -= sin
            scratch *= dx[j]
            dy += scratch
        if sq_term:
            np.multiply(y, lam2, out=scratch)
            scratch *= y
        y *= lam
        if sq_term:
            y += scratch
        cos *= spec.u_amp
        y += cos
        del sin, cos, lam  # freed before the next level's trig
    return (y, z) if dx is None else (y, dy)


def _widen(a, shape):
    """a, copied out over the size-1 axes just before its trailing full
    axes until those hold INNER_RUN elements (or no size-1 axis is left).

    a has the ndim of shape and broadcasts to it; the copy holds the
    same values.  An in-place update of a shape-sized array by it runs
    numpy inner loops over the trailing full axes only, which at a
    shallow level hold d**j elements.
    """
    k, run = a.ndim, 1
    while k > 0 and a.shape[k - 1] == shape[k - 1]:
        k -= 1
        run *= shape[k]
    i = k
    while i > 0 and run < INNER_RUN and a.shape[i - 1] == 1:
        i -= 1
        run *= shape[i]
    if i == k:
        return a
    return np.ascontiguousarray(np.broadcast_to(a, a.shape[:i] + shape[i:]))


def word_representatives(spec: SolenoidSpec, lifts, n: int):
    """Representatives of all d**n backward words over each base lift.

    The word axis is viewed as n axes of size d, the most recent symbol
    last, so level j of the descent, placed on the last j axes, broadcasts
    over the d**(n-j) deeper pasts that share it.
    """
    lifts = np.atleast_1d(np.asarray(lifts, dtype=float))
    d = spec.d
    chain = [x.reshape(lifts.shape + (1,) * (n - j) + (d,) * j)
             for j, x in enumerate(descend_levels(spec, lifts, n), 1)]
    y, z = _fiber_forward(spec, chain, lifts.shape + (d,) * n)
    shape = lifts.shape + (d ** n,)
    return y.reshape(shape), z.reshape(shape)


def _leaf_chain(spec, digits, lifts):
    digits = np.atleast_2d(np.asarray(digits, dtype=int))
    lifts = np.asarray(lifts, dtype=float)
    chain = descend_levels(spec, lifts, digits.shape[1], digits)
    return chain, (len(digits), lifts.shape[-1])


def leaf_states(spec: SolenoidSpec, digits: np.ndarray, lifts: np.ndarray):
    """Evaluate several leaves (rows of `digits`) over an array of base lifts.

    digits has shape (m, n) with the deepest symbol first; lifts is a real
    array of shape (k,) shared by every leaf, or of shape (m, k) with one
    row of lifts per digits row.  Returns (y, z) arrays of shape (m, k),
    forward along the rows-mode descent of ``descend_levels``.  The lift
    values may leave [0, 2*pi); the inverse-branch chain then continues the
    leaf across the seam, which is what extended leaf windows require.
    ``_leaf_jets`` is the same evaluation of y, plus the exact leaf slopes.
    """
    return _fiber_forward(spec, *_leaf_chain(spec, digits, lifts))


def _leaf_jets(spec, digits, lifts):
    """Leaf heights and slopes (y, dy/dx) from one descent, without z.

    d x_(-j) / dx = d x_(-j+1) / dx / eta'(x_(-j)) along the chain, and
    ``_fiber_forward`` carries dy/dx next to y; y is bit for bit that of
    ``leaf_states``.
    """
    chain, shape = _leaf_chain(spec, digits, lifts)
    dx, dxj = [], 1.0
    for xj in chain:
        dxj = dxj / spec.eta_prime(xj)
        dx.append(dxj)
    return _fiber_forward(spec, chain, shape, dx)


# ---------------------------------------------------------------------------
# Words and cylinders
# ---------------------------------------------------------------------------

def _require_depth(spec, n, tol):
    """(sup lam')**n, the error of a length-n past; it must be below tol."""
    bound = spec.contraction_sup() ** n  # n = 0 gives the disc radius 1
    if bound >= tol:
        raise WordTooShortError(
            f"past of length {n} gives error {bound:g} >= {tol:g}")
    return bound


def _check_cap(count):
    """Refuse more than ENUMERATION_CAP rows, the cap read at call time."""
    if count > ENUMERATION_CAP:
        raise CapExceededError(
            f"{count} rows exceed the enumeration cap {ENUMERATION_CAP}")


def _digit_rows(idx, d, n):
    """Digit rows (deepest symbol first) of word indices below 2**63."""
    return np.asarray(idx, dtype=np.int64)[:, None] \
        // d ** np.arange(n - 1, -1, -1, dtype=np.int64) % d


def _word_label(row):
    """A digit row as text: digits joined, with commas once a symbol exceeds 9."""
    if any(s > 9 for s in row):
        return ",".join(str(s) for s in row)
    return "".join(str(s) for s in row)


def cylinder_endpoints(spec: SolenoidSpec, m: int):
    """(lo, hi) of all d**m generation-m forward cylinders, lexicographic.

    The last level L of the branch points' (m-1)-level descent has shape
    (d + 1, d**(m-1)); word c * d + s spans [L[s, c], L[s + 1, c]].
    """
    if m < 1:
        raise ValueError("cylinder generation must be >= 1")
    _check_cap(spec.d ** m)
    a = np.array(branch_points(spec))
    ends = descend_levels(spec, a, m - 1)[-1] if m > 1 else a[:, None]
    return ends[:-1].T.ravel(), ends[1:].T.ravel()
