"""Symbolic dynamics: words, cylinders, and representative attractor points.

Backward words list the branches of the backward base orbit in
chronological order: the last symbol is the most recent preimage branch
(the "leading" symbol i0 that labels generation-one tubes), the first
symbol is the deepest past.  With this convention the lexicographic index
of a word has its most recent symbol as the lowest base-d digit, which is
exactly the layout produced by the level-by-level inverse-branch descent
used throughout the bulk routines.

Forward words list the branch intervals visited by the forward orbit of a
base point, starting with the interval containing the point itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import CapExceededError, WordTooShortError
from .maps import Point3, SolenoidSpec, branch_points
from .numerics import TWO_PI

ENUMERATION_CAP = 2 ** 24

Direction = Literal["backward", "forward"]


@dataclass(frozen=True)
class Word:
    """A finite symbol sequence over {0, ..., d-1}."""

    symbols: tuple
    direction: Direction = "backward"

    @property
    def generation(self):
        return len(self.symbols)

    @property
    def most_recent(self):
        """The leading symbol i0 of a backward word (most recent past branch)."""
        if self.direction != "backward":
            raise ValueError("most_recent is defined for backward words")
        return self.symbols[-1]

    def __str__(self):
        if any(s > 9 for s in self.symbols):
            return ",".join(str(s) for s in self.symbols)
        return "".join(str(s) for s in self.symbols)

    @classmethod
    def from_string(cls, text, direction="backward"):
        syms = tuple(int(c) for c in text.split(",")) if "," in text \
            else tuple(int(c) for c in text)
        return cls(symbols=syms, direction=direction)

    @classmethod
    def from_index(cls, index, d, n, direction="backward"):
        """Word with lexicographic index `index` among the d**n of length n."""
        syms = []
        for _ in range(n):
            index, r = divmod(index, d)
            syms.append(r)
        return cls(symbols=tuple(reversed(syms)), direction=direction)

    def index(self, d):
        i = 0
        for s in self.symbols:
            i = i * d + s
        return i


@dataclass(frozen=True)
class LeafPointResult:
    """A representative attractor point with a guaranteed error bound."""

    point: Point3
    error_bound: float


def _check_symbols(spec, word):
    if any(not 0 <= s < spec.d for s in word.symbols):
        raise ValueError(f"word {word} has symbols outside [0, {spec.d})")


def branch_of(spec: SolenoidSpec, x) -> np.ndarray:
    """Branch interval index containing x; ties resolve to the lower index."""
    a = np.asarray(branch_points(spec))
    idx = np.searchsorted(a, np.mod(np.asarray(x, dtype=float), TWO_PI),
                          side="left") - 1
    return np.clip(idx, 0, spec.d - 1)


# ---------------------------------------------------------------------------
# Bulk backward-chain machinery
# ---------------------------------------------------------------------------

def descend_levels(spec: SolenoidSpec, lifts: np.ndarray, n: int) -> list:
    """Backward chains of every length-n word over the given base lifts.

    Returns a list of n arrays; level j has shape lifts.shape + (d**j,) and
    holds the depth-j preimage lift for every combination of the j most
    recent branch symbols, indexed by sum_k i_(-k) * d**(k-1).  That code
    equals the lexicographic word index reduced mod d**j.
    """
    d = spec.d
    lifts = np.asarray(lifts, dtype=float)
    levels = []
    current = lifts[..., None]  # depth 0, one column
    for _ in range(n):
        stacked = np.concatenate(
            [current + TWO_PI * b for b in range(d)], axis=-1)
        current = spec.eta_inverse_lift(stacked)
        levels.append(current)
    return levels


def _fiber_forward(spec, chain, shape):
    """Anchor discs' centers (x_(-n), 0, 0) iterated forward along chains.

    chain[j-1] holds the depth-j base points and broadcasts to `shape`,
    the shape of the returned (y, z) arrays; the maps evaluate their trig
    on the chain points themselves, never on broadcast copies.
    """
    y = z = np.zeros(shape)
    for xj in reversed(chain):
        y, z = (spec.lam(xj, y) + spec.u(xj),
                spec.nu(xj, y, z) + spec.v(xj))
    return y, z


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


def leaf_states(spec: SolenoidSpec, digits: np.ndarray, lifts: np.ndarray):
    """Evaluate several leaves (rows of `digits`) over an array of base lifts.

    digits has shape (m, n) with the deepest symbol first; lifts is a real
    array of shape (k,) shared by every leaf, or of shape (m, k) with one
    row of lifts per digits row.  Returns (y, z) arrays of shape (m, k).
    The lift values may leave [0, 2*pi); the inverse-branch chain then
    continues the leaf across the seam, which is what extended leaf
    windows require.
    """
    digits = np.atleast_2d(np.asarray(digits, dtype=int))
    lifts = np.asarray(lifts, dtype=float)
    m, n = digits.shape
    x = np.broadcast_to(lifts, (m, lifts.shape[-1])).copy()
    chain = []
    for j in range(1, n + 1):
        x = spec.eta_inverse_lift(x + TWO_PI * digits[:, n - j, None])
        chain.append(x)
    return _fiber_forward(spec, chain, x.shape)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def point_from_backward_word(spec: SolenoidSpec, word: Word, x: float,
                             tol: float = 1e-9) -> LeafPointResult:
    """Representative of the leaf with the given past over fiber x.

    Composes inverse branches along the word down to the anchor fiber,
    plants the anchor on the disc center, and iterates forward; the result
    is within (sup lam')**n of the true leaf point.
    """
    if word.direction != "backward":
        raise ValueError("point_from_backward_word expects a backward word")
    _check_symbols(spec, word)
    n = word.generation
    bound = spec.contraction_sup() ** n  # n = 0 gives the disc radius 1
    if bound >= tol:
        raise WordTooShortError(
            f"need (sup lam')^n < {tol:g}; length {n} gives {bound:g}")
    if n == 0:
        x0 = float(np.mod(x, TWO_PI))
        return LeafPointResult(point=Point3(x=x0, y=0.0, z=0.0), error_bound=1.0)
    digits = np.array([word.symbols], dtype=int)
    y, z = leaf_states(spec, digits, np.array([np.mod(x, TWO_PI)]))
    point = Point3(x=float(np.mod(x, TWO_PI)), y=float(y[0, 0]), z=float(z[0, 0]))
    return LeafPointResult(point=point, error_bound=float(bound))


def base_itinerary(spec: SolenoidSpec, x: float, n: int) -> Word:
    """Forward word of the branch intervals visited by the base orbit of x."""
    if n < 1:
        raise ValueError("itinerary length must be >= 1")
    syms = []
    cur = float(np.mod(x, TWO_PI))
    for _ in range(n):
        syms.append(int(branch_of(spec, cur)))
        cur = float(spec.eta(cur))
    return Word(symbols=tuple(syms), direction="forward")


def enumerate_cylinders(spec: SolenoidSpec, n: int, direction: Direction,
                        cap: int = ENUMERATION_CAP) -> list:
    """All d**n words of length n in lexicographic order."""
    count = spec.d ** n
    if count > cap:
        raise CapExceededError(
            f"{spec.d}**{n} = {count} words exceeds the cap {cap}")
    return [Word(symbols=s, direction=direction)
            for s in itertools.product(range(spec.d), repeat=n)]


def cylinder_base_interval(spec: SolenoidSpec, word: Word):
    """Endpoints of the base interval whose points share the given itinerary."""
    if word.direction != "forward":
        raise ValueError("cylinder_base_interval expects a forward word")
    _check_symbols(spec, word)
    a = branch_points(spec)
    syms = word.symbols
    lo, hi = a[syms[-1]], a[syms[-1] + 1]
    for s in reversed(syms[:-1]):
        lo, hi = (float(spec.eta_inverse_lift(lo + TWO_PI * s)),
                  float(spec.eta_inverse_lift(hi + TWO_PI * s)))
    return float(lo), float(hi)


def write_cylinder_table(spec: SolenoidSpec, n: int, path, cap=ENUMERATION_CAP):
    """Emit the generation-n base intervals as CSV (word, interval_lo, interval_hi)."""
    words = enumerate_cylinders(spec, n, "forward", cap=cap)
    with open(path, "w") as fh:
        fh.write(f"# spec_hash={spec.spec_hash()} generation={n}\n")
        fh.write("word,interval_lo,interval_hi\n")
        for w in words:
            lo, hi = cylinder_base_interval(spec, w)
            fh.write(f"{w},{lo:.12g},{hi:.12g}\n")
