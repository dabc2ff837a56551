"""Unstable leaves, their planar crossings, holonomy, and regularity tests.

A leaf is the continuation of a backward word, a digit row (deepest
symbol first), across base lifts: the inverse-branch chain is evaluated
on the real line, so leaves are defined on extended windows
[-margin, 2*pi + margin] and across the seam.  The crossing set of
projected leaves from different generation-one tubes (the pool built by
``build_gamma_pool``) drives both the transversality estimate and the
strong-Lipschitz margin test.

Leaves are evaluated by one ``leaf_states`` call on one shared lift grid.
One scan, ``_cells``, finds the candidate cells of y_a - y_b for many
leaf pairs at once: contact runs within TOUCH_TOL as zero-width cells at
their middle grid point, then sign changes.  It serves the crossing
records of a pair sample or of the pool (``leaf_intersections``) and the
margin test's (target, pool leaf) rows (``_nearest_crossings``).  The
candidates are refined together by ``_refine``, a bracketed Newton
iteration on y_a - y_b whose derivative comes from the exact leaf slopes
(``coding._leaf_jets``).  Each leaf is evaluated at its own lift and every
candidate follows its scalar trajectory, so batching changes no result.
Crossing angles are atan |y_a' - y_b'| from the same slopes, with no
finite differences.  Records and reports carry words as digit tuples and
print them with ``coding._word_label``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import (_digit_rows, _leaf_jets, _word_label, descend_levels,
                     leaf_states)
from .errors import WordTooShortError
from .maps import SolenoidSpec
from .numerics import TWO_PI
from .thermo import build_gibbs_model

NEAR_TANGENCY_SLOPE = 1e-6  # |slope difference| below this is a tangency
TOUCH_TOL = 1e-9            # |y_a - y_b| below this counts as contact
CROSSING_TOL = 1e-10        # refinement stops at this step or bracket width
SCAN_BLOCK = 1 << 18        # rows x grid points per margin-scan block
POOL_MARGIN = 0.5           # pool window: [-POOL_MARGIN, 2*pi + POOL_MARGIN]


@dataclass(frozen=True)
class IntersectionRecord:
    """A crossing of two projected leaves with distinct leading symbols."""

    x_lift: float
    y: float
    angle: float
    past_a: tuple             # digit row, deepest symbol first
    past_b: tuple
    near_tangency: bool = False

    def to_dict(self):
        return {"x_lift": self.x_lift, "y": self.y, "angle": self.angle,
                "past_a": _word_label(self.past_a),
                "past_b": _word_label(self.past_b),
                "near_tangency": self.near_tangency}


@dataclass(frozen=True)
class HolonomyReport:
    x_src: float
    x_dst: float
    scale_stats: dict         # dyadic scale exponent -> ratio stats
    strong_lipschitz_fraction: float
    flagged_words: list       # digit tuples of the failing words
    flagged_weight: float
    usable: int               # tested samples the margin test could use

    def to_dict(self):
        return {
            "x_src": self.x_src, "x_dst": self.x_dst,
            "scale_stats": {str(k): v for k, v in
                            sorted(self.scale_stats.items())},
            "strong_lipschitz_fraction": self.strong_lipschitz_fraction,
            "flagged_words": [_word_label(w) for w in self.flagged_words],
            "flagged_weight": self.flagged_weight,
            "usable": self.usable,
        }


def _grid(margin, samples):
    """The increasing lift grid of `samples` points on [-margin, 2*pi+margin]."""
    if samples < 2:
        raise ValueError("need at least two samples")
    return np.linspace(-margin, TWO_PI + margin, samples)


# ---------------------------------------------------------------------------
# Batched crossing engine
# ---------------------------------------------------------------------------

def _pair(kernel, spec, dig_a, dig_b, lifts):
    """kernel outputs of leaves dig_a[i] and dig_b[i] over lifts[i].

    One kernel call when the pasts share a length; returns the output
    tuples of the a and b leaves.
    """
    c = len(dig_a)
    if dig_a.shape[1] == dig_b.shape[1]:
        out = kernel(spec, np.concatenate([dig_a, dig_b]),
                     np.concatenate([lifts, lifts]))
        return [o[:c] for o in out], [o[c:] for o in out]
    return kernel(spec, dig_a, lifts), kernel(spec, dig_b, lifts)


def _refine(spec, dig_a, dig_b, lo, hi, g_lo):
    """Refine sign changes of g = y_a - y_b in the cells [lo, hi] together.

    Bracketed Newton with g' from the leaf jets: each candidate starts at
    its cell midpoint and keeps the part of its bracket whose ends differ
    in sign; a step that lands strictly outside the bracket (or is not
    finite) is replaced by the bracket midpoint.  A candidate stops once a
    step inside the bracket is at most CROSSING_TOL / 2 or the bracket is
    at most CROSSING_TOL wide (at most 64 rounds); only active candidates
    are re-evaluated.  Returns the last iterates (zero-width cells as is).
    """
    lo, hi, g_lo = lo.copy(), hi.copy(), g_lo.copy()
    x = 0.5 * (lo + hi)
    act = np.flatnonzero(hi - lo > CROSSING_TOL)
    for _ in range(64):
        if act.size == 0:
            break
        xa = x[act]
        (ya, sa), (yb, sb) = _pair(_leaf_jets, spec, dig_a[act],
                                   dig_b[act], xa[:, None])
        g = ya[:, 0] - yb[:, 0]
        same = (g > 0.0) == (g_lo[act] > 0.0)
        lo[act] = np.where(same, xa, lo[act])
        g_lo[act] = np.where(same, g, g_lo[act])
        hi[act] = np.where(same, hi[act], xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / (sa[:, 0] - sb[:, 0])
        x_new = xa - step
        outside = ~((x_new >= lo[act]) & (x_new <= hi[act]))
        x[act] = np.where(outside, 0.5 * (lo[act] + hi[act]), x_new)
        going = outside | ~(np.abs(step) <= 0.5 * CROSSING_TOL)
        act = act[going & (hi[act] - lo[act] > CROSSING_TOL)]
    return x


def _cells(grid, g):
    """Candidate cells of the rows of g (rows, k) on the increasing grid.

    Returns (row, lo, hi, g_lo): first the contact runs, where |g| stays
    below TOUCH_TOL (a grid point on the crossing, a tangency or a
    coincidence stretch), as zero-width cells at their middle grid point;
    then the sign changes of g between grid points that touch at neither
    end.  Each part is ordered by row, then by lift; g_lo is g at lo
    (0 for a contact run).
    """
    touching = np.abs(g) < TOUCH_TOL
    t = np.pad(touching, ((0, 0), (1, 1)))
    run_p, first = np.nonzero(t[:, 1:] & ~t[:, :-1])
    last = np.nonzero(t[:, :-1] & ~t[:, 1:])[1] - 1
    runs = grid[(first + last) // 2]
    sign = np.sign(g)
    cross_p, k = np.nonzero(~touching[:, :-1] & ~touching[:, 1:]
                            & (sign[:, :-1] * sign[:, 1:] < 0.0))
    return (np.concatenate([run_p, cross_p]), np.concatenate([runs, grid[k]]),
            np.concatenate([runs, grid[k + 1]]),
            np.concatenate([np.zeros(runs.size), g[cross_p, k]]))


def leaf_intersections(spec: SolenoidSpec, grid: np.ndarray,
                       dig_a: np.ndarray, dig_b: np.ndarray,
                       y_a: np.ndarray, y_b: np.ndarray) -> list:
    """Crossing records of the leaf pairs (dig_a[p], dig_b[p]) on one grid.

    y_a and y_b (rows p) hold the leaves over the shared increasing lift
    grid (``leaf_states``); leaves a share one past length, as do leaves
    b, and the two leaves of a pair must have distinct leading symbols
    (ValueError otherwise).  The cells of y_a - y_b (``_cells``) are
    refined by ``_refine``, all pairs at once; a contact run keeps its
    middle grid point, and the slope gap decides whether it is a crossing
    or a tangency.  Each record's y and angle
    atan |y_a' - y_b'| come from one jet evaluation at the refined point.
    Returns one flat list ordered by pair, then by lift.
    """
    if np.any(dig_a[:, -1] == dig_b[:, -1]):
        raise ValueError("leaves must come from distinct leading symbols")
    owner, lo, hi, g_lo = _cells(grid, y_a - y_b)
    dig_a, dig_b = dig_a[owner], dig_b[owner]
    x = _refine(spec, dig_a, dig_b, lo, hi, g_lo)
    (ya, sa), (_, sb) = _pair(_leaf_jets, spec, dig_a, dig_b, x[:, None])
    diff = np.abs(sa[:, 0] - sb[:, 0])
    return [IntersectionRecord(
        x_lift=float(x[i]), y=float(ya[i, 0]),
        angle=float(math.atan(diff[i])),
        past_a=tuple(dig_a[i].tolist()), past_b=tuple(dig_b[i].tolist()),
        near_tangency=bool(diff[i] < NEAR_TANGENCY_SLOPE))
        for i in np.lexsort((x, owner))]


# ---------------------------------------------------------------------------
# Transversality estimate
# ---------------------------------------------------------------------------

def _sample_words(spec, n, rng, size):
    """Indices of length-n words drawn with the cylinder weights."""
    weights = build_gibbs_model(spec, n).weights
    return rng.choice(weights.size, size=size, replace=True, p=weights)


def min_transversal_angle(spec: SolenoidSpec, n_past: int, pair_budget: int,
                          seed: int = 0, samples: int = 257,
                          margin: float = 0.2):
    """Minimum crossing angle over a weighted sample of leaf pairs.

    Pairs are drawn with the cylinder weights, conditioned on distinct
    leading symbols; returns (alpha0_est, near_tangency_count).  A
    positive estimate with a zero tangency count is the transversality
    verdict at this resolution.
    """
    if pair_budget < 1:
        raise ValueError("pair budget must be >= 1")
    rng = np.random.default_rng(seed)
    idx_a, idx_b = _sample_words(spec, n_past, rng, (2, pair_budget))
    # force distinct leading symbols by resampling the partner's last digit
    lead_a = idx_a % spec.d
    lead_b = idx_b % spec.d
    shift = 1 + rng.integers(0, spec.d - 1, size=pair_budget)
    clash = lead_b == lead_a
    idx_b = np.where(clash, idx_b - lead_b + (lead_b + shift) % spec.d, idx_b)
    grid = _grid(margin, samples)
    idx, pair = np.unique(np.concatenate([idx_a, idx_b]), return_inverse=True)
    digits = _digit_rows(idx, spec.d, n_past)
    y, _ = leaf_states(spec, digits, grid)
    a, b = pair.reshape(2, -1)
    records = leaf_intersections(spec, grid, digits[a], digits[b], y[a],
                                 y[b])
    angles = [r.angle for r in records if not r.near_tangency]
    return (min(angles) if angles else 0.0), len(records) - len(angles)


# ---------------------------------------------------------------------------
# Holonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaPool:
    """Weighted sample of leaves evaluated on a shared lift grid.

    The pool is built once per run and shared read-only; the margin test
    intersects target leaves against the pool curves: the ``_cells`` scan
    of the crossing records on the shared grid, then one batched Newton
    refinement (``_refine``) of the cells nearest each query point, for
    all queried words at once.
    """

    spec: SolenoidSpec
    n_past: int
    margin: float
    grid: np.ndarray          # shared lifts (k,)
    digits: np.ndarray        # (b, n_past) pool pasts, deepest first
    y_curves: np.ndarray      # (b, k)
    records: list             # crossings among the pool leaves

    @property
    def size(self):
        return self.digits.shape[0]

    @property
    def leading(self):
        """(b,) most recent symbols of the pool pasts."""
        return self.digits[:, -1]


def build_gamma_pool(spec: SolenoidSpec, n_past: int, budget: int,
                     seed: int = 0, samples: int = 257) -> GammaPool:
    """Draw weighted pasts and precompute their leaves over the window."""
    rng = np.random.default_rng(seed)
    grid = _grid(POOL_MARGIN, samples)
    digits = _digit_rows(np.unique(_sample_words(spec, n_past, rng, budget)),
                         spec.d, n_past)
    y, _ = leaf_states(spec, digits, grid)
    # pairs a < b from different generation-one tubes, row-major
    a, b = np.nonzero(np.triu(digits[:, -1, None] != digits[:, -1]))
    return GammaPool(spec=spec, n_past=n_past, margin=POOL_MARGIN, grid=grid,
                     digits=digits, y_curves=y,
                     records=leaf_intersections(spec, grid, digits[a],
                                                digits[b], y[a], y[b]))


def _nearest_crossings(spec, digits, pool: GammaPool, x_ref):
    """Distance from each x_ref[i] to the nearest pool crossing on leaf i.

    Every (target leaf, pool leaf from another tube) row goes through
    ``_cells`` on the pool grid, in blocks of whole targets that hold at
    most SCAN_BLOCK values (or one target).  A cell holds its crossing
    within half a grid step h of its midpoint, so each target keeps the
    cells whose midpoints lie within h of its nearest midpoint distance
    (ties in cell order); all of them are refined in one ``_refine`` call,
    to within CROSSING_TOL of the crossing; a contact run counts as a
    crossing at its middle grid point.  NaN marks a leaf without such pool
    leaves, +inf one without a crossing.
    """
    y_t, _ = leaf_states(spec, digits, pool.grid)
    other = digits[:, -1, None] != pool.leading
    dist = np.where(other.any(axis=1), math.inf, math.nan)
    h = float(np.diff(pool.grid).max())
    step = max(1, SCAN_BLOCK // max(1, pool.y_curves.size))
    found = []
    for s in range(0, len(digits), step):
        tw, tp = np.nonzero(other[s:s + step])
        row, lo, hi, g_lo = _cells(pool.grid, y_t[s + tw] - pool.y_curves[tp])
        w = s + tw[row]
        gap = np.abs(0.5 * (lo + hi) - x_ref[w])
        order = np.lexsort((gap, w))
        ws, gap = w[order], gap[order]
        keep = order[gap <= gap[np.searchsorted(ws, ws)] + h]
        found.append((w[keep], tp[row[keep]], lo[keep], hi[keep], g_lo[keep]))
    if found:
        w, p, lo, hi, g_lo = map(np.concatenate, zip(*found))
        x = _refine(spec, digits[w], pool.digits[p], lo, hi, g_lo)
        np.minimum.at(dist, w, np.abs(x - x_ref[w]))
    return dist


def strong_lipschitz_test(spec: SolenoidSpec, digits: np.ndarray,
                          n_min: int, n_max: int, L: float, pool: GammaPool,
                          x: float = 0.0):
    """Backward-orbit margins of many words against the crossing pool.

    For each depth n in [n_min, n_max] every word (a row of digits,
    deepest symbol first) is shifted back n steps from x; the base
    position of the shifted point is compared with the crossings of its
    remaining leaf against pool leaves from other generation-one tubes
    (``_nearest_crossings``).  The x-distance must stay above L / eta_n,
    with eta_n the product of eta' along the dropped steps; the chains are
    descended only n_max steps.  Returns (worst, usable): worst holds
    min_n dist * eta_n / L per word (so the pool window, not L, bounds the
    search and the ratio is exactly linear in 1/L; +inf means no crossing
    at all near the orbit, and the word is strong when worst >= 1), and a
    word is usable when some depth found pool leaves from other tubes;
    with no pool none is.
    """
    m, length = digits.shape
    if length <= n_max:
        raise WordTooShortError("past must be longer than the test depth")
    worst = np.full(m, math.inf)
    usable = np.zeros(m, dtype=bool)
    if pool.size == 0 or n_max < n_min:
        return worst, usable
    start = np.full((m, 1), np.mod(x, TWO_PI))
    chain = np.concatenate([start] + descend_levels(
        spec, start, n_max, digits[:, length - n_max:]), axis=1)
    eta = np.cumprod(spec.eta_prime(chain[:, 1:]), axis=1)
    for n in range(n_min, n_max + 1):
        dist = _nearest_crossings(spec, digits[:, :length - n], pool,
                                  chain[:, n])
        usable |= ~np.isnan(dist)
        ratio = dist * eta[:, n - 1] / L
        worst = np.where(np.isfinite(ratio), np.minimum(worst, ratio), worst)
    return worst, usable


def holonomy_lipschitz_scan(spec: SolenoidSpec, x_src: float, x_dst: float,
                            n: int, pairs: int, pool: GammaPool,
                            seed: int = 0, L: float = 0.5) -> HolonomyReport:
    """Ratio statistics of the holonomy between two fibers.

    Samples weighted word pairs in the source fiber stratified across
    dyadic separation scales (partners share a growing number of recent
    symbols), slides both along their leaves to the destination fiber,
    and buckets dist(q, q')/dist(p, p') by the dyadic scale of the source
    separation.  Each sampled word is also run through the
    strong-Lipschitz margin test against `pool` at depth n//2 (all words
    in one batched pass); the failing words are the flagged set, whose
    sampled weight estimates the Gibbs mass of the weak non-Lipschitz part
    at this generation.  That weight, and the strong fraction 1 - weight,
    are taken over the `usable` samples only: those whose word the test
    could use (some pool leaf from another tube).  With none usable both
    are nan.
    """
    rng = np.random.default_rng(seed)
    idx_a = _sample_words(spec, n, rng, pairs)
    share = rng.integers(0, n, size=pairs)  # shared recent depth
    d = spec.d
    size = d ** n

    drawn = []
    for i, j_share in zip(idx_a, share):
        block = d ** int(j_share)
        # partner: same most recent j_share symbols, different next digit
        digit = (i // block) % d
        new_digit = (digit + 1 + rng.integers(0, d - 1)) % d
        deep = rng.integers(0, size // (block * d))
        j = int(deep) * block * d + int(new_digit) * block + int(i % block)
        drawn.append((int(i), j))
    ys, zs = leaf_states(spec, _digit_rows(np.ravel(drawn), d, n),
                         np.array([x_src, x_dst], dtype=float))
    dy, dz = ys[0::2] - ys[1::2], zs[0::2] - zs[1::2]

    scale_stats = {}
    tested = []
    for p, (i, _) in enumerate(drawn):
        p_dist = math.hypot(dy[p, 0], dz[p, 0])
        q_dist = math.hypot(dy[p, 1], dz[p, 1])
        if p_dist == 0.0:
            continue
        ratio = q_dist / p_dist
        bucket = int(math.floor(math.log2(p_dist)))
        stats = scale_stats.setdefault(
            bucket, {"count": 0, "ratio_max": 0.0, "ratio_sum": 0.0})
        stats["count"] += 1
        stats["ratio_max"] = max(stats["ratio_max"], ratio)
        stats["ratio_sum"] += ratio
        tested.append(i)

    words = list(dict.fromkeys(tested))
    test_depth = max(1, n // 2)
    rows = _digit_rows(words, d, n)
    worst, usable = strong_lipschitz_test(spec, rows, test_depth, test_depth,
                                          L, pool, x_src)
    failing = {i for i, w, u in zip(words, worst, usable) if u and w < 1.0}
    flagged = [tuple(r) for i, r in zip(words, rows.tolist()) if i in failing]
    flagged_hits = sum(i in failing for i in tested)
    usable_words = {i for i, u in zip(words, usable) if u}
    used = sum(i in usable_words for i in tested)

    for stats in scale_stats.values():
        stats["ratio_mean"] = stats["ratio_sum"] / stats["count"]
        del stats["ratio_sum"]
    # A word the margin test could not use is neither strong nor flagged.
    flagged_weight = flagged_hits / used if used else math.nan
    return HolonomyReport(
        x_src=float(x_src), x_dst=float(x_dst), scale_stats=scale_stats,
        strong_lipschitz_fraction=1.0 - flagged_weight,
        flagged_words=flagged, flagged_weight=float(flagged_weight),
        usable=used)
