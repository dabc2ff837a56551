"""Unstable leaves, their planar crossings, holonomy, and regularity tests.

A leaf is the continuation of a backward word across base lifts: the
inverse-branch chain is evaluated on the real line, so leaves are defined
on extended windows [-margin, 2*pi + margin] and across the seam.  The
crossing set of projected leaves from different generation-one tubes (the
pool built by ``build_gamma_pool``) drives both the transversality
estimate and the strong-Lipschitz margin test.

All crossings go through one batched engine: the (leaf a, leaf b, cell)
candidates of a pair sample, the pool or a holonomy scan are bisected
together by ``_bisect``, each leaf evaluated at its own lift, and every
candidate follows its scalar trajectory, so batching changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import Word, leaf_states
from .errors import WordTooShortError
from .maps import Point3, SolenoidSpec
from .numerics import TWO_PI
from .thermo import gibbs_weight_array, _phi_exponent

SLOPE_STEP = 1e-5          # central-difference step along the lift
NEAR_TANGENCY_SLOPE = 1e-6  # |slope difference| below this is a tangency
TOUCH_TOL = 1e-9            # |y_a - y_b| below this counts as contact
CROSSING_TOL = 1e-10        # bisection stops at this cell width


@dataclass(frozen=True)
class UnstableLeaf:
    """Sampled graph of a leaf x -> (y(x), z(x)) over an extended window."""

    spec: SolenoidSpec
    past: Word
    margin: float
    samples: np.ndarray  # (k, 3) rows (x_lift, y, z), lifts increasing
    error_bound: float

    @property
    def lifts(self):
        return self.samples[:, 0]

    @property
    def y(self):
        return self.samples[:, 1]


@dataclass(frozen=True)
class IntersectionRecord:
    """A crossing of two projected leaves with distinct leading symbols."""

    x_lift: float
    y: float
    angle: float
    past_a: Word
    past_b: Word
    near_tangency: bool = False

    def to_dict(self):
        return {"x_lift": self.x_lift, "y": self.y, "angle": self.angle,
                "past_a": str(self.past_a), "past_b": str(self.past_b),
                "near_tangency": self.near_tangency}


@dataclass(frozen=True)
class StrongLipschitzResult:
    is_strong: bool | None
    worst_margin: float
    indeterminate: bool = False


@dataclass(frozen=True)
class HolonomyReport:
    x_src: float
    x_dst: float
    scale_stats: dict         # dyadic scale exponent -> ratio stats
    strong_lipschitz_fraction: float
    flagged_words: list
    flagged_weight: float

    def to_dict(self):
        return {
            "x_src": self.x_src, "x_dst": self.x_dst,
            "scale_stats": {str(k): v for k, v in
                            sorted(self.scale_stats.items())},
            "strong_lipschitz_fraction": self.strong_lipschitz_fraction,
            "flagged_words": [str(w) for w in self.flagged_words],
            "flagged_weight": self.flagged_weight,
        }


def _require_depth(spec, past, tol):
    bound = spec.contraction_sup() ** past.generation
    if bound >= tol:
        raise WordTooShortError(
            f"past of length {past.generation} gives error {bound:g} >= {tol:g}")
    return bound


def _leaf_points(spec, past, lifts):
    """Leaf representatives over several base lifts, from one call."""
    lifts = np.array(lifts, dtype=float)
    y, z = leaf_states(spec, np.array([past.symbols], dtype=int), lifts)
    return [Point3(x=float(np.mod(x, TWO_PI)), y=float(y[0, i]),
                   z=float(z[0, i])) for i, x in enumerate(lifts)]


def leaf_point(spec: SolenoidSpec, past: Word, lift: float) -> Point3:
    """Leaf representative over one base lift (no tolerance gate)."""
    return _leaf_points(spec, past, [lift])[0]


def _leaves(spec, pasts, margin, samples, tol):
    """Leaves of several same-length pasts from one leaf_states call."""
    if samples < 2:
        raise ValueError("need at least two samples")
    bound = _require_depth(spec, pasts[0], tol)
    lifts = np.linspace(-margin, TWO_PI + margin, samples)
    y, z = leaf_states(spec, np.array([p.symbols for p in pasts], dtype=int),
                       lifts)
    return [UnstableLeaf(spec=spec, past=p, margin=float(margin),
                         samples=np.column_stack([lifts, y[i], z[i]]),
                         error_bound=float(bound))
            for i, p in enumerate(pasts)]


def unstable_leaf(spec: SolenoidSpec, past: Word, margin: float,
                  samples: int, tol: float = 1e-9) -> UnstableLeaf:
    """Sample a leaf on an increasing lift grid over [-margin, 2*pi+margin]."""
    return _leaves(spec, [past], margin, samples, tol)[0]


# ---------------------------------------------------------------------------
# Batched crossing engine
# ---------------------------------------------------------------------------

def _pair_y(spec, dig_a, dig_b, lifts):
    """y of leaves dig_a[i] and dig_b[i] over lifts[i], in one call if it can."""
    c = len(dig_a)
    if dig_a.shape[1] == dig_b.shape[1]:
        y, _ = leaf_states(spec, np.concatenate([dig_a, dig_b]),
                           np.concatenate([lifts, lifts]))
        return y[:c], y[c:]
    return leaf_states(spec, dig_a, lifts)[0], leaf_states(spec, dig_b, lifts)[0]


def _bisect(spec, dig_a, dig_b, lo, hi, g_lo):
    """Refine sign changes of y_a - y_b in the cells [lo, hi] together.

    Each candidate keeps the half whose ends differ in sign until its width
    is at most CROSSING_TOL (at most 64 halvings); only active candidates
    are re-evaluated.  Returns the cell midpoints (zero-width cells as is).
    """
    lo, hi, g_lo = lo.copy(), hi.copy(), g_lo.copy()
    for _ in range(64):
        act = np.flatnonzero(hi - lo > CROSSING_TOL)
        if act.size == 0:
            break
        mid = 0.5 * (lo[act] + hi[act])
        ya, yb = _pair_y(spec, dig_a[act], dig_b[act], mid[:, None])
        g_mid = ya[:, 0] - yb[:, 0]
        same = (g_mid > 0.0) == (g_lo[act] > 0.0)
        lo[act] = np.where(same, mid, lo[act])
        g_lo[act] = np.where(same, g_mid, g_lo[act])
        hi[act] = np.where(same, hi[act], mid)
    return 0.5 * (lo + hi)


def _crossings(pairs) -> list:
    """Crossing records of every (leaf a, leaf b) pair, one sorted list each.

    Sign changes of y_a - y_b on the union lift grid are bisected, all
    pairs at once; contact runs within TOUCH_TOL (a grid point on the
    crossing, a tangency or a coincidence stretch) keep their middle grid
    point, and the slope gap decides which.  Leaves a share one past
    length, as do leaves b.
    """
    owner, lo, hi, g_lo = [], [], [], []
    for p, (la, lb) in enumerate(pairs):
        if la.past.most_recent == lb.past.most_recent:
            raise ValueError("leaves must come from distinct leading symbols")
        a, b = max(la.lifts[0], lb.lifts[0]), min(la.lifts[-1], lb.lifts[-1])
        if b <= a:
            continue
        grid = np.unique(np.concatenate([
            la.lifts[(la.lifts >= a) & (la.lifts <= b)],
            lb.lifts[(lb.lifts >= a) & (lb.lifts <= b)], [a, b]]))
        if np.array_equal(grid, la.lifts) and np.array_equal(grid, lb.lifts):
            g = la.y - lb.y
        else:
            ya, yb = _pair_y(la.spec, np.array([la.past.symbols]),
                             np.array([lb.past.symbols]), grid[None, :])
            g = ya[0] - yb[0]
        touching = np.abs(g) < TOUCH_TOL
        edge = np.diff(np.concatenate([[0], touching.astype(int), [0]]))
        runs = grid[(np.flatnonzero(edge == 1) + np.flatnonzero(edge == -1)
                     - 1) // 2]
        sign = np.sign(g)
        k = np.flatnonzero(~touching[:-1] & ~touching[1:]
                           & (sign[:-1] * sign[1:] < 0.0))
        owner.append(np.full(runs.size + k.size, p))
        lo.append(np.concatenate([runs, grid[k]]))
        hi.append(np.concatenate([runs, grid[k + 1]]))
        g_lo.append(np.concatenate([np.zeros(runs.size), g[k]]))
    out = [[] for _ in pairs]
    owner = np.concatenate([np.zeros(0, dtype=int)] + owner)
    if owner.size == 0:
        return out
    spec = pairs[0][0].spec
    dig_a = np.array([la.past.symbols for la, _ in pairs])[owner]
    dig_b = np.array([lb.past.symbols for _, lb in pairs])[owner]
    x = _bisect(spec, dig_a, dig_b, np.concatenate(lo), np.concatenate(hi),
                np.concatenate(g_lo))
    ya, yb = _pair_y(spec, dig_a, dig_b, np.stack(
        [x - SLOPE_STEP, x + SLOPE_STEP, x], axis=1))
    diff = np.abs((ya[:, 1] - ya[:, 0]) / (2.0 * SLOPE_STEP)
                  - (yb[:, 1] - yb[:, 0]) / (2.0 * SLOPE_STEP))
    for i, p in enumerate(owner):
        out[p].append(IntersectionRecord(
            x_lift=float(x[i]), y=float(ya[i, 2]),
            angle=float(math.atan(diff[i])),
            past_a=pairs[p][0].past, past_b=pairs[p][1].past,
            near_tangency=bool(diff[i] < NEAR_TANGENCY_SLOPE)))
    for recs in out:
        recs.sort(key=lambda r: r.x_lift)
    return out


def leaf_intersections(leaf_a: UnstableLeaf, leaf_b: UnstableLeaf) -> list:
    """Crossings of the projected leaves over their common lift range.

    Sign changes of y_a - y_b are refined by bisection; contact runs where
    the curves stay within TOUCH_TOL (coincident or tangent graphs, no
    sign change) are reported as near-tangency records.
    """
    return _crossings([(leaf_a, leaf_b)])[0]


# ---------------------------------------------------------------------------
# Transversality estimate
# ---------------------------------------------------------------------------

def _sample_words(spec, n, count, rng, weights=None):
    if weights is None:
        weights = gibbs_weight_array(spec, _phi_exponent(spec, n), n)
    idx = rng.choice(weights.size, size=count, replace=True, p=weights)
    return idx, weights


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
    idx_a, weights = _sample_words(spec, n_past, pair_budget, rng)
    idx_b, _ = _sample_words(spec, n_past, pair_budget, rng, weights)
    # force distinct leading symbols by resampling the partner's last digit
    lead_a = idx_a % spec.d
    lead_b = idx_b % spec.d
    shift = 1 + rng.integers(0, spec.d - 1, size=pair_budget)
    clash = lead_b == lead_a
    idx_b = np.where(clash, idx_b - lead_b + (lead_b + shift) % spec.d, idx_b)

    idx = sorted(set(int(i) for i in np.concatenate([idx_a, idx_b])))
    leaves = dict(zip(idx, _leaves(
        spec, [Word.from_index(i, spec.d, n_past) for i in idx], margin,
        samples, tol=spec.contraction_sup() ** n_past * 1.0001 + 1e-300)))
    pairs = [(leaves[int(ia)], leaves[int(ib)])
             for ia, ib in zip(idx_a, idx_b) if ia != ib]

    records = [r for recs in _crossings(pairs) for r in recs]
    angles = [r.angle for r in records if not r.near_tangency]
    return (min(angles) if angles else 0.0), len(records) - len(angles)


# ---------------------------------------------------------------------------
# Holonomy
# ---------------------------------------------------------------------------

def holonomy_map(spec: SolenoidSpec, past: Word, x_src: float, x_dst: float,
                 tol: float = 1e-9):
    """Slide along one leaf: the points over x_src and x_dst as a pair.

    x_dst is interpreted as a lift relative to the x_src window, so paths
    longer than one turn stay on the same leaf continuation.
    """
    _require_depth(spec, past, tol)
    p, q = _leaf_points(spec, past, [x_src, x_dst])
    return p, q


@dataclass(frozen=True)
class GammaPool:
    """Weighted sample of leaves evaluated on a shared lift grid.

    The pool is built once per run and shared read-only; the margin test
    intersects target leaves against the pool curves: a sign scan on the
    shared grid, then one batched bisection (``_bisect``) of the cells
    nearest each query point, for all queried words at once.
    """

    spec: SolenoidSpec
    n_past: int
    margin: float
    grid: np.ndarray          # shared lifts (k,)
    digits: np.ndarray        # (b, n_past) pool pasts, deepest first
    leading: np.ndarray       # (b,) most recent symbols
    y_curves: np.ndarray      # (b, k)
    records: list             # crossings among the pool leaves

    @property
    def size(self):
        return self.digits.shape[0]


def build_gamma_pool(spec: SolenoidSpec, n_past: int, budget: int,
                     seed: int = 0, margin: float = 0.5,
                     samples: int = 257) -> GammaPool:
    """Draw weighted pasts and precompute their leaves over the window."""
    rng = np.random.default_rng(seed)
    idx, _ = _sample_words(spec, n_past, budget, rng)
    idx = sorted(set(int(i) for i in idx))
    tol = spec.contraction_sup() ** n_past * 1.0001 + 1e-300
    leaves = _leaves(spec, [Word.from_index(i, spec.d, n_past) for i in idx],
                     margin, samples, tol)
    digits = np.array([leaf.past.symbols for leaf in leaves], dtype=int)
    leading = digits[:, -1]
    pairs = [(leaves[a], leaves[b]) for a in range(len(idx))
             for b in range(a + 1, len(idx)) if leading[a] != leading[b]]
    return GammaPool(spec=spec, n_past=n_past, margin=margin,
                     grid=leaves[0].lifts.copy(), digits=digits, leading=leading,
                     y_curves=np.array([leaf.y for leaf in leaves]),
                     records=[r for recs in _crossings(pairs) for r in recs])


def _nearest_crossings(spec, digits, pool: GammaPool, x_ref):
    """Distance from each x_ref[i] to the nearest pool crossing on leaf i.

    Each target leaf (a row of digits) is scanned for sign changes against
    the pool leaves from other tubes; the four cells whose midpoints lie
    nearest its x_ref are refined, all leaves in one ``_bisect`` call.  NaN
    marks a leaf without such pool leaves, +inf one without a crossing.
    """
    y_t, _ = leaf_states(spec, digits, pool.grid)
    dist = np.full(len(digits), np.nan)
    rows_t, rows_p, cells, g_lo = [], [], [], []
    for w in range(len(digits)):
        other = np.flatnonzero(pool.leading != digits[w, -1])
        if other.size == 0:
            continue
        diffs = y_t[w] - pool.y_curves[other]
        signs = np.sign(diffs)
        rows, cols = np.nonzero(signs[:, :-1] * signs[:, 1:] < 0.0)
        dist[w] = math.inf
        if rows.size == 0:
            continue
        mids = 0.5 * (pool.grid[cols] + pool.grid[cols + 1])
        order = np.argsort(np.abs(mids - x_ref[w]))[:4]
        rows_t.append(np.full(order.size, w))
        rows_p.append(other[rows[order]])
        cells.append(cols[order])
        g_lo.append(diffs[rows[order], cols[order]])
    if rows_t:
        rows_t, cells = np.concatenate(rows_t), np.concatenate(cells)
        x = _bisect(spec, digits[rows_t], pool.digits[np.concatenate(rows_p)],
                    pool.grid[cells], pool.grid[cells + 1],
                    np.concatenate(g_lo))
        np.minimum.at(dist, rows_t, np.abs(x - x_ref[rows_t]))
    return dist


def _margins(spec, digits, n_min, n_max, L, pool, x):
    """Worst margin ratio of every word (rows of digits), and usability.

    The backward chains from x are descended only n_max steps; the depth-n
    ratio is dist * eta_n / L with eta_n the product of eta' along the
    first n steps.  A word is usable when some depth found pool leaves
    from other tubes; with no pool none is.
    """
    m, length = digits.shape
    if length <= n_max:
        raise WordTooShortError("past must be longer than the test depth")
    worst = np.full(m, math.inf)
    usable = np.zeros(m, dtype=bool)
    if pool is None or pool.size == 0 or n_max < n_min:
        return worst, usable
    chain = [np.full(m, np.mod(x, TWO_PI), dtype=float)]
    for k in range(1, n_max + 1):
        chain.append(spec.eta_inverse_lift(
            chain[-1] + TWO_PI * digits[:, length - k]))
    eta = np.cumprod(spec.eta_prime(np.stack(chain[1:], axis=1)), axis=1)
    for n in range(n_min, n_max + 1):
        dist = _nearest_crossings(spec, digits[:, :length - n], pool, chain[n])
        usable |= ~np.isnan(dist)
        ratio = dist * eta[:, n - 1] / L
        worst = np.where(np.isfinite(ratio), np.minimum(worst, ratio), worst)
    return worst, usable


def strong_lipschitz_test(spec: SolenoidSpec, past: Word, n_max: int,
                          L: float, pool: GammaPool, x: float = 0.0,
                          n_min: int = 1) -> StrongLipschitzResult:
    """Backward-orbit margin of a word against the crossing pool.

    For each depth n in [n_min, n_max] the word is shifted back n steps;
    the base position of the shifted point is compared with the crossings
    of its remaining leaf against pool leaves from other generation-one
    tubes.  The x-distance must stay above L / eta_n with eta_n the base
    expansion along the dropped steps; returned is the worst ratio
    min_n dist * eta_n / L (so the pool window, not L, bounds the search
    and the ratio is exactly linear in 1/L).  +inf means no crossing at
    all near the orbit; an unusable pool yields the indeterminate flag.
    """
    worst, usable = _margins(spec, np.array([past.symbols], dtype=int),
                             n_min, n_max, L, pool, x)
    if not usable[0]:
        return StrongLipschitzResult(is_strong=None, worst_margin=math.nan,
                                     indeterminate=True)
    return StrongLipschitzResult(is_strong=bool(worst[0] >= 1.0),
                                 worst_margin=float(worst[0]))


def holonomy_lipschitz_scan(spec: SolenoidSpec, x_src: float, x_dst: float,
                            n: int, pairs: int, seed: int = 0,
                            L: float = 0.5, pool: GammaPool | None = None,
                            gamma_budget: int = 24,
                            gamma_depth: int = 10) -> HolonomyReport:
    """Ratio statistics of the holonomy between two fibers.

    Samples weighted word pairs in the source fiber stratified across
    dyadic separation scales (partners share a growing number of recent
    symbols), slides both along their leaves to the destination fiber,
    and buckets dist(q, q')/dist(p, p') by the dyadic scale of the source
    separation.  Each sampled word is also run through the
    strong-Lipschitz margin test at depth n//2 (all words in one batched
    pass); the failing words are the flagged set, whose sampled weight
    estimates the Gibbs mass of the weak non-Lipschitz part at this
    generation.
    """
    rng = np.random.default_rng(seed)
    if pool is None:
        pool = build_gamma_pool(spec, gamma_depth, gamma_budget, seed=seed + 1)
    weights = gibbs_weight_array(spec, _phi_exponent(spec, n), n)
    idx_a = rng.choice(weights.size, size=pairs, replace=True, p=weights)
    share = rng.integers(0, n, size=pairs)  # shared recent depth
    d = spec.d

    drawn = []
    for i, j_share in zip(idx_a, share):
        block = d ** int(j_share)
        # partner: same most recent j_share symbols, different next digit
        digit = (i // block) % d
        new_digit = (digit + 1 + rng.integers(0, d - 1)) % d
        deep = rng.integers(0, max(1, weights.size // (block * d)))
        j = int(deep) * block * d + int(new_digit) * block + int(i % block)
        if j != i and j < weights.size:
            drawn.append((int(i), j))
    ys, zs = leaf_states(spec, np.array(
        [Word.from_index(k, d, n).symbols for pair in drawn for k in pair],
        dtype=int).reshape(-1, n), np.array([x_src, x_dst], dtype=float))
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

    words = {i: Word.from_index(i, d, n) for i in tested}
    test_depth = max(1, n // 2)
    worst, usable = _margins(spec, np.array(
        [w.symbols for w in words.values()], dtype=int).reshape(-1, n),
        test_depth, test_depth, L, pool, x_src)
    failing = {i for i, w, u in zip(words, worst, usable) if u and w < 1.0}
    flagged = [w for i, w in words.items() if i in failing]
    flagged_hits = sum(i in failing for i in tested)

    for stats in scale_stats.values():
        stats["ratio_mean"] = stats["ratio_sum"] / stats["count"]
        del stats["ratio_sum"]
    flagged_weight = flagged_hits / len(tested) if tested else 0.0
    return HolonomyReport(
        x_src=float(x_src), x_dst=float(x_dst), scale_stats=scale_stats,
        strong_lipschitz_fraction=1.0 - flagged_weight,
        flagged_words=flagged, flagged_weight=float(flagged_weight))
