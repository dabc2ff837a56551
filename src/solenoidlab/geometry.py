"""Attractor point clouds, box-counting fits, and measure-density statistics.

Cloud representatives come from the disc-center anchor construction, so a
generation-n slice cloud approximates the attractor's stable section at
resolution (sup lam')**n.  One counter serves every cloud: it counts the
boxes of an origin-anchored dyadic grid met by the segments from row i to
row i + stride, every level from one fine pass.  A slice or projection
cloud has stride 0, so its segments are its points.  A full attractor
cloud is fibre-major: the same word over adjacent fibers lies on one
leaf, so its segments are the leaf chords between adjacent fibers
(stride = words) and its floor is max((sup lam')**n, chord error), well
below the fiber spacing.  The scale window is auto-selected away from the
too-few-boxes and saturation regimes and never descends below the
cloud's stated resolution.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coding import _check_cap, word_representatives
from .errors import ResolutionError
from .maps import SolenoidSpec
from .numerics import TWO_PI
from .thermo import birkhoff_table, build_gibbs_model

BOUND_FACTOR = 16.0  # see local_density_stats
GROWTH_FACTOR = 2.0

# Points per chunk of whole fibres while building or scanning a full cloud.
_CLOUD_CHUNK = 1 << 15


@dataclass(frozen=True)
class PointCloud:
    """A finite sample of the attractor (or of a slice/projection of it)."""

    dim: int
    points: np.ndarray
    provenance: dict
    resolution: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError("points must have shape (N, dim)")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class DimensionFit:
    slope: float
    r2: float
    scale_lo: float
    scale_hi: float
    counts: dict

    def to_dict(self):
        return {"slope": self.slope, "r2": self.r2,
                "scale_lo": self.scale_lo, "scale_hi": self.scale_hi,
                "counts": {f"{r:.10g}": c for r, c in self.counts.items()}}


def slice_cloud(spec: SolenoidSpec, x: float, n: int) -> PointCloud:
    """One representative (y, z) per generation-n backward word over fiber x."""
    if n < 0:
        raise ValueError("generation must be >= 0")
    _check_cap(spec.d ** n)
    x = float(np.mod(x, TWO_PI))
    y, z = word_representatives(spec, np.array([x]), n)
    pts = np.column_stack([y[0], z[0]])
    return PointCloud(
        dim=2, points=pts,
        provenance={"spec_hash": spec.spec_hash(), "generation": n,
                    "fiber": x},
        resolution=spec.contraction_sup() ** n)


def attractor_cloud(spec: SolenoidSpec, n: int, fibers: int,
                    threads: int = 1) -> PointCloud:
    """Union of slice clouds over equally spaced fibers, as 3D points.

    Rows are fibre-major: row f * d**n + w holds word w over fiber
    x_f = 2*pi*f/fibers.  The descent lifts every fiber by the same
    x + 2*pi*b, so word w over x_f and over x_(f+1) lie on one continuous
    leaf.  With three or more fibers that layout is recorded in the
    provenance ("fiber_major") and the resolution is
    max((sup lam')**n, chord error), where the chord error is an estimate
    of how far a straight chord between adjacent fibers strays from its
    leaf arc (see `_chord_error`).  With fewer fibers the resolution is
    max(fiber spacing, (sup lam')**n).

    The cloud is built, and its chord error read, in chunks of whole
    fibres of at most _CLOUD_CHUNK points, so no temporary spans the whole
    cloud.  `threads` sets only how many workers map over those chunks:
    the chunks, and every bit of the result, are the same for any value.
    """
    if fibers <= 0:
        raise ValueError("fiber count must be positive; empty cloud requested")
    _check_cap(fibers * spec.d ** n)
    words = spec.d ** n
    xs = TWO_PI * np.arange(fibers) / fibers
    grid = np.empty((fibers, words, 3))

    def build(rows):
        y, z = word_representatives(spec, xs[rows], n)
        block = grid[rows]
        block[:, :, 0] = xs[rows, None]
        block[:, :, 1] = y
        block[:, :, 2] = z

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(build, _fibre_chunks(fibers, words)))
    pts = grid.reshape(-1, 3)
    provenance = {"spec_hash": spec.spec_hash(), "generation": n,
                  "fiber": "full"}
    if fibers >= 3:
        provenance["fiber_major"] = {"fibers": fibers, "words": words}
        resolution = max(spec.contraction_sup() ** n,
                         _chord_error(pts, fibers, words))
    else:
        resolution = max(TWO_PI / fibers, spec.contraction_sup() ** n)
    return PointCloud(dim=3, points=pts, provenance=provenance,
                      resolution=resolution)


def _fibre_chunks(fibers: int, words: int) -> list:
    """Runs of whole fibres of at most _CLOUD_CHUNK points, at least one fibre."""
    step = max(1, _CLOUD_CHUNK // words)
    return [slice(f, min(f + step, fibers)) for f in range(0, fibers, step)]


def _chord_error(points: np.ndarray, fibers: int, words: int) -> float:
    """Estimated largest gap between a leaf chord and its leaf arc.

    Over one fiber spacing an arc whose second difference across adjacent
    fibers (word by word) is D2 strays from its chord by about |D2|/8, the
    exact value for a parabola.  This is an estimate, not a bound: it
    reads the curvature off the samples themselves.  The differences are
    taken over chunks of fibres, each reading two fibres past its end.
    """
    grid = points.reshape(fibers, words, -1)
    worst = 0.0
    for rows in _fibre_chunks(fibers - 2, words):
        g = grid[rows.start:rows.stop + 2]
        sq = np.zeros((g.shape[0] - 2, words))
        for c in range(g.shape[2]):
            d2 = g[:-2, :, c] - 2.0 * g[1:-1, :, c] + g[2:, :, c]
            sq += d2 * d2
        worst = max(worst, float(sq.max()))
    return math.sqrt(worst) / 8.0


def project_cloud(cloud: PointCloud, cols) -> PointCloud:
    """Coordinate projection of a cloud (e.g. cols=(1,) for the y-axis).

    The provenance, fibre-major layout included, carries over: a chord
    projects to the chord of the projected points.
    """
    cols = tuple(cols)
    pts = cloud.points[:, cols]
    prov = dict(cloud.provenance)
    prov["projection"] = cols
    return PointCloud(dim=len(cols), points=pts, provenance=prov,
                      resolution=cloud.resolution)


def _mix(cols, spans) -> np.ndarray:
    """One integer key per box from its per-axis indices (mixed radix)."""
    key = cols[0]
    for c in range(1, len(cols)):
        key = key * spans[c] + cols[c]
    return key


# Chord runs generated per block of chords while counting.
_CHORD_BLOCK = 1 << 15


def _crossings(ka: np.ndarray, kb: np.ndarray):
    """Grid planes crossed going from cell ka to cell kb, one row per plane.

    Returns (owner, cell, plane): the index into ka of the move, the cell
    entered on crossing, and the plane crossed.
    """
    n = np.abs(kb - ka)
    owner = np.repeat(np.arange(n.size), n)
    step = np.sign(kb - ka)[owner]
    rank = np.arange(1, owner.size + 1) - np.repeat(np.cumsum(n) - n, n)
    cell = ka[owner] + step * rank
    return owner, cell, cell + (step < 0)


def _union(starts: np.ndarray, ends: np.ndarray):
    """Disjoint sorted integer intervals covering the union of [starts, ends].

    Starts and ends are sorted independently: the k smallest ends belong to
    the k earliest intervals exactly where coverage drops to zero.  Touching
    intervals are not merged, so no result spans two key lines.
    """
    if starts.size == 0:
        return starts, ends
    starts, ends = np.sort(starts), np.sort(ends)
    gap = np.flatnonzero(starts[1:] > ends[:-1])
    return starts[np.append(0, gap + 1)], ends[np.append(gap, ends.size - 1)]


def _chord_runs(a: np.ndarray, b: np.ndarray, axes, lo, spans):
    """Boxes met by the chords a[:, i] -> b[:, i] (grid units), as key intervals.

    a and b hold one row per axis.  A chord is cut into runs wherever it
    crosses a grid plane of an axis other than the run axis axes[-1]; along
    each run the other cells stay fixed and the run-axis cells form one
    contiguous range, so a run is one interval of box keys (the run axis is
    the last mixed-radix digit).  Exact for chords in general position.
    """
    d = b - a
    ka = np.floor(a).astype(np.int64)
    cut, run = axes[:-1], axes[-1]
    # Per chord and cut axis: the parameter at plane p is p * scale + base,
    # and a run in cell k leaves it at k * scale + shift (never, if d == 0).
    moving = d != 0
    scale = np.divide(1.0, d, out=np.zeros_like(d), where=moving)
    base = -a * scale
    shift = np.where(moving, (d > 0) * scale + base, np.inf)
    starts, ends = [], []

    def add_runs(own, t, cells):
        take = (lambda v: v) if own is None else (lambda v: v.take(own))
        end = np.ones(t.size)
        for c in cut:
            np.minimum(end, cells[c] * take(scale[c]) + take(shift[c]), out=end)
        ar, dr = take(a[run]), take(d[run])
        first = np.floor(ar + t * dr).astype(np.int64)
        last = np.floor(ar + end * dr).astype(np.int64)
        cells[run] = np.minimum(first, last)
        key = _mix([cells[c] - lo[i] for i, c in enumerate(axes)], spans)
        starts.append(key)
        ends.append(key + np.abs(last - first))

    # Runs start at the chord's start and past every plane of a cut axis.
    add_runs(None, np.zeros(a.shape[1]), dict(enumerate(ka)))
    for c in cut:
        own, entered, plane = _crossings(ka[c], np.floor(b[c]).astype(np.int64))
        t = plane * scale[c].take(own) + base[c].take(own)
        cells = {cc: entered if cc == c else
                 np.floor(a[cc].take(own) + t * d[cc].take(own)).astype(np.int64)
                 for cc in cut}
        add_runs(own, t, cells)
    return _union(np.concatenate(starts), np.concatenate(ends))


def _dyadic_counts(points: np.ndarray, stride: int, resolution: float,
                   n_max: float) -> dict:
    """Box counts {j: N(2**-j)} of the segments from row i to row i + stride.

    N(r) is the number of boxes of the origin-anchored grid that the
    segments meet, end points included.  With stride 0 every segment is a
    point, so N(r) counts the boxes holding points.  A fibre-major cloud
    has stride = words: each segment is the leaf chord from a word over
    one fiber to the same word over the next, and the seam gap from the
    last fiber back to 2*pi is left out, because the word labels permute
    there.  Levels 0 up to the first count above n_max are returned, or up
    to the finest level with 2**-j at or above the resolution and fewer
    than 2**63 grid boxes over the points' bounding box, so that box keys
    fit an int64 (none if the resolution exceeds 1).

    One fine pass counts a level and every coarser one by halving box
    indices, exact for dyadic r.  A point is one run at every level, so a
    point cloud takes a single pass at the finest level.  For chords the
    pass level is the first one predicted to pass n_max (first from the
    middle sixteenth of the chords), so one pass usually serves the whole
    fit; the prediction steers only the cost, never the counts.
    """
    segments = points.shape[0] - stride
    gap, extent = np.empty(segments), np.empty(points.shape[1])
    for c in range(points.shape[1]):
        np.subtract(points[stride:, c], points[:segments, c], out=gap)
        extent[c] = np.abs(gap, out=gap).mean()
    del gap  # a whole-cloud buffer: not kept through the passes
    # Cut the segments on every axis but the one they run furthest along.
    run = int(np.argmax(extent))
    axes = [c for c in range(points.shape[1]) if c != run] + [run]
    bounds = [(points[:, c].min(), points[:, c].max()) for c in axes]
    finest = max((j for j in range(48)
                  if 2.0 ** -j >= resolution * (1.0 - 1e-12)), default=-1)
    # Box keys are int64: no level whose grid over the bounds has 2**63 boxes.
    while finest >= 0 and math.prod(
            math.floor(hi * 2.0 ** finest) - math.floor(lo * 2.0 ** finest) + 1
            for lo, hi in bounds) >= 2 ** 63:
        finest -= 1

    def level_counts(level, first=0, stop=segments):
        """Counts at level .. 0 of the boxes met by segments first..stop-1."""
        r = 2.0 ** -level
        lo, hi = (np.floor(np.array(v) / r).astype(np.int64)
                  for v in zip(*bounds))
        spans = hi - lo + 1
        runs_per_segment = 1.0 + float(np.sum(extent[axes[:-1]])) / r
        step = max(1, int(_CHORD_BLOCK / runs_per_segment))
        starts, ends = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for s in range(first, stop, step):
            e = min(s + step, stop)
            block = _chord_runs((points[s:e] / r).T.copy(),
                                (points[s + stride:e + stride] / r).T.copy(),
                                axes, lo, spans)
            starts.append(block[0])
            ends.append(block[1])
            # Merge once the new runs outnumber the merged ones.
            if 2 * starts[0].size <= sum(x.size for x in starts) or e == stop:
                merged = _union(np.concatenate(starts), np.concatenate(ends))
                starts, ends = [merged[0]], [merged[1]]
        boxes, counts = (starts[0], ends[0], lo, spans), {}
        for lv in range(level, -1, -1):
            counts[lv] = int(np.sum(boxes[1] - boxes[0] + 1))
            if lv:
                boxes = _halve(*boxes)
        return counts

    def estimate():
        """Counts extrapolated from the middle sixteenth of the chords."""
        gaps = segments // stride  # whole fibre gaps of a fibre-major cloud
        sample = max(1, gaps // 16)
        first = (gaps - sample) // 2 * stride
        # Two levels below the typical chord length, where gaps share few
        # boxes.
        length = float(np.linalg.norm(extent))
        level = math.ceil(-math.log2(length)) + 2 if length > 0 else 0
        level = max(0, min(level, finest))
        return {lv: c * gaps / sample for lv, c in
                level_counts(level, first, first + sample * stride).items()}

    counts, j = {}, 0
    while j <= finest:
        if j not in counts:
            if stride:
                known = counts or estimate()
                top = max(known)
                over = [lv for lv, c in known.items() if c > n_max]
                growth = max(known[top] / max(known.get(top - 1, 1), 1), 1.5)
                # At most three levels (8x the work) past the finest known one.
                target = min(over) if over else top + min(3, math.ceil(
                    math.log(n_max / known[top]) / math.log(growth)))
            else:
                target = finest  # a point is one run at every level
            counts.update(level_counts(max(j, min(target, finest))))
        if counts[j] > n_max:
            break
        j += 1
    return {lv: counts[lv] for lv in range(min(j, finest) + 1)}


def _halve(starts, ends, lo, spans):
    """The same boxes one dyadic level up, as key intervals."""
    cells, keys = [], starts
    for c in range(len(spans) - 1, -1, -1):
        cells.append(keys % spans[c] + lo[c])
        keys = keys // spans[c]
    cells.reverse()
    last = cells[-1] + (ends - starts)  # run-axis cell at each interval's end
    new_lo = lo >> 1
    new_spans = ((lo + spans - 1) >> 1) - new_lo + 1
    new_starts = _mix([(cl >> 1) - l for cl, l in zip(cells, new_lo)], new_spans)
    return _union(new_starts, new_starts + (last >> 1) - (cells[-1] >> 1)) + (
        new_lo, new_spans)


def box_dimension(cloud: PointCloud, k_scales: int = 12) -> DimensionFit:
    """Least-squares slope of log N(r) against log(1/r) over dyadic scales.

    Scales r = 2**-j are kept while 2 <= N(r) <= |cloud|/4 and r stays at
    or above the cloud resolution; of those, the finest k_scales enter the
    fit.  A cloud occupying a single box at every scale fits slope 0.
    For a fibre-major cloud (provenance "fiber_major", as made by
    `attractor_cloud`) N(r) counts the boxes met by the leaf chords
    between adjacent fibers rather than by the points alone, so the
    window reaches below the fiber spacing; other clouds count points.
    Each scale is one count on the origin-anchored grid, not a mean over
    shifted grids.
    """
    if len(cloud) < 100:
        raise ValueError("need at least 100 points for a box-dimension fit")
    if k_scales < 5:
        raise ValueError("need at least 5 scales")
    n_max = max(2.0, len(cloud) / 4.0)
    stride = 0
    layout = cloud.provenance.get("fiber_major")
    if layout is not None:
        stride = layout["words"]
        if layout["fibers"] * stride != len(cloud) or layout["fibers"] < 2:
            raise ValueError("fibre-major layout does not match the cloud")
    counts = {2.0 ** -j: float(c) for j, c in _dyadic_counts(
        cloud.points, stride, cloud.resolution, n_max).items()}

    valid = [(r, c) for r, c in counts.items() if 2.0 <= c <= n_max]
    if not valid:
        if counts and all(c <= 1.0 for c in counts.values()):
            # Everything in one box at every scale: dimension zero.
            rs = sorted(counts)
            return DimensionFit(slope=0.0, r2=1.0, scale_lo=rs[0],
                                scale_hi=rs[-1], counts=counts)
        raise ValueError("degenerate scale range: no usable dyadic scales")
    if len(valid) < 5:
        raise ValueError(
            f"degenerate scale range: only {len(valid)} usable scales")
    valid = sorted(valid)[:k_scales]  # finest scales first (smallest r)

    rs = np.array([r for r, _ in valid])
    ns = np.array([c for _, c in valid])
    xs = np.log(1.0 / rs)
    ys = np.log(ns)
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DimensionFit(slope=float(max(slope, 0.0)), r2=float(r2),
                        scale_lo=float(rs.min()), scale_hi=float(rs.max()),
                        counts={float(r): float(c) for r, c in valid})


# ---------------------------------------------------------------------------
# Local measure density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    """Statistics of mu(B(p, r)) / r**t0 over weighted sample points."""

    radii: tuple
    t0_mid: float
    ratio_min: tuple
    ratio_median: tuple
    ratio_max: tuple
    frac_bounded: float
    frac_growing: float
    samples: int
    ratios: np.ndarray

    def to_dict(self):
        return {"radii": list(self.radii), "t0_mid": self.t0_mid,
                "ratio_min": list(self.ratio_min),
                "ratio_median": list(self.ratio_median),
                "ratio_max": list(self.ratio_max),
                "frac_bounded": self.frac_bounded,
                "frac_growing": self.frac_growing,
                "samples": self.samples}


def local_density_stats(spec: SolenoidSpec, x: float, n: int, radii,
                        samples: int = 200, seed: int = 0) -> DensityReport:
    """Density ratios of the generation-n Gibbs measure on a stable slice.

    Sample points are drawn with the weights of `build_gibbs_model(spec,
    n)` (fixed seed); for each the measure of the ball of every radius is
    divided by r**t0, t0 the same model's root midpoint.  frac_bounded is
    the fraction of points whose ratio stays within BOUND_FACTOR across
    the radii; frac_growing the fraction whose ratio at the finest radius
    exceeds GROWTH_FACTOR times the coarsest one (density blow-up, the
    overlap signature).
    """
    radii = tuple(float(r) for r in radii)
    if not radii:
        raise ValueError("need at least one radius")
    resolution = spec.contraction_sup() ** n
    below = [r for r in radii if r < resolution]
    if below:
        raise ResolutionError(
            f"radii {below} lie below the generation resolution {resolution:g}")
    model = build_gibbs_model(spec, n)
    warr, t0 = model.weights, model.t0_mid
    reps = slice_cloud(spec, x, n).points
    rng = np.random.default_rng(seed)
    picks = rng.choice(warr.size, size=samples, replace=True, p=warr)

    ratios = np.empty((samples, len(radii)))
    for i, idx in enumerate(picks):
        center = reps[idx]
        d2 = np.sum((reps - center) ** 2, axis=1)
        for k, r in enumerate(radii):
            ratios[i, k] = warr[d2 <= r * r].sum() / r ** t0

    finest = int(np.argmin(radii))
    coarsest = int(np.argmax(radii))
    spread = ratios.max(axis=1) / ratios.min(axis=1)
    growing = ratios[:, finest] > GROWTH_FACTOR * ratios[:, coarsest]
    return DensityReport(
        radii=radii, t0_mid=float(t0),
        ratio_min=tuple(ratios.min(axis=0)),
        ratio_median=tuple(np.median(ratios, axis=0)),
        ratio_max=tuple(ratios.max(axis=0)),
        frac_bounded=float(np.mean(spread <= BOUND_FACTOR)),
        frac_growing=float(np.mean(growing)),
        samples=samples, ratios=ratios)


# ---------------------------------------------------------------------------
# Overlap multiplicity of projected tubes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OverlapReport:
    """Counts of y-projection overlaps between generation-n tubes."""

    n: int
    x_samples: int
    max_order: int
    order_histogram: dict
    max_touch_count: int
    h_n: float

    def to_dict(self):
        return {"n": self.n, "x_samples": self.x_samples,
                "max_order": self.max_order,
                "order_histogram": {str(k): v for k, v in
                                    sorted(self.order_histogram.items())},
                "max_touch_count": self.max_touch_count, "h_n": self.h_n}


def _overlap_codes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Codes i * size + j of the pairs i < j of closed intervals that meet.

    In the stable order by lo, the later intervals meeting the one at
    position p are the run p+1 .. searchsorted(lo, hi[p], "right") - 1:
    the cells that `_crossings` enters going from cell p to the run's end.
    """
    order = np.argsort(lo, kind="stable")
    last = np.searchsorted(lo[order], hi[order], side="right") - 1
    first, second, _ = _crossings(np.arange(lo.size), last)
    a, b = order[first], order[second]
    return np.minimum(a, b) * lo.size + np.maximum(a, b)


def overlap_multiplicity(spec: SolenoidSpec, n: int,
                         x_samples: int) -> OverlapReport:
    """Count tube overlaps in the y-projection across sampled fibers.

    Every generation-n word projects, on each sampled fiber, to the
    interval around its representative's y with the rigorous half-width
    C * exp(sup-sum of log lam'), so overlaps are over- rather than
    under-counted.  A pair counts toward the full-overlap order when it
    touches on every sampled fiber (any symbols: fully overlapping pairs
    necessarily share their recent itinerary, which is what pins both
    tubes to a planar crossing).  Per-fiber touches between cylinders
    with different leading symbol feed the contact counts behind the
    growth exponent h_n = log(max contacts)/n.
    """
    if x_samples < 1:
        raise ValueError("need at least one sampled fiber")
    count = spec.d ** n
    _check_cap(count * x_samples)
    half = np.exp(birkhoff_table(spec, n).lam_sup)
    xs = TWO_PI * np.arange(x_samples) / x_samples
    y, _ = word_representatives(spec, xs, n)

    # Each distinct pair once, with the number of fibers where it touches.
    codes, hits = np.unique(np.concatenate(
        [_overlap_codes(row - half, row + half) for row in y]),
        return_counts=True)
    i, j = np.divmod(codes, count)
    full = hits == x_samples
    full_order = np.bincount(np.append(i[full], j[full]), minlength=count)
    orders, sizes = np.unique(full_order, return_counts=True)
    touch = i % spec.d != j % spec.d  # index mod d: the most recent symbol
    max_touch = int(np.bincount(np.append(i[touch], j[touch])).max(initial=0))
    return OverlapReport(
        n=n, x_samples=x_samples, max_order=int(full_order.max()),
        order_histogram=dict(zip(orders.tolist(), sizes.tolist())),
        max_touch_count=max_touch, h_n=math.log(max(max_touch, 1)) / n)
