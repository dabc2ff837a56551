"""Attractor point clouds, box-counting fits, and measure-density statistics.

Cloud representatives come from the disc-center anchor construction, so a
generation-n slice cloud approximates the attractor's stable section at
resolution (sup lam')**n.  One counter serves every fit: it counts the
boxes of an origin-anchored dyadic grid met by chords, every level from
one fine pass, a point being a chord of length zero.  `box_dimension`
fits slice and projection clouds, whose chords are their points.  The
full attractor is never held: `attractor_cloud` streams it in chunks of
whole fibres, and the same word over adjacent fibers lies on one leaf,
so `attractor_dimension` counts the leaf chords between adjacent fibers,
down to max((sup lam')**n, chord error), well below the fiber spacing.
Only `_sweep` knows the stream is whole fibres in x order: one window
per chunk gives the chord error and the chords, and the counter drops
each box column the sweep has passed.  The scale window is auto-selected
away from the too-few-boxes and saturation regimes and never descends
below the cloud's stated resolution.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .coding import _check_cap, word_representatives
from .errors import ResolutionError
from .maps import SolenoidSpec
from .numerics import TWO_PI
from .thermo import _sample_words, birkhoff_table, build_gibbs_model

BOUND_FACTOR = 16.0  # see local_density_stats
GROWTH_FACTOR = 2.0

# Points per chunk of whole fibres while building or scanning a full cloud.
_CLOUD_CHUNK = 1 << 15


@dataclass(frozen=True)
class PointCloud:
    """A finite sample of the attractor (or of a slice/projection of it)."""

    points: np.ndarray        # (N, dim)
    provenance: dict
    resolution: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
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


def slice_cloud(spec: SolenoidSpec, x: float, n: int) -> PointCloud:
    """One representative (y, z) per generation-n backward word over fiber x."""
    if n < 0:
        raise ValueError("generation must be >= 0")
    _check_cap(spec.d, n)
    x = float(np.mod(x, TWO_PI))
    y, z = word_representatives(spec, np.array([x]), n)
    pts = np.column_stack([y[0], z[0]])
    return PointCloud(
        points=pts,
        provenance={"spec_hash": spec.spec_hash(), "generation": n,
                    "fiber": x},
        resolution=spec.contraction_sup() ** n)


def attractor_cloud(spec: SolenoidSpec, n: int, xs: np.ndarray):
    """The full attractor cloud over the fibres xs, as a stream of chunks.

    Each chunk is a (fibres, d**n, 3) array of runs of whole fibres of at
    most _CLOUD_CHUNK points (at least one fibre): row w of fibre x holds
    word w over x, and the chunks come in the order of xs.  The descent
    lifts every fibre by the same x + 2*pi*b, so word w over adjacent
    fibres lies on one continuous leaf.  Each chunk is built only when the
    caller asks for it; `attractor_dimension` sweeps this stream, and
    nothing holds the whole cloud.
    """
    step = max(1, _CLOUD_CHUNK // spec.d ** n)
    for start in range(0, xs.size, step):
        yield _build_fibres(spec, n, xs[start:start + step])


def _build_fibres(spec: SolenoidSpec, n: int, xs: np.ndarray) -> np.ndarray:
    """Every generation-n word over each fibre of xs: (len(xs), d**n, 3).

    Kept out of `attractor_cloud`, whose frame would hold y and z across
    the sweep's work: A's full sweep then took 17.5k page faults, not 1.7k.
    """
    y, z = word_representatives(spec, xs, n)
    block = np.empty(y.shape + (3,))
    block[:, :, 0] = xs[:, None]
    block[:, :, 1] = y
    block[:, :, 2] = z
    return block


def attractor_dimension(spec: SolenoidSpec, n: int, fibers: int,
                        k_scales: int = 12, sink=None,
                        times=None) -> DimensionFit:
    """Box-counting fit of the full attractor over `fibers` equal fibres.

    Fibre f sits at x_f = 2*pi*f/fibers.  N(r) counts the boxes met by the
    leaf chords from word w over one fibre to word w over the next (the
    seam from the last fibre back to 2*pi is left out, because the word
    labels permute there), so the window reaches below the fibre spacing;
    it is fitted as in `box_dimension`.  The resolution is
    max((sup lam')**n, chord error), where the chord error estimates how
    far a chord strays from its leaf arc and is read by the main pass of
    `_sweep`; with fewer than three fibres it is max(fibre spacing,
    (sup lam')**n), which leaves no level to count.

    One sweep over the chunks of `attractor_cloud`: each chunk is built,
    passed to `sink(block)` (a (fibres, d**n, 3) array, in row order),
    read for the chord error and fed to one box counter, then dropped.
    The counter's boxes live on the grid over the solid torus
    [0, 2*pi) x (-1, 1)**2, and it keeps only the band of box columns the
    sweep has not yet passed (`_BoxCounter`), so memory is a few chunks
    and one band, not the cloud.  The pass level is predicted from the
    middle sixteenth of the fibre gaps, built first; the resolution, and
    so the finest level, is known only once the sweep has read every
    chord error, and finer levels are then dropped.  Every count is exact
    whatever the pass level.  In the rare case that the pass stops short
    of |cloud|/4 boxes, the chunks are built again for a finer pass,
    without `sink`.

    `times`, if given, is a dict that gains the seconds spent on "build"
    (building chunks and reading the chord error), "count" and "sink".
    The freed heap goes back to the system after the fit
    (`_release_heap`), outside those laps.
    """
    if fibers <= 0:
        raise ValueError("fiber count must be positive; empty cloud requested")
    _check_cap(spec.d, n, fibers)
    n_max = _fit_limit(fibers * spec.d ** n, k_scales)
    lap = _lap_clock(times)
    xs = _fibre_xs(fibers)

    def blocks(fib):
        return attractor_cloud(spec, n, xs[fib])

    level = -1
    if fibers >= 3:
        bound = _finest(spec.contraction_sup() ** n, _TORUS)
        if bound >= 0:
            known = _estimate(blocks, xs, bound, lap)
            level = max(0, min(_next_level(known, n_max), bound))
    first, error = _sweep(blocks(slice(None)), level, _TORUS, lap, sink)
    resolution = max(spec.contraction_sup() ** n,
                     error if fibers >= 3 else TWO_PI / fibers)
    counts = _levels(first, _finest(resolution, _TORUS), n_max,
                     lambda lv: _sweep(blocks(slice(None)), lv, _TORUS, lap)[0])
    fit = _fit_counts(counts, n_max, k_scales)
    _release_heap()
    return fit


# Every attractor point lies in the solid torus [0, 2*pi) x (-1, 1)**2.
_TORUS = ((0.0, TWO_PI), (-1.0, 1.0), (-1.0, 1.0))


def _fibre_xs(fibers: int) -> np.ndarray:
    return TWO_PI * np.arange(fibers) / fibers


def _lap_clock(times):
    """lap(key) adds the seconds since the last lap to times[key].

    With times None, lap does nothing.
    """
    if times is None:
        return lambda key: None
    last = time.perf_counter()

    def lap(key):
        nonlocal last
        now = time.perf_counter()
        times[key] = times.get(key, 0.0) + now - last
        last = now
    return lap


def project_cloud(cloud: PointCloud, cols) -> PointCloud:
    """Coordinate projection of a cloud (e.g. cols=(1,) for the y-axis)."""
    return PointCloud(points=cloud.points[:, tuple(cols)],
                      provenance=dict(cloud.provenance),
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
    the last mixed-radix digit).  Which boxes count: see `_BoxCounter`.
    """
    d = b - a
    ka = np.floor(a).astype(np.int64)
    cut, run = axes[:-1], axes[-1]
    # Per chord and cut axis: the parameter at plane p is p * scale + base,
    # and a run in cell k leaves it at plane k + up (never, if d == 0), the
    # same float as the next run's start.
    moving = d != 0
    scale = np.divide(1.0, d, out=np.zeros_like(d), where=moving)
    base = np.where(moving, -a * scale, np.inf)
    up = d > 0
    starts, ends = [], []

    def add_runs(own, t, cells):
        take = (lambda v: v) if own is None else (lambda v: v.take(own))
        end = np.ones(t.size)
        for c in cut:
            np.minimum(end, (cells[c] + take(up[c])) * take(scale[c])
                       + take(base[c]), out=end)
        ar, dr = take(a[run]), take(d[run])
        first = np.floor(ar + t * dr).astype(np.int64)
        # A run that reaches the chord's end ends in b's cell, where
        # a + 1.0 * (b - a) may round into the cell before it.
        last = np.floor(np.where(end < 1.0, ar + end * dr, take(b[run])))
        last = last.astype(np.int64)
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


@functools.cache
def _keep_heap():
    """Free an untouched 2 MB block once per process.

    glibc raises its mmap threshold to the size of the largest mapped
    block freed, and its heap-trim threshold to twice that.  Left at
    their defaults, the heap is trimmed after nearly every block of chord
    runs and the next block faults its temporaries in afresh: on
    `report_a`'s 1M-point sweep, 78k minor faults against 15k, and 30 to
    150 ms more.  A larger block keeps more freed memory resident (3 MB
    already raised that report's peak RSS by 2.7 MB).  `_release_heap`
    hands the freed heap back once the sweep is over.
    """
    np.empty(1 << 18)


def _release_heap():
    """Return the freed heap to the system, where the C library allows it.

    The sweep keeps up to 4 MB of freed heap resident (`_keep_heap`).
    Whether the work after it grew on top of that depended on where
    earlier allocations happened to fall: on a 2-vCPU Linux machine,
    `report_a`'s peak RSS read 40.4 or 45.1 MB, changing with the length
    of its directory's name and between runs.  Without glibc's
    `malloc_trim` this does nothing.
    """
    try:
        import ctypes
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


class _BoxCounter:
    """Exact box counts at `level` and every coarser one, fed in sweep order.

    N(r) is the number of boxes of the origin-anchored grid that the
    chords meet.  Boxes are half-open floor cells, [k*r, (k+1)*r) on each
    axis, and runs follow axis 0: a chord is cut where it crosses a plane
    of another axis, and each run meets the axis-0 cells from the floor at
    its start to the floor at its end.  For a chord in general position
    those are exactly the boxes holding its points, both ends included (a
    point is a chord of length zero).  A chord through a grid edge, where
    planes of two axes meet, may meet one box more there, beside the
    edge.  A run ends at the very float at which the next one starts, so
    a chord that passes within rounding of an edge meets as many boxes as
    its points do, on the side of the edge that rounding picks.  A box's
    key mixes its cells on the grid over the fixed `box` ((lo, hi) per
    axis, holding every chord), axis 0 as the last digit, so a run of
    boxes along axis 0 is one interval of keys.  Each level keeps a band
    of disjoint key intervals.  `close(x)` is told that no chord fed
    later reaches below x on axis 0 (rounding may still put one of its
    runs one cell lower): it counts and drops every box of the finest
    band whose axis-0 cell lies below that, halves those boxes to the
    next coarser level, and repeats there with the cell index halved,
    since later boxes of the finer level halve to cells at or above it.
    Each closed box is counted once at every level, and a sweep in axis-0
    order keeps only the open columns in each band.
    """

    def __init__(self, level: int, box):
        _keep_heap()
        self.level = level
        self.axes = list(range(1, len(box))) + [0]
        r = 2.0 ** -level
        lo, hi = (np.floor(np.array([box[c][k] for c in self.axes]) / r)
                  .astype(np.int64) for k in (0, 1))
        self.grids = [(lo, hi - lo + 1)]
        for _ in range(level):
            self.grids.append(_coarser(*self.grids[-1]))
        empty = np.empty(0, dtype=np.int64)
        self.bands = [(empty, empty)] * (level + 1)
        self.totals = [0] * (level + 1)
        self.pending = []

    def add(self, a: np.ndarray, b: np.ndarray):
        """Feed the chords from each row of a to the same row of b.

        A point is fed as a chord of length zero (b is a).
        """
        if len(a) == 0:
            return
        r = 2.0 ** -self.level
        lo, spans = self.grids[0]
        # A chord makes one run plus one per plane crossed off axis 0.
        spread = 0.0 if a is b else sum(
            float(np.abs(b[:, c] - a[:, c]).mean()) for c in self.axes[:-1])
        # Equal blocks of at most _CHORD_BLOCK runs (as estimated).
        parts = math.ceil(len(a) * (1.0 + spread / r) / _CHORD_BLOCK)
        step = -(-len(a) // parts)
        for s in range(0, len(a), step):
            self.pending.append(_chord_runs(
                (a[s:s + step] / r).T.copy(), (b[s:s + step] / r).T.copy(),
                self.axes, lo, spans))
            # Merge once the new runs outnumber the merged ones.
            if (sum(p[0].size for p in self.pending)
                    >= self.bands[0][0].size):
                self._merge()

    def _merge(self):
        if not self.pending:
            return
        parts = [self.bands[0]] + self.pending
        self.bands[0] = _union(np.concatenate([p[0] for p in parts]),
                               np.concatenate([p[1] for p in parts]))
        self.pending = []

    def close(self, x: float = math.inf):
        """Count and drop the boxes that no chord fed after this can meet."""
        self._merge()
        edge = (math.floor(x * 2.0 ** self.level) - 1 if x < math.inf
                else None)
        for i, (lo, spans) in enumerate(self.grids):
            starts, ends = self.bands[i]
            if edge is None:
                cut = ends + 1
            else:
                # The first key of each interval whose axis-0 cell is edge.
                cut = np.clip(starts + (edge - lo[-1] - starts % spans[-1]),
                              starts, ends + 1)
                edge >>= 1
            done = np.flatnonzero(cut > starts)
            if done.size == 0:
                continue
            self.totals[i] += int(np.sum(cut[done] - starts[done]))
            keep = cut <= ends
            self.bands[i] = (cut[keep], ends[keep])
            if i < self.level:
                halves = _halve(starts[done], cut[done] - 1, lo, spans)
                coarse = self.bands[i + 1]
                self.bands[i + 1] = _union(
                    np.concatenate([coarse[0], halves[0]]),
                    np.concatenate([coarse[1], halves[1]]))

    def counts(self) -> dict:
        """{j: N(2**-j)} for j = level .. 0, once every chord is fed."""
        self.close()
        return {self.level - i: c for i, c in enumerate(self.totals)}


def _coarser(lo, spans):
    """The grid one dyadic level up from the cells lo .. lo + spans - 1."""
    new_lo = lo >> 1
    return new_lo, ((lo + spans - 1) >> 1) - new_lo + 1


def _halve(starts, ends, lo, spans):
    """The same boxes one dyadic level up, as key intervals."""
    cells, keys = [], starts
    for c in range(len(spans) - 1, -1, -1):
        cells.append(keys % spans[c] + lo[c])
        keys = keys // spans[c]
    cells.reverse()
    last = cells[-1] + (ends - starts)  # run-axis cell at each interval's end
    new_lo, new_spans = _coarser(lo, spans)
    new_starts = _mix([(cl >> 1) - l for cl, l in zip(cells, new_lo)], new_spans)
    return _union(new_starts, new_starts + (last >> 1) - (cells[-1] >> 1)) + (
        new_lo, new_spans)


def _sweep(blocks, level: int, box, lap, sink=None):
    """Counts at level .. 0 of the leaf chords between adjacent fibres.

    blocks yields chunks of whole fibres, (fibres, words, dim), in
    increasing axis-0 order, so a chunk's last fibre bounds axis 0 of every
    later fibre from below.  Each chunk goes to `sink` (if given) and then
    forms one window behind the last two fibres before it: the counter is
    fed the window's chords from the last fibre before the chunk on, and
    closes at the chunk's last fibre.  A negative level counts nothing.

    Returns (counts, chord error): an arc whose second difference across
    adjacent fibres (word by word) is D2 strays from its chord by about
    |D2|/8, exact for a parabola, so the chord error is the largest |D2|/8
    over the windows (0 below three fibres).  An estimate, not a bound: it
    reads the curvature off the samples themselves.
    """
    counter = _BoxCounter(level, box) if level >= 0 else None
    tail, worst = None, 0.0
    for block in blocks:
        lap("build")
        if sink is not None:
            sink(block)
            lap("sink")
        window = block if tail is None else np.concatenate([tail, block])
        tail = window[-2:]  # a view, so the carried copy is freed here
        worst = max(worst, _largest_d2(window))
        lap("build")
        if counter is not None:
            flat, first = (-1, window.shape[-1]), len(window) - len(block)
            counter.add(window[max(first - 1, 0):-1].reshape(flat),
                        window[max(first, 1):].reshape(flat))
            counter.close(block[-1, 0, 0])
            lap("count")
        tail, window = tail.copy(), None  # neither held in the next build
    counts = counter.counts() if counter is not None else {}
    lap("count")
    return counts, math.sqrt(worst) / 8.0


def _largest_d2(window: np.ndarray) -> float:
    """Largest squared second difference across fibres, word by word."""
    if len(window) < 3:
        return 0.0
    sq = np.zeros((len(window) - 2, window.shape[1]))
    for c in range(window.shape[2]):
        d2 = window[:-2, :, c] - 2.0 * window[1:-1, :, c] + window[2:, :, c]
        sq += d2 * d2
    return float(sq.max())


def _estimate(blocks, xs, finest: int, lap) -> dict:
    """Counts extrapolated from the chords of the middle sixteenth of the gaps.

    blocks(fib) yields the chunks of the fibres xs[fib] (each at its x).
    """
    gaps = len(xs) - 1
    sample = max(1, gaps // 16)
    first = (gaps - sample) // 2
    fib = slice(first, first + sample + 1)
    # Two levels below the typical chord length, where gaps share few boxes.
    length = float(np.abs(np.diff(xs[fib])).mean())
    level = math.ceil(-math.log2(length)) + 2 if length > 0 else 0
    counts = _sweep(blocks(fib), max(0, min(level, finest)), _TORUS, lap)[0]
    return {lv: c * gaps / sample for lv, c in counts.items()}


def _next_level(known: dict, n_max: float) -> int:
    """The first level predicted to pass n_max from the counts known.

    At most three levels (8x the work) past the finest known one.
    """
    top = max(known)
    over = [lv for lv, c in known.items() if c > n_max]
    growth = max(known[top] / max(known.get(top - 1, 1), 1), 1.5)
    return min(over) if over else top + min(3, math.ceil(
        math.log(n_max / known[top]) / math.log(growth)))


def _finest(resolution: float, box) -> int:
    """The finest level j with 2**-j at or above the resolution, or -1.

    Box keys are int64: no level whose grid over the box has 2**63 boxes.
    """
    finest = max((j for j in range(48)
                  if 2.0 ** -j >= resolution * (1.0 - 1e-12)), default=-1)
    while finest >= 0 and math.prod(
            math.floor(hi * 2.0 ** finest) - math.floor(lo * 2.0 ** finest) + 1
            for lo, hi in box) >= 2 ** 63:
        finest -= 1
    return finest


def _levels(first: dict, finest: int, n_max: float, count_pass) -> dict:
    """Levels 0 up to the first count above n_max, or up to finest.

    first holds exact counts at levels 0 .. some pass level;
    count_pass(level) counts level .. 0 when a finer pass is needed.
    """
    counts, j = {lv: c for lv, c in first.items() if lv <= finest}, 0
    while j <= finest:
        if j not in counts:
            counts.update(count_pass(
                max(j, min(_next_level(counts, n_max), finest))))
        if counts[j] > n_max:
            break
        j += 1
    return {lv: counts[lv] for lv in range(min(j, finest) + 1)}


def _cloud_counts(points: np.ndarray, resolution: float,
                  n_max: float) -> dict:
    """Box counts {j: N(2**-j)} of the points, from one `_BoxCounter` pass.

    Levels 0 up to the first count above n_max are returned, or up to the
    finest level with 2**-j at or above the resolution and fewer than
    2**63 grid boxes over the points' bounding box, so that box keys fit
    an int64 (none if the resolution exceeds 1).  The pass counts the
    finest level and halves its boxes to every coarser one.
    """
    dim = points.shape[1]
    box = [(points[:, c].min(), points[:, c].max()) for c in range(dim)]
    finest = _finest(resolution, box)
    if finest < 0:
        return {}
    counter = _BoxCounter(finest, box)
    counter.add(points, points)
    return _levels(counter.counts(), finest, n_max, None)


def _fit_limit(size: int, k_scales: int) -> float:
    """The count limit n_max = |cloud|/4 of a fit, once its inputs pass."""
    if size < 100:
        raise ValueError("need at least 100 points for a box-dimension fit")
    if k_scales < 5:
        raise ValueError("need at least 5 scales")
    return max(2.0, size / 4.0)


def box_dimension(cloud: PointCloud, k_scales: int = 12) -> DimensionFit:
    """Least-squares slope of log N(r) against log(1/r) over dyadic scales.

    N(r) is the number of boxes of the origin-anchored grid of side r that
    hold a point of the cloud (a slice or a projection; the full attractor
    is fitted by `attractor_dimension`, which counts leaf chords).  Scales
    r = 2**-j are kept while 2 <= N(r) <= |cloud|/4 and r stays at or
    above the cloud resolution; of those, the finest k_scales enter the
    fit.  A cloud occupying a single box at every scale fits slope 0.
    Each scale is one count, not a mean over shifted grids; all come from
    one pass of the counter that `attractor_dimension` sweeps, its keys on
    the grid over the cloud's bounding box (`_cloud_counts`).
    """
    n_max = _fit_limit(len(cloud), k_scales)
    return _fit_counts(_cloud_counts(cloud.points, cloud.resolution, n_max),
                       n_max, k_scales)


def _fit_counts(levels: dict, n_max: float, k_scales: int) -> DimensionFit:
    """The fit of `box_dimension` to the counts {j: N(2**-j)}."""
    counts = {2.0 ** -j: float(c) for j, c in levels.items()}
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
    picks = _sample_words(spec, n, np.random.default_rng(seed), samples)

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
        samples=samples)


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
    _check_cap(spec.d, n, x_samples)
    count = spec.d ** n
    half = np.exp(birkhoff_table(spec, n).lam_sup)
    y, _ = word_representatives(spec, _fibre_xs(x_samples), n)

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
