import heapq
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from solenoidlab import (CapExceededError, ResolutionError, SolenoidSpec,
                         benchmark_a, benchmark_c)
from solenoidlab import cli, coding, geometry, thermo
from solenoidlab.coding import word_representatives
from solenoidlab.numerics import TWO_PI

T0_A = math.log(2.0) / math.log(2.5)
D3 = SolenoidSpec(d=3, eta_eps=0.4, lam0=0.2, lam1=0.03, lam2=0.02,
                  nu0=0.08, nu2=0.02, u_amp=0.4, v_amp=0.4)


def test_slice_cloud_generation_one():
    cloud = geometry.slice_cloud(benchmark_a(), 0.0, 1)
    pts = sorted(map(tuple, np.round(cloud.points, 12)), reverse=True)
    assert pts[0][0] == pytest.approx(0.5)
    assert pts[1][0] == pytest.approx(-0.5)
    assert cloud.provenance["generation"] == 1


def test_slice_cloud_empty_word_convention():
    cloud = geometry.slice_cloud(benchmark_a(), 1.0, 0)
    assert len(cloud) == 1
    assert tuple(cloud.points[0]) == (0.0, 0.0)


def test_slice_cloud_refinement():
    spec = benchmark_c()
    for n in (4, 7):
        small = geometry.slice_cloud(spec, 0.7, n)
        big = geometry.slice_cloud(spec, 0.7, n + 1)
        assert len(big) == spec.d * len(small)
        # every coarse representative is near some refined representative
        d2 = np.min(
            np.sum((small.points[:, None, :] - big.points[None, :, :]) ** 2,
                   axis=2), axis=1)
        assert np.max(np.sqrt(d2)) <= spec.contraction_sup() ** n


def _streamed(spec, n, fibers, threads=1):
    """Every chunk of `attractor_cloud` over `fibers` equal fibres, joined."""
    return np.concatenate(list(geometry.attractor_cloud(
        spec, n, geometry._fibre_xs(fibers), threads)))


def test_clouds_stay_in_domain():
    spec = benchmark_a()
    sl = geometry.slice_cloud(spec, 2.0, 10)
    assert np.all(np.sum(sl.points ** 2, axis=1) < 1.0)
    full = _streamed(spec, 8, 16).reshape(-1, 3)
    assert len(full) == 16 * 256
    assert np.all(np.sum(full[:, 1:] ** 2, axis=1) < 1.0)
    assert np.all((full[:, 0] >= 0) & (full[:, 0] < 2 * np.pi))


def test_attractor_cloud_single_fiber_matches_slice():
    for spec in (benchmark_a(), benchmark_c()):
        full = _streamed(spec, 6, 1)
        sl = geometry.slice_cloud(spec, 0.0, 6)
        assert np.array_equal(full[0, :, 1:], sl.points)
        assert np.array_equal(full[0, :, 0], np.zeros(len(sl)))


def _whole_chord_error(points, fibers, words):
    """The chord error from whole-cloud second differences: the reference."""
    grid = points.reshape(fibers, words, -1)
    sq = np.zeros((fibers - 2, words))
    for c in range(grid.shape[2]):
        d2 = grid[:-2, :, c] - 2.0 * grid[1:-1, :, c] + grid[2:, :, c]
        sq += d2 * d2
    return float(np.sqrt(sq.max())) / 8.0


def _whole_attractor_cloud(spec, n, fibers):
    """The attractor cloud from one forward pass over every fibre at once.

    Rows are fibre-major: row f * d**n + w holds word w over fibre
    x_f = 2*pi*f/fibers.  Returns the points and the resolution.
    """
    words = spec.d ** n
    xs = TWO_PI * np.arange(fibers) / fibers
    y, z = word_representatives(spec, xs, n)
    grid = np.empty((fibers, words, 3))
    grid[:, :, 0] = xs[:, None]
    grid[:, :, 1] = y
    grid[:, :, 2] = z
    pts = grid.reshape(-1, 3)
    if fibers >= 3:
        resolution = max(spec.contraction_sup() ** n,
                         _whole_chord_error(pts, fibers, words))
    else:
        resolution = max(TWO_PI / fibers, spec.contraction_sup() ** n)
    return pts, resolution


def _traced_dimension(monkeypatch, *args, **kwargs):
    """`attractor_dimension`'s fit (or refusal) and the resolution it used.

    The resolution is the last one whose finest level it looked up.
    """
    seen, finest = [], geometry._finest

    def traced(resolution, box):
        seen.append(resolution)
        return finest(resolution, box)

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_finest", traced)
        fit = _fit_or_refusal(geometry.attractor_dimension, *args, **kwargs)
    return fit, seen[-1]


# Fibre counts off the chunk size, one fibre per chunk (d**16 words exceed
# the chunk), several whole chunks, and the one- and two-fibre layouts.
@pytest.mark.parametrize("spec, n, fibers", [
    (benchmark_a(), 12, 37), (benchmark_a(), 16, 3), (benchmark_c(), 9, 256),
    (benchmark_a(), 10, 1), (benchmark_c(), 10, 2)],
    ids=["A-12-37", "A-16-3", "C-9-256", "A-10-1", "C-10-2"])
def test_chunked_attractor_cloud_matches_whole_build(monkeypatch, spec, n,
                                                     fibers):
    pts, resolution = _whole_attractor_cloud(spec, n, fibers)
    words = spec.d ** n
    step = max(1, geometry._CLOUD_CHUNK // words)
    for threads in (1, 2, 3):
        blocks = list(geometry.attractor_cloud(
            spec, n, geometry._fibre_xs(fibers), threads))
        # Runs of whole fibres of at most _CLOUD_CHUNK points (or one fibre).
        assert [len(b) for b in blocks[:-1]] == [step] * (len(blocks) - 1)
        assert all(b.shape[1:] == (words, 3) for b in blocks)
        assert np.array_equal(np.concatenate(blocks).reshape(-1, 3), pts)
        assert _traced_dimension(monkeypatch, spec, n, fibers,
                                 threads=threads)[1] == resolution


def test_chord_error_reads_across_chunk_ends():
    # A spike on any one fibre sets the largest second difference, so each
    # chunk must carry the last two fibres of the chunks before it, also
    # when a chunk holds fewer than two fibres.
    fibers, words = 11, 64
    grid = np.random.default_rng(5).uniform(-1.0, 1.0, (fibers, words, 3))
    for step in (1, 2, 3, 4, fibers):
        for f in range(fibers):
            pts = grid.copy()
            pts[f, 7, 1] += 100.0
            error = geometry._ChordError()
            for start in range(0, fibers, step):
                error.add(pts[start:start + step])
            assert error.value == _whole_chord_error(
                pts.reshape(-1, 3), fibers, words), (step, f)


def test_attractor_cloud_holds_no_whole_cloud_temporaries():
    # tracemalloc sees numpy buffers: streaming the whole cloud (25 MB)
    # through the chord error holds a few chunks' worth of temporaries.
    spec, error = benchmark_a(), geometry._ChordError()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        for block in geometry.attractor_cloud(
                spec, 12, geometry._fibre_xs(256), 1):
            error.add(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= 6 * geometry._CLOUD_CHUNK * 3 * 8


def test_fused_sweep_holds_no_whole_cloud_state(tmp_path):
    # Counting the cloud and writing its CSV chunk by chunk: the peak above
    # entry stays below a third of the cloud's point bytes, and four times
    # the fibres add at most one chunk.  The once-per-process set-up (the
    # CSV lookup tables and the untouched block of `_keep_heap`) runs first.
    spec, peaks = benchmark_a(), {}
    geometry._keep_heap()
    cli._format_tables()
    for fibers in (64, 256):
        with open(tmp_path / "attractor_cloud.csv", "wb") as fh:
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                geometry.attractor_dimension(
                    spec, 12, fibers,
                    sink=lambda block: cli._fibre_csv_rows(fh, block))
                peaks[fibers] = tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()
    points_bytes = 256 * spec.d ** 12 * 3 * 8
    assert peaks[256] < points_bytes / 3
    assert peaks[256] - peaks[64] <= geometry._CLOUD_CHUNK * 3 * 8


def test_release_heap_hands_back_the_free_top_of_the_heap():
    # glibc only (mallinfo2 since 2.33): after a fit, the free top chunk
    # that `geometry._keep_heap`'s trim threshold lets stay is returned.
    import ctypes

    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("needs glibc's mallinfo2")

    class MallInfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
            "fsmblks", "uordblks", "fordblks", "keepcost")]

    libc.mallinfo2.restype = MallInfo2
    geometry.attractor_dimension(benchmark_a(), 10, 64)
    assert libc.mallinfo2().keepcost < 1 << 16


def test_deep_chord_count_stays_small_in_a_fresh_process():
    # A's chords (depth 12, 256 fibres) down to 2**-12, where they meet
    # 26.5M boxes: the whole-cloud counter held every box interval of that
    # level (536 MB); the sweep holds one band of columns.
    code = (
        "import resource\n"
        "from solenoidlab import benchmark_a, geometry as g\n"
        "xs = g._fibre_xs(256)\n"
        "counts = g._sweep(g.attractor_cloud(benchmark_a(), 12, xs, 1), 12,"
        " g._TORUS, g._lap_clock(None))\n"
        "print(counts[12], counts[9],"
        " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    boxes, fit_level, maxrss_kb = map(int, out.stdout.split())
    assert (boxes, fit_level) == (26517766, 774425)
    assert maxrss_kb / 1024 < 150


def test_attractor_cloud_thread_determinism():
    spec = benchmark_c()
    a = _streamed(spec, 5, 12, threads=1)
    b = _streamed(spec, 5, 12, threads=3)
    assert np.array_equal(a, b)


def test_attractor_cloud_errors():
    # attractor_dimension checks the requested cloud before building any of it.
    with pytest.raises(ValueError, match="empty cloud"):
        geometry.attractor_dimension(benchmark_a(), 4, 0)
    with pytest.raises(CapExceededError):
        geometry.attractor_dimension(benchmark_a(), 20, 64)


def test_cap_counts_fibers_times_words(monkeypatch):
    # 16 fibers x 2**6 words: each is under the cap, their product is not
    spec = benchmark_a()
    monkeypatch.setattr(coding, "ENUMERATION_CAP", 16 * 2 ** 6)
    _fit_or_refusal(geometry.attractor_dimension, spec, 6, 16)
    geometry.overlap_multiplicity(spec, 6, 16)
    monkeypatch.setattr(coding, "ENUMERATION_CAP", 16 * 2 ** 6 - 1)
    with pytest.raises(CapExceededError):
        geometry.attractor_dimension(spec, 6, 16)
    with pytest.raises(CapExceededError):
        geometry.overlap_multiplicity(spec, 6, 16)
    geometry.slice_cloud(spec, 0.0, 6)


def test_box_dimension_segment():
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 1, 1000), np.zeros(1000)])
    fit = geometry.box_dimension(geometry.PointCloud(pts, {}, 1e-9), 12)
    assert abs(fit.slope - 1.0) <= 0.05
    assert fit.r2 > 0.99


def test_box_dimension_cantor():
    pts = np.zeros(1)
    for _ in range(12):
        pts = np.concatenate([pts / 3.0, pts / 3.0 + 2.0 / 3.0])
    cloud = geometry.PointCloud(np.column_stack([pts, np.zeros_like(pts)]),
                                {}, 3.0 ** -12)
    fit = geometry.box_dimension(cloud, 14)
    assert abs(fit.slope - math.log(2) / math.log(3)) <= 0.05


def test_box_dimension_chords_cantor_product():
    # Straight arcs over a middle-thirds Cantor set: the set is [0, 2pi) x C,
    # of dimension 1 + log2/log3.  C is scaled by 16 so that the coarse
    # dyadic scales already see its structure.
    fibers = 128
    pts = np.zeros(1)
    for _ in range(13):
        pts = np.concatenate([pts / 3.0, pts / 3.0 + 2.0 / 3.0])
    cantor = 16.0 * pts
    xs = 2 * np.pi * np.arange(fibers) / fibers
    pts = np.column_stack([np.repeat(xs, cantor.size), np.tile(cantor, fibers)])
    spacing = 2 * np.pi / fibers
    fit = _chord_fit(pts, cantor.size, 16.0 * 3.0 ** -13)
    assert abs(fit.slope - (1.0 + math.log(2) / math.log(3))) <= 0.05
    assert sum(r < spacing for r in fit.counts) >= 3
    # Horizontal chords meet exactly the product of the two factor counts.
    for r, count in fit.counts.items():
        n_x = math.floor(xs[-1] / r) + 1
        assert count == n_x * np.unique(np.floor(cantor / r)).size
    # The same points without the layout stop at the fiber spacing.
    plain = geometry.box_dimension(geometry.PointCloud(pts, {}, spacing), 12)
    assert plain.scale_lo >= spacing


def test_box_dimension_chords_tilted_lines():
    # Ten parallel tilted lines, each sampled on 1000 fibers.  A segment in
    # general position meets 1 + (x planes crossed) + (y planes crossed)
    # boxes, and lines 10 apart share none at r <= 1.
    fibers, words, slope = 1000, 10, 0.731
    xs = 0.05 + 4.3 * np.arange(fibers) / (fibers - 1)
    ys = 10.0 * np.arange(words) + 0.1
    pts = np.column_stack([np.repeat(xs, words),
                           (ys[None, :] + slope * xs[:, None]).ravel()])
    fit = _chord_fit(pts, words, 1e-9)
    assert abs(fit.slope - 1.0) <= 0.05
    checked = 0
    for r, count in fit.counts.items():
        if r <= 1.0:
            y0, y1 = ys + slope * xs[0], ys + slope * xs[-1]
            expected = (words * (1 + math.floor(xs[-1] / r) - math.floor(xs[0] / r))
                        + np.sum(np.floor(y1 / r) - np.floor(y0 / r)))
            assert count == expected
            checked += 1
    assert checked >= 5


def test_chord_counts_floor_and_threads(monkeypatch):
    spec = benchmark_c()
    n, fibers = 8, 64
    fit, resolution = _traced_dimension(monkeypatch, spec, n, fibers, 12)
    assert resolution >= spec.contraction_sup() ** n
    assert resolution <= fit.scale_lo < 2 * np.pi / fibers
    assert _traced_dimension(monkeypatch, spec, n, fibers, 12,
                             threads=3) == (fit, resolution)


def _box_count(points, r):
    """Distinct boxes of side r holding a point, by one sort per scale."""
    idx = np.floor(points / r).astype(np.int64)
    idx -= idx.min(axis=0)
    keys = np.sort(geometry._mix(idx.T, idx.max(axis=0) + 1))
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _assert_counts_match_sort(cloud):
    n_max = max(2.0, len(cloud) / 4.0)
    counts = geometry._cloud_counts(cloud.points, cloud.resolution, n_max)
    finest = max(j for j in range(48) if 2.0 ** -j >= cloud.resolution)
    assert list(counts) == list(range(len(counts)))
    # levels stop at the first count above n_max, else at the finest level
    last = max(counts)
    assert counts[last] > n_max or last == finest
    assert all(c <= n_max for j, c in counts.items() if j < last)
    for j, count in counts.items():
        assert count == _box_count(cloud.points, 2.0 ** -j), j


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_point_counts_match_sort_on_random_clouds(dim):
    rng = np.random.default_rng(dim)
    for size in (100, 700, 3000):
        pts = rng.uniform(-1.0, 1.5, (size, dim))
        # repeated points, and points sharing a coordinate on a grid line
        pts[rng.integers(0, size, size // 3)] = pts[rng.integers(0, size, size // 3)]
        pts[: size // 4, 0] = np.round(pts[: size // 4, 0] * 8) / 8
        _assert_counts_match_sort(geometry.PointCloud(pts, {}, 1e-9))


def test_point_counts_match_sort_on_cantor_cloud():
    pts = np.zeros(1)
    for _ in range(12):
        pts = np.concatenate([pts / 3.0, pts / 3.0 + 2.0 / 3.0])
    _assert_counts_match_sort(geometry.PointCloud(
        np.column_stack([pts, np.zeros_like(pts)]), {}, 3.0 ** -12))


@pytest.mark.parametrize("spec, n", [(benchmark_a(), 12), (benchmark_c(), 12),
                                     (D3, 7)], ids=["A", "C", "d3"])
def test_point_counts_match_sort_on_slice_and_projection(spec, n):
    sl = geometry.slice_cloud(spec, 0.7, n)
    _assert_counts_match_sort(sl)
    _assert_counts_match_sort(geometry.project_cloud(sl, (0,)))


def test_point_counts_keep_box_keys_in_int64():
    # Two opposite corners of the unit cube, 75 copies each: no count passes
    # n_max, and from level 21 on the grid over the cube has 2**63 boxes.
    pts = np.repeat([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], 75, axis=0)
    counts = geometry._cloud_counts(pts, 1e-9, 37.5)
    assert list(counts) == list(range(21))
    for j, count in counts.items():
        assert count == _box_count(pts, 2.0 ** -j) == 2, j


def test_point_cloud_fit_takes_one_pass(monkeypatch):
    calls, chord_runs = [], geometry._chord_runs

    def counted(a, *rest):
        calls.append(a.shape[1])
        return chord_runs(a, *rest)

    monkeypatch.setattr(geometry, "_chord_runs", counted)
    for spec in (benchmark_a(), benchmark_c()):
        sl = geometry.slice_cloud(spec, 0.0, 10)
        for cloud in (sl, geometry.project_cloud(sl, (0,))):
            calls.clear()
            geometry.box_dimension(cloud, 12)
            assert calls == [len(cloud)]


def test_box_dimension_refuses_a_resolution_above_one(monkeypatch):
    # One fibre: its resolution is the fibre spacing, 2*pi.
    spec = benchmark_a()
    refusal, resolution = _traced_dimension(monkeypatch, spec, 8, 1)
    assert resolution == pytest.approx(TWO_PI)
    assert "no usable dyadic scales" in refusal
    cloud = geometry.PointCloud(_streamed(spec, 8, 1).reshape(-1, 3), {},
                                resolution)
    assert geometry._cloud_counts(cloud.points, cloud.resolution, 64) == {}
    with pytest.raises(ValueError, match="no usable dyadic scales"):
        geometry.box_dimension(cloud, 12)


def test_box_dimension_single_point():
    pts = np.tile([[0.3, -0.2]], (150, 1))
    fit = geometry.box_dimension(geometry.PointCloud(pts, {}, 1e-9), 8)
    assert fit.slope == 0.0


def test_box_dimension_errors():
    pts = np.random.default_rng(1).uniform(0, 1, (50, 2))
    with pytest.raises(ValueError, match="100 points"):
        geometry.box_dimension(geometry.PointCloud(pts, {}, 1e-9), 8)
    pts = np.random.default_rng(1).uniform(0, 1, (500, 2))
    with pytest.raises(ValueError, match="5 scales"):
        geometry.box_dimension(geometry.PointCloud(pts, {}, 1e-9), 3)
    with pytest.raises(ValueError, match="degenerate scale range"):
        geometry.box_dimension(geometry.PointCloud(pts, {}, 0.5), 8)


def test_box_dimension_slice_stability():
    spec = benchmark_a()
    slopes = []
    for n in (12, 14, 16):
        fit = geometry.box_dimension(geometry.slice_cloud(spec, 0.0, n), 12)
        slopes.append(fit.slope)
    assert abs(slopes[2] - slopes[1]) <= abs(slopes[1] - slopes[0]) + 0.02


def test_projection_dimension_matches_slice():
    spec = benchmark_a()
    sl = geometry.slice_cloud(spec, 0.0, 14)
    proj = geometry.project_cloud(sl, (0,))
    assert proj.points.shape[1] == 1
    fit = geometry.box_dimension(proj, 12)
    assert abs(fit.slope - min(T0_A, 1.0)) <= 0.10


def test_z_extent_below_y_extent_for_thin_spec():
    spec = benchmark_a()
    n = 8
    cloud = geometry.slice_cloud(spec, 1.0, n)
    pts = cloud.points.reshape(2 ** (n - 4), 16, 2)  # groups share deep past
    y_ext = pts[..., 0].max(axis=1) - pts[..., 0].min(axis=1)
    z_ext = pts[..., 1].max(axis=1) - pts[..., 1].min(axis=1)
    assert np.all(z_ext <= y_ext + 1e-12)


def test_local_density_bounded_below():
    spec = benchmark_a()
    n = 12
    radii = [0.4 ** k for k in range(3, 9)]
    rep = geometry.local_density_stats(spec, 0.0, n, radii, samples=100,
                                       seed=1)
    assert min(rep.ratio_min) > 0.05
    # lower bound does not decay along the radius ladder
    assert rep.ratio_min[-1] >= 0.5 * rep.ratio_min[0]


def test_local_density_resolution_error():
    spec = benchmark_a()
    with pytest.raises(ResolutionError):
        geometry.local_density_stats(spec, 0.0, 8, [0.4 ** 10])


def test_ball_mass_matches_bruteforce():
    # the ball masses inside local_density_stats, ratio * r**t0, against
    # brute-force sums of the model weights around the same seeded centres:
    # per radius their least, median and largest, and the per-centre
    # fractions
    spec = benchmark_a()
    n, x, seed, samples = 8, 0.5, 3, 20
    radii = (0.01, 0.05, 0.2, 0.5)
    w = thermo.build_gibbs_model(spec, n).weights
    rep = geometry.local_density_stats(spec, x, n, radii, samples=samples,
                                       seed=seed)
    points = geometry.slice_cloud(spec, x, n).points
    picks = np.random.default_rng(seed).choice(w.size, size=samples,
                                               replace=True, p=w)
    slow = np.empty((samples, len(radii)))
    for i, idx in enumerate(picks):
        center = points[idx]
        for k, r in enumerate(radii):
            slow[i, k] = sum(wi for p, wi in zip(points, w)
                             if (p[0] - center[0]) ** 2
                             + (p[1] - center[1]) ** 2 <= r * r)
    for k, r in enumerate(radii):
        scale = r ** rep.t0_mid
        for stat, ref in ((rep.ratio_min, np.min), (rep.ratio_median, np.median),
                          (rep.ratio_max, np.max)):
            assert stat[k] * scale == pytest.approx(ref(slow[:, k]), abs=1e-14)
    ratios = slow / np.array(radii) ** rep.t0_mid
    spread = ratios.max(axis=1) / ratios.min(axis=1)
    assert rep.frac_bounded == np.mean(spread <= geometry.BOUND_FACTOR)
    assert rep.frac_growing == np.mean(
        ratios[:, 0] > geometry.GROWTH_FACTOR * ratios[:, -1])


def test_overlap_generation_one_separated():
    rep = geometry.overlap_multiplicity(benchmark_a(), 1, 16)
    assert rep.max_order == 0


def test_overlap_order_appears_at_depth():
    rep = geometry.overlap_multiplicity(benchmark_a(), 12, 16)
    assert rep.max_order >= 1


def test_overlap_growth_exponent_bounded():
    spec = benchmark_a()
    bound = (T0_A + 0.1) * math.log(2.0)
    for n in (8, 11, 14):
        rep = geometry.overlap_multiplicity(spec, n, 16)
        assert 0.0 <= rep.h_n <= bound


# ---------------------------------------------------------------------------
# Overlap counts against the heap sweep they replaced
# ---------------------------------------------------------------------------


def _heap_overlap_pairs(lo, hi):
    """All pairs (i < j) of overlapping intervals, by a heap sweep over lo."""
    active = []  # heap of (hi, index)
    pairs = []
    for idx in np.argsort(lo, kind="stable"):
        while active and active[0][0] < lo[idx]:
            heapq.heappop(active)
        for _, other in active:
            pairs.append((min(idx, other), max(idx, other)))
        heapq.heappush(active, (hi[idx], idx))
    return pairs


def _heap_overlap_multiplicity(spec, n, x_samples):
    """overlap_multiplicity by the heap sweep, a pair dict and partner sets."""
    count = spec.d ** n
    half = np.exp(thermo.birkhoff_table(spec, n).lam_sup)
    xs = TWO_PI * np.arange(x_samples) / x_samples
    y, _ = word_representatives(spec, xs, n)
    leading = np.arange(count) % spec.d
    pair_counts = {}
    partners = [set() for _ in range(count)]
    for f in range(x_samples):
        for i, j in _heap_overlap_pairs(y[f] - half, y[f] + half):
            pair_counts[(i, j)] = pair_counts.get((i, j), 0) + 1
            if leading[i] != leading[j]:
                partners[i].add(j)
                partners[j].add(i)
    full_order = np.zeros(count, dtype=int)
    for (i, j), c in pair_counts.items():
        if c == x_samples:
            full_order[i] += 1
            full_order[j] += 1
    hist = {}
    for order in full_order:
        hist[int(order)] = hist.get(int(order), 0) + 1
    max_touch = max(len(s) for s in partners)
    return geometry.OverlapReport(
        n=n, x_samples=x_samples, max_order=int(full_order.max()),
        order_histogram=hist, max_touch_count=max_touch,
        h_n=math.log(max(max_touch, 1)) / n)


def _pairs(codes, size):
    return sorted(zip(*(v.tolist() for v in np.divmod(codes, size))))


def test_overlap_codes_match_heap_sweep_on_random_intervals():
    rng = np.random.default_rng(5)
    for size in (1, 2, 7, 40, 300):
        for _ in range(20):
            # integer ends: tied lo, touching ends, nesting, zero width
            lo = rng.integers(0, max(2, size // 3), size).astype(float)
            hi = lo + rng.integers(0, 6, size) * rng.integers(0, 2, size)
            codes = geometry._overlap_codes(lo, hi)
            assert codes.size == len(set(codes.tolist()))
            assert _pairs(codes, size) == sorted(_heap_overlap_pairs(lo, hi))
    lo = np.zeros(5)
    assert _pairs(geometry._overlap_codes(lo, lo), 5) == [
        (i, j) for i in range(5) for j in range(i + 1, 5)]
    assert geometry._overlap_codes(np.arange(4.0), np.arange(4.0) + 0.5).size == 0


@pytest.mark.parametrize("spec, n_max", [(benchmark_a(), 12),
                                         (benchmark_c(), 12), (D3, 7)],
                         ids=["A", "C", "d3"])
def test_overlap_multiplicity_matches_heap_sweep(spec, n_max):
    for n in range(1, n_max + 1):
        rep = geometry.overlap_multiplicity(spec, n, 16)
        ref = _heap_overlap_multiplicity(spec, n, 16)
        assert rep == ref
        assert rep.h_n.hex() == ref.h_n.hex()
        assert cli._jsonable(rep) == cli._jsonable(ref)


# ---------------------------------------------------------------------------
# The fibre-chunk sweep against the whole-cloud builder and counter
# ---------------------------------------------------------------------------


def _dyadic_counts(points, stride, resolution, n_max):
    """Box counts {j: N(2**-j)} with every run of the pass level held at once.

    The whole-cloud counter the sweep replaced, kept as its reference: the
    segments run from row i to row i + stride (stride 0: points), cut on
    every axis but the one they run furthest along, all runs of one pass
    merged into one interval list and halved level by level.  Levels 0 up
    to the first count above n_max, or up to the finest level at or above
    the resolution with fewer than 2**63 boxes over the bounding box.
    """
    segments = points.shape[0] - stride
    gap, extent = np.empty(segments), np.empty(points.shape[1])
    for c in range(points.shape[1]):
        np.subtract(points[stride:, c], points[:segments, c], out=gap)
        extent[c] = np.abs(gap, out=gap).mean()
    del gap
    run = int(np.argmax(extent))
    axes = [c for c in range(points.shape[1]) if c != run] + [run]
    bounds = [(points[:, c].min(), points[:, c].max()) for c in axes]
    finest = max((j for j in range(48)
                  if 2.0 ** -j >= resolution * (1.0 - 1e-12)), default=-1)
    while finest >= 0 and math.prod(
            math.floor(hi * 2.0 ** finest) - math.floor(lo * 2.0 ** finest) + 1
            for lo, hi in bounds) >= 2 ** 63:
        finest -= 1

    def level_counts(level, first=0, stop=segments):
        r = 2.0 ** -level
        lo, hi = (np.floor(np.array(v) / r).astype(np.int64)
                  for v in zip(*bounds))
        spans = hi - lo + 1
        runs_per_segment = 1.0 + float(np.sum(extent[axes[:-1]])) / r
        step = max(1, int(geometry._CHORD_BLOCK / runs_per_segment))
        starts, ends = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for s in range(first, stop, step):
            e = min(s + step, stop)
            block = geometry._chord_runs(
                (points[s:e] / r).T.copy(),
                (points[s + stride:e + stride] / r).T.copy(), axes, lo, spans)
            starts.append(block[0])
            ends.append(block[1])
            if 2 * starts[0].size <= sum(x.size for x in starts) or e == stop:
                merged = geometry._union(np.concatenate(starts),
                                         np.concatenate(ends))
                starts, ends = [merged[0]], [merged[1]]
        boxes, counts = (starts[0], ends[0], lo, spans), {}
        for lv in range(level, -1, -1):
            counts[lv] = int(np.sum(boxes[1] - boxes[0] + 1))
            if lv:
                boxes = geometry._halve(*boxes)
        return counts

    def estimate():
        gaps = segments // stride
        sample = max(1, gaps // 16)
        first = (gaps - sample) // 2 * stride
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
                target = min(over) if over else top + min(3, math.ceil(
                    math.log(n_max / known[top]) / math.log(growth)))
            else:
                target = finest
            counts.update(level_counts(max(j, min(target, finest))))
        if counts[j] > n_max:
            break
        j += 1
    return {lv: counts[lv] for lv in range(min(j, finest) + 1)}


def _sweep_counts(spec, n, fibers, level, threads=1):
    """Counts at level .. 0 from one sweep over freshly built chunks."""
    xs = geometry._fibre_xs(fibers)
    return geometry._sweep(geometry.attractor_cloud(spec, n, xs, threads),
                           level, geometry._TORUS, geometry._lap_clock(None))


def _grid_sweep(grid, level, step=7):
    """Counts at level .. 0 of the chords between adjacent fibres of grid.

    grid is (fibres, words, dim) with one x per fibre, increasing; the
    sweep takes it in chunks of `step` fibres, over its bounding box.
    """
    box = [(grid[..., c].min(), grid[..., c].max())
           for c in range(grid.shape[2])]
    return geometry._sweep((grid[f:f + step] for f in range(0, len(grid), step)),
                           level, box, geometry._lap_clock(None))


def _chord_fit(points, words, resolution, k_scales=12):
    """The fit of the chords from row i to row i + words (fibre-major rows).

    The whole-cloud oracle picks the levels, and the sweep must count the
    same boxes at every one of them.
    """
    n_max = geometry._fit_limit(len(points), k_scales)
    want = _dyadic_counts(points, words, resolution, n_max)
    grid = points.reshape(-1, words, points.shape[1])
    assert _grid_sweep(grid, max(want)) == want
    return geometry._fit_counts(want, n_max, k_scales)


def _fit_or_refusal(fit, *args, **kwargs):
    try:
        return fit(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


# 37 fibres are not a multiple of a chunk; A at depth 16 has more words
# than a chunk, so one fibre per chunk (and a fit refused: too few scales).
@pytest.mark.parametrize("spec, n, fibers", [
    (benchmark_a(), 12, 37), (benchmark_a(), 16, 3), (benchmark_c(), 10, 64),
    (D3, 7, 64)], ids=["A-12-37", "A-16-3", "C-10-64", "d3-7-64"])
def test_sweep_counts_match_whole_cloud_oracle(spec, n, fibers):
    pts, resolution = _whole_attractor_cloud(spec, n, fibers)
    words, n_max = spec.d ** n, len(pts) / 4.0
    want = _dyadic_counts(pts, words, resolution, n_max)
    # Every level of one sweep two levels past the fit's last one.
    level = max(want) + 2
    deep = _dyadic_counts(pts, words, 2.0 ** -level, 1e18)
    assert list(deep) == list(range(level + 1))
    fit = _fit_or_refusal(geometry._fit_counts, want, n_max, 12)
    for threads in (1, 2, 3):
        assert _sweep_counts(spec, n, fibers, level, threads) == deep
        assert _fit_or_refusal(geometry.attractor_dimension, spec, n, fibers,
                               12, threads=threads) == fit


def test_sweep_counts_match_oracle_on_steep_lines():
    # Chords steeper than the diagonal: the oracle runs them along y, the
    # sweep always along axis 0.  In general position (no chord through a
    # grid corner, hence the jitter) the counts agree at every level.
    fibers, words = 300, 10
    rng = np.random.default_rng(3)
    for slope in (math.pi, -2.3 - 1.0 / math.e):
        xs = np.sort(0.05 + 4.3 * np.arange(fibers) / (fibers - 1)
                     + rng.uniform(0.0, 1e-3, fibers))
        ys = 10.0 * np.arange(words) + rng.uniform(0.0, 1.0, words)
        pts = np.column_stack([np.repeat(xs, words),
                               (ys[None, :] + slope * xs[:, None]).ravel()])
        for n_max in (100.0, 1e18):
            want = _dyadic_counts(pts, words, 1e-3, n_max)
            assert _grid_sweep(pts.reshape(fibers, words, 2),
                               max(want)) == want


def _exact_chords(grid, level):
    """Per chord between adjacent fibres: its boxes of side 2**-level, exactly.

    Exact arithmetic on the same floats: the half-open floor cells at and
    between the chord's plane crossings.  With each chord's boxes comes
    whether it crosses planes of two axes within 1e-9 of each other in
    its parameter, that is, within rounding of a grid edge.
    """
    scale, out = Fraction(2) ** level, []
    for fibre, after in zip(grid[:-1].tolist(), grid[1:].tolist()):
        for a, b in zip(fibre, after):
            a = [Fraction(v) * scale for v in a]
            b = [Fraction(v) * scale for v in b]
            per_axis = [{(k - p) / (q - p) for k in range(
                math.ceil(min(p, q)), math.floor(max(p, q)) + 1)}
                if p != q else set() for p, q in zip(a, b)]
            ts = sorted({Fraction(0), Fraction(1)}.union(*per_axis))
            boxes = {tuple(math.floor(p + t * (q - p)) for p, q in zip(a, b))
                     for t in ts + [(s + u) / 2 for s, u in zip(ts, ts[1:])]}
            near = any(abs(s - u) < 1e-9
                       for i, ti in enumerate(per_axis)
                       for tj in per_axis[i + 1:] for s in ti for u in tj)
            out.append((boxes, near))
    return out


def _runs_per_chord(grid, level):
    """Boxes `_chord_runs` gives each chord between adjacent fibres.

    Every chord gets its own cell on one more axis, which it never moves
    along, so its runs share no key line with another chord's.
    """
    dim = grid.shape[2]
    tag = np.arange(len(grid[0]) * (len(grid) - 1), dtype=float)[:, None]
    a, b = (np.hstack([part.reshape(-1, dim) * 2.0 ** level, tag]).T.copy()
            for part in (grid[:-1], grid[1:]))
    axes = list(range(1, dim + 1)) + [0]
    lo = np.floor([np.minimum(a[c], b[c]).min() for c in axes]).astype(int)
    hi = np.floor([np.maximum(a[c], b[c]).max() for c in axes]).astype(int)
    spans = hi - lo + 1
    starts, ends = geometry._chord_runs(a, b, axes, lo, spans)
    chord = starts // spans[-1] % spans[-2]
    return np.bincount(chord, ends - starts + 1, len(tag)).astype(int)


# Ten lines y = 0.1 + 10w + slope*x over 300 fibres on [0.05, 4.35].  At
# slope +-3.7 some chords pass within rounding of grid edges (3.7 * 6/8 +
# 0.1 = 23/8); jittered lines and slope 0.731 pass none.  Every chord
# meets exactly its boxes, because a run's end and the next run's start
# are one float: rounding the two apart read 1,622 boxes at level 3 on
# the 3.7 lines and 6,479 at level 5, against 1,620 and 6,480.
@pytest.mark.parametrize("slope, jitter, levels, near_edges", [
    (3.7, None, (3, 4, 5), True), (-3.7, None, (3, 4, 5), True),
    (3.7, 1, (3, 4), False), (0.731, None, (3, 4), False)],
    ids=["3.7", "-3.7", "3.7-jitter", "0.731"])
def test_chord_counts_match_exact_boxes_on_lattice_lines(slope, jitter,
                                                         levels, near_edges):
    fibers, words = 300, 10
    xs = 0.05 + 4.3 * np.arange(fibers) / (fibers - 1)
    ys = 10.0 * np.arange(words) + 0.1
    if jitter is not None:
        rng = np.random.default_rng(jitter)
        xs = np.sort(xs + rng.uniform(0.0, 1e-3, fibers))
        ys = ys + rng.uniform(0.0, 1.0, words)
    grid = np.empty((fibers, words, 2))
    grid[:, :, 0] = xs[:, None]
    grid[:, :, 1] = ys[None, :] + slope * xs[:, None]
    for level in levels:
        exact = _exact_chords(grid, level)
        assert any(near for _, near in exact) == near_edges
        assert (_runs_per_chord(grid, level).tolist()
                == [len(boxes) for boxes, _ in exact])
        want = len(set().union(*(boxes for boxes, _ in exact)))
        assert _grid_sweep(grid, level)[level] == want


# Chords through two grid edges each (exactly: the inputs are dyadic).
# Per edge the count is exact or one above, by the chord's directions.
@pytest.mark.parametrize("a, b, extra", [
    ((0.5, 0.5), (2.5, 2.5), 2), ((2.5, 2.5), (0.5, 0.5), 2),
    ((2.5, 0.5), (0.5, 2.5), 0), ((0.5, 2.5), (2.5, 0.5), 0),
    ((0.25, 0.5, 0.5), (0.75, 2.5, 2.5), 0),
    ((0.25, 2.5, 2.5), (0.75, 0.5, 0.5), 2),
    ((0.25, 0.5, 2.5), (0.75, 2.5, 0.5), 0)])
def test_chord_through_grid_edges_meets_at_most_one_extra_box_each(a, b,
                                                                  extra):
    counter = geometry._BoxCounter(0, [(0.0, 3.0)] * len(a))
    counter.add(np.array([a]), np.array([b]))
    (boxes, near), = _exact_chords(np.array([[a], [b]]), 0)
    assert near and counter.counts()[0] == len(boxes) + extra


def test_chord_ending_within_rounding_of_a_plane_ends_in_its_end_cell():
    # a + (b - a) rounds to 1 - 4e-16, in cell 0; the run ends in b's cell 1.
    a, b = (-3.954362231199513, 0.5), (1.0, 0.5)
    counter = geometry._BoxCounter(0, [(-4.0, 1.0), (0.0, 1.0)])
    counter.add(np.array([a]), np.array([b]))
    (boxes, near), = _exact_chords(np.array([[a], [b]]), 0)
    assert not near and counter.counts()[0] == len(boxes) == 6


def test_short_first_pass_builds_again_without_the_sink(monkeypatch):
    # An estimate cut off at level 2 sets a first pass (at most three
    # levels further) that stops short of n_max: the chunks are built again
    # for finer passes, and the sink, which writes the CSV, still sees
    # every chunk exactly once.
    spec, n, fibers = benchmark_c(), 10, 64
    pts, resolution = _whole_attractor_cloud(spec, n, fibers)
    words, n_max = spec.d ** n, len(pts) / 4.0
    want = _dyadic_counts(pts, words, resolution, n_max)
    fit = geometry._fit_counts(want, n_max, 12)
    estimate, sweep, levels = geometry._estimate, geometry._sweep, []

    def low(*args):
        return {lv: c for lv, c in estimate(*args).items() if lv <= 2}

    def logged(blocks, level, *rest):
        levels.append(level)
        return sweep(blocks, level, *rest)

    monkeypatch.setattr(geometry, "_estimate", low)
    monkeypatch.setattr(geometry, "_sweep", logged)
    blocks = []
    assert geometry.attractor_dimension(
        spec, n, fibers, 12, sink=blocks.append) == fit
    passes = levels[1:]  # levels[0] counts the middle sixteenth
    assert len(passes) >= 2 and passes == sorted(passes)
    assert max(passes) >= max(want)
    assert np.array_equal(np.concatenate(blocks).reshape(-1, 3), pts)
