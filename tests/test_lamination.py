import math

import numpy as np
import pytest

from scalar_reference import Point3, apply_map, base_itinerary, leaf_point
from solenoidlab import (SolenoidSpec, WordTooShortError, benchmark_a,
                         benchmark_b, benchmark_c)
from solenoidlab import coding, thermo
from solenoidlab import lamination as lam
from solenoidlab.coding import _digit_rows, leaf_states

TWO_PI = 2 * math.pi


def random_word(rng, d, n):
    return tuple(rng.integers(0, d, n))


def slide(spec, past, x_src, x_dst):
    """A leaf's points over x_src and x_dst, from one leaf_states call."""
    lifts = np.array([x_src, x_dst], dtype=float)
    y, z = leaf_states(spec, np.array([past], dtype=int), lifts)
    return tuple(Point3(x=float(np.mod(x, TWO_PI)), y=float(y[0, i]),
                        z=float(z[0, i])) for i, x in enumerate(lifts))


def pair_crossings(spec, past_a, past_b, margin, samples):
    """leaf_intersections of two leaves sampled on the grid of the window."""
    grid = lam._grid(margin, samples)
    dig_a, dig_b = np.array([past_a]), np.array([past_b])
    (y_a, _), (y_b, _) = (leaf_states(spec, dig, grid)
                          for dig in (dig_a, dig_b))
    return lam.leaf_intersections(spec, grid, dig_a, dig_b, y_a, y_b)


def test_leaf_fixed_point_sample():
    lifts = lam._grid(0.2, 257)
    y, _ = leaf_states(benchmark_a(), np.zeros((1, 40), dtype=int), lifts)
    k = int(np.argmin(np.abs(lifts)))
    assert abs(y[0, k] - 5.0 / 6.0) < 1e-4
    assert np.all(np.diff(lifts) > 0)


def test_leaf_requires_depth():
    with pytest.raises(WordTooShortError):
        coding._require_depth(benchmark_a(), 3, 1e-9)


def test_leaf_matches_representatives_on_circle():
    spec = benchmark_a()
    rng = np.random.default_rng(4)
    word = random_word(rng, 2, 40)
    lifts = lam._grid(0.0, 33)
    y, z = leaf_states(spec, np.array([word]), lifts)
    for k in (0, 7, 16, 25):
        ref = leaf_point(spec, word, lifts[k])
        assert abs(y[0, k] - ref.y) < 1e-12
        assert abs(z[0, k] - ref.z) < 1e-12


def test_leaf_continuity_bound():
    spec = benchmark_a()
    lifts = lam._grid(0.3, 513)
    y, _ = leaf_states(spec, np.array([(1, 0) * 20]), lifts)
    gaps = np.abs(np.diff(y[0]))
    step = np.diff(lifts).max()
    # leaf slope is bounded by sum lam^k * |u'| / eta^k type series
    slope_bound = 0.5 / (1.0 - 0.4 / 2.0) + 0.1
    assert gaps.max() <= slope_bound * step


def test_intersections_disjoint_and_identical():
    spec = benchmark_a()
    past_a, past_b = (0,) * 40, (0,) * 39 + (1,)
    recs = pair_crossings(spec, past_a, past_b, 0.1, 129)
    assert len(recs) >= 1  # the two tube families cross
    assert all(0.0 < r.angle <= math.pi / 2 for r in recs)
    with pytest.raises(ValueError):
        pair_crossings(spec, past_a, past_a, 0.1, 129)


def test_intersection_crossing_is_zero_of_gap():
    spec = benchmark_a()
    past_a, past_b = (0,) * 40, (1,) + (0,) * 38 + (1,)
    for rec in pair_crossings(spec, past_a, past_b, 0.1, 257):
        ya = leaf_point(spec, past_a, rec.x_lift).y
        yb = leaf_point(spec, past_b, rec.x_lift).y
        assert abs(ya - yb) < 1e-8


def test_min_transversal_angle_benchmark():
    alpha, tang = lam.min_transversal_angle(benchmark_a(), 8, 100, seed=0)
    assert alpha > 0.01
    assert tang == 0


def test_min_transversal_angle_degenerate():
    spec = SolenoidSpec(d=2, lam0=0.4, nu0=0.25, u_amp=0.0, v_amp=0.5)
    alpha, tang = lam.min_transversal_angle(spec, 8, 25, seed=0)
    assert tang > 0


def test_min_transversal_angle_budget_check():
    with pytest.raises(ValueError):
        lam.min_transversal_angle(benchmark_a(), 8, 0)


def test_holonomy_identity():
    spec = benchmark_a()
    rng = np.random.default_rng(9)
    for _ in range(10):
        word = random_word(rng, 2, 40)
        x = rng.uniform(0, TWO_PI)
        p, q = slide(spec, word, x, x)
        assert p == q


def test_holonomy_composition():
    rng = np.random.default_rng(10)
    for spec in (benchmark_a(), benchmark_b()):
        for _ in range(5):
            word = random_word(rng, 2, 40)
            x0, x1, x2 = sorted(rng.uniform(0, TWO_PI, 3))
            p0, q1 = slide(spec, word, x0, x1)
            # both endpoints come from one call, bit for bit as one by one
            assert p0 == leaf_point(spec, word, x0)
            assert q1 == leaf_point(spec, word, x1)
            _, q2 = slide(spec, word, x1, x2)
            _, q_direct = slide(spec, word, x0, x2)
            assert abs(q2.y - q_direct.y) < 1e-8
            assert abs(q2.z - q_direct.z) < 1e-8


def test_holonomy_against_forward_iteration():
    # Continuing the word to pi agrees with mapping the half-lift forward:
    # the representative over pi of word w equals f(rep over pi/2 of w
    # truncated by one with the chain shifted).
    spec = benchmark_a()
    word = (0,) * 40
    _, q = slide(spec, word, 0.0, math.pi)
    ref = leaf_point(spec, word, math.pi)
    assert abs(q.y - ref.y) < 1e-8
    assert abs(q.z - ref.z) < 1e-8
    half = leaf_point(spec, (0,) * 41, math.pi / 2)
    fwd = apply_map(spec, half).image
    assert abs(q.y - fwd.y) < 1e-8
    assert abs(q.z - fwd.z) < 1e-8


def test_leaves_share_past_shadowing():
    # words agreeing on the most recent k symbols stay lam_sup**k close
    spec = benchmark_a()
    rng = np.random.default_rng(12)
    for k in (3, 6, 9):
        tail = tuple(rng.integers(0, 2, k))
        wa = tuple(rng.integers(0, 2, 30)) + tail
        wb = tuple(rng.integers(0, 2, 30)) + tail
        x = rng.uniform(0, TWO_PI)
        pa = leaf_point(spec, wa, x)
        pb = leaf_point(spec, wb, x)
        assert abs(pa.y - pb.y) <= 2.0 * 0.4 ** k + 1e-12


@pytest.mark.parametrize("depth", range(1, 7))
def test_gamma_pool_and_strong_lipschitz(depth):
    spec = benchmark_b()
    pool = lam.build_gamma_pool(spec, 10, 16, seed=1)
    assert pool.size >= 2
    assert len(pool.records) > 0
    words = np.random.default_rng(3).integers(0, 2, (1, 14))
    worst, usable = lam.strong_lipschitz_test(spec, words, depth, 0.5, pool)
    assert usable[0]
    assert worst[0] > 0.0
    # margin ratio is exactly linear in 1/L
    worst2, _ = lam.strong_lipschitz_test(spec, words, depth, 1.0, pool)
    assert worst[0] == pytest.approx(2.0 * worst2[0])


@pytest.mark.parametrize("depth", range(1, 7))
def test_strong_lipschitz_monotone_in_L(depth):
    spec = benchmark_b()
    pool = lam.build_gamma_pool(spec, 10, 16, seed=1)
    words = np.random.default_rng(8).integers(0, 2, (1, 14))
    small, usable = lam.strong_lipschitz_test(spec, words, depth, 1e-6, pool)
    assert usable[0] and small[0] >= 1.0  # tiny L makes the condition easy
    big, _ = lam.strong_lipschitz_test(spec, words, depth, 1e9, pool)
    if math.isfinite(big[0]):
        assert not big[0] >= 1.0


def test_strong_lipschitz_word_on_crossing_fails():
    # Build a word whose shifted base position sits on a pool crossing.
    spec = benchmark_b()
    pool = lam.build_gamma_pool(spec, 10, 16, seed=1)
    rec = pool.records[0]
    depth = 4
    # choose the recent symbols so the depth-step chain from x=0 passes
    # through the crossing's base position
    x_cross = float(np.mod(rec.x_lift, TWO_PI))
    recent = base_itinerary(spec, x_cross, depth)
    words = np.array([rec.past_a + recent])
    x_land = spec.eta(spec.eta(spec.eta(spec.eta(x_cross))))
    worst, usable = lam.strong_lipschitz_test(spec, words, depth, 0.5, pool,
                                              x=float(x_land))
    assert usable[0] and worst[0] < 1.0
    assert worst[0] < 1e-3


@pytest.mark.parametrize("depth", range(1, 7))
def test_strong_lipschitz_indeterminate_without_pool(depth):
    spec = benchmark_b()
    empty = lam.GammaPool(grid=np.linspace(0, TWO_PI, 9),
                          digits=np.zeros((0, 10), dtype=int),
                          y_curves=np.zeros((0, 9)), records=[])
    words = np.random.default_rng(3).integers(0, 2, (1, 14))
    _, usable = lam.strong_lipschitz_test(spec, words, depth, 0.5, empty)
    assert not usable[0]


def test_scan_identity_fiber_has_unit_ratios():
    spec = benchmark_a()
    pool = lam.build_gamma_pool(spec, 8, 8, seed=5)
    rep = lam.holonomy_lipschitz_scan(spec, 1.0, 1.0, 8, 60, seed=3,
                                      pool=pool)
    for stats in rep.scale_stats.values():
        assert stats["ratio_max"] == pytest.approx(1.0)


def test_scan_flagged_weight_decays_without_bunching():
    spec = benchmark_b()
    pool = lam.build_gamma_pool(spec, 10, 24, seed=1)
    r8 = lam.holonomy_lipschitz_scan(spec, 0.0, math.pi, 8, 300, seed=2,
                                     pool=pool)
    r14 = lam.holonomy_lipschitz_scan(spec, 0.0, math.pi, 14, 300, seed=2,
                                      pool=pool)
    assert r8.flagged_weight > 0.0
    assert r14.flagged_weight <= 0.5 * r8.flagged_weight
    assert r14.flagged_words


def _closed_form_leaf_a(symbols, x):
    """benchmark_a leaf (y, y') at lift x: eta = 2x, lam' = 0.4, u = 0.5 cos.

    With the most recent symbol first, x_(-j) = (x + 2 pi sum_i s_i 2**(i-1))
    / 2**j, so y = sum_j 0.4**(j-1) 0.5 cos(x_(-j)) and
    y' = -sum_j 0.4**(j-1) 0.5 sin(x_(-j)) / 2**j.
    """
    y = slope = 0.0
    offset = 0.0
    for j, s in enumerate(reversed(symbols), start=1):
        offset += s * 2.0 ** (j - 1)
        xj = (x + TWO_PI * offset) / 2.0 ** j
        y += 0.4 ** (j - 1) * 0.5 * math.cos(xj)
        slope -= 0.4 ** (j - 1) * 0.5 * math.sin(xj) / 2.0 ** j
    return y, slope


def test_pool_angles_match_closed_form_slopes():
    pool = lam.build_gamma_pool(benchmark_a(), 10, 24, seed=1)
    assert len(pool.records) > 0
    for rec in pool.records:
        ya, sa = _closed_form_leaf_a(rec.past_a, rec.x_lift)
        yb, sb = _closed_form_leaf_a(rec.past_b, rec.x_lift)
        assert abs(rec.angle - math.atan(abs(sa - sb))) < 1e-12
        assert abs(rec.y - ya) < 1e-12
        assert abs(ya - yb) < 1e-9  # refined onto the crossing
        assert not rec.near_tangency


def test_leaf_intersections_reproduce_pool_records():
    spec = benchmark_b()
    pool = lam.build_gamma_pool(spec, 10, 16, seed=1)
    # each leaf evaluated on its own
    leaves = [leaf_states(spec, row[None], pool.grid)[0] for row in pool.digits]
    pasts = [tuple(row) for row in pool.digits.tolist()]
    expected = []
    for a in range(pool.size):
        for b in range(a + 1, pool.size):
            if pool.leading[a] == pool.leading[b]:
                continue
            recs = lam.leaf_intersections(spec, pool.grid,
                                          pool.digits[a:a + 1],
                                          pool.digits[b:b + 1], leaves[a],
                                          leaves[b])
            assert recs == [r for r in pool.records
                            if (r.past_a, r.past_b) == (pasts[a], pasts[b])]
            expected.extend(recs)
    assert expected == pool.records


def _scan_flags_word_by_word(spec, x_src, n, pairs, seed, L, pool):
    """Flagged words and weight of a scan, testing one word at a time."""
    rng = np.random.default_rng(seed)
    lo, hi = thermo.solve_bowen(spec, n)
    weights = thermo.gibbs_weight_array(spec, 0.5 * (lo + hi), n)
    idx_a = rng.choice(weights.size, size=pairs, replace=True, p=weights)
    share = rng.integers(0, n, size=pairs)
    d, depth = spec.d, max(1, n // 2)
    flagged, hits, tested = [], 0, 0
    for i, j_share in zip(idx_a, share):
        block = d ** int(j_share)
        new_digit = ((i // block) % d + 1 + rng.integers(0, d - 1)) % d
        deep = rng.integers(0, max(1, weights.size // (block * d)))
        j = int(deep) * block * d + int(new_digit) * block + int(i % block)
        if j == i or j >= weights.size:
            continue
        word, other = (tuple(r) for r in _digit_rows([i, j], d, n).tolist())
        pa = leaf_point(spec, word, x_src)
        pb = leaf_point(spec, other, x_src)
        if math.hypot(pa.y - pb.y, pa.z - pb.z) == 0.0:
            continue
        worst, usable = lam.strong_lipschitz_test(
            spec, np.array([word]), depth, L, pool, x=x_src)
        tested += 1
        if usable[0] and worst[0] < 1.0:
            hits += 1
            if word not in flagged:
                flagged.append(word)
    return flagged, hits / tested


@pytest.mark.parametrize("spec, depths", [(benchmark_b(), (8, 12)),
                                          (benchmark_c(), (8,))])
def test_scan_flags_match_word_by_word_margin_tests(spec, depths):
    # benchmark_c's base derivative varies, so eta_n differs between words
    pool = lam.build_gamma_pool(spec, 10, 16, seed=1)
    for n in depths:
        rep = lam.holonomy_lipschitz_scan(spec, 0.0, math.pi, n, 80, seed=2,
                                          pool=pool)
        flagged, weight = _scan_flags_word_by_word(spec, 0.0, n, 80, 2, 0.5,
                                                   pool)
        assert rep.flagged_words == flagged
        assert rep.flagged_weight == weight
    assert flagged  # the comparison saw failing words


# ---------------------------------------------------------------------------
# Newton refinement against the bisection engine it replaced
# ---------------------------------------------------------------------------

SLOPE_STEP = 1e-5  # the central-difference step of the bisection engine
D3 = SolenoidSpec(d=3, eta_eps=0.4, lam0=0.2, lam1=0.03, lam2=0.02,
                  nu0=0.08, nu2=0.02, u_amp=0.4, v_amp=0.4)


def _bisect_reference(spec, dig_a, dig_b, lo, hi, g_lo):
    """Halve each sign-change cell down to CROSSING_TOL; return midpoints."""
    lo, hi, g_lo = lo.copy(), hi.copy(), g_lo.copy()
    for _ in range(64):
        act = np.flatnonzero(hi - lo > lam.CROSSING_TOL)
        if act.size == 0:
            break
        mid = 0.5 * (lo[act] + hi[act])
        ya, _ = leaf_states(spec, dig_a[act], mid[:, None])
        yb, _ = leaf_states(spec, dig_b[act], mid[:, None])
        g_mid = ya[:, 0] - yb[:, 0]
        same = (g_mid > 0.0) == (g_lo[act] > 0.0)
        lo[act] = np.where(same, mid, lo[act])
        g_lo[act] = np.where(same, g_mid, g_lo[act])
        hi[act] = np.where(same, hi[act], mid)
    return 0.5 * (lo + hi)


def _central_jets(spec, digits, lifts):
    """Leaf y and central-difference slopes at step SLOPE_STEP."""
    y, _ = leaf_states(spec, digits, lifts)
    y_plus, _ = leaf_states(spec, digits, lifts + SLOPE_STEP)
    y_minus, _ = leaf_states(spec, digits, lifts - SLOPE_STEP)
    return y, (y_plus - y_minus) / (2.0 * SLOPE_STEP)


def _with_engine(monkeypatch, reference, fn, *args, **kwargs):
    """fn's result and every crossing record it made, with either engine."""
    records = []
    crossings = lam.leaf_intersections

    def spy(*args):
        out = crossings(*args)
        records.extend(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(lam, "leaf_intersections", spy)
        if reference:
            m.setattr(lam, "_refine", _bisect_reference)
            m.setattr(lam, "_leaf_jets", _central_jets)
        return fn(*args, **kwargs), records


def _assert_records_match(new, ref, slope_tol):
    assert len(new) == len(ref) > 0
    for r, s in zip(new, ref):
        assert (r.past_a, r.past_b, r.near_tangency) == \
            (s.past_a, s.past_b, s.near_tangency)
        assert abs(r.x_lift - s.x_lift) <= lam.CROSSING_TOL
        assert abs(r.y - s.y) <= 1e-9
        assert abs(r.angle - s.angle) <= slope_tol


@pytest.mark.parametrize("spec, n", [(benchmark_a(), 10), (benchmark_c(), 10),
                                     (D3, 7)], ids=["A", "C", "d3"])
def test_newton_refinement_matches_bisection_reference(monkeypatch, spec, n):
    pool, new = _with_engine(monkeypatch, False, lam.build_gamma_pool, spec,
                             n, 16, seed=1)
    ref_pool, ref = _with_engine(monkeypatch, True, lam.build_gamma_pool,
                                 spec, n, 16, seed=1)
    assert new == pool.records and ref == ref_pool.records
    # jets against central differences (their own error is about 1e-11)
    _assert_records_match(new, ref, 1e-9)

    (alpha, tang), new = _with_engine(monkeypatch, False,
                                      lam.min_transversal_angle, spec, n - 2,
                                      30, seed=3)
    (ref_alpha, ref_tang), ref = _with_engine(
        monkeypatch, True, lam.min_transversal_angle, spec, n - 2, 30, seed=3)
    _assert_records_match(new, ref, 1e-9)
    assert tang == ref_tang
    assert abs(alpha - ref_alpha) <= 1e-9

    rng = np.random.default_rng(5)
    digits = rng.integers(0, spec.d, (40, 6))
    x_ref = rng.uniform(0.0, TWO_PI, 40)
    dist = lam._nearest_crossings(spec, digits, pool, x_ref)
    ref_dist, _ = _with_engine(monkeypatch, True, lam._nearest_crossings,
                               spec, digits, pool, x_ref)
    assert np.array_equal(np.isfinite(dist), np.isfinite(ref_dist))
    assert np.isfinite(dist).sum() > 20
    finite = np.isfinite(dist)
    assert np.all(np.abs(dist[finite] - ref_dist[finite])
                  <= lam.CROSSING_TOL)


def test_refinement_work_guard(monkeypatch):
    # A crossing takes a few Newton rounds, not ~29 bisection halvings;
    # each round is one leaf evaluation (one descent) of its candidates.
    rounds, inside = [], []
    descend, refine = coding.descend_levels, lam._refine

    def counting_descend(*args, **kwargs):
        if inside:
            rounds[-1] += 1
        return descend(*args, **kwargs)

    def counting_refine(*args, **kwargs):
        rounds.append(0)
        inside.append(True)
        try:
            return refine(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(coding, "descend_levels", counting_descend)
    monkeypatch.setattr(lam, "_refine", counting_refine)
    pool = lam.build_gamma_pool(benchmark_c(), 10, 24, seed=1)
    assert len(pool.records) > 0
    assert rounds and max(rounds) <= 8


# ---------------------------------------------------------------------------
# Shared-grid crossing scan against the per-pair engine it replaced
# ---------------------------------------------------------------------------

def _per_pair_crossings(spec, grid, pairs):
    """Crossing records of (past a, past b) pairs, one list each.

    The engine before the shared-grid scan: each leaf of each pair is
    evaluated on its own over the grid and each pair is scanned on its
    own, then all candidates are refined together and each pair's records
    are sorted by lift.
    """
    owner, lo, hi, g_lo = [], [], [], []
    for p, (past_a, past_b) in enumerate(pairs):
        if past_a[-1] == past_b[-1]:
            raise ValueError("leaves must come from distinct leading symbols")
        (ya, _), (yb, _) = (leaf_states(spec, np.array([past]), grid)
                            for past in (past_a, past_b))
        g = ya[0] - yb[0]
        touching = np.abs(g) < lam.TOUCH_TOL
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
    dig_a = np.array([past_a for past_a, _ in pairs])[owner]
    dig_b = np.array([past_b for _, past_b in pairs])[owner]
    x = lam._refine(spec, dig_a, dig_b, np.concatenate(lo), np.concatenate(hi),
                    np.concatenate(g_lo))
    (ya, sa), (_, sb) = lam._pair(coding._leaf_jets, spec, dig_a, dig_b,
                                  x[:, None])
    diff = np.abs(sa[:, 0] - sb[:, 0])
    for i, p in enumerate(owner):
        out[p].append(lam.IntersectionRecord(
            x_lift=float(x[i]), y=float(ya[i, 0]),
            angle=float(math.atan(diff[i])),
            past_a=pairs[p][0], past_b=pairs[p][1],
            near_tangency=bool(diff[i] < lam.NEAR_TANGENCY_SLOPE)))
    for recs in out:
        recs.sort(key=lambda r: r.x_lift)
    return out


FLAT = SolenoidSpec(d=2, lam0=0.4, nu0=0.25, u_amp=0.0, v_amp=0.5)


@pytest.mark.parametrize("spec, n", [(benchmark_a(), 10), (benchmark_c(), 10),
                                     (D3, 7), (FLAT, 8)],
                         ids=["A", "C", "d3", "flat"])
def test_shared_grid_scan_matches_per_pair_engine(monkeypatch, spec, n):
    # Each leaf of a scanned pair is sampled again on its own over the
    # same grid; the per-pair engine must give the same records, bit for
    # bit and in the same order.  FLAT's leaves all have y = 0, so every
    # pair is one contact run.
    calls = []
    crossings = lam.leaf_intersections

    def spy(*args):
        calls.append((args, crossings(*args)))
        return calls[-1][1]

    monkeypatch.setattr(lam, "leaf_intersections", spy)
    pool = lam.build_gamma_pool(spec, n, 16, seed=1)
    alpha, tang = lam.min_transversal_angle(spec, n - 2, 30, seed=3)
    assert len(calls) == 2 and calls[0][1] == pool.records
    for (s, grid, dig_a, dig_b, _, _), records in calls:
        pairs = list(zip(map(tuple, dig_a.tolist()),
                         map(tuple, dig_b.tolist())))
        assert records == [r for recs in _per_pair_crossings(s, grid, pairs)
                           for r in recs]
        assert records
    angles = [r.angle for r in calls[1][1] if not r.near_tangency]
    assert tang == len(calls[1][1]) - len(angles)
    assert alpha == min(angles, default=0.0)


# ---------------------------------------------------------------------------
# Margin scan on the shared cells against the per-target loop it replaced
# ---------------------------------------------------------------------------

def _per_target_nearest_crossings(spec, digits, pool, x_ref):
    """The margin scan before ``_cells``: one sign scan per target leaf.

    Each target is scanned for sign changes against the pool leaves from
    other tubes; the cells whose midpoints lie within one grid step of the
    nearest midpoint distance to its x_ref are refined, all targets in one
    ``_refine`` call.  Contact runs are not candidates here.
    """
    y_t, _ = leaf_states(spec, digits, pool.grid)
    h = np.diff(pool.grid).max()
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
        gaps = np.abs(0.5 * (pool.grid[cols] + pool.grid[cols + 1]) - x_ref[w])
        order = np.argsort(gaps, kind="stable")
        order = order[gaps[order] <= gaps[order[0]] + h]
        rows_t.append(np.full(order.size, w))
        rows_p.append(other[rows[order]])
        cells.append(cols[order])
        g_lo.append(diffs[rows[order], cols[order]])
    if rows_t:
        rows_t, cells = np.concatenate(rows_t), np.concatenate(cells)
        x = lam._refine(spec, digits[rows_t],
                        pool.digits[np.concatenate(rows_p)],
                        pool.grid[cells], pool.grid[cells + 1],
                        np.concatenate(g_lo))
        np.minimum.at(dist, rows_t, np.abs(x - x_ref[rows_t]))
    return dist


def _pool_variants(spec, pool):
    """The pool, the pool on [2, 2.9], and its tube-0 leaves only.

    Crossings of A and C cluster near pi, so on the narrow window some
    targets find none (+inf); tube-0 targets find no pool leaf in the
    tube-0 pool (NaN).
    """
    grid = np.linspace(2.0, 2.9, 17)
    y, _ = leaf_states(spec, pool.digits, grid)
    tube0 = pool.digits[:, -1] == 0
    return [pool,
            lam.GammaPool(grid=grid, digits=pool.digits, y_curves=y,
                          records=[]),
            lam.GammaPool(grid=pool.grid, digits=pool.digits[tube0],
                          y_curves=pool.y_curves[tube0], records=[])]


def _with_refine_spy(monkeypatch, fn, *args):
    """fn's result and the candidates (rows a, rows b, lo, hi, g_lo) it
    passed to ``_refine``, over the calls that refined any."""
    calls, refine = [], lam._refine

    def spy(*args):
        calls.append(args[1:])
        return refine(*args)

    with monkeypatch.context() as m:
        m.setattr(lam, "_refine", spy)
        return fn(*args), [c for c in calls if c[2].size]


@pytest.mark.parametrize("spec, n", [(benchmark_a(), 10), (benchmark_c(), 10),
                                     (D3, 7)], ids=["A", "C", "d3"])
def test_nearest_crossings_match_per_target_scan(monkeypatch, spec, n):
    seen = np.zeros(3, dtype=int)  # NaN, +inf and finite targets
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        digits = rng.integers(0, spec.d, (60, int(rng.integers(3, 8))))
        x_ref = rng.uniform(-0.5, TWO_PI + 0.5, 60)
        for pool in _pool_variants(spec, lam.build_gamma_pool(spec, n, 16,
                                                              seed=seed)):
            ref, ref_cells = _with_refine_spy(
                monkeypatch, _per_target_nearest_crossings, spec, digits,
                pool, x_ref)
            dist, cells = _with_refine_spy(
                monkeypatch, lam._nearest_crossings, spec, digits, pool, x_ref)
            assert np.array_equal(dist, ref, equal_nan=True)
            # the same cells per target, in the same order
            assert len(cells) == len(ref_cells)
            for new, old in zip(cells, ref_cells):
                assert all(np.array_equal(u, v) for u, v in zip(new, old))
            with monkeypatch.context() as m:
                m.setattr(lam, "SCAN_BLOCK", 1)  # one target per block
                assert np.array_equal(
                    lam._nearest_crossings(spec, digits, pool, x_ref), ref,
                    equal_nan=True)
            seen += [np.isnan(ref).sum(), np.isinf(ref).sum(),
                     np.isfinite(ref).sum()]
    assert np.all(seen > 0)


def _every_cell_nearest_crossings(spec, digits, pool, x_ref):
    """The margin scan with no cut: every cell of every target is refined."""
    y_t, _ = leaf_states(spec, digits, pool.grid)
    other = digits[:, -1, None] != pool.leading
    dist = np.where(other.any(axis=1), math.inf, math.nan)
    tw, tp = np.nonzero(other)
    row, lo, hi, g_lo = lam._cells(pool.grid, y_t[tw] - pool.y_curves[tp])
    w = tw[row]
    x = lam._refine(spec, digits[w], pool.digits[tp[row]], lo, hi, g_lo)
    np.minimum.at(dist, w, np.abs(x - x_ref[w]))
    return dist


@pytest.mark.parametrize("spec, n", [(benchmark_a(), 10), (benchmark_b(), 10),
                                     (benchmark_c(), 10), (D3, 7)],
                         ids=["A", "B", "C", "d3"])
def test_nearest_crossings_match_refining_every_cell(spec, n):
    # Keeping only the four nearest midpoints per target overestimated the
    # distance of target 880 on A and B (x1.275) and of four targets on d3.
    pool = lam.build_gamma_pool(spec, n, 24, seed=8)
    rng = np.random.default_rng(0)
    digits = rng.integers(0, spec.d, (1500, 3))
    x_ref = rng.uniform(0.0, TWO_PI, 1500)
    ref = _every_cell_nearest_crossings(spec, digits, pool, x_ref)
    assert np.isfinite(ref).sum() > 1000
    assert np.array_equal(lam._nearest_crossings(spec, digits, pool, x_ref),
                          ref, equal_nan=True)


def test_nearest_crossings_count_contact_runs(monkeypatch):
    # FLAT's leaves all have y = 0: each (target, pool leaf) row is one
    # contact run over the whole grid, a crossing at its middle grid point
    # (pi on the pool grid); the per-target sign scan found none.
    pool = lam.build_gamma_pool(FLAT, 8, 16, seed=1)
    rng = np.random.default_rng(4)
    digits = rng.integers(0, 2, (40, 6))
    x_ref = rng.uniform(0.0, TWO_PI, 40)
    middle = pool.grid[(pool.grid.size - 1) // 2]
    assert abs(middle - math.pi) < 1e-15
    dist = lam._nearest_crossings(FLAT, digits, pool, x_ref)
    assert np.array_equal(dist, np.abs(middle - x_ref))
    ref = _per_target_nearest_crossings(FLAT, digits, pool, x_ref)
    assert np.all(ref == math.inf)
    # on 256 grid points the run's middle is point 127, below pi
    monkeypatch.setattr(lam, "POOL_SAMPLES", 256)
    even = lam.build_gamma_pool(FLAT, 8, 16, seed=1)
    assert np.array_equal(lam._nearest_crossings(FLAT, digits, even, x_ref),
                          np.abs(even.grid[127] - x_ref))


def test_leaf_jets_match_closed_form_and_leaf_states():
    spec = benchmark_a()
    rng = np.random.default_rng(6)
    digits = rng.integers(0, 2, (5, 30))
    lifts = rng.uniform(-0.5, TWO_PI + 0.5, (5, 4))
    y, dy = coding._leaf_jets(spec, digits, lifts)
    y_ref, _ = leaf_states(spec, digits, lifts)
    assert y.tobytes() == y_ref.tobytes()
    for i, row in enumerate(digits):
        for k, x in enumerate(lifts[i]):
            assert abs(dy[i, k] - _closed_form_leaf_a(tuple(row), x)[1]) \
                < 1e-12
    # C has no closed form: central differences (error about 1e-11)
    _, dy = coding._leaf_jets(benchmark_c(), digits, lifts)
    _, dy_ref = _central_jets(benchmark_c(), digits, lifts)
    assert np.max(np.abs(dy - dy_ref)) < 1e-9


@pytest.mark.parametrize("spec", [benchmark_a(), benchmark_b(),
                                  benchmark_c()], ids=["A", "B", "C"])
def test_holonomy_map_forward_law(spec):
    # f maps leaf w's point over x to leaf w + (c,)'s point over eta(x),
    # c = floor(eta_lift(x) / 2 pi) the branch of x
    rng = np.random.default_rng(11)
    for _ in range(8):
        word = random_word(rng, spec.d, 40)
        x0, x = rng.uniform(0.0, TWO_PI, 2)
        _, p = slide(spec, word, x0, x)
        image = apply_map(spec, p).image
        c = int(math.floor(float(spec.eta_lift(x)) / TWO_PI))
        _, q = slide(spec, word + (c,), x0, image.x)
        assert abs(q.x - image.x) < 1e-12
        assert abs(q.y - image.y) < 1e-12
        assert abs(q.z - image.z) < 1e-12
