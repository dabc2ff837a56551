import math

import numpy as np
import pytest

from solenoidlab import (SolenoidSpec, Word, WordTooShortError, apply_map,
                         benchmark_a, benchmark_b, benchmark_c,
                         point_from_backward_word)
from solenoidlab import lamination as lam
from solenoidlab import thermo

TWO_PI = 2 * math.pi


def random_word(rng, d, n):
    return Word(tuple(rng.integers(0, d, n)))


def test_leaf_fixed_point_sample():
    leaf = lam.unstable_leaf(benchmark_a(), Word((0,) * 40), 0.2, 257)
    k = int(np.argmin(np.abs(leaf.lifts)))
    assert abs(leaf.samples[k, 1] - 5.0 / 6.0) < 1e-4
    assert np.all(np.diff(leaf.lifts) > 0)


def test_leaf_requires_depth():
    with pytest.raises(WordTooShortError):
        lam.unstable_leaf(benchmark_a(), Word((0, 1, 0)), 0.1, 16)


def test_leaf_matches_representatives_on_circle():
    spec = benchmark_a()
    rng = np.random.default_rng(4)
    word = random_word(rng, 2, 40)
    leaf = lam.unstable_leaf(spec, word, 0.0, 33)
    for k in (0, 7, 16, 25):
        x = leaf.lifts[k]
        ref = point_from_backward_word(spec, word, x).point
        assert abs(leaf.samples[k, 1] - ref.y) < 1e-12
        assert abs(leaf.samples[k, 2] - ref.z) < 1e-12


def test_leaf_continuity_bound():
    spec = benchmark_a()
    leaf = lam.unstable_leaf(spec, Word((1, 0) * 20), 0.3, 513)
    gaps = np.abs(np.diff(leaf.y))
    step = np.diff(leaf.lifts).max()
    # leaf slope is bounded by sum lam^k * |u'| / eta^k type series
    slope_bound = 0.5 / (1.0 - 0.4 / 2.0) + 0.1
    assert gaps.max() <= slope_bound * step


def test_intersections_disjoint_and_identical():
    spec = benchmark_a()
    la = lam.unstable_leaf(spec, Word((0,) * 40), 0.1, 129)
    lb = lam.unstable_leaf(spec, Word((0,) * 39 + (1,)), 0.1, 129)
    recs = lam.leaf_intersections(la, lb)
    assert len(recs) >= 1  # the two tube families cross
    assert all(0.0 < r.angle <= math.pi / 2 for r in recs)
    with pytest.raises(ValueError):
        lam.leaf_intersections(la, la)


def test_intersection_crossing_is_zero_of_gap():
    spec = benchmark_a()
    la = lam.unstable_leaf(spec, Word((0,) * 40), 0.1, 257)
    lb = lam.unstable_leaf(spec, Word((1,) + (0,) * 38 + (1,)), 0.1, 257)
    for rec in lam.leaf_intersections(la, lb):
        ya = lam.leaf_point(spec, la.past, rec.x_lift).y
        yb = lam.leaf_point(spec, lb.past, rec.x_lift).y
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
        p, q = lam.holonomy_map(spec, word, x, x)
        assert p == q


def test_holonomy_composition():
    rng = np.random.default_rng(10)
    for spec in (benchmark_a(), benchmark_b()):
        for _ in range(5):
            word = random_word(rng, 2, 40)
            x0, x1, x2 = sorted(rng.uniform(0, TWO_PI, 3))
            p0, q1 = lam.holonomy_map(spec, word, x0, x1)
            # both endpoints come from one call, bit for bit as one by one
            assert p0 == lam.leaf_point(spec, word, x0)
            assert q1 == lam.leaf_point(spec, word, x1)
            _, q2 = lam.holonomy_map(spec, word, x1, x2)
            _, q_direct = lam.holonomy_map(spec, word, x0, x2)
            assert abs(q2.y - q_direct.y) < 1e-8
            assert abs(q2.z - q_direct.z) < 1e-8


def test_holonomy_against_forward_iteration():
    # Continuing the word to pi agrees with mapping the half-lift forward:
    # the representative over pi of word w equals f(rep over pi/2 of w
    # truncated by one with the chain shifted).
    spec = benchmark_a()
    word = Word((0,) * 40)
    _, q = lam.holonomy_map(spec, word, 0.0, math.pi)
    ref = point_from_backward_word(spec, word, math.pi).point
    assert abs(q.y - ref.y) < 1e-8
    assert abs(q.z - ref.z) < 1e-8
    half = point_from_backward_word(spec, Word((0,) * 41), math.pi / 2).point
    fwd = apply_map(spec, half).image
    assert abs(q.y - fwd.y) < 1e-8
    assert abs(q.z - fwd.z) < 1e-8


def test_leaves_share_past_shadowing():
    # words agreeing on the most recent k symbols stay lam_sup**k close
    spec = benchmark_a()
    rng = np.random.default_rng(12)
    for k in (3, 6, 9):
        tail = tuple(rng.integers(0, 2, k))
        wa = Word(tuple(rng.integers(0, 2, 30)) + tail)
        wb = Word(tuple(rng.integers(0, 2, 30)) + tail)
        x = rng.uniform(0, TWO_PI)
        pa = point_from_backward_word(spec, wa, x).point
        pb = point_from_backward_word(spec, wb, x).point
        assert abs(pa.y - pb.y) <= 2.0 * 0.4 ** k + 1e-12


def test_gamma_pool_and_strong_lipschitz():
    spec = benchmark_b()
    pool = lam.build_gamma_pool(spec, 10, 16, seed=1)
    assert pool.size >= 2
    assert len(pool.records) > 0
    word = Word(tuple(np.random.default_rng(3).integers(0, 2, 14)))
    res = lam.strong_lipschitz_test(spec, word, 6, 0.5, pool)
    assert res.is_strong in (True, False)
    assert res.worst_margin > 0.0
    # margin ratio is exactly linear in 1/L
    res2 = lam.strong_lipschitz_test(spec, word, 6, 1.0, pool)
    assert res.worst_margin == pytest.approx(2.0 * res2.worst_margin)


def test_strong_lipschitz_monotone_in_L():
    spec = benchmark_b()
    pool = lam.build_gamma_pool(spec, 10, 16, seed=1)
    word = Word(tuple(np.random.default_rng(8).integers(0, 2, 14)))
    strong_small = lam.strong_lipschitz_test(spec, word, 6, 1e-6, pool)
    assert strong_small.is_strong  # tiny L makes the condition easy
    big = lam.strong_lipschitz_test(spec, word, 6, 1e9, pool)
    if math.isfinite(big.worst_margin):
        assert not big.is_strong


def test_strong_lipschitz_word_on_crossing_fails():
    # Build a word whose shifted base position sits on a pool crossing.
    spec = benchmark_b()
    pool = lam.build_gamma_pool(spec, 10, 16, seed=1)
    rec = pool.records[0]
    depth = 4
    from solenoidlab.coding import base_itinerary
    # choose the recent symbols so the depth-step chain from x=0 passes
    # through the crossing's base position
    x_cross = float(np.mod(rec.x_lift, TWO_PI))
    recent = base_itinerary(spec, x_cross, depth)
    word = Word(rec.past_a.symbols + tuple(recent.symbols))
    x_land = spec.eta(spec.eta(spec.eta(spec.eta(x_cross))))
    res = lam.strong_lipschitz_test(spec, word, depth, 0.5, pool,
                                    x=float(x_land), n_min=depth)
    assert res.is_strong is False
    assert res.worst_margin < 1e-3


def test_strong_lipschitz_indeterminate_without_pool():
    spec = benchmark_b()
    empty = lam.GammaPool(spec=spec, n_past=10, margin=0.5,
                          grid=np.linspace(0, TWO_PI, 9),
                          digits=np.zeros((0, 10), dtype=int),
                          leading=np.zeros(0, dtype=int),
                          y_curves=np.zeros((0, 9)), records=[])
    word = Word(tuple(np.random.default_rng(3).integers(0, 2, 14)))
    res = lam.strong_lipschitz_test(spec, word, 6, 0.5, empty)
    assert res.indeterminate


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
        ya, sa = _closed_form_leaf_a(rec.past_a.symbols, rec.x_lift)
        yb, sb = _closed_form_leaf_a(rec.past_b.symbols, rec.x_lift)
        assert abs(rec.angle - math.atan(abs(sa - sb))) < 1e-8
        assert abs(rec.y - ya) < 1e-12
        assert abs(ya - yb) < 1e-9  # refined onto the crossing
        assert not rec.near_tangency


def test_leaf_intersections_reproduce_pool_records():
    spec = benchmark_b()
    pool = lam.build_gamma_pool(spec, 10, 16, seed=1)
    leaves = [lam.unstable_leaf(spec, Word(tuple(int(s) for s in row)),
                                pool.margin, pool.grid.size, tol=1e-3)
              for row in pool.digits]
    expected = []
    for a in range(pool.size):
        for b in range(a + 1, pool.size):
            if pool.leading[a] == pool.leading[b]:
                continue
            recs = lam.leaf_intersections(leaves[a], leaves[b])
            assert recs == [r for r in pool.records
                            if (r.past_a, r.past_b) == (leaves[a].past,
                                                        leaves[b].past)]
            expected.extend(recs)
    assert expected == pool.records


def _scan_flags_word_by_word(spec, x_src, n, pairs, seed, L, pool):
    """Flagged words and weight of a scan, testing one word at a time."""
    rng = np.random.default_rng(seed)
    weights = thermo.gibbs_weight_array(spec, thermo._phi_exponent(spec, n), n)
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
        word = Word.from_index(int(i), d, n)
        pa = lam.leaf_point(spec, word, x_src)
        pb = lam.leaf_point(spec, Word.from_index(j, d, n), x_src)
        if math.hypot(pa.y - pb.y, pa.z - pb.z) == 0.0:
            continue
        res = lam.strong_lipschitz_test(spec, word, depth, L, pool, x=x_src,
                                        n_min=depth)
        tested += 1
        if res.is_strong is False:
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
