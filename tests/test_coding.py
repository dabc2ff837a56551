import itertools
import math

import numpy as np
import pytest

from scalar_reference import (Point3, apply_map, base_itinerary, branch_of,
                              inverse_base, leaf_point, word_text)
from solenoidlab import (CapExceededError, SolenoidSpec, WordTooShortError,
                         benchmark_a, benchmark_c)
from solenoidlab import cli, coding
from solenoidlab.coding import (_digit_rows, _word_label, cylinder_endpoints,
                                descend_levels, leaf_states,
                                word_representatives)
from solenoidlab.maps import branch_points

TWO_PI = 2 * math.pi


def brute_representative(spec, word, x):
    """Independent single-point construction via the scalar reference ops."""
    chain = [x]
    for s in reversed(word):
        chain.append(inverse_base(spec, chain[-1], s))
    p = Point3(chain[-1], 0.0, 0.0)
    for _ in word:
        p = apply_map(spec, p).image
    return p


def words_of(d, n):
    """All d**n digit rows of length n in lexicographic order, as tuples."""
    return [tuple(r) for r in _digit_rows(np.arange(d ** n), d, n).tolist()]


def test_all_zero_past_hits_fixed_point():
    point = leaf_point(benchmark_a(), (0,) * 40, 0.0)
    assert abs(point.y - 5.0 / 6.0) < 1e-14
    assert abs(point.z) < 1e-14
    assert coding._require_depth(benchmark_a(), 40, 1e-9) < 1e-15


def test_deep_one_symbol_past():
    n = 40
    spec = benchmark_a()
    point = leaf_point(spec, (1,) + (0,) * (n - 1), 0.0)
    # Chain: pi -> 0 -> ... -> 0; first fiber step contributes -0.5, the
    # remaining n-1 steps apply y -> 0.4 y + 0.5.
    expected = 0.4 ** (n - 1) * (-0.5) + 0.5 * (1 - 0.4 ** (n - 1)) / 0.6
    assert abs(point.y - expected) < 1e-14


def test_word_too_short_raises():
    with pytest.raises(WordTooShortError):
        coding._require_depth(benchmark_a(), 2, 1e-2)


def test_matches_bruteforce_chain():
    rng = np.random.default_rng(11)
    for spec in (benchmark_a(), benchmark_c()):
        for _ in range(10):
            n = 12
            word = tuple(rng.integers(0, spec.d, n))
            x = rng.uniform(0, TWO_PI)
            point = leaf_point(spec, word, x)
            ref = brute_representative(spec, word, x)
            assert abs(point.y - ref.y) < 1e-10
            assert abs(point.z - ref.z) < 1e-10


def test_shift_equivariance():
    # Mapping a representative forward equals the representative of the
    # extended word over the image fiber.
    rng = np.random.default_rng(5)
    for spec in (benchmark_a(), benchmark_c()):
        for _ in range(20):
            n = 30
            word = tuple(rng.integers(0, spec.d, n))
            x = rng.uniform(0, TWO_PI)
            p = leaf_point(spec, word, x)
            fp = apply_map(spec, p).image
            grown = word + (int(branch_of(spec, x)),)
            q = leaf_point(spec, grown, spec.eta(x))
            assert abs(fp.y - q.y) < 1e-11
            assert abs(fp.z - q.z) < 1e-11
            assert min(abs(fp.x - q.x), TWO_PI - abs(fp.x - q.x)) < 1e-9


def test_itinerary_fixed_point_and_period_two():
    spec = benchmark_a()
    assert base_itinerary(spec, 0.0, 5) == (0, 0, 0, 0, 0)
    assert base_itinerary(spec, TWO_PI / 3, 5) == (0, 1, 0, 1, 0)


def test_itinerary_tie_break():
    spec = benchmark_a()
    assert base_itinerary(spec, math.pi - 1e-12, 1) == (0,)
    assert base_itinerary(spec, math.pi, 1) == (0,)


def test_enumeration_order_and_cap():
    spec = benchmark_a()
    assert [_word_label(w) for w in words_of(2, 2)] == ["00", "01", "10",
                                                       "11"]
    assert [_word_label(w) for w in words_of(3, 1)] == ["0", "1", "2"]
    coding._check_cap(2, 24)
    with pytest.raises(CapExceededError):
        coding._check_cap(spec.d, 25)


def test_cylinder_intervals_linear():
    spec = benchmark_a()
    lo, hi = cylinder_endpoints(spec, 1)
    assert (lo[0], hi[0]) == (0.0, math.pi)
    lo, hi = cylinder_endpoints(spec, 2)
    # forward word (0, 1) has index 1
    assert abs(lo[1] - math.pi / 2) < 1e-12 and abs(hi[1] - math.pi) < 1e-12


def test_cylinder_interval_nonlinear_endpoint():
    spec = benchmark_c()
    lo, hi = cylinder_endpoints(spec, 1)
    assert lo[0] == 0.0
    assert abs(spec.eta_lift(hi[0]) - TWO_PI) < 1e-10


def test_cylinder_intervals_partition_circle():
    for spec in (benchmark_a(), benchmark_c()):
        n = 6
        words = words_of(spec.d, n)
        intervals = list(zip(*cylinder_endpoints(spec, n)))
        total = sum(hi - lo for lo, hi in intervals)
        assert abs(total - TWO_PI) < 1e-8
        lengths = np.array([hi - lo for lo, hi in intervals])
        elo, ehi = spec.d - abs(spec.eta_eps), spec.d + abs(spec.eta_eps)
        assert np.all(lengths >= TWO_PI * ehi ** (-n) - 1e-12)
        assert np.all(lengths <= TWO_PI * elo ** (-n) + 1e-12)
        # itinerary of each interval midpoint reproduces the word
        for w, (lo, hi) in zip(words[:16], intervals[:16]):
            mid = 0.5 * (lo + hi)
            assert base_itinerary(spec, mid, n) == w


def test_bulk_representatives_match_scalar_path():
    spec = benchmark_c()
    n = 6
    x = 1.3
    y, z = word_representatives(spec, np.array([x]), n)
    words = words_of(spec.d, n)
    for idx in (0, 1, 17, 31, 63):
        ref = brute_representative(spec, words[idx], x)
        assert abs(y[0, idx] - ref.y) < 1e-11
        assert abs(z[0, idx] - ref.z) < 1e-11


def test_word_string_roundtrip_and_index():
    w = (1, 0, 1, 1)
    assert _word_label(w) == word_text(w) == "1011"
    assert words_of(2, 4)[0b1011] == w
    assert _word_label((1, 10, 2)) == word_text((1, 10, 2)) == "1,10,2"


def tiled_representatives(spec, lifts, n):
    """Forward iteration on word-indexed copies of each chain level."""
    levels = descend_levels(spec, lifts, n)
    y = np.zeros(lifts.shape + (spec.d ** n,))
    z = np.zeros_like(y)
    for j in range(n, 0, -1):
        xj = np.tile(levels[j - 1], (1,) * lifts.ndim + (spec.d ** (n - j),))
        y, z = (spec.lam(xj, y) + spec.u(xj),
                spec.nu(xj, y, z) + spec.v(xj))
    return y, z


def expression_fiber_forward(spec, chain, shape, dx=None):
    """The forward pass of ``coding._fiber_forward`` in map expressions.

    Every level calls lam, nu, u, v (and lam_prime) on fresh arrays; the
    slope dy/dx follows the chain rule through lam and u.
    """
    y = z = np.zeros(shape)
    dy = None if dx is None else np.zeros(shape)
    for j in reversed(range(len(chain))):
        xj = chain[j]
        if dx is None:
            z = spec.nu(xj, y, z) + spec.v(xj)
        else:
            dy = ((spec.lam1 * np.cos(xj) * y - spec.u_amp * np.sin(xj))
                  * dx[j] + spec.lam_prime(xj, y) * dy)
        y = spec.lam(xj, y) + spec.u(xj)
    return (y, z) if dx is None else (y, dy)


D3 = SolenoidSpec(d=3, lam0=0.25, lam1=0.03, lam2=0.02, nu0=0.15, nu2=0.03,
                  u_amp=0.4, v_amp=0.4)
# u = v = 0: every u and v term is a signed zero.  FLAT keeps both linear
# factors positive, so the zero lam2 and nu2 terms are skipped; in
# FLAT_SIGNED they change sign, so the terms are formed.
FLAT = SolenoidSpec(d=2, lam0=0.4, lam1=0.1, nu0=0.2, nu1=0.05)
FLAT_SIGNED = SolenoidSpec(d=2, eta_eps=0.3, lam0=0.2, lam1=0.3, nu0=0.1,
                           nu1=0.2)
# lam1 = nu1 = 0 (float factors) with quadratic terms.
QUADRATIC = SolenoidSpec(d=2, lam0=0.3, lam2=0.05, nu0=0.15, nu2=0.04,
                         u_amp=0.5, v_amp=0.5)


def test_word_representatives_match_tiled_reference():
    lifts = np.array([0.0, 1.3, 4.0, TWO_PI - 1e-3])
    for spec, n in ((benchmark_a(), 0), (benchmark_a(), 9), (benchmark_c(), 9),
                    (D3, 6), (FLAT, 8), (FLAT_SIGNED, 8), (QUADRATIC, 8)):
        y, z = word_representatives(spec, lifts, n)
        y_ref, z_ref = tiled_representatives(spec, lifts, n)
        # bit for bit, signed zeros included
        assert y.tobytes() == y_ref.tobytes()
        assert z.tobytes() == z_ref.tobytes()


@pytest.mark.parametrize("name", ["A", "C", "d3", "flat", "flat_signed",
                                  "quadratic"])
def test_leaf_evaluations_match_expression_reference(name):
    spec = {"A": benchmark_a(), "C": benchmark_c(), "d3": D3, "flat": FLAT,
            "flat_signed": FLAT_SIGNED, "quadratic": QUADRATIC}[name]
    rng = np.random.default_rng(3)
    m, n = 6, 14
    digits = rng.integers(0, spec.d, (m, n))
    digits[0] = 0
    shared = np.array([-TWO_PI, -0.7, -0.0, 0.0, 1.3, math.pi, TWO_PI,
                       TWO_PI + 0.4, 9.5])
    rows = rng.uniform(-3.0, 10.0, (m, len(shared)))
    rows[:, 0] = 0.0
    rows[1, 1] = -TWO_PI
    for lifts in (shared, rows):
        chain, shape = coding._leaf_chain(spec, digits, lifts)
        dx, dxj = [], 1.0
        for xj in chain:
            dxj = dxj / spec.eta_prime(xj)
            dx.append(dxj)
        y_ref, z_ref = expression_fiber_forward(spec, chain, shape)
        y_jet, dy_ref = expression_fiber_forward(spec, chain, shape, dx)
        y, z = leaf_states(spec, digits, lifts)
        yj, dy = coding._leaf_jets(spec, digits, lifts)
        # bit for bit, signed zeros included
        assert y.tobytes() == y_ref.tobytes() == yj.tobytes()
        assert z.tobytes() == z_ref.tobytes()
        assert dy.tobytes() == dy_ref.tobytes()


def scalar_cylinder_interval(spec, word):
    """One forward cylinder, descended endpoint by endpoint in scalars."""
    a = branch_points(spec)
    syms = word
    lo, hi = a[syms[-1]], a[syms[-1] + 1]
    for s in reversed(syms[:-1]):
        lo, hi = (float(spec.eta_inverse_lift(lo + TWO_PI * s)),
                  float(spec.eta_inverse_lift(hi + TWO_PI * s)))
    return float(lo), float(hi)


def test_cylinder_endpoints_match_scalar_reference():
    d3 = SolenoidSpec(d=3, eta_eps=0.4, lam0=0.2, lam1=0.03, lam2=0.02,
                      nu0=0.08, nu2=0.02, u_amp=0.4, v_amp=0.4)
    for spec in (benchmark_a(), benchmark_c(), d3):
        for m in range(1, 6):
            words = itertools.product(range(spec.d), repeat=m)
            ref = np.array([scalar_cylinder_interval(spec, w) for w in words])
            lo, hi = cylinder_endpoints(spec, m)
            # bit for bit, signed zeros included
            assert lo.tobytes() == ref[:, 0].tobytes()
            assert hi.tobytes() == ref[:, 1].tobytes()


def test_descend_levels_rows_follow_their_digits():
    spec = benchmark_c()
    n = 7
    lifts = np.array([0.0, 1.3, TWO_PI + 0.4])
    fan = descend_levels(spec, lifts, n)
    rows = np.array([[0] * n, [1, 0, 1, 1, 0, 0, 1], [1] * n])
    index = rows @ spec.d ** np.arange(n - 1, -1, -1)
    levels = descend_levels(spec, lifts, n, rows)
    for j in range(1, n + 1):
        # row i at depth j is the fan-out column of its j most recent symbols
        expected = fan[j - 1][:, index % spec.d ** j].T
        assert levels[j - 1].tobytes() == expected.tobytes()


def word_cylinder_table(spec, n, path):
    """The cylinder table with labels printed from enumerated words."""
    words = map(word_text, itertools.product(range(spec.d), repeat=n))
    lo, hi = cylinder_endpoints(spec, n)
    with open(path, "w") as fh:
        fh.write(f"# spec_hash={spec.spec_hash()} generation={n}\n")
        fh.write("word,interval_lo,interval_hi\n")
        for w, lo_w, hi_w in zip(words, lo.tolist(), hi.tolist()):
            fh.write(f"{w},{lo_w:.12g},{hi_w:.12g}\n")


def test_cylinder_table_labels_match_words(tmp_path, monkeypatch):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    d3 = SolenoidSpec(d=3, eta_eps=0.4)
    cases = [(spec, n) for spec in (benchmark_c(), d3) for n in range(1, 11)]
    for spec, n in cases + [(SolenoidSpec(d=11, eta_eps=0.5), 2)]:
        cli._write_cylinders(spec, n, new)
        word_cylinder_table(spec, n, ref)
        assert new.read_bytes() == ref.read_bytes()
    monkeypatch.setattr(coding, "ENUMERATION_CAP", 2 ** 10)
    # the cap is checked where the d**n endpoints are made
    cylinder_endpoints(benchmark_c(), 10)
    with pytest.raises(CapExceededError):
        cylinder_endpoints(benchmark_c(), 11)
    with pytest.raises(CapExceededError):
        cli._write_cylinders(benchmark_c(), 11, new)
