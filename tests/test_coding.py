import math

import numpy as np
import pytest

from solenoidlab import (CapExceededError, Point3, SolenoidSpec, Word,
                         WordTooShortError, apply_map, base_itinerary,
                         benchmark_a, benchmark_c, cylinder_base_interval,
                         enumerate_cylinders, inverse_base,
                         point_from_backward_word)
from solenoidlab.coding import (branch_of, descend_levels,
                                word_representatives)

TWO_PI = 2 * math.pi


def brute_representative(spec, word, x):
    """Independent single-point construction via the scalar public ops."""
    chain = [x]
    for s in reversed(word.symbols):
        chain.append(inverse_base(spec, chain[-1], s))
    p = Point3(chain[-1], 0.0, 0.0)
    for _ in word.symbols:
        p = apply_map(spec, p).image
    return p


def test_all_zero_past_hits_fixed_point():
    res = point_from_backward_word(benchmark_a(), Word((0,) * 40), 0.0)
    assert abs(res.point.y - 5.0 / 6.0) < 1e-14
    assert abs(res.point.z) < 1e-14
    assert res.error_bound < 1e-15


def test_deep_one_symbol_past():
    n = 40
    spec = benchmark_a()
    res = point_from_backward_word(spec, Word((1,) + (0,) * (n - 1)), 0.0)
    # Chain: pi -> 0 -> ... -> 0; first fiber step contributes -0.5, the
    # remaining n-1 steps apply y -> 0.4 y + 0.5.
    expected = 0.4 ** (n - 1) * (-0.5) + 0.5 * (1 - 0.4 ** (n - 1)) / 0.6
    assert abs(res.point.y - expected) < 1e-14


def test_word_too_short_raises():
    with pytest.raises(WordTooShortError):
        point_from_backward_word(benchmark_a(), Word((0, 1)), 0.0, tol=1e-2)


def test_matches_bruteforce_chain():
    rng = np.random.default_rng(11)
    for spec in (benchmark_a(), benchmark_c()):
        for _ in range(10):
            n = 12
            word = Word(tuple(rng.integers(0, spec.d, n)))
            x = rng.uniform(0, TWO_PI)
            res = point_from_backward_word(spec, word, x, tol=1e-4)
            ref = brute_representative(spec, word, x)
            assert abs(res.point.y - ref.y) < 1e-10
            assert abs(res.point.z - ref.z) < 1e-10


def test_shift_equivariance():
    # Mapping a representative forward equals the representative of the
    # extended word over the image fiber.
    rng = np.random.default_rng(5)
    for spec in (benchmark_a(), benchmark_c()):
        for _ in range(20):
            n = 30
            word = Word(tuple(rng.integers(0, spec.d, n)))
            x = rng.uniform(0, TWO_PI)
            p = point_from_backward_word(spec, word, x, tol=1e-6).point
            fp = apply_map(spec, p).image
            grown = Word(word.symbols + (int(branch_of(spec, x)),))
            q = point_from_backward_word(spec, grown, spec.eta(x), tol=1e-6).point
            assert abs(fp.y - q.y) < 1e-11
            assert abs(fp.z - q.z) < 1e-11
            assert min(abs(fp.x - q.x), TWO_PI - abs(fp.x - q.x)) < 1e-9


def test_itinerary_fixed_point_and_period_two():
    spec = benchmark_a()
    assert base_itinerary(spec, 0.0, 5).symbols == (0, 0, 0, 0, 0)
    assert base_itinerary(spec, TWO_PI / 3, 5).symbols == (0, 1, 0, 1, 0)


def test_itinerary_tie_break():
    spec = benchmark_a()
    assert base_itinerary(spec, math.pi - 1e-12, 1).symbols == (0,)
    assert base_itinerary(spec, math.pi, 1).symbols == (0,)


def test_enumeration_order_and_cap():
    spec = benchmark_a()
    words = enumerate_cylinders(spec, 2, "backward")
    assert [str(w) for w in words] == ["00", "01", "10", "11"]
    d3 = enumerate_cylinders(SolenoidSpec3(), 1, "forward")
    assert [str(w) for w in d3] == ["0", "1", "2"]
    with pytest.raises(CapExceededError):
        enumerate_cylinders(spec, 25, "backward")


def SolenoidSpec3():
    from solenoidlab import SolenoidSpec
    return SolenoidSpec(d=3, lam0=1.0 / 9.0, nu0=1.0 / 18.0, u_amp=0.5,
                        v_amp=0.5)


def test_cylinder_intervals_linear():
    spec = benchmark_a()
    lo, hi = cylinder_base_interval(spec, Word((0,), "forward"))
    assert (lo, hi) == (0.0, math.pi)
    lo, hi = cylinder_base_interval(spec, Word((0, 1), "forward"))
    assert abs(lo - math.pi / 2) < 1e-12 and abs(hi - math.pi) < 1e-12


def test_cylinder_interval_nonlinear_endpoint():
    spec = benchmark_c()
    lo, hi = cylinder_base_interval(spec, Word((0,), "forward"))
    assert lo == 0.0
    assert abs(spec.eta_lift(hi) - TWO_PI) < 1e-10


def test_cylinder_intervals_partition_circle():
    for spec in (benchmark_a(), benchmark_c()):
        n = 6
        words = enumerate_cylinders(spec, n, "forward")
        intervals = [cylinder_base_interval(spec, w) for w in words]
        total = sum(hi - lo for lo, hi in intervals)
        assert abs(total - TWO_PI) < 1e-8
        lengths = np.array([hi - lo for lo, hi in intervals])
        elo, ehi = spec.eta_prime_range()
        assert np.all(lengths >= TWO_PI * ehi ** (-n) - 1e-12)
        assert np.all(lengths <= TWO_PI * elo ** (-n) + 1e-12)
        # itinerary of each interval midpoint reproduces the word
        for w, (lo, hi) in zip(words[:16], intervals[:16]):
            mid = 0.5 * (lo + hi)
            assert base_itinerary(spec, mid, n).symbols == w.symbols


def test_bulk_representatives_match_scalar_path():
    spec = benchmark_c()
    n = 6
    x = 1.3
    y, z = word_representatives(spec, np.array([x]), n)
    words = enumerate_cylinders(spec, n, "backward")
    for idx in (0, 1, 17, 31, 63):
        ref = brute_representative(spec, words[idx], x)
        assert abs(y[0, idx] - ref.y) < 1e-11
        assert abs(z[0, idx] - ref.z) < 1e-11


def test_word_string_roundtrip_and_index():
    w = Word((1, 0, 1, 1))
    assert str(w) == "1011"
    assert Word.from_string("1011") == w
    assert Word.from_index(w.index(2), 2, 4) == w


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


def test_word_representatives_match_tiled_reference():
    d3 = SolenoidSpec(d=3, lam0=0.25, lam1=0.03, lam2=0.02, nu0=0.15,
                      nu2=0.03, u_amp=0.4, v_amp=0.4)
    lifts = np.array([0.0, 1.3, 4.0, TWO_PI - 1e-3])
    for spec, n in ((benchmark_a(), 0), (benchmark_a(), 9), (benchmark_c(), 9),
                    (d3, 6)):
        y, z = word_representatives(spec, lifts, n)
        y_ref, z_ref = tiled_representatives(spec, lifts, n)
        # bit for bit, signed zeros included
        assert y.tobytes() == y_ref.tobytes()
        assert z.tobytes() == z_ref.tobytes()
