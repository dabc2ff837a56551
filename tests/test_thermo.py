import math

import numpy as np
import pytest

from solenoidlab import (CapExceededError, SolenoidSpec, Word, benchmark_a,
                         benchmark_b, benchmark_c)
from solenoidlab import thermo

LOG2 = math.log(2.0)
T0_A = math.log(2.0) / math.log(2.5)


def brute_birkhoff_range(spec, word, xi, n_grid=4000, n_y=9):
    """Sampled range of the summed log-derivative over a cylinder.

    Samples base fibers and anchor heights; the sampled range must sit
    inside the rigorous interval enclosure.
    """
    n = word.generation
    fn = {"eta": lambda x, y: spec.eta_prime(x),
          "lam": spec.lam_prime,
          "nu": spec.nu_prime}[xi]
    lo, hi = math.inf, -math.inf
    xs = np.linspace(0.0, 2 * math.pi, n_grid, endpoint=False)
    chain = [xs]
    for s in reversed(word.symbols):
        chain.append(spec.eta_inverse_lift(chain[-1] + 2 * math.pi * s))
    for y0 in np.linspace(-1.0, 1.0, n_y):
        y = np.full_like(xs, y0)
        z = np.zeros_like(xs)
        total = np.zeros_like(xs)
        for j in range(n, 0, -1):
            xj = chain[j]
            total += np.log(fn(xj, y))
            y, z = spec.lam(xj, y) + spec.u(xj), spec.nu(xj, y, z) + spec.v(xj)
        lo = min(lo, float(total.min()))
        hi = max(hi, float(total.max()))
    return lo, hi


def test_birkhoff_constant_potentials():
    spec = benchmark_a()
    for n in (1, 4, 9):
        w = Word((0,) * n)
        lo, hi = thermo.birkhoff_bounds(spec, w, "lam")
        assert abs(lo - n * math.log(0.4)) < 1e-12
        assert abs(hi - n * math.log(0.4)) < 1e-12
        lo, hi = thermo.birkhoff_bounds(spec, w, "eta")
        assert abs(lo - n * LOG2) < 1e-12 and abs(hi - n * LOG2) < 1e-12


def test_birkhoff_nonlinear_branch_interval():
    spec = benchmark_c()
    lo, hi = thermo.birkhoff_bounds(spec, Word((0,)), "lam")
    assert math.log(0.30) <= lo <= hi <= math.log(0.40)
    # branch 0 is the positive-sine half circle for this family
    assert abs(lo - math.log(0.35)) < 5e-3
    assert abs(hi - math.log(0.40)) < 5e-3


def test_birkhoff_bounds_enclose_sampled_range():
    rng = np.random.default_rng(2)
    spec = SolenoidSpec(d=2, eta_eps=0.3, lam0=0.3, lam1=0.04, lam2=0.03,
                        nu0=0.12, nu1=0.02, nu2=0.03, u_amp=0.4, v_amp=0.4)
    for n in (1, 3, 5):
        for _ in range(3):
            w = Word(tuple(rng.integers(0, 2, n)))
            s_lo, s_hi = brute_birkhoff_range(spec, w, "lam")
            r_lo, r_hi = thermo.birkhoff_bounds(spec, w, "lam")
            assert r_lo <= s_lo + 1e-9 and s_hi <= r_hi + 1e-9
            s_lo, s_hi = brute_birkhoff_range(spec, w, "nu")
            r_lo, r_hi = thermo.birkhoff_bounds(spec, w, "nu")
            assert r_lo <= s_lo + 1e-9 and s_hi <= r_hi + 1e-9


def test_pressure_zero_exponent_is_log_d():
    for spec in (benchmark_a(), benchmark_c()):
        for n in (4, 8):
            b = thermo.pressure_bracket(spec, 0.0, n)
            assert abs(b.p_lo - math.log(spec.d)) < 1e-9
            assert abs(b.p_hi - math.log(spec.d)) < 1e-9


def test_pressure_closed_form_constant_family():
    b = thermo.pressure_bracket(benchmark_a(), 1.0, 8)
    expected = LOG2 + math.log(0.4)
    assert abs(b.p_lo - expected) < 1e-12
    assert abs(b.p_hi - expected) < 1e-12


def test_pressure_strictly_decreasing():
    spec = benchmark_c()
    ts = np.linspace(0.0, 2.0, 20)
    los = [thermo.pressure_bracket(spec, t, 8).p_lo for t in ts]
    his = [thermo.pressure_bracket(spec, t, 8).p_hi for t in ts]
    assert all(b < a for a, b in zip(los, los[1:]))
    assert all(b < a for a, b in zip(his, his[1:]))


def test_pressure_brackets_nest_under_doubling():
    spec = benchmark_c()
    for t in (0.3, 0.66, 1.2):
        small = thermo.pressure_bracket(spec, t, 5)
        big = thermo.pressure_bracket(spec, t, 10)
        assert big.p_hi <= small.p_hi + 1e-9
        assert big.p_lo >= small.p_lo - 1e-9
        assert big.p_lo <= big.p_hi


def test_pressure_brackets_nest_with_fiber_dependence():
    # quadratic fiber terms switch on the interval y-iteration path
    spec = SolenoidSpec(d=2, eta_eps=0.3, lam0=0.3, lam1=0.04, lam2=0.03,
                        nu0=0.12, nu1=0.02, nu2=0.03, u_amp=0.4, v_amp=0.4)
    for t in (0.3, 0.8, 1.5):
        small = thermo.pressure_bracket(spec, t, 5)
        big = thermo.pressure_bracket(spec, t, 10)
        assert big.p_hi <= small.p_hi + 1e-9
        assert big.p_lo >= small.p_lo - 1e-9


def test_pressure_cap():
    with pytest.raises(CapExceededError):
        thermo.pressure_bracket(benchmark_a(), 1.0, 25)


def test_bowen_closed_forms():
    lo, hi = thermo.solve_bowen(benchmark_a(), 8, 1e-6)
    assert hi - lo <= 1e-5
    assert lo <= T0_A <= hi
    spec3 = SolenoidSpec(d=3, lam0=1.0 / 9.0, nu0=1.0 / 18.0, u_amp=0.5,
                         v_amp=0.5)
    lo, hi = thermo.solve_bowen(spec3, 4, 1e-6)
    assert lo <= 0.5 <= hi and hi - lo <= 1e-5


def test_bowen_intervals_nest_in_generation():
    spec = benchmark_c()
    lo12, hi12 = thermo.solve_bowen(spec, 12, 1e-6)
    lo16, hi16 = thermo.solve_bowen(spec, 16, 1e-6)
    assert hi12 - lo12 < 0.02
    assert lo12 - 1e-12 <= lo16 and hi16 <= hi12 + 1e-12


def test_gibbs_weights_uniform_for_constant_family():
    spec = benchmark_a()
    w = thermo.gibbs_weights(spec, 0.9, 3)
    assert len(w) == 8
    assert all(abs(v - 0.125) < 1e-12 for v in w.values())
    arr = thermo.gibbs_weight_array(spec, 0.9, 8)
    assert abs(arr.sum() - 1.0) < 1e-12


def test_gibbs_weight_ratio_bound():
    spec = benchmark_c()
    n = 8
    t = 0.65
    arr = thermo.gibbs_weight_array(spec, t, n)
    bound = math.exp(t * n * (math.log(0.40) - math.log(0.30)))
    assert arr.max() / arr.min() <= bound


def test_exponents_closed_form():
    spec = benchmark_a()
    arr = thermo.gibbs_weight_array(spec, T0_A, 10)
    chi_eta, chi_lam, chi_nu, entropy = thermo.lyapunov_exponents(spec, arr, 10)
    assert abs(chi_lam - math.log(0.4)) < 1e-9
    assert abs(chi_nu - math.log(0.25)) < 1e-9
    assert abs(chi_eta - LOG2) < 1e-9
    assert abs(entropy - LOG2) < 1e-9


def test_entropy_stabilizes_in_generation():
    spec = benchmark_c()
    values = []
    for n in (8, 10, 12):
        m = thermo.build_gibbs_model(spec, n)
        values.append(m.entropy)
    assert abs(values[-1] - values[0]) < 0.05
    assert abs(values[-1] - values[1]) < 0.05


def test_entropy_dimension_identity():
    spec = benchmark_a()
    m = thermo.build_gibbs_model(spec, 8)
    assert abs(m.entropy - m.t0_mid * (-m.chi_lam)) < 1e-6


def test_regime_flags_all_benchmarks():
    ma = thermo.build_gibbs_model(benchmark_a(), 8)
    fa = thermo.classify_regime(benchmark_a(), ma)
    assert (fa.thin, fa.uniform_dissipation, fa.bunching) == (True, True, True)
    mb = thermo.build_gibbs_model(benchmark_b(), 8)
    fb = thermo.classify_regime(benchmark_b(), mb)
    assert fb.thin and not fb.bunching
    mc = thermo.build_gibbs_model(benchmark_c(), 8)
    fc = thermo.classify_regime(benchmark_c(), mc)
    assert fc.uniform_dissipation


def test_rate_function_zero_tilt():
    r = thermo.rate_function(benchmark_c(), thermo.PSI_LOG_LAM, 0.0, 8)
    assert abs(r.i_value) < 1e-12 and abs(r.eps) < 1e-12


def test_rate_function_degenerate_constant_family():
    r = thermo.rate_function(benchmark_a(), thermo.PSI_LOG_LAM, 0.5, 8)
    assert r.degenerate
    assert thermo.deviation_rate(benchmark_a(), thermo.PSI_LOG_LAM, 0.05, 8) \
        == math.inf


def test_rate_function_convex_growth():
    spec = benchmark_c()
    r1 = thermo.rate_function(spec, thermo.PSI_LOG_LAM, 0.25, 10)
    r2 = thermo.rate_function(spec, thermo.PSI_LOG_LAM, 0.5, 10)
    assert r2.i_value > r1.i_value > 0.0
    assert r2.eps > r1.eps > 0.0


def test_deviation_rate_matches_solved_tilt():
    spec = benchmark_c()
    eps = 0.03
    rate = thermo.deviation_rate(spec, thermo.PSI_LOG_LAM, eps, 10)
    assert 0.0 < rate < math.inf
    # the rate at the solved tilt reproduces eps
    s = thermo._solve_tilt(spec, thermo.PSI_LOG_LAM, 10, eps)
    r = thermo.rate_function(spec, thermo.PSI_LOG_LAM, s, 10)
    assert abs(r.eps - eps) < 1e-6


def test_nl_bound_below_root_benchmark_a():
    spec = benchmark_a()
    model = thermo.build_gibbs_model(spec, 10)
    nl = thermo.nl_dimension_bound(spec, model)
    assert nl.irregular_degenerate
    assert nl.bound < model.t0_lo
    assert nl.bound == pytest.approx(float(np.min(nl.b_values)))


def test_nl_bound_benchmark_c():
    spec = benchmark_c()
    model = thermo.build_gibbs_model(spec, 10)
    nl = thermo.nl_dimension_bound(spec, model)
    assert not nl.irregular_degenerate
    assert nl.bound < model.t0_lo
    # the irregular channel approaches the root as the deviation vanishes
    a_small = nl.a_values[0]
    assert abs(a_small - model.t0_mid) < 1e-3


def test_deviation_decay_positive_rate():
    spec = benchmark_c()
    decay = thermo.deviation_decay(spec, range(6, 13), threshold=0.05)
    assert decay.tau_emp > 0.0
    assert 0.0 < decay.tau_pred < math.inf
    assert decay.tau_emp < 2.0 * decay.tau_pred * 2.0  # sanity envelope


def test_quasi_multiplicativity_bounded():
    spec = benchmark_c()
    t = 0.65
    for n1, n2 in ((4, 4), (4, 8), (6, 6)):
        lo, hi = thermo.quasi_multiplicativity_stats(spec, n1, n2, t)
        assert 1.0 / 2.0 <= lo <= hi <= 2.0


def tiled_birkhoff_arrays(spec, n):
    """The bound table computed on word-indexed copies of each level."""
    from solenoidlab.numerics import (TWO_PI, interval_cos, interval_mul,
                                      interval_sin, interval_square)
    scale, log_iv = thermo._scale_interval, thermo._log_interval
    d, count = spec.d, spec.d ** n
    lo, hi = thermo._base_pieces(spec, min(thermo.BASE_SPLIT_DEPTH, n))
    lo, hi = lo[:, None], hi[:, None]
    levels = []
    for _ in range(n):
        lo = spec.eta_inverse_lift(
            np.concatenate([lo + TWO_PI * b for b in range(d)], axis=1))
        hi = spec.eta_inverse_lift(
            np.concatenate([hi + TWO_PI * b for b in range(d)], axis=1))
        levels.append((lo, hi))
    track_y = spec.lam2 != 0.0 or spec.nu2 != 0.0
    acc = {k: [np.zeros((lo.shape[0], count)) for _ in range(2)]
           for k in ("eta", "lam", "nu")}
    y_lo = np.full((lo.shape[0], count), -1.0)
    y_hi = np.full((lo.shape[0], count), 1.0)
    for j in range(n, 0, -1):
        reps = d ** (n - j)
        xlo, xhi = (np.tile(x, (1, reps)) for x in levels[j - 1])
        s_lo, s_hi = interval_sin(xlo, xhi)
        c_lo, c_hi = interval_cos(xlo, xhi)
        e = scale(c_lo, c_hi, spec.eta_eps)
        terms = {"eta": log_iv(d + e[0], d + e[1], "eta'")}
        a = scale(s_lo, s_hi, spec.lam1)
        a = spec.lam0 + a[0], spec.lam0 + a[1]
        lam, nu = a, scale(c_lo, c_hi, spec.nu1)
        nu = spec.nu0 + nu[0], spec.nu0 + nu[1]
        if track_y:
            t = scale(y_lo, y_hi, 2.0 * spec.lam2)
            lam = lam[0] + t[0], lam[1] + t[1]
            t = scale(y_lo, y_hi, spec.nu2)
            nu = nu[0] + t[0], nu[1] + t[1]
        terms["lam"] = log_iv(*lam, "lam'")
        terms["nu"] = log_iv(*nu, "nu'")
        for k, (t_lo, t_hi) in terms.items():
            acc[k][0] += t_lo
            acc[k][1] += t_hi
        if track_y and j > 1:
            p = interval_mul(a[0], a[1], y_lo, y_hi)
            q = scale(*interval_square(y_lo, y_hi), spec.lam2)
            u = scale(c_lo, c_hi, spec.u_amp)
            y_lo = np.clip(p[0] + q[0] + u[0], -1.0, 1.0)
            y_hi = np.clip(p[1] + q[1] + u[1], -1.0, 1.0)
    return {f"{k}_{side}": (acc[k][0].min(axis=0) if side == "inf"
                            else acc[k][1].max(axis=0))
            for k in acc for side in ("inf", "sup")}


def test_birkhoff_table_matches_tiled_reference():
    track_y = SolenoidSpec(d=2, eta_eps=0.3, lam0=0.3, lam1=0.04, lam2=0.03,
                           nu0=0.12, nu1=0.02, nu2=0.03, u_amp=0.4,
                           v_amp=0.4)
    d3 = SolenoidSpec(d=3, lam0=0.25, lam1=0.03, lam2=0.02, nu0=0.15,
                      nu2=0.03, u_amp=0.4, v_amp=0.4)
    for spec, n in ((benchmark_a(), 9), (benchmark_c(), 9), (track_y, 9),
                    (d3, 6), (track_y, 2)):
        table = thermo.birkhoff_table(spec, n)
        for name, ref in tiled_birkhoff_arrays(spec, n).items():
            assert getattr(table, name).tobytes() == ref.tobytes(), name


def test_gibbs_model_builds_each_table_once():
    spec = benchmark_c()
    thermo.birkhoff_table.cache_clear()
    thermo.build_gibbs_model(spec, 7)
    info = thermo.birkhoff_table.cache_info()
    assert info.misses == 1 and info.hits >= 2


def test_cap_checked_before_cached_table():
    spec = benchmark_a()
    thermo.birkhoff_table(spec, 8)
    with pytest.raises(CapExceededError):
        thermo.birkhoff_table(spec, 8, 2 ** 8 - 1)
    with pytest.raises(CapExceededError):
        thermo.pressure_bracket(spec, 1.0, 8, cap=2 ** 7)
