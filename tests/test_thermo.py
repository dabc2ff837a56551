import math
import tracemalloc

import numpy as np
import pytest

from solenoidlab import (CapExceededError, SolenoidSpec, benchmark_a,
                         benchmark_b, benchmark_c)
from solenoidlab import coding, thermo
from solenoidlab.coding import cylinder_endpoints

LOG2 = math.log(2.0)
TWO_PI = 2.0 * np.pi
T0_A = math.log(2.0) / math.log(2.5)


def brute_birkhoff_range(spec, word, xi, n_grid=4000, n_y=9):
    """Sampled range of the summed log-derivative over a cylinder.

    Samples base fibers and anchor heights; the sampled range must sit
    inside the rigorous interval enclosure.
    """
    n = len(word)
    fn = {"eta": lambda x, y: spec.eta_prime(x),
          "lam": spec.lam_prime,
          "nu": spec.nu_prime}[xi]
    lo, hi = math.inf, -math.inf
    xs = np.linspace(0.0, 2 * math.pi, n_grid, endpoint=False)
    chain = [xs]
    for s in reversed(word):
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


def table_bounds(spec, word, xi):
    """(inf, sup) of the summed log-derivative xi over one backward word."""
    table = thermo.birkhoff_table(spec, len(word))
    idx = 0
    for s in word:
        idx = idx * spec.d + s
    return (float(getattr(table, f"{xi}_inf")[idx]),
            float(getattr(table, f"{xi}_sup")[idx]))


def test_birkhoff_constant_potentials():
    spec = benchmark_a()
    for n in (1, 4, 9):
        w = (0,) * n
        lo, hi = table_bounds(spec, w, "lam")
        assert abs(lo - n * math.log(0.4)) < 1e-12
        assert abs(hi - n * math.log(0.4)) < 1e-12
        lo, hi = table_bounds(spec, w, "eta")
        assert abs(lo - n * LOG2) < 1e-12 and abs(hi - n * LOG2) < 1e-12


def test_birkhoff_nonlinear_branch_interval():
    spec = benchmark_c()
    lo, hi = table_bounds(spec, (0,), "lam")
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
            w = tuple(rng.integers(0, 2, n))
            s_lo, s_hi = brute_birkhoff_range(spec, w, "lam")
            r_lo, r_hi = table_bounds(spec, w, "lam")
            assert r_lo <= s_lo + 1e-9 and s_hi <= r_hi + 1e-9
            s_lo, s_hi = brute_birkhoff_range(spec, w, "nu")
            r_lo, r_hi = table_bounds(spec, w, "nu")
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


def test_pressure_cap(monkeypatch):
    def no_table(spec, n):
        pytest.fail(f"a {spec.d}**{n} table was built before the cap check")

    monkeypatch.setattr(thermo, "_birkhoff_table", no_table)
    with pytest.raises(CapExceededError):
        thermo.pressure_bracket(benchmark_a(), 1.0, 25)
    monkeypatch.setattr(coding, "ENUMERATION_CAP", 2 ** 10)
    with pytest.raises(CapExceededError):
        thermo.pressure_bracket(benchmark_a(), 1.0, 12)


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
    w = thermo.gibbs_weight_array(spec, 0.9, 3)
    assert w.shape == (8,)
    assert np.all(np.abs(w - 0.125) < 1e-12)
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
    # A's weights are uniform, so the exponents and entropy are closed forms
    m = thermo.build_gibbs_model(benchmark_a(), 10)
    assert abs(m.chi_lam - math.log(0.4)) < 1e-9
    assert abs(m.chi_nu - math.log(0.25)) < 1e-9
    assert abs(m.chi_eta - LOG2) < 1e-9
    assert abs(m.entropy - LOG2) < 1e-9


def test_entropy_stabilizes_in_generation():
    spec = benchmark_c()
    values = []
    for n in (8, 10, 12):
        m = thermo.build_gibbs_model(spec, n)
        values.append(m.entropy)
    assert abs(values[-1] - values[0]) < 0.05
    assert abs(values[-1] - values[1]) < 0.05


def test_gibbs_model_holds_the_weight_array():
    spec = benchmark_c()
    m = thermo.build_gibbs_model(spec, 8)
    arr = thermo.gibbs_weight_array(spec, m.t0_mid, 8)
    assert m.weights.shape == (2 ** 8,)
    assert m.weights.tobytes() == arr.tobytes()
    assert not m.weights.flags.writeable


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


def tilt_at_root(spec, n):
    """The table, the model root t0 and (stats, degenerate) of log lam'."""
    table = thermo.birkhoff_table(spec, n)
    t0 = thermo.build_gibbs_model(spec, n).t0_mid
    return table, t0, thermo._tilt(table, t0, table.lam_mid)


def tilt_gap(stats, s):
    """Legendre gap s*mean(s) - (P(s) - P(0)) and mean shift of the tilt s."""
    p0, mean0 = stats(0.0)
    ps, means = stats(s)
    return s * means - (ps - p0), means - mean0


def test_rate_function_zero_tilt():
    _, _, (stats, _) = tilt_at_root(benchmark_c(), 8)
    i_value, eps = tilt_gap(stats, 0.0)
    assert abs(i_value) < 1e-12 and abs(eps) < 1e-12


def test_rate_function_degenerate_constant_family():
    table, t0, (_, degenerate) = tilt_at_root(benchmark_a(), 8)
    assert degenerate
    assert thermo._deviation_rates(table, t0, table.lam_mid, [0.05])[0] \
        == math.inf


def test_rate_function_convex_growth():
    _, _, (stats, _) = tilt_at_root(benchmark_c(), 10)
    i1, eps1 = tilt_gap(stats, 0.25)
    i2, eps2 = tilt_gap(stats, 0.5)
    assert i2 > i1 > 0.0
    assert eps2 > eps1 > 0.0


def test_deviation_rate_matches_solved_tilt():
    eps = 0.03
    table, t0, (stats, _) = tilt_at_root(benchmark_c(), 10)
    rate = thermo._deviation_rates(table, t0, table.lam_mid, [eps])[0]
    assert 0.0 < rate < math.inf
    # the rate at the solved tilt reproduces eps
    s = thermo._solve_tilt(stats, stats(0.0)[1], eps)
    assert abs(tilt_gap(stats, s)[1] - eps) < 1e-6


def test_solve_bowen_needs_a_positive_tol():
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol"):
            thermo.solve_bowen(benchmark_a(), 6, tol)


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


def test_nl_bound_takes_rates_at_the_model_root(monkeypatch):
    # a tighter tol moves the root; the rates must follow model.t0_mid
    # rather than re-solve the root at the default tol
    spec = benchmark_c()
    thermo.build_gibbs_model.cache_clear()  # no default-tol model to hit
    model = thermo.build_gibbs_model(spec, 10, tol=1e-9)

    def fail(*args):
        raise AssertionError("nl_dimension_bound re-solved the root")

    monkeypatch.setattr(thermo, "solve_bowen", fail)
    nl = thermo.nl_dimension_bound(spec, model)
    assert not nl.irregular_degenerate
    assert nl.bound < model.t0_lo


# ---------------------------------------------------------------------------
# Deviation rates against the per-call tilt helpers they replaced
# ---------------------------------------------------------------------------

D3 = SolenoidSpec(d=3, eta_eps=0.4, lam0=0.2, lam1=0.03, lam2=0.02,
                  nu0=0.08, nu2=0.02, u_amp=0.4, v_amp=0.4)

# The observables of the deviation rates, by name.
PSIS = ("log_lam", "neg_log_eta")


def psi_mid(table, psi):
    """psi's per-word Birkhoff sums at the cylinder midpoints."""
    return table.lam_mid if psi == "log_lam" else -table.eta_mid


def ref_tilt_stats(table, t0, psi, s):
    """Midpoint tilted pressure and tilted mean of psi at tilt strength s."""
    n = table.n
    base = t0 * table.lam_mid
    psi_sum = psi_mid(table, psi)
    logw = base + s * psi_sum
    norm = thermo._logsumexp(logw)
    w = np.exp(logw - norm)
    mean_psi = float(w @ psi_sum) / n
    pressure = float(norm) / n
    return pressure, mean_psi


def ref_degenerate(table, psi):
    psi_sum = psi_mid(table, psi)
    return float(psi_sum.max() - psi_sum.min()) / table.n < 1e-12


def ref_rate(table, t0, psi, t_aux):
    p0, _ = ref_tilt_stats(table, t0, psi, 0.0)
    ps, means = ref_tilt_stats(table, t0, psi, t_aux)
    return float(t_aux * means - (ps - p0))


def ref_solve_tilt(table, t0, psi, eps_target, s_max=512.0):
    if ref_degenerate(table, psi):
        return None
    _, mean0 = ref_tilt_stats(table, t0, psi, 0.0)

    def eps_of(s):
        return ref_tilt_stats(table, t0, psi, s)[1] - mean0

    sign = 1.0 if eps_target > 0 else -1.0
    s = sign
    while sign * eps_of(s) < sign * eps_target:
        s *= 2.0
        if abs(s) > s_max:
            return None
    lo, hi = (0.0, s) if sign > 0 else (s, 0.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if eps_of(mid) < eps_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ref_deviation_rate(table, t0, psi, eps):
    rates = []
    for target in (eps, -eps):
        s = ref_solve_tilt(table, t0, psi, target)
        if s is not None:
            rates.append(ref_rate(table, t0, psi, s))
    return min(rates) if rates else math.inf


def ref_nl_bound(spec, model, eps_grid, rate=ref_deviation_rate):
    """The per-eps loop of nl_dimension_bound on the helpers above."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    t0 = model.t0_mid
    chi_lam, chi_eta = model.chi_lam, model.chi_eta
    table = thermo.birkhoff_table(spec, model.n)
    a_vals = np.empty(eps_grid.size)
    b_vals = np.empty(eps_grid.size)
    any_rate_finite = False
    for k, eps in enumerate(eps_grid):
        if eps >= -chi_lam:
            a_vals[k] = math.inf
            b_vals[k] = math.inf
            continue
        i_lam = rate(table, t0, "log_lam", eps)
        i_eta = rate(table, t0, "neg_log_eta", eps)
        d1 = 1.0 + (-chi_lam - eps) / (chi_eta + eps)
        d2 = 1.0 + (chi_eta + eps) / (-chi_lam - eps)
        cands = []
        for i_val, denom in ((i_lam, d1), (i_eta, d2), (i_lam, d2)):
            if math.isfinite(i_val):
                cands.append(t0 - (i_val / (-chi_lam)) / denom)
                any_rate_finite = True
        a_vals[k] = max(cands) if cands else -math.inf
        b_vals[k] = thermo._b_channel(t0, chi_lam, chi_eta, eps)
    combined = np.maximum(a_vals, b_vals)
    k_best = int(np.argmin(combined))
    return thermo.NLBound(
        best_eps=float(eps_grid[k_best]), a_eps=float(a_vals[k_best]),
        b_eps=float(b_vals[k_best]), bound=float(combined[k_best]),
        eps_grid=eps_grid, a_values=a_vals, b_values=b_vals,
        irregular_degenerate=not any_rate_finite)


def _same_nl_bound(got, want):
    for field in ("best_eps", "a_eps", "b_eps", "bound",
                  "irregular_degenerate"):
        g, w = getattr(got, field), getattr(want, field)
        assert type(g) is type(w) and repr(g) == repr(w), field
    for field in ("eps_grid", "a_values", "b_values"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), field


# D3 stops at n = 10: its 3**12-word table takes ~20 s to build and the
# reference bound ~70 s more.
@pytest.mark.parametrize("spec, n", [
    pytest.param(spec, n, id=f"{name}-{n}")
    for name, spec in (("A", benchmark_a()), ("B", benchmark_b()),
                       ("C", benchmark_c()), ("d3", D3))
    for n in ((8, 10) if name == "d3" else (8, 10, 12))])
def test_deviation_rates_match_per_call_reference(spec, n):
    model = thermo.build_gibbs_model(spec, n)
    table = thermo.birkhoff_table(spec, n)
    lo, hi = thermo.solve_bowen(spec, n)
    t0 = 0.5 * (lo + hi)
    rates = {}

    def rate(table, t0, psi, eps):
        # each reference rate is solved once across the two grids
        key = (psi, float(eps))
        if key not in rates:
            rates[key] = ref_deviation_rate(table, t0, psi, eps)
        return rates[key]

    # 0.6 is beyond every tilt's reach on these families, the last two
    # deviations are at least -chi_lam, and -1.5 < -chi_eta turns the
    # first channel's denominator negative.
    wide = np.concatenate([thermo.default_eps_grid(),
                           [-1.5, 0.6, -model.chi_lam, 5.0]])
    for grid in (None, wide):
        want = ref_nl_bound(spec, model,
                            thermo.default_eps_grid() if grid is None
                            else grid, rate)
        _same_nl_bound(thermo.nl_dimension_bound(spec, model, grid), want)
    for psi in PSIS:
        assert rate(table, t0, psi, 0.6) == math.inf
        for eps in (1e-3, 0.03, 0.6):
            got = thermo._deviation_rates(table, t0, psi_mid(table, psi),
                                          [eps])[0]
            want = rate(table, t0, psi, eps)
            assert repr(float(got)) == repr(want)
        stats, degenerate = thermo._tilt(table, t0, psi_mid(table, psi))
        assert degenerate == ref_degenerate(table, psi)
        for t_aux in (-3.0, 0.0, 0.25, 2.0):
            assert stats(t_aux) == ref_tilt_stats(table, t0, psi, t_aux)


def test_solve_tilt_stops_once_the_bracket_closes(monkeypatch):
    # Once the midpoint equals an end, every later bisection step returns
    # that same midpoint: the early stop keeps the 60-step reference's
    # bits with fewer tilted evaluations.
    spec, n = benchmark_c(), 10
    table = thermo.birkhoff_table(spec, n)
    t0 = thermo.build_gibbs_model(spec, n).t0_mid
    ref_calls, ref_stats = [], ref_tilt_stats

    def counted_ref_stats(*args):
        ref_calls.append(args)
        return ref_stats(*args)

    for psi in PSIS:
        stats, _ = thermo._tilt(table, t0, psi_mid(table, psi))
        mean0 = stats(0.0)[1]
        for eps in (1e-3, 0.03, -0.03):
            calls = []

            def counted(s):
                calls.append(s)
                return stats(s)

            got = thermo._solve_tilt(counted, mean0, eps)
            ref_calls.clear()
            with monkeypatch.context() as m:
                m.setitem(globals(), "ref_tilt_stats", counted_ref_stats)
                want = ref_solve_tilt(table, t0, psi, eps)
            assert type(got) is float and repr(got) == repr(want)
            # the reference also evaluates the untilted mean once
            assert len(calls) < len(ref_calls) - 1


def test_deviation_decay_positive_rate():
    spec = benchmark_c()
    decay = thermo.deviation_decay(spec, range(6, 13), threshold=0.05)
    assert decay.tau_emp > 0.0
    assert 0.0 < decay.tau_pred < math.inf
    assert decay.tau_emp < 2.0 * decay.tau_pred * 2.0  # sanity envelope


def quasi_multiplicativity_stats(spec, n1, n2, t):
    """Range of weight(w1+w2) / (weight(w1)*weight(w2)) over all pairs.

    The concatenation places w1 in the deeper past.  Bounded ranges across
    generations are the empirical Gibbs-property check.
    """
    w1 = thermo.gibbs_weight_array(spec, t, n1)
    w2 = thermo.gibbs_weight_array(spec, t, n2)
    w12 = thermo.gibbs_weight_array(spec, t, n1 + n2)
    ratio = w12.reshape(w1.size, w2.size) / np.outer(w1, w2)
    return float(ratio.min()), float(ratio.max())


def test_quasi_multiplicativity_bounded():
    spec = benchmark_c()
    t = 0.65
    for n1, n2 in ((4, 4), (4, 8), (6, 6)):
        lo, hi = quasi_multiplicativity_stats(spec, n1, n2, t)
        assert 1.0 / 2.0 <= lo <= hi <= 2.0


# Interval ranges of the reference table, each in one expression of its
# own arrays; the table takes them in place through shared buffers.

def crosses(lo, hi, theta):
    k = np.ceil((lo - theta) / TWO_PI)
    return theta + TWO_PI * k <= hi


def interval_sin(lo, hi):
    slo, shi = np.sin(lo), np.sin(hi)
    smin = np.where(crosses(lo, hi, -0.5 * np.pi), -1.0, np.minimum(slo, shi))
    smax = np.where(crosses(lo, hi, 0.5 * np.pi), 1.0, np.maximum(slo, shi))
    return smin, smax


def interval_cos(lo, hi):
    clo, chi = np.cos(lo), np.cos(hi)
    cmin = np.where(crosses(lo, hi, np.pi), -1.0, np.minimum(clo, chi))
    cmax = np.where(crosses(lo, hi, 0.0), 1.0, np.maximum(clo, chi))
    return cmin, cmax


def interval_mul(alo, ahi, blo, bhi):
    p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    pmin = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    pmax = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return pmin, pmax


def interval_square(lo, hi):
    smax = np.maximum(lo * lo, hi * hi)
    smin = np.where((lo <= 0.0) & (hi >= 0.0), 0.0,
                    np.minimum(lo * lo, hi * hi))
    return smin, smax


def scale_interval(lo, hi, c):
    return (c * lo, c * hi) if c >= 0.0 else (c * hi, c * lo)


def log_interval(lo, hi, what):
    assert np.min(lo) > 0.0, what
    return np.log(lo), np.log(hi)


def tiled_birkhoff_arrays(spec, n):
    """The bound table computed on word-indexed copies of each level.

    Both endpoints of every base piece are descended on their own (2 * d**3
    lifts), where the table descends each shared endpoint once.
    """
    scale, log_iv = scale_interval, log_interval
    d, count = spec.d, spec.d ** n
    lo, hi = cylinder_endpoints(spec, min(thermo.BASE_SPLIT_DEPTH, n))
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


def one_block_depth(d):
    """Deepest generation whose d**n words the table builds as one block."""
    n = 0
    while d ** (n + 1) <= thermo.BLOCK_WORDS:
        n += 1
    return n


def test_birkhoff_table_matches_tiled_reference():
    track_y = SolenoidSpec(d=2, eta_eps=0.3, lam0=0.3, lam1=0.04, lam2=0.03,
                           nu0=0.12, nu1=0.02, nu2=0.03, u_amp=0.4,
                           v_amp=0.4)
    d3 = SolenoidSpec(d=3, lam0=0.25, lam1=0.03, lam2=0.02, nu0=0.15,
                      nu2=0.03, u_amp=0.4, v_amp=0.4)
    # One and two generations past a single block, so the blocked build runs.
    n2, n3 = one_block_depth(2), one_block_depth(3)
    for spec, n in ((benchmark_a(), 9), (benchmark_c(), 9), (track_y, 9),
                    (d3, 6), (track_y, 2),
                    (benchmark_c(), n2 + 1), (benchmark_c(), n2 + 2),
                    (track_y, n2 + 1), (track_y, n2 + 2),
                    (d3, n3 + 1), (d3, n3 + 2)):
        table = thermo.birkhoff_table(spec, n)
        for name, ref in tiled_birkhoff_arrays(spec, n).items():
            assert getattr(table, name).tobytes() == ref.tobytes(), name


def test_blocked_table_arrays_are_read_only():
    table = thermo.birkhoff_table(benchmark_c(), one_block_depth(2) + 1)
    for name in ("eta_inf", "eta_sup", "lam_inf", "lam_sup", "nu_inf",
                 "nu_sup"):
        arr = getattr(table, name)
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr.flags.writeable = True


def test_table_build_memory_stays_near_its_output():
    spec = benchmark_c()
    thermo.birkhoff_table(spec, 3)  # warm imports and small caches
    thermo.birkhoff_table.cache_clear()
    thermo.build_gibbs_model.cache_clear()
    tracemalloc.start()
    try:
        table = thermo.birkhoff_table(spec, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(getattr(table, f"{k}_{s}").nbytes
                 for k in ("eta", "lam", "nu") for s in ("inf", "sup"))
    assert output == 48 * 2 ** 16
    assert peak <= 8 * output, f"traced peak {peak / output:.1f}x the output"


# lam2 and nu2 nonzero: the build carries y intervals through every level.
TRACK_Y = SolenoidSpec(d=2, eta_eps=0.3, lam0=0.3, lam1=0.04, lam2=0.03,
                       nu0=0.12, nu1=0.02, nu2=0.03, u_amp=0.4, v_amp=0.4)
MB = 2 ** 20


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [benchmark_c(), TRACK_Y],
                         ids=["C", "track_y"])
def test_table_build_holds_a_fixed_block_budget(spec):
    # Blocks of 4,096 words with fresh temporaries held 8.6 MB (C) and
    # 10.8 MB (track_y) at every depth.  The table holds 16 * d**n bytes
    # per varying term (32 on C, whose nu' is constant; 48 on track_y).
    varying = sum(c is None for c in thermo._constant_terms(spec))
    thermo.birkhoff_table(spec, 3)  # warm imports and small caches
    try:
        for n in (12, 16, 18):
            thermo.birkhoff_table.cache_clear()
            transient = traced_peak(thermo.birkhoff_table, spec, n) \
                - 16 * varying * spec.d ** n
            assert transient < 4 * MB, \
                f"n = {n}: {transient / MB:.2f} MB above the table"
    finally:
        thermo.birkhoff_table.cache_clear()


ROWS = ("eta_inf", "eta_sup", "lam_inf", "lam_sup", "nu_inf", "nu_sup")


def test_constant_table_rows_hold_no_word_buffer():
    # A derivative that no cylinder varies is one value, seen with stride 0.
    spec, n = benchmark_a(), 12
    table = thermo.birkhoff_table(spec, n)
    for name in ROWS:
        row = getattr(table, name)
        assert row.shape == (spec.d ** n,) and row.strides == (0,), name


def test_varying_table_rows_are_one_block():
    # C varies eta' and lam' (one (2, 2, d**n) block) but not nu'.
    spec, n = benchmark_c(), 12
    table = thermo.birkhoff_table(spec, n)
    assert table.nu_inf.strides == table.nu_sup.strides == (0,)
    block = table.eta_inf.base
    assert block.shape == (2, 2, spec.d ** n) and block.flags.c_contiguous
    for i, term in enumerate(("eta", "lam")):
        for j, bound in enumerate(("inf", "sup")):
            row = getattr(table, f"{term}_{bound}")
            assert row.base is block
            assert row.ctypes.data == block[i, j].ctypes.data


def test_gibbs_passes_hold_one_scratch_array():
    # Fresh temporaries per pass held three word-sized float arrays and
    # a mask, 6.3 MB.
    spec, n = benchmark_c(), 18
    words = spec.d ** n
    thermo.birkhoff_table(spec, n)
    thermo.build_gibbs_model.cache_clear()
    try:
        peak = traced_peak(thermo.build_gibbs_model, spec, n)
    finally:
        thermo.birkhoff_table.cache_clear()
        thermo.build_gibbs_model.cache_clear()
    # The returned weights and one scratch array (4 MB at n = 18), the
    # one-byte mask of the maximum in the log-sum-exp, and bookkeeping.
    assert peak <= 17 * words + 2 ** 16, f"{peak / MB:.2f} MB traced"


def test_gibbs_model_builds_each_table_once():
    spec = benchmark_c()
    thermo.birkhoff_table.cache_clear()
    thermo.build_gibbs_model.cache_clear()
    thermo.build_gibbs_model(spec, 7)
    info = thermo.birkhoff_table.cache_info()
    assert info.misses == 1 and info.hits >= 2


def test_cap_checked_before_cached_table(monkeypatch):
    spec = benchmark_a()
    thermo.birkhoff_table(spec, 8)
    monkeypatch.setattr(coding, "ENUMERATION_CAP", 2 ** 8 - 1)
    with pytest.raises(CapExceededError):
        thermo.birkhoff_table(spec, 8)
    with pytest.raises(CapExceededError):
        thermo.pressure_bracket(spec, 1.0, 8)


def test_logsumexp_matches_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(17)
    edge = [np.array(v) for v in (
        [0.0], [-np.inf], [np.inf], [np.nan], [-np.inf, -np.inf],
        [np.inf, 1.0], [np.inf, -np.inf], [1.0, np.nan], [-np.inf, 2.0, 2.0],
        [710.0, 710.0], [-800.0, -800.5], [1e308, 1e308])]
    cases = edge + [rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), rng.integers(1, 300))
                    for _ in range(2000)]
    for k in range(500):
        a = rng.normal(0.0, 5.0, rng.integers(2, 200))
        a[rng.integers(0, a.size, 3)] = a.max()  # tied maxima
        if k % 3 == 0:
            a[rng.integers(0, a.size)] = -np.inf
        cases.append(a)
    table = thermo.birkhoff_table(benchmark_c(), 12)
    cases += [0.658 * table.lam_sup, -2.0 * table.lam_inf]
    for a in cases:
        ours = np.asarray(thermo._logsumexp(a))
        ref = np.asarray(special.logsumexp(a))
        assert ours.tobytes() == ref.tobytes(), a
