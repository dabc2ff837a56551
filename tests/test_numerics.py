import math
import warnings

import mpmath
import numpy as np

from solenoidlab import SolenoidSpec, benchmark_a, benchmark_c, maps
from solenoidlab.numerics import TWO_PI, solve_increasing


def full_array_solve(f, fprime, targets, lo, hi, tol=1e-13, max_iter=80):
    """Reference Newton that iterates the whole array until all converge."""
    targets = np.asarray(targets, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), targets.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), targets.shape).copy()
    x = 0.5 * (lo + hi)
    frozen = np.zeros(targets.shape, dtype=bool)
    for _ in range(max_iter):
        fx = f(x) - targets
        lo = np.where(~frozen & (fx < 0.0), x, lo)
        hi = np.where(~frozen & (fx > 0.0), x, hi)
        dfx = fprime(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fx / dfx
        x_new = x - step
        bad = ~np.isfinite(x_new) | (x_new < lo) | (x_new > hi)
        x_new = np.where(bad, 0.5 * (lo + hi), x_new)
        converged = np.abs(x_new - x) <= tol * np.maximum(1.0, np.abs(x_new))
        x = np.where(frozen, x, x_new)
        frozen |= converged
        if bool(np.all(frozen)):
            break
    return x


def reference_lift(spec, targets, **kw):
    t = np.asarray(targets, dtype=float)
    e = abs(spec.eta_eps)
    return full_array_solve(spec.eta_lift, spec.eta_prime, t,
                            (t - e) / spec.d, (t + e) / spec.d, **kw)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def lift_targets(rng, size):
    """Lifts x + 2*pi*b as the descents make them, seams and duplicates included."""
    x = rng.uniform(0.0, TWO_PI, size)
    seams = np.array([0.0, -0.0, TWO_PI, 2 * TWO_PI, 3 * TWO_PI,
                      np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, 7.0),
                      np.nextafter(0.0, -1.0), 5e-324, -5e-324])
    t = np.concatenate([x, x + TWO_PI, seams, x[:50], rng.uniform(-20, 40, 200)])
    return rng.permutation(t)


def solve_both(spec, t, lo, hi, **kw):
    args = (spec.eta_lift, spec.eta_prime, t, lo, hi)
    return solve_increasing(*args, **kw), full_array_solve(*args, **kw)


def test_solve_increasing_matches_full_array_newton():
    rng = np.random.default_rng(11)
    d3 = SolenoidSpec(d=3, eta_eps=0.9, lam0=0.2, nu0=0.1)
    for spec in (benchmark_c(), d3):
        e = spec.eta_eps
        t = lift_targets(rng, 3000)
        new, ref = solve_both(spec, t, (t - e) / spec.d, (t + e) / spec.d)
        assert same_bits(new, ref)
        # A 2-d target block with broadcast scalar and row brackets.
        block = t[:3000].reshape(60, 50)
        new, ref = solve_both(spec, block, -1.0, 4 * TWO_PI)
        assert same_bits(new, ref)
        row = (block[0] + e) / spec.d
        new, ref = solve_both(spec, block[:1] + np.zeros((4, 1)),
                              (block[0] - e) / spec.d, row)
        assert same_bits(new, ref)
        # Each element converges on its own: chunks agree with the batch.
        whole = solve_increasing(spec.eta_lift, spec.eta_prime, t,
                                 (t - e) / spec.d, (t + e) / spec.d)
        parts = [solve_increasing(spec.eta_lift, spec.eta_prime, c,
                                  (c - e) / spec.d, (c + e) / spec.d)
                 for c in np.array_split(t, 7)]
        assert same_bits(whole, np.concatenate(parts))


def test_solve_increasing_zero_dim_and_early_stop():
    spec = benchmark_c()
    for value in (0.0, -0.0, 1.234, TWO_PI, 3 * TWO_PI - 1e-15):
        t = np.asarray(value)
        new, ref = solve_both(spec, t, (t - 0.3) / 2, (t + 0.3) / 2)
        assert new.shape == () and same_bits(new, ref)
    # max_iter=3 stops before most elements converge and returns the last
    # iterate, exactly as the full-array loop does.
    t = lift_targets(np.random.default_rng(5), 500)
    lo, hi = np.full(t.shape, -2.0), np.full(t.shape, 14.0)
    new, ref = solve_both(spec, t, lo, hi, max_iter=3)
    assert same_bits(new, ref)
    converged, _ = solve_both(spec, t, lo, hi)
    assert not np.array_equal(new, converged)


def test_closed_form_lift_matches_newton_at_zero_eps():
    rng = np.random.default_rng(3)
    d3 = SolenoidSpec(d=3, lam0=0.2, nu0=0.1)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e-310,
                         -TWO_PI, -7.5, 4 * math.pi, 4 * math.pi + 1e-9,
                         50.0 * TWO_PI, -50.0 * TWO_PI, 1e300, -1e300])
    for spec in (benchmark_a(), d3):
        t = np.concatenate([specials, rng.uniform(-30, 60, 5000),
                            lift_targets(rng, 500)])
        assert same_bits(spec.eta_inverse_lift(t), reference_lift(spec, t))
        for value in specials:
            assert same_bits(spec.eta_inverse_lift(value),
                             reference_lift(spec, value))
    # -0.0 lifts to +0.0, as Newton's midpoint of [-0.0, +0.0] gives.
    assert math.copysign(1.0, float(benchmark_a().eta_inverse_lift(-0.0))) == 1.0


BIG = np.finfo(float).max
LIFT_FAMILIES = (benchmark_c(), SolenoidSpec(d=3, eta_eps=-0.9, lam0=0.2),
                 SolenoidSpec(d=2, eta_eps=1.8, lam0=0.2))


def mp_lift(spec, t, x, steps=3):
    """The root of eta_lift(x) = t at 40 digits, by Newton from float x."""
    with mpmath.workdps(40):
        t, x = mpmath.mpf(float(t)), mpmath.mpf(float(x))
        for _ in range(steps):
            step = ((spec.d * x + spec.eta_eps * mpmath.sin(x) - t)
                    / (spec.d + spec.eta_eps * mpmath.cos(x)))
            x -= step
        assert abs(step) < mpmath.mpf(10) ** -30
        return x


def test_nonlinear_lift_matches_mpmath():
    rng = np.random.default_rng(9)
    for spec in LIFT_FAMILIES:
        t = lift_targets(rng, 500)
        new, ref = spec.eta_inverse_lift(t), reference_lift(spec, t)
        true = [mp_lift(spec, ti, xi) for ti, xi in zip(t, ref)]
        err_new = np.array([float(abs(x - r)) for x, r in zip(new, true)])
        err_ref = np.array([float(abs(x - r)) for x, r in zip(ref, true)])
        assert t.size >= 1000
        assert np.all(err_new <= err_ref.max()
                      + np.spacing(np.maximum(1.0, np.abs(new))))


def residual_ok(spec, t, x):
    res = np.abs(spec.eta_lift(x) - t) / (spec.d - abs(spec.eta_eps))
    return res <= maps.LIFT_TOL * np.maximum(1.0, np.abs(x))


def test_lift_fallback_matches_newton(monkeypatch):
    # A four-interval start table leaves most targets to the bracketed
    # fallback, which must give Newton's bits on exactly those targets.
    spec = benchmark_c()
    monkeypatch.setattr(maps, "LIFT_NODES", 4)
    coarse = maps._lift_table.__wrapped__(spec.d, spec.eta_eps)
    monkeypatch.setattr(maps, "_lift_table", lambda d, eps: coarse)
    seen = []

    def spy(f, fprime, targets, lo, hi):
        seen.append(targets.copy())
        return solve_increasing(f, fprime, targets, lo, hi)

    monkeypatch.setattr(maps, "solve_increasing", spy)
    t = lift_targets(np.random.default_rng(4), 1000)
    x = spec.eta_inverse_lift(t)
    assert len(seen) == 1 and 0 < seen[0].size < t.size
    fell = np.isin(t, seen[0])
    assert same_bits(x[fell], reference_lift(spec, t[fell]))
    assert np.all(residual_ok(spec, t[~fell], x[~fell]))


def test_lift_edge_inputs():
    for spec in LIFT_FAMILIES:
        period = TWO_PI * spec.d
        mult = period * np.array([-50.0, -3.0, -1.0, 1.0, 2.0, 7.0, 50.0])
        t = np.concatenate([
            [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf,
             BIG, -BIG],
            mult, np.nextafter(mult, np.inf), np.nextafter(mult, -np.inf)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = spec.eta_inverse_lift(t)
            singles = [spec.eta_inverse_lift(np.asarray(v)) for v in t]
        assert all(s.shape == () and same_bits(s, xi)
                   for s, xi in zip(singles, x))
        assert math.copysign(1.0, x[1]) == 1.0
        with np.errstate(all="ignore"):
            ref = reference_lift(spec, t)
            ok = residual_ok(spec, t, x)
        fin = np.isfinite(t)
        assert np.all(ok[fin] | (x[fin] == ref[fin]))
        assert same_bits(x[~fin], ref[~fin])
