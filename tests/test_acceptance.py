"""Acceptance suite: one test per criterion, each printing a verdict line.

Every criterion is expected green.  Criterion 4 fits the full cloud with
`attractor_dimension`, which streams it one chunk of whole fibres at a
time and counts the boxes met by the leaf chords between adjacent
fibers; that carries the scale window below the pinned fiber spacing
(see the README and demos/04_box_counting.py).
"""

import json
import math
import time

import numpy as np

from scalar_reference import Point3, apply_map
from solenoidlab import SolenoidSpec, benchmark_a, benchmark_b, benchmark_c
from solenoidlab import cli, geometry, lamination, thermo
from solenoidlab.coding import leaf_states

T0_A = math.log(2.0) / math.log(2.5)
LOG2 = math.log(2.0)


def verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}", flush=True)
    return ok


def test_criterion_01_bowen_closed_forms():
    thermo.birkhoff_table.cache_clear()
    thermo.build_gibbs_model.cache_clear()
    t_start = time.perf_counter()
    lo, hi = thermo.solve_bowen(benchmark_a(), 8, 1e-6)
    elapsed = time.perf_counter() - t_start
    ok = (hi - lo <= 1e-5) and (lo <= T0_A <= hi) and elapsed < 1.0
    spec3 = SolenoidSpec(d=3, lam0=1.0 / 9.0, nu0=1.0 / 18.0,
                         u_amp=0.5, v_amp=0.5)
    lo3, hi3 = thermo.solve_bowen(spec3, 4, 1e-6)
    ok3 = lo3 <= 0.5 <= hi3 and hi3 - lo3 <= 1e-5
    assert verdict(1, ok and ok3,
                   f"root interval [{lo:.7f}, {hi:.7f}] contains log2/log2.5="
                   f"{T0_A:.7f}, width {hi - lo:.1e} <= 1e-5, {elapsed:.2f}s "
                   f"< 1s; d=3 1/9-family contains 0.5")


def test_criterion_02_pressure_anchors():
    ok = True
    notes = []
    specs = (benchmark_a(), benchmark_b(), benchmark_c(),
             SolenoidSpec(d=3, lam0=1.0 / 9.0, nu0=1.0 / 18.0,
                          u_amp=0.5, v_amp=0.5))
    for spec in specs:
        b0 = thermo.pressure_bracket(spec, 0.0, 8)
        ok &= abs(b0.p_lo - math.log(spec.d)) < 1e-9
        ok &= abs(b0.p_hi - math.log(spec.d)) < 1e-9
    for spec in (benchmark_a(), benchmark_c()):
        ts = np.linspace(0.0, 2.0, 20)
        los = [thermo.pressure_bracket(spec, float(t), 8).p_lo for t in ts]
        his = [thermo.pressure_bracket(spec, float(t), 8).p_hi for t in ts]
        ok &= all(b < a for a, b in zip(los, los[1:]))
        ok &= all(b < a for a, b in zip(his, his[1:]))
        for t in (0.4, 0.9):
            small = thermo.pressure_bracket(spec, t, 6)
            big = thermo.pressure_bracket(spec, t, 12)
            nested = (big.p_hi <= small.p_hi + 1e-9
                      and big.p_lo >= small.p_lo - 1e-9)
            ok &= nested
            notes.append(f"nest(t={t})={nested}")
    assert verdict(2, ok, "P(0)=log d to 1e-9 on all benchmarks; strictly "
                   "decreasing on 20-point grid; brackets nested n->2n")


def test_criterion_03_slice_dimension():
    spec = benchmark_a()
    ok = True
    parts = []
    for x in (0.0, math.pi / 2):
        t_start = time.perf_counter()
        cloud = geometry.slice_cloud(spec, x, 16)
        fit = geometry.box_dimension(cloud, 12)
        elapsed = time.perf_counter() - t_start
        good = (abs(fit.slope - T0_A) <= 0.10 and fit.r2 >= 0.99
                and elapsed < 60.0)
        ok &= good
        parts.append(f"x={x:.2f}: slope={fit.slope:.4f} r2={fit.r2:.4f} "
                     f"{elapsed:.1f}s")
    assert verdict(3, ok, f"slices within +-0.10 of {T0_A:.4f}: "
                   + "; ".join(parts))


def test_criterion_04_full_dimension():
    spec = benchmark_a()
    t_start = time.perf_counter()
    fit = geometry.attractor_dimension(spec, 12, 256, 12)
    elapsed = time.perf_counter() - t_start
    target = 1.0 + T0_A
    in_band = abs(fit.slope - target) <= 0.15
    ok = in_band and elapsed < 120.0
    verdict(4, ok, f"full cloud slope={fit.slope:.4f} vs {target:.4f} "
            f"+-0.15 ({elapsed:.0f}s < 120s), finest scale "
            f"{fit.scale_lo:.1e}")
    assert elapsed < 120.0
    assert in_band  # chord counts reach below the 2*pi/256 fiber spacing


def test_criterion_05_projection_dimension():
    spec = benchmark_a()
    ok = True
    parts = []
    for x in (0.0, math.pi / 2):
        cloud = geometry.project_cloud(geometry.slice_cloud(spec, x, 16), (0,))
        fit = geometry.box_dimension(cloud, 12)
        ok &= abs(fit.slope - min(T0_A, 1.0)) <= 0.10
        parts.append(f"x={x:.2f}: {fit.slope:.4f}")
    assert verdict(5, ok, "y-projection slopes within +-0.10 of "
                   f"{min(T0_A, 1.0):.4f}: " + "; ".join(parts))


def test_criterion_06_exponents_and_entropy():
    model = thermo.build_gibbs_model(benchmark_a(), 12)
    ok = abs(model.chi_lam - math.log(0.4)) < 1e-9
    ok &= abs(model.chi_nu - math.log(0.25)) < 1e-9
    ok &= abs(model.chi_eta - LOG2) < 1e-9
    ok &= abs(model.entropy - LOG2) < 0.02
    identity = abs(model.entropy - model.t0_mid * (-model.chi_lam))
    ok &= identity <= 0.02
    assert verdict(6, ok, f"chi=({model.chi_eta:.6f}, {model.chi_lam:.6f}, "
                   f"{model.chi_nu:.6f}) exact to 1e-9; entropy "
                   f"{model.entropy:.6f}~log2; identity gap {identity:.2e}")


def test_criterion_07_regime_flags():
    fa = thermo.classify_regime(benchmark_a(),
                                thermo.build_gibbs_model(benchmark_a(), 10))
    fb = thermo.classify_regime(benchmark_b(),
                                thermo.build_gibbs_model(benchmark_b(), 10))
    fc = thermo.classify_regime(benchmark_c(),
                                thermo.build_gibbs_model(benchmark_c(), 10))
    ok = (fa.thin, fa.uniform_dissipation, fa.bunching) == (True, True, True)
    ok &= (fb.thin, fb.bunching) == (True, False)
    ok &= fc.uniform_dissipation and fc.thin and not fc.bunching
    assert verdict(7, ok, f"A={cli._jsonable(fa)}; B bunching={fb.bunching}; "
                   f"C uniform={fc.uniform_dissipation}")


def test_criterion_08_holonomy_laws():
    worst = forward = 0.0
    for spec in (benchmark_a(), benchmark_b(), benchmark_c()):
        rng = np.random.default_rng(1)
        pasts, xs = [], []
        for _ in range(200):
            pasts.append(rng.integers(0, spec.d, 40))
            xs.append(np.sort(rng.uniform(0.0, 2 * math.pi, 3)))
        pasts = np.array(pasts)
        x0, x1, x2 = np.array(xs).T
        # the slides x0 -> x0, x1 -> x2 and x0 -> x2 of all 200 leaves,
        # endpoint pairs side by side, from one call
        y, z = leaf_states(spec, pasts,
                           np.column_stack([x0, x0, x1, x2, x0, x2]))
        err_id = np.hypot(y[:, 0] - y[:, 1], z[:, 0] - z[:, 1])
        err_comp = np.hypot(y[:, 3] - y[:, 5], z[:, 3] - z[:, 5])
        worst = max(worst, err_id.max(), err_comp.max())
        images = [apply_map(spec, Point3(float(x), yp, zp)).image
                  for x, yp, zp in zip(x0, y[:, 0], z[:, 0])]
        # forward law: f maps leaf w's point over x0 to leaf w + (c,)'s
        # point over eta(x0), c = floor(eta_lift(x0) / 2 pi) the branch of
        # x0; all 200 image leaves from one call
        branch = np.floor(spec.eta_lift(x0) / (2 * math.pi))
        y, z = leaf_states(spec, np.column_stack([pasts, branch.astype(int)]),
                           np.array([[q.x] for q in images]))
        forward = max([forward] + [math.hypot(q.y - yq, q.z - zq) for q, yq, zq
                                   in zip(images, y[:, 0], z[:, 0])])
    ok = max(worst, forward) <= 1e-8
    assert verdict(8, ok, f"identity+composition worst error {worst:.2e}, "
                   f"forward law worst error {forward:.2e}, both <= 1e-8 "
                   "over 200 leaves x 3 benchmarks")


def test_criterion_09_lipschitz_stability():
    spec_a = benchmark_a()
    pool_a = lamination.build_gamma_pool(spec_a, 10, 24, seed=1)
    r8 = lamination.holonomy_lipschitz_scan(spec_a, 0.0, math.pi, 8, 400,
                                            seed=2, pool=pool_a)
    r14 = lamination.holonomy_lipschitz_scan(spec_a, 0.0, math.pi, 14, 400,
                                             seed=2, pool=pool_a)
    mx8 = max(s["ratio_max"] for s in r8.scale_stats.values())
    mx14 = max(s["ratio_max"] for s in r14.scale_stats.values())
    ok = mx14 <= 2.0 * mx8

    spec_b = benchmark_b()
    pool_b = lamination.build_gamma_pool(spec_b, 10, 24, seed=1)
    b8 = lamination.holonomy_lipschitz_scan(spec_b, 0.0, math.pi, 8, 400,
                                            seed=2, pool=pool_b)
    b14 = lamination.holonomy_lipschitz_scan(spec_b, 0.0, math.pi, 14, 400,
                                             seed=2, pool=pool_b)
    ok &= b8.flagged_weight > 0.0
    ok &= b14.flagged_weight <= 0.5 * b8.flagged_weight
    assert verdict(9, ok, f"bunched ratio max {mx8:.3f}->{mx14:.3f} "
                   f"(stable); non-bunched flagged weight "
                   f"{b8.flagged_weight:.3f}->{b14.flagged_weight:.3f} "
                   "(halved)")


def test_criterion_10_transversality():
    alpha, tang = lamination.min_transversal_angle(benchmark_a(), 8, 500,
                                                   seed=0)
    ok = alpha > 0.01 and tang == 0
    degenerate = SolenoidSpec(d=2, lam0=0.4, nu0=0.25, u_amp=0.0, v_amp=0.5)
    _, tang0 = lamination.min_transversal_angle(degenerate, 8, 50, seed=0)
    ok &= tang0 > 0
    assert verdict(10, ok, f"alpha0={alpha:.4f} rad > 0.01 with "
                   f"{tang} tangencies; u_amp=0 family reports "
                   f"{tang0} near-tangencies")


def test_criterion_11_large_deviations():
    decay = thermo.deviation_decay(benchmark_c(), range(6, 15),
                                   threshold=0.05)
    ok = decay.tau_emp > 0.0
    ratio = decay.tau_emp / decay.tau_pred
    ok &= 0.5 <= ratio <= 2.0
    assert verdict(11, ok, f"tau_emp={decay.tau_emp:.4f} "
                   f"tau_pred={decay.tau_pred:.4f} ratio={ratio:.2f} in "
                   "[0.5, 2]")


def test_criterion_12_nl_bound():
    model_a = thermo.build_gibbs_model(benchmark_a(), 12)
    nl_a = thermo.nl_dimension_bound(benchmark_a(), model_a)
    ok = nl_a.bound < model_a.t0_lo and nl_a.irregular_degenerate
    model_c = thermo.build_gibbs_model(benchmark_c(), 12)
    nl_c = thermo.nl_dimension_bound(benchmark_c(), model_c)
    ok &= nl_c.bound < model_c.t0_lo
    gap = abs(nl_c.a_values[0] - model_c.t0_mid)
    ok &= gap <= 1e-3  # irregular channel closes as the deviation vanishes
    assert verdict(12, ok, f"bounds A={nl_a.bound:.4f}<{model_a.t0_lo:.4f}, "
                   f"C={nl_c.bound:.4f}<{model_c.t0_lo:.4f}; A_eps(1e-3) "
                   f"within {gap:.1e} of t0 (A's irregular channel empty)")


def test_criterion_13_overlap_evidence():
    spec = benchmark_a()
    r12 = geometry.overlap_multiplicity(spec, 12, 16)
    ok = r12.max_order >= 1
    bound = (T0_A + 0.1) * LOG2
    hs = []
    for n in range(8, 15):
        rep = geometry.overlap_multiplicity(spec, n, 16)
        hs.append(rep.h_n)
        ok &= rep.h_n <= bound
    assert verdict(13, ok, f"max overlap order {r12.max_order} >= 1 at n=12;"
                   f" h_n in [{min(hs):.3f}, {max(hs):.3f}] <= {bound:.3f}")


def test_criterion_14_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "spec": {"d": 2, "lam0": 0.4, "nu0": 0.25, "u_amp": 0.5,
                 "v_amp": 0.5},
        "depth_n": 10, "fibers": 256, "seed": 99,
        "pair_budget": 50, "scan_pairs": 80, "gamma_budget": 12,
        "gamma_depth": 8, "output_dir": str(tmp_path / "out")}))
    assert cli.main(["report", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "out" / "report_report.json").read_bytes()
    assert cli.main(["report", "--config", str(cfg_path)]) == 0
    second = (tmp_path / "out" / "report_report.json").read_bytes()
    ok = first == second
    assert verdict(14, ok, f"two `solenoid report` runs byte-identical "
                   f"({len(first)} bytes)")
