"""Measure-side diagnostics: deviations, density ratios, tube overlaps.

Three desk-scale probes of how the natural cylinder-weight measure sits
on a stable slice: the exponential decay of Birkhoff-deviating cylinder
mass (with its rate-function prediction), the ball-mass-to-radius
ratios behind packing/covering behavior, and the multiplicity of tube
overlaps in the y-projection, which grows with the generation.
"""

from solenoidlab import benchmark_a, benchmark_c
from solenoidlab.geometry import local_density_stats, overlap_multiplicity
from solenoidlab.thermo import (build_gibbs_model, deviation_decay,
                                nl_dimension_bound)

nonlinear = benchmark_c()
decay = deviation_decay(nonlinear, range(6, 13), threshold=0.05)
print("deviating-mass fractions:",
      " ".join(f"{f:.3f}" for f in decay.fractions))
print(f"fitted decay rate {decay.tau_emp:.3f}, "
      f"rate-function prediction {decay.tau_pred:.3f}")

model = build_gibbs_model(nonlinear, 12)
nl = nl_dimension_bound(nonlinear, model)
print(f"weak non-Lipschitz dimension bound {nl.bound:.4f} "
      f"(root interval starts at {model.t0_lo:.4f}, best eps {nl.best_eps:.3f})")

# Ball-mass ratios of the depth-12 Gibbs measure on a slice of the
# constant-rate family: bounded below across the radius ladder, with a
# growing tail of high-density points.
spec = benchmark_a()
radii = [0.4 ** k for k in range(3, 9)]
report = local_density_stats(spec, 0.0, 12, radii, samples=150, seed=4)
for r, lo, med in zip(report.radii, report.ratio_min, report.ratio_median):
    print(f"  r={r:.2e}: mass/r^t0 in [{lo:.3f}, median {med:.3f}]")
print(f"bounded-ratio fraction {report.frac_bounded:.2f}, "
      f"growing-ratio fraction {report.frac_growing:.2f}")

# Overlap multiplicity: pairs of tubes whose projections coincide over
# every sampled fiber appear at depth and their order keeps growing.
for n in (8, 10, 12):
    rep = overlap_multiplicity(spec, n, 16)
    print(f"n={n}: max full-overlap order {rep.max_order}, "
          f"max contacts {rep.max_touch_count}, h_n={rep.h_n:.3f}")
