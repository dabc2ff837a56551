"""Unstable leaves, planar crossings, and sliding between fibers.

Leaves from different generation-one tubes cross transversally in the
(x, y) plane; the minimum crossing angle over a weighted pair sample is
the transversality estimate.  Sliding points along their leaves defines
the holonomy between fibers, whose distortion ratios stay bounded for
bunched families.
"""

import math

import numpy as np

from solenoidlab import benchmark_a, benchmark_b
from solenoidlab.coding import leaf_states
from solenoidlab.lamination import (build_gamma_pool, holonomy_lipschitz_scan,
                                    leaf_intersections, min_transversal_angle)

spec = benchmark_a()

# Two leaves with different leading symbols, sampled on one lift grid over
# [-0.2, 2*pi + 0.2], and where they cross.
grid = np.linspace(-0.2, 2 * math.pi + 0.2, 257)
pasts = np.array([(0,) * 40, (0,) * 39 + (1,)])
y, _ = leaf_states(spec, pasts, grid)
for rec in leaf_intersections(spec, grid, pasts[:1], pasts[1:], y[:1], y[1:]):
    print(f"crossing at x={rec.x_lift:.4f}, angle {rec.angle:.3f} rad"
          f"{' (near tangency)' if rec.near_tangency else ''}")

alpha, tangencies = min_transversal_angle(spec, n_past=8, pair_budget=150,
                                          seed=0)
print(f"minimum crossing angle over 150 pairs: {alpha:.4f} rad, "
      f"{tangencies} near-tangencies")

# Holonomy: the same leaf evaluated over two fibers; composition is exact.
word = np.random.default_rng(1).integers(0, 2, (1, 40))
y, z = leaf_states(spec, word, np.array([0.0, math.pi]))
print(f"slide (y, z) = ({y[0, 0]:.5f}, {z[0, 0]:.5f}) -> "
      f"({y[0, 1]:.5f}, {z[0, 1]:.5f})")

# Ratio statistics: bunched families stay uniformly Lipschitz, while the
# strongly dissipative family keeps a small flagged set that thins out.
for name, family in (("bunched", benchmark_a()),
                     ("non-bunched", benchmark_b())):
    pool = build_gamma_pool(family, 10, 16, seed=1)
    for n in (8, 12):
        rep = holonomy_lipschitz_scan(family, 0.0, math.pi, n, 150, seed=2,
                                      pool=pool)
        worst = max(s["ratio_max"] for s in rep.scale_stats.values())
        print(f"{name:12s} n={n}: worst ratio {worst:.3f}, "
              f"flagged weight {rep.flagged_weight:.3f}")
