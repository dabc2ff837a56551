"""Backward words, base itineraries, and representative attractor points.

A backward word is a digit row listing the branch choices of a backward
base orbit (deepest first).  Composing inverse branches down the word,
planting an anchor on the disc center, and iterating forward lands within
(sup lam')**n of the true leaf point, so finite words give attractor
representatives with explicit error bars.
"""

import numpy as np

from solenoidlab import benchmark_a, benchmark_c
from solenoidlab.coding import cylinder_endpoints, leaf_states

spec = benchmark_a()

# The all-zero past parks the representative on the fixed point of the
# branch-0 inverse chain: y* = u(0) / (1 - lam).
y, _ = leaf_states(spec, np.zeros((1, 40), dtype=int), np.array([0.0]))
print(f"0^40 over x=0 -> y={y[0, 0]:.12f}  (5/6={5/6:.12f}),"
      f" error <= {spec.contraction_sup() ** 40:.1e}")

# Forward itineraries code which branch interval each orbit point visits:
# the generation-n cylinders are listed in lexicographic word order.
lo, _ = cylinder_endpoints(spec, 8)
k = np.searchsorted(lo, 2 * np.pi / 3, side="right") - 1
print("itinerary of 2*pi/3:", np.base_repr(k, spec.d).zfill(8))

# Cylinders of generation n partition the circle into d**n intervals.
lo, hi = cylinder_endpoints(spec, 3)
print(f"generation-3 intervals cover {np.sum(hi - lo):.12f}"
      f" (2*pi={2*np.pi:.12f})")

# The same machinery handles nonlinear base maps: interval endpoints are
# then genuine root-finder outputs.  Word (0, 1) has index 1.
lo, hi = cylinder_endpoints(benchmark_c(), 2)
print(f"nonlinear cylinder (0,1): [{lo[1]:.6f}, {hi[1]:.6f}]")

# Longer shared recent past means exponentially closer representatives.
rng = np.random.default_rng(0)
for k in (2, 5, 8):
    tail = rng.integers(0, 2, k)
    words = np.column_stack([rng.integers(0, 2, (2, 30)), [tail, tail]])
    y, _ = leaf_states(spec, words, np.array([1.0]))
    print(f"shared recent depth {k}: |dy| = {abs(y[0, 0] - y[1, 0]):.2e}"
          f"  (lam^k = {0.4 ** k:.2e})")
