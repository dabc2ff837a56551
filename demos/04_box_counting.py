"""Box-counting fits of slice, projection, and full attractor clouds.

Slice clouds at deep generations read close to the pressure-equation
prediction; the y-projection matches it too (nothing is lost in the
planar shadow).  The full 3D cloud reads the prediction plus one for the
base direction.  `attractor_dimension` streams it one chunk of whole
fibers at a time and counts the boxes met by the leaf chords between
adjacent fibers, so the fit reaches below the fiber spacing without
holding the cloud, and the 256-fiber and 1024-fiber clouds agree, both
inside the +-0.15 band.
"""

import math

from solenoidlab import benchmark_a
from solenoidlab.geometry import (attractor_dimension, box_dimension,
                                  project_cloud, slice_cloud)
from solenoidlab.thermo import solve_bowen

spec = benchmark_a()
lo, hi = solve_bowen(spec, 8, 1e-6)
t0 = 0.5 * (lo + hi)
print(f"predicted slice dimension: {t0:.4f}")

for n in (12, 14, 16):
    cloud = slice_cloud(spec, 0.0, n)
    fit = box_dimension(cloud, 12)
    print(f"slice n={n}: {len(cloud)} pts, slope={fit.slope:.4f} "
          f"r2={fit.r2:.4f} scales [{fit.scale_lo:.1e}, {fit.scale_hi:.1e}]")

proj = project_cloud(slice_cloud(spec, 0.0, 16), (0,))
fit = box_dimension(proj, 12)
print(f"y-projection:   slope={fit.slope:.4f} (prediction "
      f"min(t0, 1)={min(t0, 1):.4f})")

print(f"\npredicted full dimension: {1 + t0:.4f}")
for fibers in (256, 1024):
    fit = attractor_dimension(spec, 12, fibers, 12, threads=2)
    band = "in" if abs(fit.slope - (1 + t0)) <= 0.15 else "OUT OF"
    print(f"full cloud fibers={fibers}: {fibers * spec.d ** 12} pts, "
          f"slope={fit.slope:.4f} ({band} band +-0.15), finest scale "
          f"{fit.scale_lo:.1e} < fiber spacing {2 * math.pi / fibers:.4f}")
