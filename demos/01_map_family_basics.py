"""Define a solenoid family, check its hypotheses, and watch orbits settle.

The map wraps the solid torus d times around the base circle while
contracting every fiber disc; the validator samples the structural
hypotheses (expansion, contraction ordering, domain containment, branch
tube separation) and reports each with a witness on failure.
"""

import numpy as np

from solenoidlab import SolenoidSpec, benchmark_a, validate_spec

spec = benchmark_a()
print("family:", spec)
print("hash:  ", spec.spec_hash())

report = validate_spec(spec, grid_density=64)
for check in report.checks:
    print(f"  {'ok ' if check.passed else 'FAIL'} {check.name}: {check.detail}")

# The fiber maps contract, so every orbit is pulled onto the attractor.
x, y, z = 1.0, 0.3, -0.4
for n in range(1, 21):
    x, y, z = (spec.eta(x), spec.lam(x, y) + spec.u(x),
               spec.nu(x, y, z) + spec.v(x))
    if n in (1, 5, 20):
        print(f"f^{n}(p) = ({x:.4f}, {y:.6f}, {z:.6f})")

# The derivative entries are closed forms of the spec.
print(f"at the origin: eta' = {spec.eta_prime(0.0)}, "
      f"lam' = {spec.lam_prime(0.0, 0.0)}, nu' = {spec.nu_prime(0.0, 0.0)}")

# The base map has d monotone branches; their inverses partition the circle.
pre = spec.eta_inverse_lift(np.pi + 2 * np.pi * np.arange(spec.d))
for b, x in enumerate(pre):
    print(f"branch {b} preimage of pi: {x:.6f}")

# A family that contracts too weakly fails the pairing hypothesis.
bad = SolenoidSpec(d=2, lam0=0.6, nu0=0.25, u_amp=0.3, v_amp=0.3)
failures = [c.name for c in validate_spec(bad, 32).failures()]
print("weak contraction fails:", failures)
