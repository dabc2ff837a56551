"""Scalar reference oracles for the batched digit-row kernels.

One point at a time, in the map's own expressions: the map with its
derivative entries, base branch inverses, orbits, forward itineraries and
leaf points.  Tests check the batched kernels (``coding.descend_levels``,
``coding.leaf_states``, ``coding.cylinder_endpoints``) against them.  Words
are tuples of digits, deepest symbol first for backward words.
"""

import math
from dataclasses import dataclass

import numpy as np

from solenoidlab import SpecInvalidError
from solenoidlab.coding import leaf_states
from solenoidlab.maps import branch_points

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class Point3:
    """A point of the solid torus: angle x in [0, 2*pi), fiber (y, z) in the open disc."""

    x: float
    y: float
    z: float

    def in_domain(self):
        return self.y * self.y + self.z * self.z < 1.0


@dataclass(frozen=True)
class MapJet:
    """Image point together with the derivative entries at the source point."""

    image: Point3
    eta_p: float   # base expansion eta'
    lam_p: float   # fiber contraction lam' = d lam / dy
    nu_p: float    # strong contraction nu' = d nu / dz
    a_off: float   # off-diagonal entry d nu / dy


def apply_map(spec, p: Point3) -> MapJet:
    """Evaluate the map and its fiber/base derivative entries at p."""
    if not p.in_domain():
        raise ValueError(f"point {p} lies outside the open disc fiber")
    x, y, z = p.x, p.y, p.z
    img = Point3(
        x=float(np.mod(spec.eta_lift(x), TWO_PI)),
        y=float(spec.lam(x, y) + spec.u(x)),
        z=float(spec.nu(x, y, z) + spec.v(x)),
    )
    if not img.in_domain():
        raise SpecInvalidError(
            f"image {img} escapes the solid torus; the family does not map M into M")
    return MapJet(
        image=img,
        eta_p=float(spec.eta_prime(x)),
        lam_p=float(spec.lam_prime(x, y)),
        nu_p=float(spec.nu_prime(x, y)),
        a_off=float(spec.nu2 * z),
    )


def iterate(spec, p: Point3, n: int) -> Point3:
    """n-fold composition of the map; n = 0 returns p unchanged."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    q = p
    for _ in range(n):
        q = apply_map(spec, q).image
    return q


def inverse_base(spec, x: float, branch: int) -> float:
    """The preimage of x under the base map on the given monotone branch."""
    if not 0 <= branch < spec.d:
        raise ValueError(f"branch must lie in [0, {spec.d}), got {branch}")
    x = float(np.mod(x, TWO_PI))
    return float(spec.eta_inverse_lift(x + TWO_PI * branch))


def branch_of(spec, x):
    """Branch interval index containing x; ties resolve to the lower index."""
    a = np.asarray(branch_points(spec))
    idx = np.searchsorted(a, np.mod(np.asarray(x, dtype=float), TWO_PI),
                          side="left") - 1
    return np.clip(idx, 0, spec.d - 1)


def base_itinerary(spec, x: float, n: int) -> tuple:
    """Forward word of the branch intervals visited by the base orbit of x."""
    syms = []
    cur = float(np.mod(x, TWO_PI))
    for _ in range(n):
        syms.append(int(branch_of(spec, cur)))
        cur = float(spec.eta(cur))
    return tuple(syms)


def leaf_point(spec, past, lift) -> Point3:
    """Leaf representative of a backward word over one base lift, from one
    ``leaf_states`` call."""
    y, z = leaf_states(spec, np.array([past], dtype=int),
                       np.array([lift], dtype=float))
    return Point3(x=float(np.mod(lift, TWO_PI)), y=float(y[0, 0]),
                  z=float(z[0, 0]))


def word_text(symbols) -> str:
    """A word's label: digits joined, with commas once a symbol exceeds 9."""
    if any(s > 9 for s in symbols):
        return ",".join(str(s) for s in symbols)
    return "".join(str(s) for s in symbols)
