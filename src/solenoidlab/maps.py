"""Triangular solenoid map families on the solid torus S^1 x D.

A family is a closed-form parametric map

    f(x, y, z) = (eta(x), lam(x, y) + u(x), nu(x, y, z) + v(x))

with

    eta(x)     = d*x + eta_eps*sin(x)          (mod 2*pi)
    lam(x, y)  = (lam0 + lam1*sin(x))*y + lam2*y**2
    nu(x,y,z)  = (nu0 + nu1*cos(x))*z + nu2*y*z
    u(x)       = u_amp*cos(x),   v(x) = v_amp*sin(x)

so lam(x, 0) = nu(x, 0, 0) = 0 holds identically and all partial
derivatives are available in closed form.  Specs are immutable and
hashable; every operation is a pure function of (spec, inputs).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import SpecInvalidError
from .numerics import TWO_PI, solve_increasing

# CPython's built-in SHA-256; `hashlib` would also load OpenSSL's libcrypto
# (3.6 MB resident) for the one spec hash most commands take.
try:
    from _sha2 import sha256 as _sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

LIFT_NODES = 4096      # intervals of the inverse-lift start table
LIFT_TOL = 1e-13       # relative error bound accepted from the table lift
IMAGE_BLOCK_POINTS = 2 ** 14  # grid points per block of the image check

SPEC_FIELDS = ("d", "eta_eps", "lam0", "lam1", "lam2",
               "nu0", "nu1", "nu2", "u_amp", "v_amp")


@dataclass(frozen=True)
class SolenoidSpec:
    """Parameters of one triangular solenoid family."""

    d: int
    eta_eps: float = 0.0
    lam0: float = 0.0
    lam1: float = 0.0
    lam2: float = 0.0
    nu0: float = 0.0
    nu1: float = 0.0
    nu2: float = 0.0
    u_amp: float = 0.0
    v_amp: float = 0.0

    def __post_init__(self):
        # d takes any integer and the other fields any real number, bools
        # excepted; nothing else is cast.
        for name in SPEC_FIELDS:
            value = getattr(self, name)
            kind = numbers.Integral if name == "d" else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an integer" if name == "d" else "a number"
                raise SpecInvalidError(
                    f"spec field '{name}' must be {what}, got {value!r}")
            try:
                value = int(value) if name == "d" else float(value)
            except OverflowError:
                raise SpecInvalidError(
                    f"spec field '{name}' is out of float range") from None
            object.__setattr__(self, name, value)
        if self.d < 2:
            raise SpecInvalidError(f"base degree d must be >= 2, got {self.d}")

    # -- base circle map ----------------------------------------------------

    def eta_lift(self, x):
        """Lift of the base map to the real line (strictly increasing)."""
        x = np.asarray(x, dtype=float)
        return self.d * x + self.eta_eps * np.sin(x)

    def eta(self, x):
        return np.mod(self.eta_lift(x), TWO_PI)

    def eta_prime(self, x):
        return self.d + self.eta_eps * np.cos(np.asarray(x, dtype=float))

    def eta_inverse_lift(self, targets):
        """Inverse of the lift: the unique x with eta_lift(x) = target.

        With eta_eps != 0, x starts from t/d plus the cubic-Hermite table
        of the periodic part (``_lift_table``), takes one Newton step and
        keeps it when the residual bound |eta_lift(x) - t| / (d - |eta_eps|),
        an error bound since eta' >= d - |eta_eps|, is at most
        LIFT_TOL * max(1, |x|).  Elements that miss the check (non-finite
        targets among them) are solved by bracketed Newton,
        ``solve_increasing``, on [(t - |eta_eps|)/d, (t + |eta_eps|)/d].
        """
        d, e = self.d, abs(self.eta_eps)
        if d - e <= 0.0:
            raise SpecInvalidError("base map is not monotone (d <= |eta_eps|)")
        t = np.asarray(targets, dtype=float)
        if e == 0.0:
            # The bracket is the point t/d (+0.0 at t = -0.0): Newton's answer.
            return (t + e) / d
        coef, period = _lift_table(d, self.eta_eps)
        shape, t = t.shape, t.ravel()
        with np.errstate(invalid="ignore", over="ignore"):
            # Phase of t in [0, period]; its node index is bounded, so the
            # cast is safe for any target (fmin maps NaN phases to a node).
            nodes = coef.shape[1]
            u = np.mod(t, period) * (nodes / period)
            i = np.fmin(u, nodes - 1).astype(np.intp)
            r = u - i
            c0, c1, c2, c3 = (row.take(i) for row in coef)
            x = t / d + (c0 + r * (c1 + r * (c2 + r * c3)))
            x = x - (self.eta_lift(x) - t) / self.eta_prime(x)
            ok = (np.abs(self.eta_lift(x) - t) / (d - e)
                  <= LIFT_TOL * np.maximum(1.0, np.abs(x)))
            if not ok.all():
                miss = ~ok
                tm = t[miss]
                x[miss] = solve_increasing(self.eta_lift, self.eta_prime, tm,
                                           (tm - e) / d, (tm + e) / d)
        return x.reshape(shape)

    # -- fiber maps ----------------------------------------------------------

    def lam(self, x, y):
        return (self.lam0 + self.lam1 * np.sin(x)) * y + self.lam2 * y * y

    def lam_prime(self, x, y):
        return self.lam0 + self.lam1 * np.sin(x) + 2.0 * self.lam2 * y

    def nu(self, x, y, z):
        return (self.nu0 + self.nu1 * np.cos(x)) * z + self.nu2 * y * z

    def nu_prime(self, x, y):
        """d(nu)/dz; independent of z for this family."""
        return self.nu0 + self.nu1 * np.cos(x) + self.nu2 * y

    def u(self, x):
        return self.u_amp * np.cos(x)

    def v(self, x):
        return self.v_amp * np.sin(x)

    # -- analytic derivative bounds over the solid torus ---------------------

    def lam_prime_range(self):
        spread = abs(self.lam1) + 2.0 * abs(self.lam2)
        return self.lam0 - spread, self.lam0 + spread

    def contraction_sup(self):
        """Upper bound on the fiber contraction rate sup lam'."""
        return self.lam_prime_range()[1]

    # -- serialization --------------------------------------------------------

    def to_dict(self):
        return {name: getattr(self, name) for name in SPEC_FIELDS}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise SpecInvalidError("spec must be a JSON object")
        unknown = sorted(set(data) - set(SPEC_FIELDS))
        if unknown:
            raise SpecInvalidError(f"unknown spec fields: {', '.join(unknown)}")
        if "d" not in data:
            raise SpecInvalidError("missing spec field 'd'")
        return cls(**data)

    def spec_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return _sha256(blob.encode()).hexdigest()[:16]


assert SPEC_FIELDS == tuple(f.name for f in fields(SolenoidSpec))


@lru_cache(maxsize=32)
def _lift_table(d: int, eta_eps: float) -> tuple:
    """Cubic-Hermite table of g(t) = eta^-1(t) - t/d over one period.

    g has period 2*pi*d.  Column k holds the power-basis coefficients in
    r in [0, 1] of interval [k*h, (k+1)*h], h = 2*pi*d / LIFT_NODES, from
    the node values (bracketed Newton) and slopes 1/eta' - 1/d.  Returns
    (coefficients (4, LIFT_NODES), period).
    """
    spec = SolenoidSpec(d=d, eta_eps=eta_eps)
    e = abs(eta_eps)
    period = TWO_PI * d
    h = period / LIFT_NODES
    t = h * np.arange(LIFT_NODES + 1)
    x = solve_increasing(spec.eta_lift, spec.eta_prime, t,
                         (t - e) / d, (t + e) / d)
    g = x - t / d
    m = h * (1.0 / spec.eta_prime(x) - 1.0 / d)
    dg = g[1:] - g[:-1]
    coef = np.stack([g[:-1], m[:-1], 3.0 * dg - 2.0 * m[:-1] - m[1:],
                     m[:-1] + m[1:] - 2.0 * dg])
    return coef, period


@lru_cache(maxsize=32)
def branch_points(spec: SolenoidSpec) -> tuple:
    """Points a_0=0 < a_1 < ... < a_d = 2*pi with eta(a_i) = 0.

    [a_i, a_(i+1)] is the i-th monotone branch interval of the base map.
    """
    targets = TWO_PI * np.arange(spec.d + 1, dtype=float)
    pts = spec.eta_inverse_lift(targets)
    pts[0] = 0.0
    pts[-1] = TWO_PI
    return tuple(pts)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    witness: tuple | None = None


@dataclass(frozen=True)
class ValidationReport:
    spec: SolenoidSpec
    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _grid_min(values, points):
    i = int(np.argmin(values))
    return float(values[i]), tuple(float(c) for c in points[i])


def validate_spec(spec: SolenoidSpec, grid_density: int = 64) -> ValidationReport:
    """Check the structural hypotheses of a family on a dense sample grid.

    Failures are reported with a witnessing grid point; nothing is raised.
    The injectivity check is a sampled sufficient condition (branch image
    tubes stay pairwise separated on every sampled fiber), not a proof.
    """
    if grid_density < 16:
        raise ValueError("grid_density must be >= 16")
    checks = []
    xs = np.linspace(0.0, TWO_PI, grid_density, endpoint=False)
    ys = np.linspace(-1.0, 1.0, grid_density)

    # eta' > 1 everywhere.
    ep = spec.eta_prime(xs)
    val, wit = _grid_min(ep, xs[:, None])
    checks.append(CheckResult(
        "eta_expanding", bool(val > 1.0),
        f"min eta' = {val:.6g} (need > 1)", wit if val <= 1.0 else None))

    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    lam_p = spec.lam_prime(gx, gy).ravel()
    nu_p = spec.nu_prime(gx, gy).ravel()

    val, wit = _grid_min(nu_p, pts)
    checks.append(CheckResult(
        "nu_prime_positive", bool(val > 0.0),
        f"min nu' = {val:.6g} (need > 0)", wit if val <= 0.0 else None))

    val, wit = _grid_min(lam_p - nu_p, pts)
    checks.append(CheckResult(
        "nu_below_lam", bool(val > 0.0),
        f"min (lam' - nu') = {val:.6g} (need ν' < λ')",
        wit if val <= 0.0 else None))

    val, wit = _grid_min(1.0 - lam_p, pts)
    checks.append(CheckResult(
        "lam_below_one", bool(val > 0.0),
        f"max lam' = {1.0 - val:.6g} (need < 1)", wit if val <= 0.0 else None))

    # lam' < 1/eta', the thin-regime pairing of contraction vs expansion.
    ep_grid = spec.eta_prime(gx).ravel()
    val, wit = _grid_min(1.0 / ep_grid - lam_p, pts)
    checks.append(CheckResult(
        "lam_below_inv_eta", bool(val > 0.0),
        f"min (1/eta' - lam') = {val:.6g} (need λ' < 1/η')",
        wit if val <= 0.0 else None))

    # f(closure M) inside M, on a polar grid of the closed disc.
    phis = np.linspace(0.0, TWO_PI, grid_density, endpoint=False)
    rads = np.linspace(0.0, 1.0, max(8, grid_density // 4))
    val, wit = _image_max(spec, xs, rads, phis)
    checks.append(CheckResult(
        "image_inside_domain", bool(val < 1.0),
        f"max |f(p)|_fiber^2 = {val:.6g} (need < 1)",
        wit if val >= 1.0 else None))

    # Injectivity: branch image tubes pairwise separated on sampled fibers.
    margin, wit = _branch_separation(spec, xs)
    checks.append(CheckResult(
        "branch_tubes_disjoint", bool(margin > 0.0),
        "min (center distance - extent sum) = "
        f"{margin:.6g} over sampled fibers (sampled sufficient condition)",
        wit if margin <= 0.0 else None))

    return ValidationReport(spec=spec, checks=tuple(checks))


def _image_max(spec, xs, rads, phis):
    """First maximum of |f(p)|_fiber^2 over the polar grid (x, r, phi).

    The grid is swept in its (x, r, phi) order, in blocks of whole x rows
    that hold at most IMAGE_BLOCK_POINTS points (or one row), so memory
    grows with one row, len(rads) * len(phis) points, not with the grid.
    Returns (value, (x, y, z)), the point built only for the winner; a
    NaN wins, as under np.argmax.
    """
    per_row = rads.size * phis.size
    rows = max(1, IMAGE_BLOCK_POINTS // per_row)
    pr, pphi = rads[:, None], phis[None, :]
    py = pr * np.cos(pphi)
    pz = pr * np.sin(pphi)
    best, at = None, 0
    for i in range(0, xs.size, rows):
        px = xs[i:i + rows, None, None]
        img_y = spec.lam(px, py) + spec.u(px)
        img_z = spec.nu(px, py, pz) + spec.v(px)
        norm2 = (img_y ** 2 + img_z ** 2).ravel()
        k = int(np.argmax(norm2))
        if best is None or norm2[k] > best or (np.isnan(norm2[k])
                                               and not np.isnan(best)):
            best, at = norm2[k], i * per_row + k
    ix, rest = divmod(at, per_row)
    ir, ip = divmod(rest, phis.size)
    return float(best), (float(xs[ix]), float(py[ir, ip]), float(pz[ir, ip]))


def _branch_separation(spec, fibers):
    """Worst-case gap between branch image tubes over the sampled fibers.

    Returns (gap, (x, x~_i, x~_j)) at the first minimum in (fiber, pair
    i < j) order.
    """
    pre = spec.eta_inverse_lift(fibers[:, None] + TWO_PI * np.arange(spec.d))
    cy = spec.u(pre)
    cz = spec.v(pre)
    # The image of a fiber disc at x~ sits inside the disc of radius
    # max(sup|lam|, sup|nu|) around (u(x~), v(x~)).
    ext_y = np.abs(spec.lam0 + spec.lam1 * np.sin(pre)) + abs(spec.lam2)
    ext_z = np.abs(spec.nu0 + spec.nu1 * np.cos(pre)) + abs(spec.nu2)
    ext = np.maximum(ext_y, ext_z)
    i, j = np.triu_indices(spec.d, 1)
    gap = np.hypot(cy[:, i] - cy[:, j], cz[:, i] - cz[:, j]) \
        - (ext[:, i] + ext[:, j])
    wit = np.broadcast_arrays(fibers[:, None], pre[:, i], pre[:, j])
    return _grid_min(gap.ravel(), np.stack(wit, axis=-1).reshape(-1, 3))


# Reference families used across tests and demos.

def benchmark_a() -> SolenoidSpec:
    """Constant derivatives: d=2, lam'=0.4, nu'=0.25, u=v=0.5-amplitude."""
    return SolenoidSpec(d=2, lam0=0.4, nu0=0.25, u_amp=0.5, v_amp=0.5)


def benchmark_b() -> SolenoidSpec:
    """Strongly dissipative z-direction (nu'=0.05): thin but not bunched."""
    return SolenoidSpec(d=2, lam0=0.4, nu0=0.05, u_amp=0.5, v_amp=0.5)


def benchmark_c() -> SolenoidSpec:
    """Nonlinear base and fiber rates: eta = 2x + 0.3 sin x, lam' = 0.35 + 0.05 sin x."""
    return SolenoidSpec(d=2, eta_eps=0.3, lam0=0.35, lam1=0.05, nu0=0.15,
                        u_amp=0.5, v_amp=0.5)
