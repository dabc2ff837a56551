import hashlib
import importlib.util
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from scalar_reference import Point3, apply_map, inverse_base, iterate
from solenoidlab import (SolenoidSpec, SpecInvalidError, benchmark_a,
                         benchmark_b, benchmark_c, validate_spec)
from solenoidlab import maps
from solenoidlab.maps import _branch_separation, branch_points

TWO_PI = 2 * math.pi


def test_benchmark_a_passes_all_checks():
    report = validate_spec(benchmark_a(), grid_density=64)
    assert report.all_passed, [c.name for c in report.failures()]


def test_contraction_too_weak_fails_inv_eta_check():
    spec = SolenoidSpec(d=2, lam0=0.6, nu0=0.25, u_amp=0.3, v_amp=0.3)
    report = validate_spec(spec, grid_density=32)
    failed = {c.name for c in report.failures()}
    assert "lam_below_inv_eta" in failed  # 0.6 > 1/2


def test_wrong_derivative_order_fails():
    spec = SolenoidSpec(d=2, lam0=0.4, nu0=0.5, u_amp=0.3, v_amp=0.3)
    report = validate_spec(spec, grid_density=32)
    assert "nu_below_lam" in {c.name for c in report.failures()}


def whole_grid_image_check(spec, grid_density):
    """The image_inside_domain check on the whole polar grid at once."""
    xs = np.linspace(0.0, TWO_PI, grid_density, endpoint=False)
    phis = np.linspace(0.0, TWO_PI, grid_density, endpoint=False)
    rads = np.linspace(0.0, 1.0, max(8, grid_density // 4))
    px, pr, pphi = np.meshgrid(xs, rads, phis, indexing="ij")
    py = pr * np.cos(pphi)
    pz = pr * np.sin(pphi)
    img_y = spec.lam(px, py) + spec.u(px)
    img_z = spec.nu(px, py, pz) + spec.v(px)
    norm2 = (img_y ** 2 + img_z ** 2).ravel()
    coords = np.column_stack([px.ravel(), py.ravel(), pz.ravel()])
    i = int(np.argmax(norm2))
    val = float(norm2[i])
    return (bool(val < 1.0), f"max |f(p)|_fiber^2 = {val:.6g} (need < 1)",
            tuple(float(c) for c in coords[i]) if val >= 1.0 else None)


# Images leave the disc: the check fails and names a witness.
OUTSIDE = SolenoidSpec(d=2, eta_eps=0.3, lam0=0.35, lam1=0.05, lam2=0.1,
                       nu0=0.15, nu2=0.05, u_amp=0.9, v_amp=0.9)
D3 = SolenoidSpec(d=3, lam0=0.25, lam1=0.03, lam2=0.02, nu0=0.15, nu2=0.03,
                  u_amp=0.4, v_amp=0.4)


@pytest.mark.parametrize("grid_density", [16, 64, 128])
@pytest.mark.parametrize("spec", [benchmark_a(), benchmark_c(), D3, OUTSIDE],
                         ids=["A", "C", "d3", "outside"])
def test_image_check_matches_whole_grid(spec, grid_density):
    check = {c.name: c for c in validate_spec(spec, grid_density).checks}
    got = check["image_inside_domain"]
    passed, detail, witness = whole_grid_image_check(spec, grid_density)
    assert (got.passed, got.detail, got.witness) == (passed, detail, witness)
    assert got.passed == (spec is not OUTSIDE)


def test_image_check_memory_grows_with_one_row():
    # The whole grid at 128 is 128 * 32 * 128 points, 44.9 MB traced.
    validate_spec(benchmark_c(), 16)
    tracemalloc.start()
    try:
        validate_spec(benchmark_c(), 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"


def test_validate_rejects_sparse_grid():
    with pytest.raises(ValueError):
        validate_spec(benchmark_a(), grid_density=8)


def test_apply_map_at_origin():
    jet = apply_map(benchmark_a(), Point3(0.0, 0.0, 0.0))
    assert jet.image == Point3(0.0, 0.5, 0.0)
    assert jet.eta_p == 2.0
    assert jet.lam_p == 0.4
    assert jet.nu_p == 0.25
    assert jet.a_off == 0.0


def test_apply_map_at_pi():
    jet = apply_map(benchmark_a(), Point3(math.pi, 0.0, 0.0))
    assert abs(jet.image.x) < 1e-12
    assert abs(jet.image.y + 0.5) < 1e-15
    assert abs(jet.image.z) < 1e-12


def test_apply_map_nonlinear_derivatives():
    jet = apply_map(benchmark_c(), Point3(math.pi / 2, 0.1, 0.0))
    assert abs(jet.lam_p - 0.40) < 1e-12
    assert abs(jet.eta_p - 2.0) < 1e-12


def test_apply_map_rejects_outside_point():
    with pytest.raises(ValueError):
        apply_map(benchmark_a(), Point3(0.0, 0.9, 0.9))


def test_apply_map_flags_escaping_image():
    # a family that pushes fiber images out of the disc is reported as such
    leaky = SolenoidSpec(d=2, lam0=0.4, nu0=0.25, u_amp=0.9, v_amp=0.0)
    with pytest.raises(SpecInvalidError, match="escapes"):
        apply_map(leaky, Point3(0.0, 0.9, 0.0))


def test_inverse_base_linear():
    spec = benchmark_a()
    assert abs(inverse_base(spec, math.pi, 0) - math.pi / 2) < 1e-12
    assert abs(inverse_base(spec, math.pi, 1) - 3 * math.pi / 2) < 1e-12
    with pytest.raises(ValueError):
        inverse_base(spec, 1.0, 2)


def test_inverse_base_nonlinear_fixed_point():
    spec = SolenoidSpec(d=2, eta_eps=0.3, lam0=0.35, nu0=0.15, u_amp=0.5,
                        v_amp=0.5)
    assert abs(inverse_base(spec, 0.0, 0)) < 1e-12


def test_inverse_base_roundtrip_all_branches():
    rng = np.random.default_rng(0)
    for spec in (benchmark_a(), benchmark_c(), SolenoidSpec(d=3, eta_eps=0.5,
                 lam0=0.2, nu0=0.1, u_amp=0.4, v_amp=0.4)):
        xs = rng.uniform(0.0, TWO_PI, 200)
        a = branch_points(spec)
        for b in range(spec.d):
            pre = np.array([inverse_base(spec, x, b) for x in xs])
            assert np.all(pre >= a[b] - 1e-12)
            assert np.all(pre <= a[b + 1] + 1e-12)
            back = np.mod(spec.eta_lift(pre), TWO_PI)
            err = np.minimum(np.abs(back - xs), TWO_PI - np.abs(back - xs))
            assert np.max(err) < 1e-10


def test_branch_points_partition_circle():
    spec = benchmark_c()
    a = np.array(branch_points(spec))
    assert a[0] == 0.0 and a[-1] == TWO_PI
    assert np.all(np.diff(a) > 0)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    spec = SolenoidSpec(d=2, eta_eps=0.3, lam0=0.3, lam1=0.05, lam2=0.02,
                        nu0=0.1, nu1=0.03, nu2=0.04, u_amp=0.4, v_amp=0.4)
    h = 1e-6
    for _ in range(1000):
        x = rng.uniform(0, TWO_PI)
        r = rng.uniform(0, 0.8)
        phi = rng.uniform(0, TWO_PI)
        y, z = r * math.cos(phi), r * math.sin(phi)
        jet = apply_map(spec, Point3(x, y, z))
        fd_eta = (spec.eta_lift(x + h) - spec.eta_lift(x - h)) / (2 * h)
        fd_lam = (spec.lam(x, y + h) - spec.lam(x, y - h)) / (2 * h)
        fd_nu = (spec.nu(x, y, z + h) - spec.nu(x, y, z - h)) / (2 * h)
        fd_a = (spec.nu(x, y + h, z) - spec.nu(x, y - h, z)) / (2 * h)
        assert abs(fd_eta - jet.eta_p) <= 1e-5 * max(1.0, abs(jet.eta_p))
        assert abs(fd_lam - jet.lam_p) <= 1e-5 * max(1.0, abs(jet.lam_p))
        assert abs(fd_nu - jet.nu_p) <= 1e-5 * max(1.0, abs(jet.nu_p))
        assert abs(fd_a - jet.a_off) <= 1e-5 * max(1.0, abs(jet.a_off))


def test_iterate_identity_and_examples():
    spec = benchmark_a()
    p = Point3(0.3, 0.1, -0.2)
    assert iterate(spec, p, 0) == p
    fixed = iterate(spec, Point3(0.0, 5.0 / 6.0, 0.0), 1)
    assert abs(fixed.y - 5.0 / 6.0) < 1e-14
    two = iterate(spec, Point3(0.0, 0.0, 0.0), 2)
    assert abs(two.y - 0.7) < 1e-14


def test_orbits_stay_inside_domain():
    rng = np.random.default_rng(3)
    for spec in (benchmark_a(), benchmark_b(), benchmark_c()):
        for _ in range(20):
            r = rng.uniform(0, 0.95)
            phi = rng.uniform(0, TWO_PI)
            p = Point3(rng.uniform(0, TWO_PI), r * math.cos(phi),
                       r * math.sin(phi))
            q = iterate(spec, p, 50)
            assert q.in_domain()


def test_spec_serialization_roundtrip_and_rejection():
    spec = benchmark_c()
    assert SolenoidSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(SpecInvalidError, match="unknown"):
        SolenoidSpec.from_dict({"d": 2, "bogus": 1.0})
    with pytest.raises(SpecInvalidError, match="'d'"):
        SolenoidSpec.from_dict({"lam0": 0.4})
    assert spec.spec_hash() == SolenoidSpec.from_dict(spec.to_dict()).spec_hash()


@pytest.mark.parametrize("field, value", [
    ("lam0", "0.4"), ("lam0", "abc"), ("lam0", False), ("lam0", None),
    ("d", 2.7), ("d", 2.0), ("d", "2"), ("d", True)])
def test_spec_from_dict_rejects_uncast_values(field, value):
    data = dict(benchmark_a().to_dict(), **{field: value})
    with pytest.raises(SpecInvalidError, match=f"'{field}'"):
        SolenoidSpec.from_dict(data)


def test_spec_from_dict_takes_ints_for_float_fields():
    spec = SolenoidSpec.from_dict({"d": 2, "lam0": 0, "nu0": 0.25})
    assert spec == SolenoidSpec(d=2, lam0=0.0, nu0=0.25)
    assert type(spec.lam0) is float and type(spec.d) is int


@pytest.mark.parametrize("field, value", [
    ("d", 2.7), ("d", 2.0), ("d", np.float64(3.0)), ("d", "2"), ("d", True),
    ("d", None), ("lam0", "0.4"), ("lam0", True), ("lam0", np.True_),
    ("lam0", None), ("lam0", 0.4j), ("nu0", [0.25])])
def test_spec_constructor_rejects_uncast_values(field, value):
    kwargs = dict(benchmark_a().to_dict(), **{field: value})
    with pytest.raises(SpecInvalidError, match=f"spec field '{field}'"):
        SolenoidSpec(**kwargs)


def test_spec_constructor_does_not_truncate_d():
    with pytest.raises(SpecInvalidError, match="spec field 'd'"):
        SolenoidSpec(d=2.7, lam0="0.4")


def test_spec_rejects_an_integer_beyond_float_range():
    with pytest.raises(SpecInvalidError, match="spec field 'lam0'"):
        SolenoidSpec.from_dict({"d": 2, "lam0": 10 ** 400})


def test_spec_constructor_takes_numpy_integers_and_casts_ints():
    spec = SolenoidSpec(d=np.int64(3), lam0=1)
    assert spec == SolenoidSpec(d=3, lam0=1.0)
    assert type(spec.d) is int and type(spec.lam0) is float
    assert spec.spec_hash() == SolenoidSpec(d=3, lam0=1.0).spec_hash()


# ---------------------------------------------------------------------------
# Branch separation against the per-fiber, per-pair loop it replaced
# ---------------------------------------------------------------------------

D3 = SolenoidSpec(d=3, eta_eps=0.4, lam0=0.2, lam1=0.03, lam2=0.02,
                  nu0=0.08, nu2=0.02, u_amp=0.4, v_amp=0.4)
D5 = SolenoidSpec(d=5, eta_eps=0.9, lam0=0.1, lam1=0.02, lam2=0.01,
                  nu0=0.05, nu1=0.01, u_amp=0.6, v_amp=0.5)


def loop_branch_separation(spec, fibers):
    worst = math.inf
    witness = None
    d = spec.d
    for x in fibers:
        pre = spec.eta_inverse_lift(x + TWO_PI * np.arange(d))
        cy = spec.u(pre)
        cz = spec.v(pre)
        ext_y = np.abs(spec.lam0 + spec.lam1 * np.sin(pre)) + abs(spec.lam2)
        ext_z = np.abs(spec.nu0 + spec.nu1 * np.cos(pre)) + abs(spec.nu2)
        ext = np.maximum(ext_y, ext_z)
        for i in range(d):
            for j in range(i + 1, d):
                dist = math.hypot(cy[i] - cy[j], cz[i] - cz[j])
                gap = dist - (ext[i] + ext[j])
                if gap < worst:
                    worst = gap
                    witness = (float(x), float(pre[i]), float(pre[j]))
    return worst, witness


@pytest.mark.parametrize("density", [16, 64, 256])
@pytest.mark.parametrize("spec", [benchmark_a(), benchmark_b(), benchmark_c(),
                                  D3, D5], ids=["A", "B", "C", "d3", "d5"])
def test_branch_separation_matches_loop_reference(spec, density):
    xs = np.linspace(0.0, TWO_PI, density, endpoint=False)
    margin, wit = _branch_separation(spec, xs)
    want_margin, want_wit = loop_branch_separation(spec, xs)
    assert type(margin) is float
    assert repr((margin, wit)) == repr((float(want_margin), want_wit))


# ---------------------------------------------------------------------------
# The spec hash: CPython's built-in SHA-256, hashlib only as a fallback
# ---------------------------------------------------------------------------

NEGATIVE = SolenoidSpec(d=2, eta_eps=-0.3, lam0=0.3, lam1=-0.04, lam2=-0.02,
                        nu0=0.12, nu1=-0.02, nu2=-0.01, u_amp=-0.5,
                        v_amp=-0.4)
HASH_FAMILIES = {"A": benchmark_a(), "B": benchmark_b(), "C": benchmark_c(),
                 "d3": D3, "negative": NEGATIVE}
# The hashes that hashlib.sha256 gave before the built-in module took over.
PINNED_HASHES = {"A": "98676adfbc034967", "B": "3019620777e791c5",
                 "C": "dbd35a89745e3776", "d3": "43c8f9ebafd1fa1a",
                 "negative": "db15adfe39773de0"}


def hashlib_spec_hash(spec):
    blob = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", list(HASH_FAMILIES))
def test_spec_hash_matches_hashlib(name):
    spec = HASH_FAMILIES[name]
    assert spec.spec_hash() == hashlib_spec_hash(spec) == PINNED_HASHES[name]


def test_spec_hash_falls_back_to_hashlib(monkeypatch):
    # A None entry in sys.modules makes its import fail: load a second
    # copy of maps without either built-in module.
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.spec_from_file_location(maps.__name__,
                                                  maps.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback._sha256 is hashlib.sha256
    for name, family in HASH_FAMILIES.items():
        copy = fallback.SolenoidSpec(**family.to_dict())
        assert copy.spec_hash() == PINNED_HASHES[name]
