import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from solenoidlab import (ConfigError, PointCloud, SolenoidSpec,
                         SpecInvalidError, Word, WordTooShortError,
                         apply_map, attractor_cloud, benchmark_a, benchmark_c,
                         point_from_backward_word, unstable_leaf)
from solenoidlab import cli

T0_A = math.log(2.0) / math.log(2.5)

BENCH_A = {"d": 2, "lam0": 0.4, "nu0": 0.25, "u_amp": 0.5, "v_amp": 0.5}
BENCH_C = {"d": 2, "eta_eps": 0.3, "lam0": 0.35, "lam1": 0.05, "nu0": 0.15,
           "u_amp": 0.5, "v_amp": 0.5}


def write_config(tmp_path, name="cfg.json", **overrides):
    body = {"spec": dict(BENCH_A), "depth_n": 8, "fibers": 256, "seed": 3,
            "pair_budget": 25, "scan_pairs": 40, "gamma_budget": 8,
            "gamma_depth": 8, "deviation_hi": 8,
            "output_dir": str(tmp_path / "out")}
    body.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def test_load_config_attaches_regime(tmp_path):
    cfg = cli.load_config(write_config(tmp_path))
    assert cfg.regime == {"thin": True, "uniform_dissipation": True,
                          "bunching": True}
    assert cfg.depth_n == 8
    assert cfg.tol == 1e-6  # default filled


def test_load_config_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"spec": {"lam0": 0.4}}))
    with pytest.raises(ConfigError, match="'d'"):
        cli.load_config(str(path))


def test_load_config_invalid_spec_names_check(tmp_path):
    path = write_config(tmp_path, spec={"d": 2, "lam0": 0.4, "nu0": 0.5,
                                        "u_amp": 0.3, "v_amp": 0.3})
    with pytest.raises(SpecInvalidError, match="nu_below_lam"):
        cli.load_config(path)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, mystery=1)
    with pytest.raises(ConfigError, match="mystery"):
        cli.load_config(path)


def test_bowen_command_contains_root(tmp_path):
    cfg = cli.load_config(write_config(tmp_path))
    report = cli.run_command(cfg, "bowen")
    res = report.results
    assert res["t0_lo"] <= T0_A <= res["t0_hi"]
    assert report.spec_hash == cfg.spec.spec_hash()
    assert os.path.exists(tmp_path / "out" / "bowen_report.json")


def test_validate_command_is_passthrough(tmp_path):
    from solenoidlab import validate_spec
    cfg = cli.load_config(write_config(tmp_path))
    report = cli.run_command(cfg, "validate")
    assert report.results == cli._jsonable(
        validate_spec(cfg.spec, cfg.grid_density).to_dict())


def test_pressure_command_emits_csvs(tmp_path):
    cfg = cli.load_config(write_config(tmp_path))
    report = cli.run_command(cfg, "pressure")
    curve = (tmp_path / "out" / "pressure_curve.csv").read_text().splitlines()
    assert curve[0].startswith(f"# spec_hash={cfg.spec.spec_hash()}")
    assert curve[1] == "t,p_lo,p_hi"
    assert len(curve) == 2 + cfg.t_points
    assert {"pressure_curve", "write_curve",
            "cylinder_table"} <= set(report.timings)
    cyl = (tmp_path / "out" / "cylinders.csv").read_text().splitlines()
    assert cyl[1] == "word,interval_lo,interval_hi"
    # pressure at t=0 equals log d on both sides
    row0 = report.results["curve"][0]
    assert abs(row0["p_lo"] - math.log(2)) < 1e-9


def test_report_schema_and_determinism(tmp_path):
    path = write_config(tmp_path)
    cfg = cli.load_config(path)
    cli.run_command(cfg, "report")
    out = tmp_path / "out" / "report_report.json"
    first = out.read_bytes()
    body = json.loads(first)
    for key in ("slice_dim", "full_dim", "t0_lo", "t0_hi", "alpha0_est",
                "bound_NL"):
        assert key in body["results"], key
    assert body["spec_hash"] == cfg.spec.spec_hash()
    cfg2 = cli.load_config(path)
    cli.run_command(cfg2, "report")
    assert out.read_bytes() == first
    timings = json.loads(
        (tmp_path / "out" / "report_timings.json").read_text())
    assert {"write_slice_cloud",
            "write_attractor_cloud"} <= set(timings["timings_ms"])


def test_main_exit_codes(tmp_path, capsys):
    assert cli.main(["bowen", "--config", str(tmp_path / "missing.json")]) == 2
    bad = write_config(tmp_path, "bad.json",
                       spec={"d": 2, "lam0": 0.4, "nu0": 0.5,
                             "u_amp": 0.3, "v_amp": 0.3})
    assert cli.main(["bowen", "--config", bad]) == 2
    good = write_config(tmp_path)
    assert cli.main(["bowen", "--config", good]) == 0
    assert cli.main(["pressure", "--config", good, "--depth", "30"]) == 3


def test_main_overrides(tmp_path):
    good = write_config(tmp_path)
    out2 = str(tmp_path / "alt")
    assert cli.main(["bowen", "--config", good, "--out", out2,
                     "--depth", "7", "--seed", "11"]) == 0
    rep = json.loads((tmp_path / "alt" / "bowen_report.json").read_text())
    assert rep["inputs"]["depth_n"] == 7
    assert rep["inputs"]["seed"] == 11
    assert rep["results"]["n"] == 7


def reference_laws(spec, seed, leaves=25):
    """The forward law, one point_from_backward_word and apply_map per leaf."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, spec.d, (leaves, 40))
    worst = 0.0
    for row, x in zip(digits.tolist(), rng.uniform(0.0, 2 * math.pi, leaves)):
        p = point_from_backward_word(spec, Word(tuple(row)), x).point
        q = apply_map(spec, p).image
        c = math.floor(spec.eta_lift(x) / (2 * math.pi))
        r = point_from_backward_word(spec, Word((*row, c)), q.x).point
        worst = max(worst, math.hypot(q.y - r.y, q.z - r.z))
    return {"leaves": leaves, "forward_max_error": worst}


def reference_leaves_csv(cfg):
    """leaves.csv built from one unstable_leaf call per leaf."""
    rng = np.random.default_rng(cfg.seed)
    length = max(cfg.n_past, 24)
    lines = [f"# spec_hash={cfg.spec.spec_hash()} generation={length}",
             "leaf,x_lift,y,z"]
    for _ in range(4):
        word = Word(tuple(rng.integers(0, cfg.spec.d, length)))
        leaf = unstable_leaf(cfg.spec, word, cfg.leaf_margin,
                             cfg.leaf_samples, tol=1.0)
        lines += [f"{word},{x:.12g},{y:.12g},{z:.12g}"
                  for x, y, z in leaf.samples]
    return lines


def test_holonomy_and_leaf_dump_match_one_leaf_references(tmp_path):
    for spec in (BENCH_A, BENCH_C):
        cfg = cli.load_config(write_config(tmp_path, spec=spec,
                                           dump_leaves=True))
        holo = cli.run_command(cfg, "holonomy")
        assert holo.results["laws"] == reference_laws(cfg.spec, cfg.seed)
        assert holo.results["laws"]["forward_max_error"] < 1e-12
        assert {"gamma_pool", "scan", "laws",
                "write_gamma_pool"} <= set(holo.timings)
        trans = cli.run_command(cfg, "transversality")
        assert {"transversality", "write_leaves"} <= set(trans.timings)
        rows = (tmp_path / "out" / "leaves.csv").read_text().splitlines()
        assert rows == reference_leaves_csv(cfg)
        assert rows[0].endswith(" generation=24")
        assert len(rows) == 2 + 4 * cfg.leaf_samples
    # the depth gate: 40 symbols of a 0.6-contracting leaf miss 1e-9
    loose = SolenoidSpec(d=2, lam0=0.6, nu0=0.25, u_amp=0.3, v_amp=0.3)
    with pytest.raises(WordTooShortError):
        reference_laws(loose, 0)
    with pytest.raises(WordTooShortError):
        cli._holonomy_laws(cli.RunConfig(spec=loose))


def reference_cloud_csv(cloud, header_cols):
    prov = cloud.provenance
    lines = [f"# spec_hash={prov.get('spec_hash')} "
             f"generation={prov.get('generation')} "
             f"fiber={prov.get('fiber')}", ",".join(header_cols)]
    lines += [",".join(f"{v:.12g}" for v in row) for row in cloud.points]
    return "\n".join(lines) + "\n"


def test_cloud_csv_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(5)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
               -2.2250738585072e-309, 1e300, -1e300, 1e-300, 0.1, 1 / 3,
               123456789012345.6, -7.0]
    rows = cli._CSV_BLOCK_ROWS + 7
    for k, cols in ((2, ("y", "z")), (3, ("x", "y", "z"))):
        values = rng.standard_normal(rows * k) * 10.0 ** rng.integers(
            -20, 20, rows * k)
        values[:len(special)] = special
        for n in (0, 1, len(special), rows):
            cloud = PointCloud(dim=k, points=values[:n * k].reshape(n, k),
                               provenance={"spec_hash": "abc",
                                           "generation": 4, "fiber": 0.5},
                               resolution=1.0)
            path = tmp_path / f"cloud_{k}_{n}.csv"
            cli._cloud_csv(path, cloud, cols)
            assert path.read_text() == reference_cloud_csv(cloud, cols)


def assert_csv_matches_reference(tmp_path, points, cols):
    cloud = PointCloud(dim=len(cols), points=points,
                       provenance={"spec_hash": "abc", "generation": 4,
                                   "fiber": 0.5}, resolution=1.0)
    path = tmp_path / "cloud.csv"
    cli._cloud_csv(path, cloud, cols)
    assert path.read_text() == reference_cloud_csv(cloud, cols)


def test_cloud_csv_fast_path_edges_and_ties(tmp_path):
    rng = np.random.default_rng(11)
    values = [1e-4, 10.0, 9.9999999999995, 0.000099999999999996]
    values += [np.nextafter(v, t) for v in (1e-4, 10.0) for t in (0.0, 20.0)]
    u = rng.uniform(-1.0, 1.0, 2000)
    ties = [np.round(u, 12) + 5e-13]
    for e in range(-4, 1):      # a 12th-digit tie in every decade of the path
        u = rng.uniform(10.0 ** e, 10.0 ** (e + 1), 400)
        ties.append(np.round(u, 11 - e) + 5 * 10.0 ** (e - 12))
    ties = np.concatenate(ties)
    values = np.concatenate([values, ties, np.nextafter(ties, -np.inf),
                             np.nextafter(ties, np.inf)])
    values = np.concatenate([values, -values])
    assert_csv_matches_reference(tmp_path, values.reshape(-1, 2), ("y", "z"))


def test_cloud_csv_matches_reference_on_uniform_samples(tmp_path):
    rng = np.random.default_rng(12)
    rows = cli._CSV_BLOCK_ROWS + 7
    assert_csv_matches_reference(tmp_path, rng.uniform(-1.0, 1.0, (rows, 2)),
                                 ("y", "z"))
    assert_csv_matches_reference(
        tmp_path, rng.uniform(0.0, 2 * math.pi, (rows, 3)), ("x", "y", "z"))


def test_cloud_csv_matches_reference_on_benchmark_clouds(tmp_path):
    for spec in (benchmark_a(), benchmark_c()):
        cloud = attractor_cloud(spec, 8, 64)
        assert_csv_matches_reference(tmp_path, cloud.points, ("x", "y", "z"))
        # under 1% (mostly the x = 0 fibre) takes '%.12g' itself
        _, _, fast = cli._mantissas(np.abs(cloud.points.ravel()))
        assert np.mean(~fast) < 0.01


def test_cli_import_does_not_load_scipy():
    import solenoidlab
    src = os.path.dirname(os.path.dirname(solenoidlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, solenoidlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
