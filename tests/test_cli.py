import json
import math
import os

import numpy as np
import pytest

from solenoidlab import ConfigError, PointCloud, SpecInvalidError
from solenoidlab import cli

T0_A = math.log(2.0) / math.log(2.5)

BENCH_A = {"d": 2, "lam0": 0.4, "nu0": 0.25, "u_amp": 0.5, "v_amp": 0.5}


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
