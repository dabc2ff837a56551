import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from scalar_reference import apply_map, leaf_point, word_text
from solenoidlab import (ConfigError, PointCloud, SolenoidSpec,
                         SpecInvalidError, ValidationReport,
                         WordTooShortError, benchmark_a, benchmark_c,
                         validate_spec)
from solenoidlab import cli, geometry, lamination, thermo
from solenoidlab.coding import leaf_states
from test_geometry import _whole_attractor_cloud

T0_A = math.log(2.0) / math.log(2.5)

BENCH_A = {"d": 2, "lam0": 0.4, "nu0": 0.25, "u_amp": 0.5, "v_amp": 0.5}
BENCH_C = {"d": 2, "eta_eps": 0.3, "lam0": 0.35, "lam1": 0.05, "nu0": 0.15,
           "u_amp": 0.5, "v_amp": 0.5}


def _package_env():
    """The environment of a subprocess that imports this solenoidlab."""
    import solenoidlab
    src = os.path.dirname(os.path.dirname(solenoidlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


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
    report = json.loads(cli.run_command(cfg, "bowen").to_json())
    assert report["inputs"]["regime"] == {"thin": True,
                                          "uniform_dissipation": True,
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


@pytest.mark.parametrize("field, value", [
    ("depth_n", "12"), ("depth_n", True), ("depth_n", 12.0),
    ("tol", "1e-6"), ("tol", False), ("dump_leaves", 1),
    ("eps_grid", 0.1), ("eps_grid", [0.1, "0.2"]), ("eps_grid", [True]),
    ("output_dir", 3)])
def test_load_config_rejects_wrong_field_types(tmp_path, field, value):
    with pytest.raises(ConfigError, match=f"'{field}'"):
        cli.load_config(write_config(tmp_path, **{field: value}))


def test_load_config_keeps_values_uncast(tmp_path):
    # float fields take ints, and the echo keeps what the config said
    cfg = cli.load_config(write_config(tmp_path, x_dst=3, tol=1,
                                       eps_grid=[0.1, 1], dump_leaves=True))
    echo = cli._jsonable(cfg)
    assert (echo["x_dst"], echo["tol"], echo["eps_grid"]) == (3, 1, [0.1, 1])
    assert type(echo["x_dst"]) is int and echo["dump_leaves"] is True


def test_main_exits_2_on_wrong_field_type(tmp_path, capsys):
    bad = write_config(tmp_path, depth_n="12")
    assert cli.main(["bowen", "--config", bad]) == 2
    assert "'depth_n'" in capsys.readouterr().err


def test_main_exits_2_on_a_top_level_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for body in ("spec", ["spec"], 3, None):
        path.write_text(json.dumps(body))
        assert cli.main(["bowen", "--config", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("lam0", "abc"), ("lam0", "0.4"), ("lam0", True), ("lam0", None),
    ("lam0", [0.4]), ("d", 2.7), ("d", 2.0), ("d", "2"), ("d", True)])
def test_main_exits_2_on_wrong_spec_field_type(tmp_path, capsys, field, value):
    bad = write_config(tmp_path, spec=dict(BENCH_A, **{field: value}))
    assert cli.main(["bowen", "--config", bad]) == 2
    assert f"'{field}'" in capsys.readouterr().err


def test_every_config_field_is_read():
    # an option no command reads is echoed into every report for nothing
    source = open(cli.__file__).read()
    read = set(re.findall(r"\bcfg\.(\w+)", source))
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert fields - read == set()


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
        validate_spec(cfg.spec, cfg.grid_density))


# The JSON of each result type as its own `to_dict` once wrote it: the
# reference `cli._jsonable` must match, text for text.
OLD_TO_DICT = {
    geometry.DimensionFit: lambda f: {
        "slope": f.slope, "r2": f.r2, "scale_lo": f.scale_lo,
        "scale_hi": f.scale_hi,
        "counts": {f"{r:.10g}": c for r, c in f.counts.items()}},
    geometry.DensityReport: lambda r: {
        "radii": list(r.radii), "t0_mid": r.t0_mid,
        "ratio_min": list(r.ratio_min), "ratio_median": list(r.ratio_median),
        "ratio_max": list(r.ratio_max), "frac_bounded": r.frac_bounded,
        "frac_growing": r.frac_growing, "samples": r.samples},
    geometry.OverlapReport: lambda r: {
        "n": r.n, "x_samples": r.x_samples, "max_order": r.max_order,
        "order_histogram": {str(k): v for k, v in
                            sorted(r.order_histogram.items())},
        "max_touch_count": r.max_touch_count, "h_n": r.h_n},
    lamination.IntersectionRecord: lambda r: {
        "x_lift": r.x_lift, "y": r.y, "angle": r.angle,
        "past_a": word_text(r.past_a), "past_b": word_text(r.past_b),
        "near_tangency": r.near_tangency},
    lamination.HolonomyReport: lambda r: {
        "x_src": r.x_src, "x_dst": r.x_dst,
        "scale_stats": {str(k): v for k, v in sorted(r.scale_stats.items())},
        "strong_lipschitz_fraction": r.strong_lipschitz_fraction,
        "flagged_words": [word_text(w) for w in r.flagged_words],
        "flagged_weight": r.flagged_weight, "usable": r.usable},
    ValidationReport: lambda r: {
        "spec": r.spec.to_dict(), "spec_hash": r.spec.spec_hash(),
        "all_passed": r.all_passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail,
                    "witness": None if c.witness is None else list(c.witness)}
                   for c in r.checks]},
    thermo.RegimeFlags: lambda f: {
        "thin": f.thin, "uniform_dissipation": f.uniform_dissipation,
        "bunching": f.bunching},
    thermo.NLBound: lambda b: {
        "best_eps": b.best_eps, "a_eps": b.a_eps, "b_eps": b.b_eps,
        "bound": b.bound, "irregular_degenerate": b.irregular_degenerate,
        "eps_grid": b.eps_grid.tolist(),
        "a_values": [None if not math.isfinite(v) else v
                     for v in b.a_values.tolist()],
        "b_values": b.b_values.tolist()},
    thermo.DeviationDecay: lambda d: {
        "threshold": d.threshold, "n_values": list(d.n_values),
        "fractions": list(d.fractions), "tau_emp": d.tau_emp,
        "tau_pred": d.tau_pred},
}


def _results_of(spec):
    """One result of every type in OLD_TO_DICT for `spec`."""
    model = thermo.build_gibbs_model(spec, 8)
    pool = lamination.build_gamma_pool(spec, 8, 6, seed=1)
    return [
        geometry.box_dimension(geometry.slice_cloud(spec, 0.0, 10)),
        geometry.attractor_dimension(spec, 8, 64),
        geometry.local_density_stats(spec, 0.0, 8, [0.2, 0.1], samples=20),
        geometry.overlap_multiplicity(spec, 6, 4),
        *pool.records[:3],
        lamination.holonomy_lipschitz_scan(spec, 0.0, math.pi, 8, 12,
                                           pool=pool),
        validate_spec(spec, 16),
        thermo.classify_regime(spec, model),
        thermo.nl_dimension_bound(spec, model),
        thermo.deviation_decay(spec, range(4, 7)),
    ]


def test_jsonable_writes_each_result_as_its_old_to_dict():
    bad = SolenoidSpec(**dict(BENCH_A, lam0=0.9))
    results = [*_results_of(SolenoidSpec(**BENCH_A)),
               *_results_of(SolenoidSpec(**BENCH_C)), validate_spec(bad, 16)]
    inf, nan = math.inf, math.nan
    grid = np.array([0.1, 0.2, 0.3, 0.4])
    results += [
        thermo.NLBound(best_eps=nan, a_eps=inf, b_eps=-inf, bound=inf,
                       eps_grid=grid, a_values=np.array([inf, nan, -inf, 0.5]),
                       b_values=np.array([nan, inf, 1.0, -inf]),
                       irregular_degenerate=True),
        lamination.HolonomyReport(
            x_src=0.0, x_dst=1.0, scale_stats={-3: {"max": nan}, 10: {}},
            strong_lipschitz_fraction=nan, flagged_words=[(1, 10, 2), (0, 1)],
            flagged_weight=0.0, usable=0),
        lamination.IntersectionRecord(0.5, -0.25, 1e-7, (10, 3), (2, 0),
                                      near_tangency=True),
        thermo.DeviationDecay(0.05, (4, 5), (0.0, 0.0), inf, nan),
    ]
    assert not results[-5].all_passed
    assert set(map(type, results)) == set(OLD_TO_DICT)
    for result in results:
        assert cli._json_text(result) == cli._json_text(
            OLD_TO_DICT[type(result)](result)), type(result).__name__


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
    report = cli.run_command(cfg2, "report")
    assert out.read_bytes() == first
    for command in ("report", "dimension"):
        if command != "report":
            report = cli.run_command(cli.load_config(path), command)
        timings = json.loads(
            (tmp_path / "out" / f"{command}_timings.json").read_text())
        # the benchmark reads a missing stage as 0 s, so each must be there
        assert {"attractor_cloud", "full_fit", "write_slice_cloud",
                "write_attractor_cloud"} <= set(timings["timings_ms"])
        # the memory high-water mark after every timed stage, never falling
        rss = timings["rss_high_water_mb"]
        assert set(rss) == set(timings["timings_ms"])
        in_order = list(report.rss_high_water_mb.values())
        assert list(report.rss_high_water_mb) == list(report.timings)
        assert in_order[0] > 0 and in_order == sorted(in_order)
        assert in_order == [rss[name] for name in report.timings]


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


@pytest.mark.parametrize("flags, fields, name", [
    pytest.param(flags, fields, name, id=" ".join(flags) or
                 "{}={}".format(*next(iter(fields.items()))))
    for flags, fields, name in [
        (["--depth", "0"], {}, "depth_n"), (["--depth", "-3"], {}, "depth_n"),
        (["--threads", "0"], {}, "threads"),
        (["--threads", "-2"], {}, "threads"),
        ([], {"depth_n": -3}, "depth_n"), ([], {"fibers": 0}, "fibers"),
        ([], {"threads": 0}, "threads"),
        ([], {"full_depth": -1}, "full_depth"),
        ([], {"full_fibers": -1}, "full_fibers"),
        ([], {"leaf_samples": 1}, "leaf_samples"),
        ([], {"pair_budget": 0}, "pair_budget"),
        ([], {"n_past": 0}, "n_past"),
        ([], {"gamma_depth": 0}, "gamma_depth"),
        ([], {"deviation_lo": 0}, "deviation_lo"),
        ([], {"deviation_hi": 5}, "deviation_hi"),
        ([], {"k_scales": 4}, "k_scales"),
        ([], {"t_points": -1}, "t_points"),
        ([], {"grid_density": 8}, "grid_density"),
        ([], {"scan_pairs": -1}, "scan_pairs"),
        ([], {"gamma_budget": -1}, "gamma_budget"),
        ([], {"leaf_margin": -0.5}, "leaf_margin"),
        ([], {"leaf_margin": -4.0}, "leaf_margin"),
        ([], {"seed": -3}, "seed"), (["--seed", "-3"], {}, "seed")]])
def test_main_exits_2_on_bad_run_sizes(tmp_path, capsys, flags, fields, name):
    path = write_config(tmp_path, **fields)
    assert cli.main(["report", "--config", path] + flags) == 2
    assert f"config field '{name}' must be >= " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [0, -1.0])
@pytest.mark.parametrize("field", ["scan_L", "deviation_threshold", "t_max",
                                   "eps_grid"])
def test_main_exits_2_on_non_positive_thresholds(tmp_path, capsys, field,
                                                 value):
    # scan_L <= 0 flagged no word or every word, a zero or negative
    # deviation_threshold counted every cylinder as deviating, t_max <= 0
    # wrote a pressure curve of identical rows, and an eps_grid entry <= 0
    # took the NL bound at a deviation that is no deviation
    path = write_config(
        tmp_path, **{field: [0.1, value] if field == "eps_grid" else value})
    assert cli.main(["report", "--config", path]) == 2
    assert f"config field '{field}' must be a positive finite number" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol, code", [
    (0, 2), (-1, 2), (math.nan, 2), (math.inf, 2), (1e-17, 0)])
def test_bowen_tol_exits_promptly(tmp_path, tol, code):
    # a tol below the float spacing of the bracket once made the root
    # bisection spin forever; a subprocess with a timeout fails fast instead
    path = write_config(tmp_path, tol=tol, depth_n=6)
    out = subprocess.run([sys.executable, "-m", "solenoidlab.cli", "bowen",
                          "--config", path], env=_package_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == code, out.stderr
    if code:
        assert "config field 'tol' must be a positive finite number" \
            in out.stderr
    else:
        res = json.loads((tmp_path / "out" / "bowen_report.json").read_text())
        assert res["results"]["t0_lo"] <= T0_A <= res["results"]["t0_hi"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, field", [
    ("pressure", "t_max"), ("holonomy", "x_dst"),
    ("deviations", "deviation_threshold"), ("deviations", "eps_grid")])
def test_main_exits_2_on_non_finite_floats(tmp_path, capsys, command, field,
                                           value):
    path = write_config(
        tmp_path, **{field: [0.1, value] if field == "eps_grid" else value})
    assert cli.main([command, "--config", path]) == 2
    assert f"config field '{field}' must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# The rules, types and defaults of RunConfig, as the config checks read them.
_FIELDS = dataclasses.fields(cli.RunConfig)
_DEFAULTS = vars(cli.RunConfig(spec=SolenoidSpec.from_dict(BENCH_A)))
_RULES = {f.name: f.metadata for f in _FIELDS}
_RULED = [name for name, rule in _RULES.items() if rule]
_NUMBERS = [f.name for f in _FIELDS
            if type(_DEFAULTS[f.name]) in (int, float, list)]
_FLAGS = {"depth_n": "--depth", "seed": "--seed", "threads": "--threads"}


def _past_bound(name):
    """A value just past the rule of field `name`, in write_config's config."""
    least = _RULES[name].get("least")
    if least is None:                       # positive finite
        return [0] if type(_DEFAULTS[name]) is list else 0
    return (_DEFAULTS[least] if isinstance(least, str) else least) - 1


def _refused(tmp_path, capsys, name, fields, flags=()):
    path = write_config(tmp_path, **fields)
    assert cli.main(["report", "--config", path, *flags]) == 2
    assert f"config field '{name}' must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", _RULED)
def test_every_rule_refuses_a_value_just_past_its_bound(tmp_path, capsys,
                                                        name):
    value = _past_bound(name)
    _refused(tmp_path, capsys, name, {name: value})
    if name in _FLAGS:
        _refused(tmp_path, capsys, name, {}, [_FLAGS[name], str(value)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", _NUMBERS)
def test_every_number_field_refuses_non_finite_values(tmp_path, capsys, name,
                                                      value):
    # an int field refuses them as not an integer
    _refused(tmp_path, capsys, name,
             {name: [value] if type(_DEFAULTS[name]) is list else value})


@pytest.mark.parametrize("name", [f.name for f in _FIELDS])
def test_every_config_field_refuses_a_wrong_type(tmp_path, capsys, name):
    wrong = {int: "1", float: "1", bool: 1, str: 1, list: 1}.get(
        type(_DEFAULTS[name]), 1)
    path = write_config(tmp_path, **{name: wrong})
    assert cli.main(["report", "--config", path]) == 2
    assert f"field '{name}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_names_every_ruled_field():
    # the README's run-size paragraph lists the rules of the config fields
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")).read()
    start = readme.index("Run sizes are checked")
    paragraph = readme[start:readme.index("\n\n", start)]
    assert [n for n in _RULED if f"`{n}`" not in paragraph] == []


def test_main_reaches_setup_and_run_through_the_module(tmp_path, monkeypatch):
    # perfbench/child.py wraps these two module names to split its set-up
    # time from the run; main must call each of them once, by that name
    calls = []
    for name in ("load_config", "run_command"):
        def spy(*args, real=getattr(cli, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(cli, name, spy)
    assert cli.main(["bowen", "--config",
                     write_config(tmp_path, depth_n=6)]) == 0
    assert calls == ["load_config", "run_command"]


@pytest.mark.parametrize("fields, named, reason", [
    ({"depth_n": 6}, "slice cloud at config field 'depth_n' = 6",
     "need at least 100 points"),
    ({"depth_n": 7}, "full cloud at config field 'depth_n' = 7",
     "only 2 usable scales"),
    ({"full_depth": 8, "full_fibers": 1},
     "full cloud at config field 'full_depth' = 8",
     "no usable dyadic scales")])
def test_main_exits_2_on_a_refused_fit(tmp_path, capsys, fields, named,
                                       reason):
    path = write_config(tmp_path, fibers=4, **fields)
    assert cli.main(["dimension", "--config", path]) == 2
    err = capsys.readouterr().err
    assert named in err and reason in err


def test_report_solves_each_root_once(tmp_path, monkeypatch):
    # one cached Gibbs model per generation serves every stage
    solve, calls = thermo.solve_bowen, []

    def counted(spec, n, tol=1e-6):
        calls.append(n)
        return solve(spec, n, tol)

    thermo.build_gibbs_model.cache_clear()
    monkeypatch.setattr(thermo, "solve_bowen", counted)
    path = write_config(tmp_path, n_past=7)
    assert cli.main(["report", "--config", path]) == 0
    assert sorted(calls) == [6, 7, 8]  # coarse model, n_past, depth_n


def test_report_write_is_a_timed_stage(tmp_path):
    path = write_config(tmp_path)
    report = cli.run_command(cli.load_config(path), "bowen")
    out = tmp_path / "out"
    timings = json.loads((out / "bowen_timings.json").read_text())
    assert set(timings["timings_ms"]) == {"coarse_regime", "bowen", "regime",
                                          "write_report"}
    body = (out / "bowen_report.json").read_bytes()
    # the report bytes carry no timings, so the new stage leaves them alone
    assert body == report.to_json().encode()
    assert set(json.loads(body)) == {"command", "spec_hash", "inputs",
                                     "results"}
    cli.run_command(cli.load_config(path), "bowen")
    assert (out / "bowen_report.json").read_bytes() == body


def reference_laws(spec, seed, leaves=25):
    """The forward law, one leaf point and one apply_map per leaf."""
    if spec.contraction_sup() ** 40 >= 1e-9:
        raise WordTooShortError("a 40-symbol past misses 1e-9")
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, spec.d, (leaves, 40))
    worst = 0.0
    for row, x in zip(digits.tolist(), rng.uniform(0.0, 2 * math.pi, leaves)):
        p = leaf_point(spec, row, x)
        q = apply_map(spec, p).image
        c = math.floor(spec.eta_lift(x) / (2 * math.pi))
        r = leaf_point(spec, (*row, c), q.x)
        worst = max(worst, math.hypot(q.y - r.y, q.z - r.z))
    return {"leaves": leaves, "forward_max_error": worst}


def reference_leaves_csv(cfg):
    """leaves.csv built from one leaf_states call per leaf."""
    rng = np.random.default_rng(cfg.seed)
    length = max(cfg.n_past, 24)
    lines = [f"# spec_hash={cfg.spec.spec_hash()} generation={length}",
             "leaf,x_lift,y,z"]
    lifts = np.linspace(-cfg.leaf_margin, 2 * math.pi + cfg.leaf_margin,
                        cfg.leaf_samples)
    for _ in range(4):
        word = tuple(rng.integers(0, cfg.spec.d, length))
        y, z = leaf_states(cfg.spec, np.array([word]), lifts)
        lines += [f"{word_text(word)},{x:.12g},{yx:.12g},{zx:.12g}"
                  for x, yx, zx in zip(lifts, y[0], z[0])]
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


def test_holonomy_laws_reject_escaping_images():
    # validate_spec samples containment on a grid; the laws check every
    # leaf point's image.  This family's leaves reach |y| of up to 1.5.
    leaky = SolenoidSpec(d=2, lam0=0.4, nu0=0.25, u_amp=0.9, v_amp=0.0)
    with pytest.raises(SpecInvalidError, match="escapes"):
        cli._holonomy_laws(cli.RunConfig(spec=leaky))


def test_report_crossing_work_goes_through_public_names(tmp_path,
                                                        monkeypatch):
    # The benchmark's per-layer rows trace these two public functions, so
    # the report's crossing scan and margin test must call them.
    calls = {}

    def counting(name):
        fn, calls[name] = getattr(lamination, name), []

        def spy(*args, **kwargs):
            calls[name].append(fn(*args, **kwargs))
            return calls[name][-1]
        return spy

    for name in ("leaf_intersections", "strong_lipschitz_test"):
        monkeypatch.setattr(lamination, name, counting(name))
    path = write_config(tmp_path, pair_budget=16, scan_pairs=16)
    cli.run_command(cli.load_config(path), "report")
    assert len(calls["leaf_intersections"]) == 2   # the sample and the pool
    assert all(isinstance(r, lamination.IntersectionRecord)
               for out in calls["leaf_intersections"] for r in out)
    assert sum(map(len, calls["leaf_intersections"])) > 0
    assert len(calls["strong_lipschitz_test"]) == 1


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
            cloud = PointCloud(points=values[:n * k].reshape(n, k),
                               provenance={"spec_hash": "abc",
                                           "generation": 4, "fiber": 0.5},
                               resolution=1.0)
            path = tmp_path / f"cloud_{k}_{n}.csv"
            cli._cloud_csv(path, cloud, cols)
            assert path.read_text() == reference_cloud_csv(cloud, cols)


def assert_csv_matches_reference(tmp_path, points, cols):
    cloud = PointCloud(points=points,
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
        points, _ = _whole_attractor_cloud(spec, 8, 64)
        assert_csv_matches_reference(tmp_path, points, ("x", "y", "z"))
        # under 1% (mostly the x = 0 fibre) takes '%.12g' itself
        _, _, fast = cli._mantissas(np.abs(points.ravel()))
        assert np.mean(~fast) < 0.01


@pytest.mark.parametrize("block_rows, fibres, words",
                         [(16, 5, 4), (16, 3, 7), (16, 2, 40),
                          (None, 3, 3 ** 9)])
def test_fibre_csv_rows_match_per_value_format(monkeypatch, block_rows,
                                               fibres, words):
    # A piece holds several whole fibres, one fibre that does not fill it,
    # or part of a fibre; each fibre's x is formatted once for its rows.
    if block_rows is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(fibres * words)
    block = np.empty((fibres, words, 3))
    xs = np.concatenate([[0.0], rng.uniform(0.0, 2 * math.pi, fibres - 1)])
    block[:, :, 0] = xs[:, None]
    yz = rng.uniform(-1.0, 1.0, (fibres, words, 2))
    special = [-0.0, 0.0, 1e-5, -12.5, math.nan, 0.5 + 5e-13, 1 / 3]
    yz.reshape(-1)[:len(special)] = special
    block[:, :, 1:] = yz
    fh = io.BytesIO()
    cli._fibre_csv_rows(fh, block)
    want = "".join(",".join(f"{v:.12g}" for v in row) + "\n"
                   for row in block.reshape(-1, 3))
    assert fh.getvalue().decode() == want


def test_cli_import_does_not_load_scipy():
    code = ("import sys, solenoidlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                         check=True, capture_output=True, text=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"


def test_report_does_not_load_numpy_ma(tmp_path):
    # np.unique without a return flag imports numpy.ma on every report.
    path = write_config(tmp_path, spec=BENCH_C, fibers=64, pair_budget=4,
                        scan_pairs=4, gamma_budget=4)
    code = ("import sys; from solenoidlab import cli; "
            f"assert cli.main(['report', '--config', {path!r}]) == 0; "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                         check=True, capture_output=True, text=True,
                         timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_bowen_loads_neither_openssl_nor_the_thread_pool(tmp_path):
    # hashlib loads OpenSSL's libcrypto for the one spec hash, and
    # concurrent.futures loads logging for a pool that threads = 1 never
    # starts.
    path = write_config(tmp_path, spec=BENCH_C, depth_n=8)
    code = ("import sys; from solenoidlab import cli; "
            f"assert cli.main(['bowen', '--config', {path!r}]) == 0; "
            "print(sorted(m for m in ('_hashlib', 'concurrent.futures') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                         check=True, capture_output=True, text=True,
                         timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_holonomy_without_a_usable_word_reports_nan(tmp_path):
    # With no pool leaf the margin test can use no word, so no sample is
    # strong or flagged: the weights are nan, not 1.0 and 0.0.
    path = write_config(tmp_path, spec=BENCH_C, depth_n=10, gamma_budget=0)
    assert cli.main(["holonomy", "--config", path, "--seed", "7"]) == 0
    scan = json.loads((tmp_path / "out" / "holonomy_report.json")
                      .read_text())["results"]["scan"]
    assert scan["usable"] == 0
    assert scan["flagged_weight"] == scan["strong_lipschitz_fraction"] == "nan"
    assert scan["flagged_words"] == []
