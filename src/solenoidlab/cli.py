"""Configuration loading, command dispatch, and report emission.

JSON config in, JSON/CSV artifacts out.  Reports are deterministic: the
same config and seed produce byte-identical report files; wall-clock
timings go to a sibling *_timings.json so they never perturb the
comparable bytes.  Every artifact embeds the spec hash.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry, lamination, thermo
from .coding import write_cylinder_table
from .errors import (CapExceededError, ConfigError, SolenoidError,
                     SpecInvalidError)
from .maps import SolenoidSpec, validate_spec

COMMANDS = ("validate", "pressure", "bowen", "dimension", "transversality",
            "holonomy", "deviations", "report")

CSV_HELP = """\
CSV columns per command:
  pressure       pressure_curve.csv: t, p_lo, p_hi
                 cylinders.csv: word, interval_lo, interval_hi
  dimension      slice_cloud.csv: y, z       attractor_cloud.csv: x, y, z
  transversality leaves.csv (with --dump-leaves in config): leaf, x_lift, y, z
All emitted files carry the spec hash and generation in a header comment.
"""


@dataclass
class RunConfig:
    """Validated run parameters with defaults filled."""

    spec: SolenoidSpec
    depth_n: int = 10
    fibers: int = 256
    seed: int = 0
    eps_grid: list = field(default_factory=lambda: [])
    output_dir: str = "out"
    threads: int = 1
    # command-specific knobs
    grid_density: int = 64
    tol: float = 1e-6
    t_max: float = 2.0
    t_points: int = 20
    k_scales: int = 12
    slice_fiber: float = 0.0
    full_depth: int = 0       # 0 means: reuse depth_n
    full_fibers: int = 0      # 0 means: reuse fibers
    n_past: int = 8
    pair_budget: int = 200
    leaf_margin: float = 0.2
    leaf_samples: int = 257
    scan_pairs: int = 300
    scan_L: float = 0.5
    gamma_budget: int = 24
    gamma_depth: int = 10
    x_src: float = 0.0
    x_dst: float = math.pi
    x_samples: int = 16
    half_width_factor: float = 1.0
    deviation_lo: int = 6
    deviation_hi: int = 12
    deviation_threshold: float = 0.05
    dump_leaves: bool = False
    offset_average: bool = False
    # filled by load_config from a coarse model; commands recompute at depth_n
    regime: dict = field(default_factory=dict)

    def echo(self):
        data = dataclasses.asdict(self)
        data["spec"] = self.spec.to_dict()
        return data


@dataclass
class Report:
    command: str
    spec_hash: str
    inputs: dict
    results: dict
    timings: dict

    def to_json(self):
        """Deterministic byte content (timings excluded)."""
        body = {"command": self.command, "spec_hash": self.spec_hash,
                "inputs": self.inputs, "results": self.results}
        return json.dumps(_jsonable(body), sort_keys=True, indent=2) + "\n"

    def timings_json(self):
        return json.dumps(_jsonable({"command": self.command,
                                     "spec_hash": self.spec_hash,
                                     "timings_ms": self.timings}),
                          sort_keys=True, indent=2) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    The embedded spec is checked against the structural hypotheses right
    away; a failing spec raises SpecInvalidError naming the failed check.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}")
    if "spec" not in raw:
        raise ConfigError("config parse error: missing field 'spec'")
    try:
        spec = SolenoidSpec.from_dict(raw["spec"])
    except SpecInvalidError as exc:
        raise ConfigError(f"config parse error in field 'spec': {exc}")
    known = {f.name for f in dataclasses.fields(RunConfig)} - {"regime"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    kwargs = {k: v for k, v in raw.items() if k != "spec"}
    cfg = RunConfig(spec=spec, **kwargs)
    report = validate_spec(spec, cfg.grid_density)
    if not report.all_passed:
        names = ", ".join(c.name + " (" + c.detail + ")"
                          for c in report.failures())
        raise SpecInvalidError(f"spec fails hypothesis checks: {names}")
    coarse = thermo.build_gibbs_model(spec, 6)
    cfg.regime = thermo.classify_regime(spec, coarse).to_dict()
    return cfg


class _Stages:
    """Per-stage wall-clock collection."""

    def __init__(self):
        self.timings = {}

    def run(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.timings[name] = 1000.0 * (time.perf_counter() - t0)
        return out


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


_CSV_BLOCK_ROWS = 8192


def _cloud_csv(path, cloud, header_cols):
    """Write a cloud as CSV; '%.12g' % v equals f"{v:.12g}" for any float."""
    points = cloud.points
    row = ",".join(["%.12g"] * points.shape[1]) + "\n"
    with open(path, "w") as fh:
        prov = cloud.provenance
        fh.write(f"# spec_hash={prov.get('spec_hash')} "
                 f"generation={prov.get('generation')} "
                 f"fiber={prov.get('fiber')}\n")
        fh.write(",".join(header_cols) + "\n")
        for start in range(0, len(points), _CSV_BLOCK_ROWS):
            block = points[start:start + _CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _model_summary(model, flags):
    return {
        "t0_lo": model.t0_lo, "t0_hi": model.t0_hi, "n": model.n,
        "chi_eta": model.chi_eta, "chi_lam": model.chi_lam,
        "chi_nu": model.chi_nu, "entropy": model.entropy,
        "flags": flags.to_dict(),
    }


def _cmd_validate(cfg, stages, out_dir):
    report = stages.run("validate", validate_spec, cfg.spec, cfg.grid_density)
    return report.to_dict()


def _cmd_pressure(cfg, stages, out_dir):
    spec = cfg.spec
    ts = np.linspace(0.0, cfg.t_max, cfg.t_points)

    def curve():
        rows = []
        for t in ts:
            b = thermo.pressure_bracket(spec, float(t), cfg.depth_n)
            rows.append((float(t), b.p_lo, b.p_hi))
        return rows

    rows = stages.run("pressure_curve", curve)
    lines = [f"# spec_hash={spec.spec_hash()} generation={cfg.depth_n}",
             "t,p_lo,p_hi"]
    lines += [f"{t:.12g},{lo:.12g},{hi:.12g}" for t, lo, hi in rows]
    stages.run("write_curve", _write,
               os.path.join(out_dir, "pressure_curve.csv"),
               "\n".join(lines) + "\n")
    table_depth = min(cfg.depth_n, 8)
    stages.run("cylinder_table", write_cylinder_table, spec, table_depth,
               os.path.join(out_dir, "cylinders.csv"))
    return {"n": cfg.depth_n,
            "curve": [{"t": t, "p_lo": lo, "p_hi": hi} for t, lo, hi in rows],
            "cylinder_table_depth": table_depth}


def _cmd_bowen(cfg, stages, out_dir):
    model = stages.run("bowen", thermo.build_gibbs_model, cfg.spec,
                       cfg.depth_n, cfg.tol)
    flags = stages.run("regime", thermo.classify_regime, cfg.spec, model)
    return _model_summary(model, flags)


def _cmd_dimension(cfg, stages, out_dir):
    spec = cfg.spec
    sl = stages.run("slice_cloud", geometry.slice_cloud, spec,
                    cfg.slice_fiber, cfg.depth_n)
    slice_fit = stages.run("slice_fit", geometry.box_dimension, sl,
                           cfg.k_scales, cfg.offset_average)
    proj_fit = stages.run("projection_fit", geometry.box_dimension,
                          geometry.project_cloud(sl, (0,)), cfg.k_scales,
                          cfg.offset_average)
    full_depth = cfg.full_depth or cfg.depth_n
    full_fibers = cfg.full_fibers or cfg.fibers
    full = stages.run("attractor_cloud", geometry.attractor_cloud, spec,
                      full_depth, full_fibers, threads=cfg.threads)
    full_fit = stages.run("full_fit", geometry.box_dimension, full,
                          cfg.k_scales, cfg.offset_average)
    stages.run("write_slice_cloud", _cloud_csv,
               os.path.join(out_dir, "slice_cloud.csv"), sl, ("y", "z"))
    stages.run("write_attractor_cloud", _cloud_csv,
               os.path.join(out_dir, "attractor_cloud.csv"), full,
               ("x", "y", "z"))
    return {
        "slice": {"fiber": cfg.slice_fiber, "n": cfg.depth_n,
                  **slice_fit.to_dict()},
        "projection": proj_fit.to_dict(),
        "full": {"n": full_depth, "fibers": full_fibers,
                 **full_fit.to_dict()},
    }


def _cmd_transversality(cfg, stages, out_dir):
    alpha, tangencies = stages.run(
        "transversality", lamination.min_transversal_angle, cfg.spec,
        cfg.n_past, cfg.pair_budget, seed=cfg.seed,
        samples=cfg.leaf_samples, margin=cfg.leaf_margin)
    if cfg.dump_leaves:
        _dump_leaves(cfg, out_dir)
    return {"n_past": cfg.n_past, "pair_budget": cfg.pair_budget,
            "alpha0_est": alpha, "near_tangency_count": tangencies}


def _dump_leaves(cfg, out_dir):
    rng = np.random.default_rng(cfg.seed)
    lines = [f"# spec_hash={cfg.spec.spec_hash()} generation={cfg.n_past}",
             "leaf,x_lift,y,z"]
    from .coding import Word
    for k in range(4):
        word = Word(tuple(rng.integers(0, cfg.spec.d, max(cfg.n_past, 24))))
        leaf = lamination.unstable_leaf(cfg.spec, word, cfg.leaf_margin,
                                        cfg.leaf_samples, tol=1.0)
        for row in leaf.samples:
            lines.append(f"{word},{row[0]:.12g},{row[1]:.12g},{row[2]:.12g}")
    _write(os.path.join(out_dir, "leaves.csv"), "\n".join(lines) + "\n")


def _cmd_holonomy(cfg, stages, out_dir):
    pool = stages.run("gamma_pool", lamination.build_gamma_pool, cfg.spec,
                      cfg.gamma_depth, cfg.gamma_budget, seed=cfg.seed + 1)
    scan = stages.run("scan", lamination.holonomy_lipschitz_scan, cfg.spec,
                      cfg.x_src, cfg.x_dst, cfg.depth_n, cfg.scan_pairs,
                      seed=cfg.seed, L=cfg.scan_L, pool=pool)
    checks = stages.run("laws", _holonomy_laws, cfg)
    _write(os.path.join(out_dir, "gamma_pool.json"), json.dumps(_jsonable({
        "spec_hash": cfg.spec.spec_hash(), "n_past": pool.n_past,
        "margin": pool.margin,
        "records": [r.to_dict() for r in pool.records]}),
        sort_keys=True, indent=2) + "\n")
    return {"scan": scan.to_dict(), "laws": checks,
            "gamma_records": len(pool.records)}


def _holonomy_laws(cfg, leaves: int = 25):
    from .coding import Word
    rng = np.random.default_rng(cfg.seed)
    worst_identity = 0.0
    worst_composition = 0.0
    for _ in range(leaves):
        word = Word(tuple(rng.integers(0, cfg.spec.d, 40)))
        x0, x1, x2 = np.sort(rng.uniform(0.0, 2 * math.pi, 3))
        p, q = lamination.holonomy_map(cfg.spec, word, x0, x0)
        worst_identity = max(worst_identity,
                             math.hypot(p.y - q.y, p.z - q.z))
        _, q1 = lamination.holonomy_map(cfg.spec, word, x0, x1)
        _, q2 = lamination.holonomy_map(cfg.spec, word, x1, x2)
        _, qd = lamination.holonomy_map(cfg.spec, word, x0, x2)
        worst_composition = max(worst_composition,
                                math.hypot(q2.y - qd.y, q2.z - qd.z))
    return {"leaves": leaves, "identity_max_error": worst_identity,
            "composition_max_error": worst_composition}


def _cmd_deviations(cfg, stages, out_dir):
    spec = cfg.spec
    decay = stages.run("decay", thermo.deviation_decay, spec,
                       range(cfg.deviation_lo, cfg.deviation_hi + 1),
                       cfg.deviation_threshold)
    model = stages.run("model", thermo.build_gibbs_model, spec, cfg.depth_n,
                       cfg.tol)
    eps_grid = cfg.eps_grid if cfg.eps_grid else None
    nl = stages.run("nl_bound", thermo.nl_dimension_bound, spec, model,
                    eps_grid)
    return {"decay": decay.to_dict(), "nl_bound": nl.to_dict(),
            "t0_lo": model.t0_lo, "t0_hi": model.t0_hi}


def _cmd_report(cfg, stages, out_dir):
    spec = cfg.spec
    model = stages.run("bowen", thermo.build_gibbs_model, spec, cfg.depth_n,
                       cfg.tol)
    flags = stages.run("regime", thermo.classify_regime, spec, model)
    dims = _cmd_dimension(cfg, stages, out_dir)
    alpha, tangencies = stages.run(
        "transversality", lamination.min_transversal_angle, spec, cfg.n_past,
        cfg.pair_budget, seed=cfg.seed, samples=cfg.leaf_samples,
        margin=cfg.leaf_margin)
    pool = stages.run("gamma_pool", lamination.build_gamma_pool, spec,
                      cfg.gamma_depth, cfg.gamma_budget, seed=cfg.seed + 1)
    scan = stages.run("holonomy_scan", lamination.holonomy_lipschitz_scan,
                      spec, cfg.x_src, cfg.x_dst, cfg.depth_n, cfg.scan_pairs,
                      seed=cfg.seed, L=cfg.scan_L, pool=pool)
    eps_grid = cfg.eps_grid if cfg.eps_grid else None
    nl = stages.run("nl_bound", thermo.nl_dimension_bound, spec, model,
                    eps_grid)
    return {
        **_model_summary(model, flags),
        "slice_dim": dims["slice"]["slope"],
        "full_dim": dims["full"]["slope"],
        "projection_dim": dims["projection"]["slope"],
        "dimension_fits": dims,
        "alpha0_est": alpha,
        "near_tangency_count": tangencies,
        "bound_NL": nl.to_dict()["bound"],
        "nl_bound": nl.to_dict(),
        "holonomy": scan.to_dict(),
    }


_DISPATCH = {
    "validate": _cmd_validate,
    "pressure": _cmd_pressure,
    "bowen": _cmd_bowen,
    "dimension": _cmd_dimension,
    "transversality": _cmd_transversality,
    "holonomy": _cmd_holonomy,
    "deviations": _cmd_deviations,
    "report": _cmd_report,
}


def run_command(cfg: RunConfig, command: str) -> Report:
    """Dispatch one pipeline and write its artifacts into the output dir."""
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}; "
                          f"choose one of {', '.join(COMMANDS)}")
    out_dir = cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    stages = _Stages()
    results = _DISPATCH[command](cfg, stages, out_dir)
    report = Report(command=command, spec_hash=cfg.spec.spec_hash(),
                    inputs=cfg.echo(), results=results,
                    timings=stages.timings)
    _write(os.path.join(out_dir, f"{command}_report.json"), report.to_json())
    _write(os.path.join(out_dir, f"{command}_timings.json"),
           report.timings_json())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="solenoid",
        description="Numerical laboratory for triangular solenoid attractors",
        epilog=CSV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--depth", type=int, default=None,
                        help="override depth_n")
    parser.add_argument("--out", default=None, help="override output_dir")
    parser.add_argument("--seed", type=int, default=None,
                        help="override seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="override worker count")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.depth is not None:
            cfg.depth_n = args.depth
        if args.out is not None:
            cfg.output_dir = args.out
        if args.seed is not None:
            cfg.seed = args.seed
        if args.threads is not None:
            cfg.threads = args.threads
        report = run_command(cfg, args.command)
    except (ConfigError, SpecInvalidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolenoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    total = sum(report.timings.values())
    print(f"{args.command}: ok ({total:.0f} ms) -> "
          f"{os.path.join(cfg.output_dir, args.command + '_report.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
