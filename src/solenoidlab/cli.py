"""Configuration loading, command dispatch, and report emission.

JSON config in, JSON/CSV artifacts out.  Reports are deterministic: the
same config and seed produce byte-identical report files; wall-clock
timings, and the process's memory high-water mark after each stage, go
to a sibling *_timings.json so they never perturb the comparable bytes.
Every artifact embeds the spec hash.  The layers return plain result
dataclasses; this module alone encodes them (`_jsonable`) and writes
files, every CSV under the two header lines of `_csv_header`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry, lamination, thermo
from .coding import (_digit_rows, _require_depth, _word_label,
                     cylinder_endpoints, leaf_states)
from .errors import (CapExceededError, ConfigError, SolenoidError,
                     SpecInvalidError)
from .maps import SolenoidSpec, ValidationReport, validate_spec

COMMANDS = ("validate", "pressure", "bowen", "dimension", "transversality",
            "holonomy", "deviations", "report")

CSV_HELP = """\
CSV columns per command:
  pressure       pressure_curve.csv: t, p_lo, p_hi
                 cylinders.csv: word, interval_lo, interval_hi
  dimension      slice_cloud.csv: y, z       attractor_cloud.csv: x, y, z
  transversality leaves.csv (with "dump_leaves": true): leaf, x_lift, y, z
All emitted files carry the spec hash and generation in a header comment.
"""


def _rule(default, **rule):
    """A RunConfig field with this default and rule (see `_check_fields`)."""
    return field(default=default, metadata=rule)


@dataclass
class RunConfig:
    """Validated run parameters with defaults filled, and their rules."""

    spec: SolenoidSpec
    depth_n: int = _rule(10, least=1)
    fibers: int = _rule(256, least=1)
    seed: int = _rule(0, least=0)
    # deviations |alpha - chi|, each one positive
    eps_grid: list = field(default_factory=list, metadata={"positive": True})
    output_dir: str = "out"
    threads: int = _rule(1, least=1)
    # command-specific knobs
    grid_density: int = _rule(64, least=16)
    # a NaN or infinite tol reads as not a positive finite number
    tol: float = _rule(1e-6, positive=True, finite_first=False)
    t_max: float = _rule(2.0, positive=True)
    t_points: int = _rule(20, least=0)
    k_scales: int = _rule(12, least=5)
    slice_fiber: float = 0.0
    full_depth: int = _rule(0, least=0)    # 0 means: reuse depth_n
    full_fibers: int = _rule(0, least=0)   # 0 means: reuse fibers
    n_past: int = _rule(8, least=1)
    pair_budget: int = _rule(200, least=1)
    leaf_margin: float = _rule(0.2, least=0)
    leaf_samples: int = _rule(257, least=2)
    scan_pairs: int = _rule(300, least=0)
    scan_L: float = _rule(0.5, positive=True)
    gamma_budget: int = _rule(24, least=0)
    gamma_depth: int = _rule(10, least=1)
    x_src: float = 0.0
    x_dst: float = math.pi
    deviation_lo: int = _rule(6, least=1)
    deviation_hi: int = _rule(12, least="deviation_lo")
    deviation_threshold: float = _rule(0.05, positive=True)
    dump_leaves: bool = False


@dataclass
class Report:
    command: str
    spec_hash: str
    inputs: dict
    results: dict
    timings: dict
    rss_high_water_mb: dict

    def to_json(self):
        """Deterministic byte content (timings excluded)."""
        return _json_text({"command": self.command,
                           "spec_hash": self.spec_hash,
                           "inputs": self.inputs, "results": self.results})

    def timings_json(self):
        return _json_text({"command": self.command,
                           "spec_hash": self.spec_hash,
                           "timings_ms": self.timings,
                           "rss_high_water_mb": self.rss_high_water_mb})


# Per result type, the fields whose JSON is not their plain value, each
# with the function of the result that gives it.
_FIELD_JSON = {
    geometry.DimensionFit: {
        "counts": lambda fit: {f"{r:.10g}": c for r, c in fit.counts.items()}},
    lamination.IntersectionRecord: {
        "past_a": lambda rec: _word_label(rec.past_a),
        "past_b": lambda rec: _word_label(rec.past_b)},
    lamination.HolonomyReport: {
        "flagged_words": lambda rep: list(map(_word_label, rep.flagged_words))},
    thermo.NLBound: {
        "a_values": lambda nl: [v if math.isfinite(v) else None
                                for v in nl.a_values.tolist()]},
    ValidationReport: {"spec_hash": lambda rep: rep.spec.spec_hash(),
                       "all_passed": lambda rep: rep.all_passed},
}


def _jsonable(obj):
    """obj as JSON-ready data: a dataclass becomes the dict of its fields
    (as `_FIELD_JSON` says), and a non-finite float a string."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj):
        body = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        for name, encode in _FIELD_JSON.get(type(obj), {}).items():
            body[name] = encode(obj)
        return _jsonable(body)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# How the type of a field's default reads in a message.
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", list: "a list of numbers"}


def _check_fields(cfg, names, rules=True):
    """Raise ConfigError at the first of `names` that breaks its type or,
    with `rules`, the rule declared in its RunConfig field.

    A value must have the type of its field's default, but a float field
    takes an int and a list holds numbers; nothing is cast, so a valid
    config is echoed with its own values.  A rule is checked in this
    order: `least`, a number or the name of the field not to undercut;
    then that no number is NaN or ±inf, unless `finite_first` is false;
    then, with `positive`, that every number is positive and finite.
    """
    defaults = vars(RunConfig(spec=cfg.spec))
    rules_of = {f.name: f.metadata for f in dataclasses.fields(RunConfig)}
    for name in names:
        value, kind = getattr(cfg, name), type(defaults[name])
        values = value if kind is list else [value]
        rule = rules_of[name]
        least = rule.get("least")
        bound = getattr(cfg, least) if isinstance(least, str) else least
        if not (_is_number(value) if kind is float else type(value) is kind
                and (kind is not list or all(map(_is_number, value)))):
            what = _TYPE_NAMES[kind]
        elif not rules:
            continue
        elif least is not None and value < bound:
            what = f">= {least}" if least == bound else f">= {least} {bound}"
        elif rule.get("finite_first", True) and any(
                isinstance(v, float) and not math.isfinite(v) for v in values):
            what = "finite"
        elif rule.get("positive") and not all(0 < v < math.inf
                                              for v in values):
            each = " in every entry" if kind is list else ""
            what = f"a positive finite number{each}"
        else:
            continue
        raise ConfigError(
            f"config field '{name}' must be {what}, got {value!r}")


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    The config holds only the values the file gives, with the defaults of
    the rest; each is checked for its type here and for its rule by
    `run_command`.  The embedded spec is checked against the structural
    hypotheses right away (at the config's `grid_density`); a failing spec
    raises SpecInvalidError naming the failed check.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config parse error in {path}: not a JSON object")
    if "spec" not in raw:
        raise ConfigError("config parse error: missing field 'spec'")
    try:
        spec = SolenoidSpec.from_dict(raw["spec"])
    except SpecInvalidError as exc:
        raise ConfigError(f"config parse error in field 'spec': {exc}")
    defaults = vars(RunConfig(spec=spec))
    unknown = sorted(k for k in raw if k not in defaults)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    kwargs = {k: v for k, v in raw.items() if k != "spec"}
    cfg = RunConfig(spec=spec, **kwargs)
    _check_fields(cfg, kwargs, rules=False)
    _check_fields(cfg, ["grid_density"])  # validate_spec runs at load time
    report = validate_spec(spec, cfg.grid_density)
    if not report.all_passed:
        names = ", ".join(c.name + " (" + c.detail + ")"
                          for c in report.failures())
        raise SpecInvalidError(f"spec fails hypothesis checks: {names}")
    return cfg


class _Stages:
    """Per-stage wall clock, and the peak RSS of the process after each stage."""

    def __init__(self):
        self.timings = {}
        self.rss_high_water_mb = {}

    def run(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.record(name, time.perf_counter() - t0)
        return out

    def record(self, name, seconds):
        """Log a stage that took `seconds`, with the memory high-water mark."""
        self.timings[name] = 1000.0 * seconds
        # ru_maxrss is in KiB on Linux.
        self.rss_high_water_mb[name] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _json_text(obj):
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _write_json(path, obj):
    _write(path, _json_text(obj))


def _csv_header(spec_hash, generation, columns, fiber=None):
    """The two header lines of every CSV: provenance, then column names."""
    tag = "" if fiber is None else f" fiber={fiber}"
    return (f"# spec_hash={spec_hash} generation={generation}{tag}\n"
            + ",".join(columns) + "\n")


def _write_csv(path, spec, generation, columns, lines):
    _write(path, _csv_header(spec.spec_hash(), generation, columns)
           + "".join(line + "\n" for line in lines))


_CSV_BLOCK_ROWS = 8192
# One value per 20-byte slot, read as five uint32 words: [sign, "0.0"],
# ["00", lead digit, point], 4 digits, 4 digits, [3 digits, separator].
# Zero bytes are padding; '%.12g' of a float64 is at most 19 bytes long.
_SLOT = 20
_SCALE = 10.0 ** np.arange(15, 10, -1)   # 10**(11 - e), e = -4 .. 0


def _digit_table(width):
    """uint32 words holding the ASCII digits of 0 .. 10**width - 1.

    Entry k + 10**width is entry k with its trailing zeros blanked to 0.
    """
    digits = np.indices((10,) * width, np.uint8).reshape(width, -1).T
    trailing = np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] == 0
    table = np.zeros((2, 10 ** width, 4), np.uint8)
    table[:, :, :width] = digits + np.uint8(ord("0"))
    table[1, :, :width][trailing] = 0
    return table.view(np.uint32).ravel()


def _head_table():
    """Slot words 0 and 1, indexed ((neg * 5 + e + 4) * 10 + lead) * 2 + point."""
    head = np.zeros((2, 5, 10, 2, 8), np.uint8)
    head[1, ..., 0] = ord("-")
    for e in range(-4, 0):
        prefix = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
        head[:, e + 4, :, :, 1:1 + len(prefix)] = prefix
    head[..., 6] = (np.arange(10) + ord("0"))[:, None]
    head[:, 4, :, 1, 7] = ord(".")
    return head.reshape(-1, 8).view(np.uint32).T.copy()


@functools.cache
def _format_tables():
    """The lookup tables of `_slot_words`, built on first use."""
    return _head_table(), _digit_table(4), _digit_table(3)


def _mantissas(a):
    """(mantissa, e + 4, fast) of the 12-digit rounding of each |v| = a.

    `fast` marks the values whose mantissa and exponent e are exact (see
    `_slot_words`); elsewhere the mantissa is a placeholder 1e11.
    """
    e4 = ((a >= 1e-3).astype(np.intp) + (a >= 1e-2) + (a >= 1e-1)
          + (a >= 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        s = a * _SCALE[e4]
        floor = np.floor(s)
        frac = s - floor
    mant = floor + (frac > 0.5)
    fast = (s >= 1e11) & (mant < 1e12) & (np.abs(frac - 0.5) > 2.5e-4)
    return np.where(fast, mant, 1e11).astype(np.int64), e4, fast


def _slot_words(v, out=None):
    """The '%.12g' slot of each value of v, as _SLOT // 4 uint32 words.

    The words go into out (shape v.shape + (_SLOT // 4,), its last axis
    contiguous) or a new array; the last byte of every slot is left 0 for
    its separator (see `_csv_text`).

    The numpy path guesses e in -4 .. 0 from the thresholds 1e-3, 1e-2,
    0.1 and 1 on |v|.  s = |v| * 10**(11 - e) is then one rounding of the
    exact S (the power of ten is exact).  Only s in [1e11, 1e12) stays on
    the path, which holds for finite 1e-4 <= |v| < 10; there s < 2**40
    puts |s - S| within half an ulp, 2**-14 = 6.1e-5.  When the fraction
    of s lies more than 2.5e-4 from 1/2, S rounds to the same integer as s,
    so the 12-digit mantissa is M = floor(s) + (fraction > 1/2), and no
    exact tie (which '%.12g' breaks to even) gets this far.  For
    M < 1e12 the rounded value M * 10**(e - 11) has exponent e, and
    '%.12g' prints it in fixed point with 11 - e decimals, its trailing
    zeros (and a bare point) dropped.  Every other value takes Python's
    '%.12g' itself: near-ties, M carrying to 1e12, and s outside
    [1e11, 1e12), i.e. a misjudged exponent, ±0, |v| < 1e-4 or >= 10,
    nan and ±inf.
    """
    mant, e4, fast = _mantissas(np.abs(v))
    hi, lo = np.divmod(mant, 10 ** 7)
    lead, g1 = np.divmod(hi, 10 ** 4)
    g2, g3 = np.divmod(lo, 1000)
    zeros7 = lo == 0              # g1 ends the digits; with g1 = 0, no point
    code = (((v < 0) * 5 + e4) * 10 + lead) * 2 + ((g1 != 0) | ~zeros7)
    head, digits4, digits3 = _format_tables()
    words = np.empty(v.shape + (_SLOT // 4,), np.uint32) if out is None \
        else out
    words[..., 0] = head[0][code]
    words[..., 1] = head[1][code]
    words[..., 2] = digits4[g1 + 10 ** 4 * zeros7]
    words[..., 3] = digits4[g2 + 10 ** 4 * (g3 == 0)]
    words[..., 4] = digits3[g3 + 10 ** 3]
    slow = ~fast
    if slow.any():
        text = np.array(["%.12g" % x for x in v[slow].tolist()], dtype="S19")
        words.view(np.uint8)[slow, :-1] = text.view(np.uint8).reshape(
            -1, _SLOT - 1)
    return words


def _csv_text(words):
    """CSV rows from slot words of shape (rows, columns, _SLOT // 4)."""
    k = words.shape[1]
    slots = words.view(np.uint8)
    slots[:, :, -1] = np.frombuffer(b"," * (k - 1) + b"\n", np.uint8)
    # Deleting the zero padding with bytes.translate takes about half the
    # time of the boolean mask slots[slots != 0] on cloud blocks.
    return slots.tobytes().translate(None, b"\0")


def _cloud_csv(path, cloud, header_cols):
    """Write a cloud as CSV, each value exactly as '%.12g' % v formats it
    (see `_slot_words`), _CSV_BLOCK_ROWS rows at a time."""
    points = np.asarray(cloud.points, dtype=float)
    prov = cloud.provenance
    with open(path, "wb") as fh:
        fh.write(_csv_header(prov["spec_hash"], prov["generation"],
                             header_cols, fiber=prov["fiber"]).encode())
        for start in range(0, len(points), _CSV_BLOCK_ROWS):
            fh.write(_csv_text(_slot_words(
                points[start:start + _CSV_BLOCK_ROWS])))


def _fibre_csv_rows(fh, block):
    """Write a (fibres, words, 3) cloud chunk as CSV rows (x, y, z).

    Every row of a fibre has the fibre's x, so each x is formatted once
    and its slot broadcast to the fibre's rows; the rows go out in pieces
    of about _CSV_BLOCK_ROWS.
    """
    fibres, words = block.shape[:2]
    x_words = _slot_words(block[:, 0, 0])
    per_piece = max(1, _CSV_BLOCK_ROWS // words)
    for f in range(0, fibres, per_piece):
        for w in range(0, words, _CSV_BLOCK_ROWS):
            piece = block[f:f + per_piece, w:w + _CSV_BLOCK_ROWS]
            rows = np.empty(piece.shape + (_SLOT // 4,), np.uint32)
            rows[:, :, 0] = x_words[f:f + per_piece, None]
            # One column at a time keeps the kernel's inner loops long.
            for c in (1, 2):
                _slot_words(piece[:, :, c], out=rows[:, :, c])
            fh.write(_csv_text(rows.reshape(-1, 3, _SLOT // 4)))


def _model_summary(model, flags):
    return {
        "t0_lo": model.t0_lo, "t0_hi": model.t0_hi, "n": model.n,
        "chi_eta": model.chi_eta, "chi_lam": model.chi_lam,
        "chi_nu": model.chi_nu, "entropy": model.entropy,
        "flags": flags,
    }


def _cmd_validate(cfg, stages, out_dir):
    report = stages.run("validate", validate_spec, cfg.spec, cfg.grid_density)
    return _jsonable(report)


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
    stages.run("write_curve", _write_csv,
               os.path.join(out_dir, "pressure_curve.csv"), spec, cfg.depth_n,
               ("t", "p_lo", "p_hi"),
               [f"{t:.12g},{lo:.12g},{hi:.12g}" for t, lo, hi in rows])
    table_depth = min(cfg.depth_n, 8)
    stages.run("cylinder_table", _write_cylinders, spec, table_depth,
               os.path.join(out_dir, "cylinders.csv"))
    return {"n": cfg.depth_n,
            "curve": [{"t": t, "p_lo": lo, "p_hi": hi} for t, lo, hi in rows],
            "cylinder_table_depth": table_depth}


def _write_cylinders(spec, n, path):
    """cylinders.csv: each generation-n forward cylinder, by word label."""
    lo, hi = cylinder_endpoints(spec, n)
    rows = _digit_rows(np.arange(spec.d ** n), spec.d, n).tolist()
    _write_csv(path, spec, n, ("word", "interval_lo", "interval_hi"),
               [f"{_word_label(row)},{lo_w:.12g},{hi_w:.12g}"
                for row, lo_w, hi_w in zip(rows, lo.tolist(), hi.tolist())])


# The stages that `report` shares with `bowen`, `transversality`,
# `holonomy` and `deviations`; the holonomy scan's stage name is the caller's.
def _bowen(cfg, stages):
    model = stages.run("bowen", thermo.build_gibbs_model, cfg.spec,
                       cfg.depth_n, cfg.tol)
    return model, stages.run("regime", thermo.classify_regime, cfg.spec, model)


def _transversality(cfg, stages):
    return stages.run(
        "transversality", lamination.min_transversal_angle, cfg.spec,
        cfg.n_past, cfg.pair_budget, seed=cfg.seed,
        samples=cfg.leaf_samples, margin=cfg.leaf_margin)


def _holonomy_scan(cfg, stages, name):
    pool = stages.run("gamma_pool", lamination.build_gamma_pool, cfg.spec,
                      cfg.gamma_depth, cfg.gamma_budget, seed=cfg.seed + 1)
    return pool, stages.run(
        name, lamination.holonomy_lipschitz_scan, cfg.spec, cfg.x_src,
        cfg.x_dst, cfg.depth_n, cfg.scan_pairs, seed=cfg.seed, L=cfg.scan_L,
        pool=pool)


def _nl_bound(cfg, stages, model):
    return stages.run("nl_bound", thermo.nl_dimension_bound, cfg.spec, model,
                      cfg.eps_grid or None)


def _cmd_bowen(cfg, stages, out_dir):
    return _model_summary(*_bowen(cfg, stages))


def _fit(cfg, name, depth_field, fit, *args, **kwargs):
    """The box-dimension fit of one cloud; a refusal is a config error."""
    try:
        return fit(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(
            f"{name} cloud at config field '{depth_field}' = "
            f"{getattr(cfg, depth_field)} cannot be fitted: {exc}") from exc


def _cmd_dimension(cfg, stages, out_dir):
    spec = cfg.spec
    sl = stages.run("slice_cloud", geometry.slice_cloud, spec,
                    cfg.slice_fiber, cfg.depth_n)
    slice_fit = stages.run("slice_fit", _fit, cfg, "slice", "depth_n",
                           geometry.box_dimension, sl, cfg.k_scales)
    proj_fit = stages.run("projection_fit", _fit, cfg, "projection",
                          "depth_n", geometry.box_dimension,
                          geometry.project_cloud(sl, (0,)), cfg.k_scales)
    full_depth = cfg.full_depth or cfg.depth_n
    full_fibers = cfg.full_fibers or cfg.fibers
    # One sweep builds, writes and counts the full cloud chunk by chunk;
    # each of its three stages is the time spent on that activity.
    times = {}
    with open(os.path.join(out_dir, "attractor_cloud.csv"), "wb") as fh:
        fh.write(_csv_header(spec.spec_hash(), full_depth, ("x", "y", "z"),
                             fiber="full").encode())
        full_fit = _fit(
            cfg, "full", "full_depth" if cfg.full_depth else "depth_n",
            geometry.attractor_dimension, spec, full_depth, full_fibers,
            cfg.k_scales, threads=cfg.threads,
            sink=lambda block: _fibre_csv_rows(fh, block),
            times=times)
    for stage, activity in (("attractor_cloud", "build"),
                            ("full_fit", "count"),
                            ("write_attractor_cloud", "sink")):
        stages.record(stage, times.get(activity, 0.0))
    stages.run("write_slice_cloud", _cloud_csv,
               os.path.join(out_dir, "slice_cloud.csv"), sl, ("y", "z"))
    return {
        "slice": {"fiber": cfg.slice_fiber, "n": cfg.depth_n,
                  **_jsonable(slice_fit)},
        "projection": _jsonable(proj_fit),
        "full": {"n": full_depth, "fibers": full_fibers,
                 **_jsonable(full_fit)},
    }


def _cmd_transversality(cfg, stages, out_dir):
    alpha, tangencies = _transversality(cfg, stages)
    if cfg.dump_leaves:
        stages.run("write_leaves", _dump_leaves, cfg, out_dir)
    return {"n_past": cfg.n_past, "pair_budget": cfg.pair_budget,
            "alpha0_est": alpha, "near_tangency_count": tangencies}


def _dump_leaves(cfg, out_dir):
    rng = np.random.default_rng(cfg.seed)
    digits = np.array([rng.integers(0, cfg.spec.d, max(cfg.n_past, 24))
                       for _ in range(4)])
    lifts = lamination._grid(cfg.leaf_margin, cfg.leaf_samples)
    y, z = leaf_states(cfg.spec, digits, lifts)
    lines = []
    for row, y_row, z_row in zip(digits.tolist(), y, z):
        word = _word_label(row)
        lines += [f"{word},{x:.12g},{yx:.12g},{zx:.12g}"
                  for x, yx, zx in zip(lifts, y_row, z_row)]
    _write_csv(os.path.join(out_dir, "leaves.csv"), cfg.spec, digits.shape[1],
               ("leaf", "x_lift", "y", "z"), lines)


def _cmd_holonomy(cfg, stages, out_dir):
    pool, scan = _holonomy_scan(cfg, stages, "scan")
    checks = stages.run("laws", _holonomy_laws, cfg)
    stages.run("write_gamma_pool", _write_json,
               os.path.join(out_dir, "gamma_pool.json"),
               {"spec_hash": cfg.spec.spec_hash(), "n_past": cfg.gamma_depth,
                "margin": lamination.POOL_MARGIN, "records": pool.records})
    return {"scan": scan, "laws": checks,
            "gamma_records": len(pool.records)}


def _holonomy_laws(cfg, leaves: int = 25):
    """The map against the leaf coding, on leaves with 40-symbol pasts.

    The image of leaf w's point over x must be leaf w + (c,)'s point over
    eta(x), where c = floor(eta_lift(x) / 2 pi) is the branch of x.  An
    image outside the open disc raises SpecInvalidError: ``validate_spec``
    checks containment only on its sample grid.
    """
    spec, length = cfg.spec, 40
    _require_depth(spec, length, 1e-9)
    rng = np.random.default_rng(cfg.seed)
    digits = rng.integers(0, spec.d, (leaves, length))
    xs = rng.uniform(0.0, 2 * math.pi, leaves)
    y, z = (a[:, 0] for a in leaf_states(spec, digits, xs[:, None]))
    x1, y1, z1 = (spec.eta(xs), spec.lam(xs, y) + spec.u(xs),
                  spec.nu(xs, y, z) + spec.v(xs))
    if np.any(y1 * y1 + z1 * z1 >= 1.0):
        raise SpecInvalidError(
            "a leaf point's image escapes the solid torus; "
            "the family does not map M into M")
    branch = np.floor(spec.eta_lift(xs) / (2 * math.pi)).astype(int)
    y2, z2 = leaf_states(spec, np.column_stack([digits, branch]),
                         x1[:, None])
    worst = max(map(math.hypot, (y1 - y2[:, 0]).tolist(),
                    (z1 - z2[:, 0]).tolist()))
    return {"leaves": leaves, "forward_max_error": worst}


def _cmd_deviations(cfg, stages, out_dir):
    spec = cfg.spec
    decay = stages.run("decay", thermo.deviation_decay, spec,
                       range(cfg.deviation_lo, cfg.deviation_hi + 1),
                       cfg.deviation_threshold)
    model = stages.run("model", thermo.build_gibbs_model, spec, cfg.depth_n,
                       cfg.tol)
    nl = _nl_bound(cfg, stages, model)
    return {"decay": decay, "nl_bound": nl,
            "t0_lo": model.t0_lo, "t0_hi": model.t0_hi}


def _cmd_report(cfg, stages, out_dir):
    model, flags = _bowen(cfg, stages)
    dims = _cmd_dimension(cfg, stages, out_dir)
    alpha, tangencies = _transversality(cfg, stages)
    scan = _holonomy_scan(cfg, stages, "holonomy_scan")[1]
    nl = _nl_bound(cfg, stages, model)
    return {
        **_model_summary(model, flags),
        "slice_dim": dims["slice"]["slope"],
        "full_dim": dims["full"]["slope"],
        "projection_dim": dims["projection"]["slope"],
        "dimension_fits": dims,
        "alpha0_est": alpha,
        "near_tangency_count": tangencies,
        "bound_NL": nl.bound,
        "nl_bound": nl,
        "holonomy": scan,
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
    _check_fields(cfg, vars(cfg))
    stages = _Stages()
    # The depth-6 regime flags go into the inputs echo; each command that
    # needs them computes its own at depth_n.
    coarse = stages.run("coarse_regime", lambda: thermo.classify_regime(
        cfg.spec, thermo.build_gibbs_model(cfg.spec, 6)))
    out_dir = cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    results = _DISPATCH[command](cfg, stages, out_dir)
    report = Report(command=command, spec_hash=cfg.spec.spec_hash(),
                    inputs=_jsonable({**vars(cfg), "regime": coarse}),
                    results=results,
                    timings=stages.timings,
                    rss_high_water_mb=stages.rss_high_water_mb)
    path = os.path.join(out_dir, f"{command}_report.json")
    stages.run("write_report", lambda: _write(path, report.to_json()))
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
        for name, value in (("depth_n", args.depth), ("output_dir", args.out),
                            ("seed", args.seed), ("threads", args.threads)):
            if value is not None:
                setattr(cfg, name, value)
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
