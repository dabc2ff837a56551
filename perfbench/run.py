"""solenoidlab benchmark: `solenoid` CLI workloads timed in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a JSON config passed to
the CLI through `--config`; the seed reaches the program through
`--seed`.  One client runs one child process at a time (closed loop,
threads = 1) until S seconds are used, so every child starts with cold
caches, the way a user's `solenoid` call does.  Every child's output is
checked; the last stdout line is a JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
the children).  --trace 1 first runs one child with the layer functions
wrapped (tracing.py) and reports the per-layer metrics from its spans;
the untraced children that follow give the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import summarize

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench_out")  # relative to ROOT; echoed into the reports

# Roots of the pressure equation the t0 brackets must contain:
# log 2 / log 2.5 for benchmark_a, the transfer-operator value for benchmark_c.
T0_A = math.log(2.0) / math.log(2.5)
T0_C = 0.658956509592

SPEC_A = {"d": 2, "lam0": 0.4, "nu0": 0.25, "u_amp": 0.5, "v_amp": 0.5}
SPEC_C = {"d": 2, "eta_eps": 0.3, "lam0": 0.35, "lam1": 0.05, "nu0": 0.15,
          "u_amp": 0.5, "v_amp": 0.5}
# The README config takes 35 s (A) to 105 s (C) per `report`, too long for
# several children per run, so the lamination budgets are scaled down.
# report_a keeps the README's 1M-point cloud and its 47 MB CSV write
# (about half of its time); report_c builds a 131k-point cloud, so
# lamination dominates it.
REPORT_KNOBS = {"depth_n": 10, "fibers": 256, "pair_budget": 16,
                "gamma_budget": 12, "scan_pairs": 24, "threads": 1}

MIN_CHILDREN = 2        # even when one child outlasts --seconds
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0     # no child starts that could end after this


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    t0_root: float | None = None       # must lie in [t0_lo, t0_hi]
    t0_width_max: float | None = None  # widest bracket accepted
    cloud_rows: int | None = None      # data rows of attractor_cloud.csv
    lamination: bool = False           # alpha0_est > 0, no near tangency


# A bracket wider than its t0_width_max fails the run, so speed bought with
# a looser bracket shows: the widths of this code plus 10%, and for the
# exact benchmark_a bracket twice the bisection tolerance (1e-6).
WORKLOADS = {
    "report_a": Workload("report", {"spec": SPEC_A, **REPORT_KNOBS,
                                    "full_depth": 12},
                         T0_A, 2e-6, 256 * 2 ** 12, True),
    "report_c": Workload("report", {"spec": SPEC_C, **REPORT_KNOBS,
                                    "full_depth": 9},
                         T0_C, 1.1 * 0.0157032012939453, None, True),
    "bowen_c16": Workload("bowen", {"spec": SPEC_C, "depth_n": 16,
                                    "threads": 1},
                          T0_C, 1.1 * 0.0098180770874023),
}


@dataclass
class Child:
    seed: int
    wall_s: float
    peak_rss_mb: float
    timings: dict
    problems: list
    report_sha: str | None = None
    t0_width: float | None = None
    stages: dict = field(default_factory=dict)   # from <command>_timings.json
    artifact_bytes: int = 0

    @property
    def setup_s(self):
        return self.timings.get("import_s", math.nan) + \
            self.timings.get("load_config_s", math.nan)


def child_seed(seed, k):
    """Program seed of the k-th child of a set; child 0 gets `seed` itself."""
    return seed + 1000 * k


def check_outputs(wl: Workload, cli_dir: Path):
    """Problems in one run's artifacts, its report hash and its t0 width."""
    path = cli_dir / f"{wl.command}_report.json"
    try:
        raw = path.read_bytes()
        results = json.loads(raw)["results"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"report unreadable: {exc}"], None, None
    problems = []
    width = None
    try:
        if wl.t0_root is not None:
            lo, hi = results["t0_lo"], results["t0_hi"]
            width = hi - lo
            if not lo <= wl.t0_root <= hi:
                problems.append(f"t0 bracket [{lo}, {hi}] misses {wl.t0_root}")
            if width > wl.t0_width_max:
                problems.append(f"t0 bracket width {width:.3g} above "
                                f"{wl.t0_width_max:.3g}")
        if wl.lamination:
            if not results["alpha0_est"] > 0.0:
                problems.append(f"alpha0_est = {results['alpha0_est']}")
            if results["near_tangency_count"] != 0:
                problems.append(
                    f"near_tangency_count = {results['near_tangency_count']}")
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks a checked result: {exc!r}")
    if wl.cloud_rows is not None:
        with open(cli_dir / "attractor_cloud.csv", "rb") as fh:
            rows = sum(chunk.count(b"\n")
                       for chunk in iter(lambda: fh.read(1 << 20), b"")) - 2
        if rows != wl.cloud_rows:
            problems.append(f"attractor_cloud.csv has {rows} rows, "
                            f"expected {wl.cloud_rows}")
    return problems, hashlib.sha256(raw).hexdigest(), width


def run_child(name, wl: Workload, seed, trace_path=None) -> Child:
    """Run one CLI call in a fresh process, time it and check its outputs."""
    work = ROOT / OUT / name
    cli_dir = work / "cli"
    shutil.rmtree(cli_dir, ignore_errors=True)
    timings_path = work / "child_timings.json"
    timings_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
           str(timings_path)]
    if trace_path is not None:
        trace_path.unlink(missing_ok=True)
        cmd += ["--trace", str(trace_path)]
    cmd += ["--", wl.command, "--config", str(work / "config.json"),
            "--seed", str(seed)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    with open(work / "child.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)

    try:
        timings = json.loads(timings_path.read_text())
    except (OSError, ValueError):
        timings = {}
    child = Child(seed=seed, wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0,
                  timings=timings, problems=[])
    if proc.returncode != 0:
        tail = (work / "child.log").read_text(errors="replace")[-400:]
        child.problems.append(f"exit code {proc.returncode}: {tail.strip()}")
    else:
        child.problems, child.report_sha, child.t0_width = \
            check_outputs(wl, cli_dir)
        child.stages = _stage_timings(wl, cli_dir)
        # The timings side channel changes size with its digits; skip it.
        child.artifact_bytes = sum(p.stat().st_size for p in cli_dir.iterdir()
                                   if not p.name.endswith("_timings.json"))
    return child


def check_determinism(work, config, children):
    """Flag reports that differ from an earlier run at the same seed.

    Report hashes persist in the workload's directory across runs, keyed
    by a digest of the package sources and the config, so every run of
    this code at one seed must write the same report bytes.
    """
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    store = work / "report_hashes.json"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    if known.get("code") != digest.hexdigest():
        known = {"code": digest.hexdigest(), "reports": {}}
    for c in children:
        if c.report_sha is None:
            continue
        ref = known["reports"].setdefault(str(c.seed), c.report_sha)
        if c.report_sha != ref:
            c.problems.append(f"report bytes differ from an earlier run "
                              f"at seed {c.seed}")
    store.write_text(json.dumps(known, indent=1) + "\n")


def run_set(name, seed, seconds, trace):
    """Fresh children in a closed loop for `seconds`: (traced, untraced)."""
    wl = WORKLOADS[name]
    work = ROOT / OUT / name
    work.mkdir(parents=True, exist_ok=True)
    config = dict(wl.config, output_dir=str(OUT / name / "cli"))
    (work / "config.json").write_text(json.dumps(config, indent=2) + "\n")

    start = time.perf_counter()
    traced = None
    if trace:
        traced = run_child(name, wl, seed, trace_path=work / "spans.npz")
    children = []
    while True:
        children.append(run_child(name, wl, child_seed(seed, len(children))))
        elapsed = time.perf_counter() - start
        typical = statistics.median(c.wall_s for c in children)
        if elapsed + typical > RUN_LIMIT_S:
            break
        if len(children) >= MIN_CHILDREN and elapsed + typical > seconds:
            break
    check_determinism(work, config, ([traced] if traced else []) + children)
    return traced, children


def _stage_timings(wl, cli_dir):
    try:
        data = json.loads((cli_dir / f"{wl.command}_timings.json").read_text())
    except (OSError, ValueError):
        return {}
    return {k: v / 1000.0 for k, v in data["timings_ms"].items()}


def end_to_end_metrics(children):
    ok = [c for c in children if not c.problems] or children
    return {
        "wall_s": statistics.median(c.wall_s for c in ok),
        "setup_s": statistics.median(c.setup_s for c in ok),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in ok),
    }


def layer_metrics(names, traced, children, spans_path):
    """Per-layer metrics named `<module>.<function>.<quantity>`."""
    totals, caches = summarize(spans_path)
    run_s = totals["cli.run_command"]["s"]
    untraced = [c.timings["run_command_s"] for c in children
                if "run_command_s" in c.timings]
    special = {
        "cli.untimed_s": run_s - sum(traced.stages.values()),
        "cli.artifact_bytes": traced.artifact_bytes,
        "cli.trace_overhead_s": (run_s - statistics.median(untraced)
                                 if untraced else math.nan),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        fn, quantity = name.rsplit(".", 1)
        if fn == "cli.stage_s":
            out[name] = traced.stages.get(quantity, 0.0)
            continue
        if fn in caches and quantity in ("hits", "misses"):
            out[name] = caches[fn][quantity]
            continue
        row = totals[fn]
        work, secs = row["qty"], row["s"]
        value = {
            "calls": row["calls"], "s": secs, "self_s": row["self_s"],
            "elems": work, "points": work, "records": work,
            "build_s": row["miss_s"],
            "elems_per_call": work / row["calls"] if row["calls"] else 0.0,
            "us_per_point": 1e6 * secs / work if work else 0.0,
            "ms_per_crossing": 1e3 * secs / work if work else 0.0,
            "s_per_mpoint": 1e6 * secs / work if work else 0.0,
        }.get(quantity)
        if value is None:
            raise KeyError(f"unknown per-layer metric {name}")
        out[name] = value
    return out, totals


def environment():
    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **versions, "commit": commit}


def measure(name, seed, seconds, trace, spec):
    """Run one workload set, print its summary lines, return the result."""
    load_before = os.getloadavg()[0]
    traced, children = run_set(name, seed, seconds, trace)
    load_after = os.getloadavg()[0]
    env = environment()
    print(f"# {name}: env " + " ".join(f"{k}={v}" for k, v in env.items()) +
          f" loadavg_1m_before={load_before:.2f} "
          f"loadavg_1m_after={load_after:.2f}")
    runs = ([traced] if traced else []) + children
    for i, c in enumerate(runs):
        kind = "traced" if c is traced else "child"
        width = "-" if c.t0_width is None else f"{c.t0_width:.6g}"
        verdict = "ok" if not c.problems else "FAILED " + "; ".join(c.problems)
        print(f"# {name} {kind} {i}: seed={c.seed} wall_s={c.wall_s:.3f} "
              f"setup_s={c.setup_s:.3f} peak_rss_mb={c.peak_rss_mb:.1f} "
              f"t0_width={width} {verdict}")
    failed = sum(1 for c in runs if c.problems)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = end_to_end_metrics(children)
    widths = [c.t0_width for c in children if c.t0_width is not None]
    summary = {**{k: f"{v:.6g} {units[k]}" for k, v in e2e.items()},
               "t0_width": f"{max(widths):.6g}" if widths else "n/a",
               "error_rate": f"{failed / len(runs):.3g} "
                             f"({failed} of {len(runs)})"}
    print(f"# {name} end-to-end (median of {len(children)} untraced): " +
          " ".join(f"{k}={v}" for k, v in summary.items()))
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        chosen, totals = layer_metrics(names, traced, children,
                                       ROOT / OUT / name / "spans.npz")
        print(f"# {name} traced spans by self time (calls, s, self_s):")
        for fn, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
            if row["s"] >= 1e-3:
                misses = (f"  misses by key {row['misses_by']}"
                          if row.get("misses_by") else "")
                print(f"#   {fn:40s} {row['calls']:8d} {row['s']:9.4f} "
                      f"{row['self_s']:9.4f}{misses}")
        values = chosen
    else:
        values = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "solenoidlab" / "cli.py").is_file():
        print(f"error: no solenoidlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The build: byte-compile the package once, as an install would.
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: the package does not compile", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace),
                             spec) for name in names}
    for name, res in results.items():
        bad = [k for k, m in res["metrics"].items()
               if not math.isfinite(m["value"])]
        if bad:
            print(f"error: {name}: no value for {', '.join(bad)}",
                  file=sys.stderr)
            return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
