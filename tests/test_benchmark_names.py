"""The per-layer metrics of BENCHMARK.json name functions that still exist.

The traced benchmark pass wraps the public functions of each layer module
and reads one row per `<layer>.<fn>.<quantity>` metric, so a metric whose
function was deleted or renamed breaks `perfbench/run.py --trace 1`.
"""

import importlib
import json
from pathlib import Path

from solenoidlab.maps import SolenoidSpec

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Metrics computed from the whole run rather than from one function.
RUN_METRICS = {"cli.untimed_s", "cli.artifact_bytes", "cli.trace_overhead_s"}
CACHE_QUANTITIES = {"hits", "misses", "build_s"}


def test_per_layer_metrics_name_traced_functions():
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    checked = 0
    for metric in (m["name"] for m in metrics):
        if metric in RUN_METRICS or metric.startswith("cli.stage_s."):
            continue
        layer, fn, quantity = metric.split(".")
        if (layer, fn) == ("maps", "eta_inverse_lift"):
            assert callable(getattr(SolenoidSpec, fn, None)), metric
            continue
        module = importlib.import_module(f"solenoidlab.{layer}")
        obj = getattr(module, fn, None)
        assert not fn.startswith("_") and callable(obj), metric
        assert not isinstance(obj, type), metric
        assert obj.__module__ == module.__name__, metric
        if quantity in CACHE_QUANTITIES:
            assert callable(getattr(obj, "cache_info", None)), metric
        checked += 1
    assert checked > 0
