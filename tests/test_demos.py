import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Each demo with a line its output must contain.
DEMO_LINES = {
    "01_map_family_basics": "weak contraction fails:",
    "02_symbolic_coding": "generation-3 intervals cover",
    "03_dimension_prediction": "root interval",
    "04_box_counting": "full cloud fibers=1024",
    "05_leaves_and_holonomy": "minimum crossing angle",
    "06_measure_behavior": "max full-overlap order",
}


def test_every_demo_is_listed():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(
        DEMO_LINES)


@pytest.mark.parametrize("demo", sorted(DEMO_LINES))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert DEMO_LINES[demo] in proc.stdout
