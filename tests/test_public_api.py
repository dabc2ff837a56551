"""Every public function of a layer module has a caller in the program.

A public module-level function that only tests call is API kept for
nothing: it duplicates a kernel or grows a second path to it.  The
program is `src/` and `demos/`; the package `__init__.py` only re-exports.
"""

import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("cli", "coding", "geometry", "lamination", "maps", "numerics",
          "thermo")


def test_every_public_function_has_a_program_caller():
    sources = [p.read_text() for p in (*ROOT.glob("src/solenoidlab/*.py"),
                                       *ROOT.glob("demos/*.py"))
               if p.name != "__init__.py"]
    unused = []
    for layer in LAYERS:
        module = importlib.import_module(f"solenoidlab.{layer}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            uses = sum(len(re.findall(rf"\b{name}\b", text))
                       - len(re.findall(rf"^\s*def {name}\b", text, re.M))
                       for text in sources)
            if uses == 0:
                unused.append(f"{layer}.{name}")
    assert unused == []
