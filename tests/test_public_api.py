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


def _program_sources():
    return [p.read_text() for p in (*ROOT.glob("src/solenoidlab/*.py"),
                                    *ROOT.glob("demos/*.py"))
            if p.name != "__init__.py"]


def test_every_public_function_has_a_program_caller():
    sources = _program_sources()
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


def test_layer_modules_leave_encoding_and_files_to_the_cli():
    # Result types are plain data: `cli` alone turns them into JSON and CSV
    # and writes files.  `SolenoidSpec.to_dict` is the spec's canonical
    # form (behind `spec_hash` and the config echo), not an artifact format.
    found = []
    for layer in ("coding", "geometry", "lamination", "maps", "numerics",
                  "thermo"):
        module = importlib.import_module(f"solenoidlab.{layer}")
        found += [f"{layer}.{name}.to_dict"
                  for name, obj in vars(module).items()
                  if inspect.isclass(obj) and "to_dict" in vars(obj)
                  and obj.__module__ == module.__name__]
        text = Path(module.__file__).read_text()
        found += [f"{layer}: open("] * len(re.findall(r"\bopen\(", text))
    assert found == ["maps.SolenoidSpec.to_dict"]


def test_every_public_member_of_a_layer_class_has_a_program_reader():
    # A method, property or classmethod that only tests read is state or
    # API kept for nothing, like a public function without a caller.
    sources = _program_sources()
    unread = []
    for layer in LAYERS:
        module = importlib.import_module(f"solenoidlab.{layer}")
        for cls_name, cls in vars(module).items():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for name, member in vars(cls).items():
                if name.startswith("_") or not (
                        inspect.isfunction(member) or isinstance(
                            member, (property, classmethod, staticmethod))):
                    continue
                if not any(re.search(rf"\.{name}\b", text)
                           for text in sources):
                    unread.append(f"{layer}.{cls_name}.{name}")
    assert unread == []
