"""Every `module.name` that README.md writes in backticks names something
that `posetbundle.<module>` has, so the README cannot go on naming a
helper after it is deleted.  Benchmark span names (`paths.pi1_s`,
`cli.import_ms`) are not library names and are skipped."""

import importlib
import pkgutil
import re
from pathlib import Path

import posetbundle

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(posetbundle.__path__)}


def backticked_names():
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    for span in re.findall(r"`([^`]+)`", text):
        for module, name in re.findall(r"(?<![\w./-])([a-z_]+)\.(\w+)", span):
            if module in MODULES and not name.endswith(("_s", "_ms")):
                yield module, name


def test_readme_names_exist():
    names = sorted(set(backticked_names()))
    assert len(names) >= 10  # the scan finds the README's names at all
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(
                   f"posetbundle.{module}"), name)]
    assert missing == []
