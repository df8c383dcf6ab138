"""README.md names only constants the package defines, at the values it gives."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import poissonplan

README = Path(__file__).resolve().parent.parent / "README.md"
# A backticked UPPER_CASE name, with an optional " = value" inside the backticks.
CONSTANT = re.compile(r"`([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)(?: = ([^`]+))?`")


def _modules():
    return [poissonplan] + [importlib.import_module(f"poissonplan.{info.name}")
                            for info in pkgutil.iter_modules(poissonplan.__path__)]


def _value(text):
    """A README value: a power written base^exponent (2^20, 2^-44), or a Python literal."""
    power = re.fullmatch(r"(\d+)\^(-?\d+)", text)
    if power:
        return int(power[1]) ** int(power[2])
    return ast.literal_eval(text)


def test_readme_constants_exist_with_their_values():
    mentions = CONSTANT.findall(README.read_text(encoding="utf-8"))
    assert {"SEARCH_CAP", "GENERATOR_ID", "RHS_REL_ERR"} <= {name for name, _ in mentions}
    modules = _modules()
    wrong = []
    for name, text in mentions:
        defined = [getattr(m, name) for m in modules if hasattr(m, name)]
        if not defined:
            wrong.append(f"{name}: no poissonplan module defines it")
        elif text and any(value != _value(text) for value in defined):
            wrong.append(f"{name}: README gives {text}, the package {defined[0]!r}")
    assert wrong == []
