"""Every pytest.approx in the tests states its absolute tolerance.

pytest.approx accepts max(rel*|expected|, abs), and abs defaults to 1e-12.
Without abs=, a call passes any value below 1e-12 unchecked and loosens its
relative tolerance wherever |expected| < 1e-12/rel: approx(E_INV, rel=1e-14)
accepts a 2.7e-12 relative error.  So each call says abs=0.0, or gives an
explicit abs with a comment saying why.
"""

import ast
from pathlib import Path

import pytest


def approx_calls_without_abs(source: str) -> list:
    """Line numbers of the approx(...) calls in ``source`` with no abs keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "approx" and not any(kw.arg == "abs" for kw in node.keywords):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "source, lines",
    [
        ("assert x == pytest.approx(1.0, rel=1e-14)", [1]),
        ("assert x == approx(\n    1.0,\n)", [1]),
        ("assert x == pytest.approx(1.0, rel=1e-14, abs=0.0)", []),
        ("assert x == pytest.approx(1.0, abs=1e-9)", []),
        ("assert x == pytest.approx(1.0, **tol)", [1]),
    ],
)
def test_rule_flags_calls_without_abs(source, lines):
    assert approx_calls_without_abs(source) == lines


def test_every_approx_in_the_tests_states_abs():
    paths = sorted(Path(__file__).parent.glob("*.py"))
    assert Path(__file__) in paths
    missing = [
        f"{path.name}:{line}"
        for path in paths
        for line in approx_calls_without_abs(path.read_text(encoding="utf-8"))
    ]
    assert missing == []
