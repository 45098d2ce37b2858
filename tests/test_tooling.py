"""Names that code outside the package looks up: the public API list and the traced layers."""

import ast
import importlib
from pathlib import Path

import pytest

import ecoplatoon

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def tracing_sites():
    """The literal ``SITES`` table of the benchmark's tracer, read without running it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SITES":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SITES table in {TRACING}")


@pytest.mark.parametrize("module_name, attr", [site[:2] for site in tracing_sites()])
def test_traced_site_resolves_to_a_callable(module_name, attr):
    # the benchmark wraps each site by module attribute; a rename breaks it silently
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("name", ecoplatoon.__all__)
def test_public_name_imports(name):
    # ``from ecoplatoon import <name>`` looks the name up on the package
    assert hasattr(ecoplatoon, name)
