"""The public names of the package, and the split between the library and
the test oracles."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import critlab

ORACLES = Path(__file__).resolve().parent / "oracles.py"
ELIMINATION = ("critlab.exact", "critlab.filtration")


class TestLibraryOracleSplit:
    def test_every_exported_name_resolves(self):
        missing = [name for name in critlab.__all__ if not hasattr(critlab, name)]
        assert missing == []

    def test_lattices_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("critlab.lattices")

    def test_oracles_import_no_elimination_code(self):
        # the claim of the oracles' docstring: nothing from critlab.exact or
        # critlab.filtration, directly or through the package namespace
        imported = []
        for node in ast.walk(ast.parse(ORACLES.read_text())):
            if isinstance(node, ast.Import):
                imported += [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [(node.module, alias.name) for alias in node.names]
        assert ("critlab", "IntMatrix") in imported
        for module, name in imported:
            assert module not in ELIMINATION
            if module == "critlab":
                obj = getattr(critlab, name)
                origin = obj.__name__ if isinstance(obj, ModuleType) else obj.__module__
                assert origin not in ELIMINATION, name
