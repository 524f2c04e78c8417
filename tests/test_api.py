"""The public names: every module's __all__ resolves and every star import works."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pcmkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(pcmkit.__path__, "pcmkit."))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= namespace.keys()


def test_package_star_import():
    """The package exports every name README's workflows use."""
    namespace = {}
    exec("from pcmkit import *", namespace)
    assert {
        "run_msobe_sf", "read_records_csv", "write_records_csv", "summarize_classes",
        "compute_report", "estimate_asi", "rev_estimate", "gm_estimate", "assess_pcm", "builtin_table",
        "table_from_records", "read_pcm", "write_pcm", "round_pcm", "is_reciprocal",
    } <= namespace.keys()


def test_private_names_come_only_from_core():
    """A module imports _-prefixed names only from core, the one home of the helpers modules share."""
    found = []
    for path in sorted(Path(pcmkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) != (1, "core"):
                found += [(path.name, node.module, alias.name) for alias in node.names if alias.name.startswith("_")]
    assert found == []
