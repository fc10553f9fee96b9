"""Where the package's public names come from: each is the object of the
submodule that defines it, and the package source names each once. The
pipeline module imports no numpy."""

import ast
import importlib
import io
import tokenize
import types
from collections import Counter
from pathlib import Path

import pytest

import biphoton
from biphoton import pipeline

# the public constants, which carry no __module__ of their own
CONSTANT_HOMES = {"BASIS_LABELS": "biphoton.states", "CANONICAL_LABELS": "biphoton.tomography"}


@pytest.mark.parametrize("name", biphoton.__all__)
def test_name_is_its_submodules_object(name):
    value = getattr(biphoton, name)
    if isinstance(value, types.ModuleType):
        assert value is importlib.import_module(f"biphoton.{name}")
    else:
        home = importlib.import_module(CONSTANT_HOMES.get(name) or value.__module__)
        assert value is getattr(home, name)


def test_each_name_is_declared_once():
    source = Path(biphoton.__file__).read_text(encoding="utf-8")
    words = Counter(
        tok.string.strip("\"'")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type in (tokenize.NAME, tokenize.STRING)
    )
    assert {name: words[name] for name in biphoton.__all__} == dict.fromkeys(biphoton.__all__, 1)


def test_pipeline_imports_no_numpy():
    tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert imported and not [m for m in imported if m.split(".")[0] == "numpy"]
