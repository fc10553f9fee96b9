"""Where the package's public names come from: each is the object of the
submodule that defines it, and the package source names each once. The
package loads each submodule on first use, and the modules that a sweep
or a simulate run loads import no numpy."""

import ast
import importlib
import io
import os
import subprocess
import sys
import tokenize
import types
from collections import Counter
from pathlib import Path

import pytest

import biphoton
from biphoton import pipeline
from test_readme import readme_config

# the public constants, which carry no __module__ of their own
CONSTANT_HOMES = {"BASIS_LABELS": "biphoton.states", "CANONICAL_LABELS": "biphoton.multipair"}


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


# The modules that `biphoton sweep` and `biphoton simulate` load; "__init__" is the
# package itself.
NUMPY_FREE = ("__init__", "cli", "errors", "multipair", "pipeline")

def module_level_imports(module):
    """The modules a package file imports when it is loaded: every import
    outside a function body, relative ones resolved within the package."""
    package = Path(biphoton.__file__).parent
    stack = [ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))]
    while stack:
        for node in ast.iter_child_nodes(stack.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(node)
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield f"biphoton.{node.module}"
            elif isinstance(node, ast.ImportFrom):  # from . import name
                yield from (f"biphoton.{alias.name}" if (package / f"{alias.name}.py").exists()
                            else "biphoton" for alias in node.names)


def test_pipeline_imports_no_numpy():
    # each module that sweep loads imports only the standard library and each other
    allowed = {"biphoton", *(f"biphoton.{m}" for m in NUMPY_FREE if m != "__init__")}
    imported = {module: list(module_level_imports(module)) for module in NUMPY_FREE}
    assert "biphoton.multipair" in imported["pipeline"]
    outside = {module: [m for m in names
                        if m not in allowed and m.split(".")[0] not in sys.stdlib_module_names]
               for module, names in imported.items()}
    assert outside == dict.fromkeys(NUMPY_FREE, [])


def run_python(code, cwd):
    """stdout of code run in a fresh interpreter that imports the package under test."""
    src = Path(biphoton.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, encoding="utf-8")
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


# Modules a sweep or a simulate run must not load: numpy, and dataclasses with
# the inspect module it brings in.
HEAVY = {"numpy", "dataclasses", "inspect"}


def test_import_and_sweep_load_no_numpy(tmp_path):
    (tmp_path / "run.cfg").write_text(readme_config(), encoding="utf-8")
    out = run_python(
        "import sys\n"
        "import biphoton\n"
        "print(sorted(m for m in sys.modules if m.startswith(('biphoton', 'numpy'))))\n"
        "from biphoton import cli\n"
        "print(cli.main(['sweep', '--config', 'run.cfg', '--out', 'sweep.csv']))\n"
        f"print(sorted({HEAVY!r} & sys.modules.keys()))\n",
        tmp_path,
    )
    assert out.splitlines() == ["['biphoton']", "wrote 24 sweep rows to sweep.csv", "0", "[]"]


def test_simulate_loads_no_numpy(tmp_path):
    (tmp_path / "run.cfg").write_text(readme_config(), encoding="utf-8")
    out = run_python(
        "import sys\n"
        "from biphoton import cli\n"
        "print(cli.main(['simulate', '--config', 'run.cfg', '--out', 'counts']))\n"
        f"print(sorted({HEAVY!r} & sys.modules.keys()))\n",
        tmp_path,
    )
    assert out.splitlines() == [*(f"counts/counts_{i:03d}.txt" for i in range(4)), "0", "[]"]


# Modules only the config hash needs: importing the CLI, and a tomo or a metrics
# run, load neither.
CONFIG_HASH = {"hashlib", "json"}


def test_cli_import_and_tomo_load_no_hashlib(tmp_path):
    pipeline.write_counts([2, 1, 2, 1] + [1.5] * 12, tmp_path / "w.txt")
    out = run_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "from biphoton import cli\n"
        f"print(sorted(({HEAVY | CONFIG_HASH!r}) & (sys.modules.keys() - before)))\n"
        "print(cli.main(['tomo', 'w.txt', '--out', 'out']))\n"
        "print(cli.main(['metrics', 'out/w_report.txt']))\n"
        f"print(sorted({CONFIG_HASH!r} & (sys.modules.keys() - before)))\n",
        tmp_path,
    )
    lines = out.splitlines()
    assert (lines[0], lines[2], lines[4:]) == ("[]", "0", ["0", "[]"])


def test_every_name_resolves_in_a_fresh_interpreter(tmp_path):
    out = run_python(
        "import importlib, types\n"
        "import biphoton\n"
        "assert set(biphoton.__all__) <= set(dir(biphoton))\n"
        "from biphoton import *\n"
        f"homes = {CONSTANT_HOMES!r}\n"
        "for name in biphoton.__all__:\n"
        "    value = globals()[name]\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        assert value is importlib.import_module(f'biphoton.{name}'), name\n"
        "    else:\n"
        "        home = importlib.import_module(homes.get(name) or value.__module__)\n"
        "        assert value is getattr(home, name), name\n"
        "print(len(biphoton.__all__))\n",
        tmp_path,
    )
    assert out == "32\n"


def test_unknown_attribute_raises_attribute_error(tmp_path):
    out = run_python(
        "import sys\n"
        "import biphoton\n"
        "try:\n"
        "    biphoton.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(hasattr(biphoton, 'cli'), sorted(m for m in sys.modules if 'biphoton' in m))\n",
        tmp_path,
    )
    assert out.splitlines() == ["module 'biphoton' has no attribute 'no_such_name'",
                                "False ['biphoton']"]
