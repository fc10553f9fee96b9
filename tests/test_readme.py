"""README's `## CLI` shell block is the one copy of the README flow: it runs
as written, and the tests that need the README config read it from there."""

import os
import subprocess
import sys
from pathlib import Path

import biphoton

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_block():
    """The first ```sh block after README's `## CLI` heading."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    return section.split("\n```sh\n", 1)[1].split("\n```\n", 1)[0] + "\n"


def readme_config():
    """The run.cfg that the CLI block writes."""
    return cli_block().split("cat > run.cfg <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0] + "\n"


def test_cli_block_runs_as_written(tmp_path):
    # every command exits 0 and writes nothing to stderr, with biphoton being
    # the package under test run as a module
    src = Path(biphoton.__file__).resolve().parents[1]
    script = 'biphoton() { "$PYTHON" -m biphoton.cli "$@"; }\n' + cli_block()
    done = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, capture_output=True,
                          encoding="utf-8",
                          env={**os.environ, "PYTHON": sys.executable, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stderr) == (0, "")
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted([
        "run.cfg", "sweep.csv", "sweep_fig1b.csv", "sweep_fig2.csv", "results/summary.csv",
        *(f"counts/counts_{i:03d}.txt" for i in range(4)),
        *(f"results/counts_{i:03d}_report.txt" for i in range(4)),
    ])
