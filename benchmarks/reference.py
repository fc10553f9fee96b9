"""Reference figures with no gate, recorded in README.md.

    python3 benchmarks/reference.py

Prints Monte Carlo shots per second, the first rates_primed call with
empty caches at n_max 15 and 40, and where ``import biphoton`` spends its
time according to ``python -X importtime`` (cumulative microseconds of
the slowest top-level packages).
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]


def import_breakdown():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import biphoton"],
        env=env, capture_output=True, text=True, check=True,
    ).stderr
    top = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if not cumulative.isdigit():
            continue
        if name in ("numpy", "scipy.optimize", "biphoton") or name.startswith("biphoton."):
            top[name] = int(cumulative)
    return top


def main():
    from biphoton import multipair
    from workloads import clear_program_caches

    params = multipair.SourceParams(mu=0.5, alpha=0.05, eta=0.5)
    shots = 1_000_000
    start = time.perf_counter()
    multipair.monte_carlo_rates(params, shots, seed=1)
    print(f"monte_carlo_rates: {shots / (time.perf_counter() - start):.4g} shots/s")
    for n_max in (15, 40):
        samples = []
        for _ in range(5):
            clear_program_caches()
            start = time.perf_counter()
            multipair.rates_primed(multipair.SourceParams(mu=2.0, alpha=0.005, eta=0.03, n_max=n_max))
            samples.append(time.perf_counter() - start)
        print(f"rates_primed first call, n_max={n_max}: {1e3 * statistics.median(samples):.3g} ms")
    for name, us in sorted(import_breakdown().items(), key=lambda kv: -kv[1]):
        print(f"import {name}: {us / 1e3:.1f} ms cumulative")


if __name__ == "__main__":
    main()
