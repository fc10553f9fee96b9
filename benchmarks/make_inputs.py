"""Write the inputs one run of a workload feeds the program, for inspection.

    python3 benchmarks/make_inputs.py --workload tomo-high-power --seed 7 --out /tmp/inputs

Writes the tomo stage's count files (tomo-in/), the sweep stage's config
(sweep.cfg) and the CLI chain's two configs (chain/simulate.cfg,
chain/sweep.cfg), byte for byte as run.py writes them for that seed (the
stages other than the workload's primary one use the README's seed).
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE)]

import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PRIMARY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    seed = args.seed % 2**32
    out = args.out
    workloads.write_count_files(
        out / "tomo-in", workloads.tomo_points(args.workload),
        workloads.stage_seed(args.workload, "tomo", seed),
    )
    sweep_seed = workloads.stage_seed(args.workload, "sweep", seed)
    etas, powers, n_max = workloads.sweep_grid(args.workload, sweep_seed)
    workloads.write_config(out / "sweep.cfg", workloads.sweep_config(sweep_seed, etas, powers, n_max))
    (out / "chain").mkdir()
    workloads.write_chain_configs(out / "chain", workloads.README_SEED)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
