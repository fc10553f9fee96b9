"""Benchmark of biphoton: one workload, one seed, one measured run.

    python3 benchmarks/run.py --workload tomo-high-power --seed 1 --seconds 58 --trace 0

Run from the repository root. The program is imported from ``src/`` of
the same checkout; nothing needs installing. With ``--trace 0`` the last
line of standard output is one JSON object with the end-to-end metrics;
with ``--trace 1`` the public functions of each layer are wrapped in spans
and it carries the per-layer metrics instead, and the spans are written to
``.bench_out/``. See README.md next to this file.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
WORKLOADS = ("tomo-high-power", "sweep-high-power")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "biphoton" / "__init__.py").is_file():
        print(f"run.py: no biphoton package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    seed = args.seed % 2**32  # numpy seeds must be non-negative
    env = child_env()

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    checks = workloads.Checks()
    work = WORK_ROOT / f"{args.workload}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # One vCPU for this process and its children, so that the calibration
    # around a timed call runs on the CPU the call runs on (the vCPUs of a
    # shared host change speed independently).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        run = workloads.Run(args.workload, seed, work, env, tracer, checks)
        started = time.perf_counter()
        tally = run.measure(args.seconds)
        window = time.perf_counter() - started
    finally:
        os.sched_setaffinity(0, cpus)
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics = workloads.end_to_end(tally)
    if tracer is not None:
        metrics = traced_metrics(tracer, tally, args, seed, window, metrics)

    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    if tally.fits:
        print(
            f"{args.workload}: {tally.boundary}/{tally.fits} fits end on the PSD boundary "
            f"(min eigenvalue < {workloads.BOUNDARY_EIGENVALUE})",
            file=sys.stderr,
        )
    result = {
        "correct": checks.ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print("samples: " + json.dumps(tally.samples), file=sys.stderr)
    print(json.dumps(result))
    return 0


def traced_metrics(tracer, tally, args, seed, window, traced_end_to_end):
    """Per-layer metrics from the spans; writes them and the spans to OUT_ROOT."""
    import tracing

    spans = tracer.span_records()
    child_figures = {}
    for child in tally.child_spans:
        for name, entry in tracing.layer_figures(child).items():
            merged = child_figures.setdefault(name, {k: [] for k in entry})
            for k, v in entry.items():
                merged[k].extend(v)
    metrics = tracing.per_layer_metrics(
        tracing.layer_figures(spans),
        child_figures,
        tally.cli_times,
        tally.evals_rounds[0],
        [n for r in tally.evals_rounds for n in r],
    )
    cost = tracing.wrapper_cost_s()
    overhead = {
        "wrapper_cost_us": 1e6 * cost,
        "spans": len(spans),
        "share_of_window": cost * len(spans) / window,
        "traced_end_to_end": {k: v for k, (v, _) in traced_end_to_end.items()},
    }
    print(
        f"tracing: {len(spans)} spans, about {1e6 * cost:.2f} us each, "
        f"{100 * overhead['share_of_window']:.3f}% of the window",
        file=sys.stderr,
    )
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"trace-{args.workload}-seed{seed}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": seed,
        "span_fields": ["name", "start_s", "end_s", "parent", "attrs"],
        "spans": spans,
        "cli_spans": tally.child_spans,
        "overhead": overhead,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
