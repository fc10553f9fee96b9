"""Command-line interface.

Subcommands:
    tomo <files...> --out DIR       reconstruct states from count files
    simulate --config FILE --out DIR   synthesize count files
    sweep --config FILE --out FILE  analytic (eta, power) sweep tables
    metrics <file>                  metrics of a serialized density matrix

simulate and sweep override config keys with --seed and --alpha; simulate
also takes --eta (source.eta) and --scale (simulate.scale), which sweep
does not read.

Exit codes: 0 success, 2 parse/config or I/O error, 3 validation or
degenerate input, 4 optimizer non-convergence. tomo reports every failing
file, including one whose stem repeats an earlier file's (exit 2), and
exits with the largest code among them.
"""

import argparse
import sys

from . import pipeline
from .errors import (
    BiphotonError,
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    ParseError,
    ValidationError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGED = 4

# (error classes, exit code, message prefix)
_ERROR_EXITS = (
    ((ParseError, ConfigError), EXIT_PARSE, "parse error"),
    ((ValidationError, DegenerateInputError), EXIT_VALIDATION, "validation error"),
    ((ConvergenceError,), EXIT_NONCONVERGED, "optimizer did not converge"),
    ((OSError,), EXIT_PARSE, "I/O error"),
)


def _classify(exc):
    """(exit code, message prefix) of a package error."""
    for types, code, prefix in _ERROR_EXITS:
        if isinstance(exc, types):
            return code, prefix
    raise exc


def _file_message(fname, exc):
    """The message of an error in one tomo or metrics input file, naming the
    file once: the count-file errors already start with its path, and an
    OSError gives only its reason."""
    if isinstance(exc, OSError):
        return f"{fname}: {exc.strerror or exc}"
    message = str(exc)
    return message if message.startswith(f"{fname}:") else f"{fname}: {message}"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Two-photon polarization tomography and multi-pair modeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tomo = sub.add_parser("tomo", help="reconstruct states from count files")
    p_tomo.add_argument("files", nargs="+")
    p_tomo.add_argument("--out", required=True, help="output directory")

    for name, out_help in (("simulate", "output directory"), ("sweep", "output file")):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--alpha", type=float, help="override source.alpha")
        if name == "simulate":  # sweep takes eta from sweep.eta_list and samples no counts
            p.add_argument("--eta", type=float, help="override source.eta")
            p.add_argument("--scale", type=float, help="override simulate.scale")

    p_metrics = sub.add_parser("metrics", help="metrics of a density-matrix file")
    p_metrics.add_argument("file")
    return parser


def _overrides(args):
    return {
        "seed": getattr(args, "seed", None),
        "source.alpha": getattr(args, "alpha", None),
        "source.eta": getattr(args, "eta", None),
        "simulate.scale": getattr(args, "scale", None),
    }


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "tomo":
            records, errors = pipeline.run_tomo(args.files, args.out)
            for rec in records:
                print(f"{rec.label}: {pipeline.format_metrics(rec.metrics)}")
            codes = [EXIT_OK]
            for fname, exc in errors:
                code, prefix = _classify(exc)
                codes.append(code)
                print(f"{prefix}: {_file_message(fname, exc)}", file=sys.stderr)
            return max(codes)
        if args.command == "simulate":
            cfg = pipeline.load_config(args.config, _overrides(args))
            for path in pipeline.run_simulate(cfg, args.out):
                print(path)
            return EXIT_OK
        if args.command == "sweep":
            cfg = pipeline.load_config(args.config, _overrides(args))
            rows = pipeline.run_sweep(cfg, args.out)
            print(f"wrote {len(rows)} sweep rows to {args.out}")
            return EXIT_OK
        if args.command == "metrics":
            print(pipeline.format_metrics(pipeline.run_metrics(args.file)))
            return EXIT_OK
    except (BiphotonError, OSError) as exc:
        code, prefix = _classify(exc)
        message = _file_message(args.file, exc) if args.command == "metrics" else exc
        print(f"{prefix}: {message}", file=sys.stderr)
        return code
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
