"""Batch front door: count-file ingestion, synthetic data generation,
power sweeps, and figure-ready tables.

Config files are flat "key=value" text with dotted section prefixes
(source.alpha, sweep.power_grid, ...). CLI flags override config keys.
Keys no subcommand reads are ignored, apart from entering the config hash.
All emitted tables are comma-delimited with '#' provenance comments: the
sweep tables carry the package version, seed and config hash; the tomo
summary carries the package version and its file and error counts.

Only tomo and metrics need numpy: their functions import states and
tomography when they run, so a sweep or a simulate run never loads it.
"""

import math
import os
import re
import sys
from collections import namedtuple
from pathlib import Path

from . import __version__
from .errors import (
    BiphotonError,
    ConfigError,
    DegenerateInputError,
    ParseError,
    ValidationError,
    data_lines,
    read_text,
    write_text,
)
from .multipair import (
    CANONICAL_LABELS,
    PowerCalibration,
    SourceParams,
    StateMetrics,
    _poisson_counts,
    _werner_floats,
    effective_g,
    rates_primed,
    setting_probabilities,
)

DEFAULTS = {
    "seed": "0",
    "source.alpha": "0.01",
    "source.eta": "0.03",
    "calibration.pairs_per_power": "0.01",
    "calibration.power_unit": "uW",
    "simulate.scale": "1e6",
}


def parse_config_file(path):
    """Read a flat key=value config file into a dict of strings."""
    out = {}
    for lineno, line in data_lines(read_text(path)):
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key=value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _float_list(raw, key):
    try:
        vals = [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse list {raw!r}") from exc
    if not vals:
        raise ConfigError(f"{key}: list is empty")
    return vals


RunConfig = namedtuple("RunConfig", ("seed", "source", "calibration", "eta_list", "sweep_grid",
                                     "simulate_grid", "scale", "config_hash"))
RunConfig.__doc__ = """Resolved configuration for one pipeline invocation; config_hash is the
first 12 hex digits of the SHA-256 of the merged defaults, keys and overrides as sorted JSON."""


def build_config(keys, overrides=None):
    """Merge defaults, config keys and CLI overrides into a RunConfig."""
    # the config hash is their one use, so a tomo or metrics run loads neither
    import hashlib
    import json

    merged = dict(DEFAULTS)
    merged.update(keys)
    if overrides:
        merged.update({k: str(v) for k, v in overrides.items() if v is not None})
    eta_list, sweep_grid, simulate_grid = (
        _float_list(merged[key], key) if key in merged else []
        for key in ("sweep.eta_list", "sweep.power_grid", "simulate.power_grid")
    )
    config_hash = hashlib.sha256(json.dumps(merged, sort_keys=True).encode()).hexdigest()[:12]
    try:
        cfg = RunConfig(
            seed=int(merged["seed"]),
            source=SourceParams(
                mu=0.0,
                alpha=float(merged["source.alpha"]),
                eta=float(merged["source.eta"]),
            ),
            calibration=PowerCalibration(
                pairs_per_power=float(merged["calibration.pairs_per_power"]),
                power_unit=merged["calibration.power_unit"],
            ),
            eta_list=eta_list,
            sweep_grid=sweep_grid,
            simulate_grid=simulate_grid,
            scale=float(merged["simulate.scale"]),
            config_hash=config_hash,
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if not 0 < cfg.scale < math.inf:
        raise ConfigError(f"simulate.scale={cfg.scale!r} must be positive and finite")
    if cfg.seed < 0:
        raise ConfigError(f"seed={cfg.seed} must be >= 0")
    if not all(0 <= eta <= 1 for eta in eta_list):
        raise ConfigError("sweep.eta_list values must lie in [0, 1]")
    mus = [cfg.calibration.pairs_per_power * p for p in sweep_grid + simulate_grid]
    if not all(0 < mu < math.inf for mu in mus):
        raise ConfigError("power grid values must be positive and give a finite mu")
    return cfg


def load_config(path, overrides=None):
    return build_config(parse_config_file(path), overrides)


# --- tables ---------------------------------------------------------------------


def write_table(path, header, lines, meta):
    """Comma-delimited table with '#' comment lines for provenance. Each data
    line comes joined, its cells already text: the writers give a float cell
    as its repr, which round-trips exactly."""
    head = [f"# {k}={v}" for k, v in meta.items()]
    head.append(",".join(header))
    write_text(path, "\n".join(head + lines) + "\n")


# --- subcommands ----------------------------------------------------------------


AnalysisRecord = namedtuple("AnalysisRecord", ("label", "rho", "metrics", "optimizer_evals",
                                               "hr_consistency"))
AnalysisRecord.__doc__ = """One reconstructed state, rho a 4x4 complex array, plus its metrics
and diagnostics."""


def write_report(record, path):
    from . import states

    # metrics ride along as a comment so the file re-parses as a matrix
    write_text(path, f"# state report for {record.label}\n"
               + states.format_density_matrix(record.rho)
               + f"# {format_metrics(record.metrics)}\n")


def _escape(char):
    """\\xNN below U+0080, else \\uNNNN: \\xNN with NN from 80 up is how a byte that
    does not decode is written, so a character never takes the escape of a byte."""
    code = ord(char)
    return f"\\x{code:02x}" if code < 0x80 else f"\\u{code:04x}"


# A label escapes the table delimiter and every character str.splitlines ends a line at,
# then a leading '#' and each whitespace character (str.isspace) at either end.
_LABEL_ESCAPES = {ord(c): _escape(c) for c in ",\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"}
_LABEL_ENDS = re.compile(r"\A#|\A\s+|\s+\Z")


def _label(fname, stem):
    """The stem as text: a backslash as \\x5c, then each byte the filesystem
    encoding cannot decode as an escape such as \\xff, then the escapes above.
    A stem the filesystem encoding cannot encode is a ParseError naming fname."""
    try:
        raw = os.fsencode(stem.replace("\\", "\\x5c"))
    except UnicodeEncodeError as exc:
        raise ParseError(f"{fname}: name cannot be encoded in the filesystem encoding "
                         f"{exc.encoding!r}") from exc
    text = raw.decode(sys.getfilesystemencoding(), "backslashreplace")
    return _LABEL_ENDS.sub(lambda m: "".join(map(_escape, m[0])), text.translate(_LABEL_ESCAPES))


def _stem(fname):
    """Path(fname).stem without a Path: the name after the last separator (pathlib's
    own where fname ends in a separator or '.', parts pathlib drops), less its last
    '.' and what follows if that '.' neither begins nor ends the name."""
    name = os.path.basename(fname)
    if name in ("", os.curdir):
        name = Path(fname).name
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def run_tomo(files, out_dir):
    """Reconstruct every count file; failures are collected, not fatal.

    Returns (records sorted by label, list of (filename, exception) errors
    in the order of files). Each file is read and fitted in turn, then the
    metrics of all the fits come from one stacked compute_metrics call, then
    the reports are written. A ConvergenceError entry carries the
    optimizer's best state, and a state that fails validation or a report
    that cannot be written fails its file only. Reports are named by file
    stem, so a file whose stem an earlier one already took is a ParseError,
    and so is a name the filesystem encoding cannot encode. A record's label
    is the stem as text, with each byte the filesystem encoding cannot
    decode written as an escape such as \\xff, and so are a backslash
    (\\x5c), a comma and each line break (\\x2c, \\x0a, \\u0085, \\u2028,
    ...), a leading '#' (\\x23) and each whitespace character at either end
    (\\x20, \\x09, \\u3000, ...); a character is escaped as \\xNN only below
    U+0080, so never as a byte is. So a name that spells an escape keeps a
    label of its own, and a label is one cell of the summary that no reader
    takes for a comment or strips, and one line of the report and stdout.
    """
    from . import states, tomography

    out_dir = os.fspath(out_dir) or os.curdir  # Path("") is the current directory
    os.makedirs(out_dir, exist_ok=True)
    # RH is the linear-circular consistency setting: 0.25 for Werner states
    rh = CANONICAL_LABELS.index("RH")
    failed = {}  # file position -> (file name, exception), for errors in file order
    fits, first = [], {}
    for position, fname in enumerate(files):
        stem = _stem(os.fspath(fname))
        try:
            label = _label(fname, stem)
            if label in first:
                raise ParseError(f"{fname}: stem {label!r} repeats that of {first[label]}")
            first[label] = fname
            cv = tomography.read_counts(fname)
            rho, steps = tomography.mle_reconstruct(cv)
        except (BiphotonError, OSError) as exc:
            failed[position] = (str(fname), exc)
            continue
        fits.append((position, fname, stem, label, rho, steps,
                     float(cv.counts[rh] / cv.total_scale)))
    # one stacked call; a state that fails validation fails its own file only
    entries = states.compute_metrics([fit[4] for fit in fits]) if fits else []
    records = []
    for (position, fname, stem, label, rho, steps, hr), metrics in zip(fits, entries):
        if isinstance(metrics, ValidationError):
            failed[position] = (str(fname), metrics)
            continue
        record = AnalysisRecord(label, rho, metrics, steps, hr)
        try:
            write_report(record, os.path.join(out_dir, stem + "_report.txt"))
        except OSError as exc:
            failed[position] = (str(fname), exc)
            continue
        records.append(record)
    errors = [failed[position] for position in sorted(failed)]
    records.sort(key=lambda r: r.label)
    header = ["label", *StateMetrics._fields, "optimizer_evals", "hr_consistency"]
    rows = [[r.label, *r.metrics, float(r.optimizer_evals), r.hr_consistency]
            for r in records]
    write_table(os.path.join(out_dir, "summary.csv"), header,
                [",".join(map(str, row)) for row in rows],
                {"version": __version__, "files": len(files), "errors": len(errors)})
    return records, errors


def write_counts(counts, path, comments=("label,count",)):
    """Write a count file: one '# ' line per comment, then the 16 counts as
    rows in canonical order with exact (repr) values."""
    lines = [f"# {c}" for c in comments]
    lines += [f"{lab},{float(n)!r}" for lab, n in zip(CANONICAL_LABELS, counts, strict=True)]
    write_text(path, "\n".join(lines) + "\n")


def run_simulate(cfg, out_dir):
    """Synthesize one count file per power-grid point, drawing each setting's
    count from the Poisson law of mean scale * p, p being the detector model's
    setting_probabilities at that power. Deterministic in (config, seed):
    identical inputs give byte-identical files. A point with no HH, HV, VH or VV
    count, unusable by tomo, raises DegenerateInputError unwritten."""
    if not cfg.simulate_grid:
        raise ConfigError("simulate requires simulate.power_grid")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, power in enumerate(cfg.simulate_grid):
        mu = cfg.calibration.pairs_per_power * power
        probs = setting_probabilities(rates_primed(SourceParams(mu, cfg.source.alpha,
                                                                cfg.source.eta)))
        counts = _poisson_counts(probs, cfg.scale, f"{cfg.seed},{i}")
        if not any(counts[:4]):
            raise DegenerateInputError(f"simulate.scale={cfg.scale!r} gives zero HH, HV, VH and "
                                       f"VV counts at power={power!r}")
        path = out_dir / f"counts_{i:03d}.txt"
        write_counts(
            counts,
            path,
            comments=(
                f"synthetic counts, power={power!r} {cfg.calibration.power_unit}, mu={mu!r}",
                f"version={__version__} seed={cfg.seed} config_hash={cfg.config_hash}",
            ),
        )
        paths.append(path)
    return paths


SWEEP_HEADER = [
    "power", "mu", "eta", "alpha",
    "r_hh", "r_hv", "r_hr",
    "g", "tangle", "linear_entropy", "fidelity",
]

FIDELITY_REFERENCES = {"f_ideal": 1.0, "f_separable": 0.5, "f_mixed": 0.25}


def run_sweep(cfg, out_path):
    """Analytic sweep over (eta, power); no RNG involved.

    Writes the main sweep table to out_path plus two companions derived
    from its name: *_fig2* (mixedness-vs-entanglement trajectory, with the
    dense reference curve) and *_fig1b* (fidelity vs power with the ideal,
    separable-limit and totally-mixed reference values). One pass over the
    grid builds each point's line of all three tables once, each number
    formatted once as its repr: the companions repeat the main line's cells.
    Each point calls rates_primed(SourceParams(...)) through this module's
    global, as the benchmark's tracer wraps pipeline.rates_primed and reads
    .alpha and .eta from its argument; the rest of a point is plain floats.
    Returns the main table's rows as numbers.
    """
    if not cfg.eta_list or not cfg.sweep_grid:
        raise ConfigError("sweep requires sweep.eta_list and sweep.power_grid")
    alpha = cfg.source.alpha
    alpha_text = repr(float(alpha))
    references = ",".join(map(repr, FIDELITY_REFERENCES.values()))
    powers = [(float(p), float(cfg.calibration.pairs_per_power * p))
              for p in sorted(cfg.sweep_grid)]
    powers = [(power, mu, repr(power), repr(mu)) for power, mu in powers]
    fig2_lines = []
    for g in [i * 0.005 for i in range(201)]:
        _, tangle, entropy = _werner_floats(g)
        fig2_lines.append(f"curve,{g!r},{entropy!r},{tangle!r}")
    rows, lines, fig1b_lines = [], [], []
    for eta in sorted(map(float, cfg.eta_list)):
        eta_text = repr(eta)
        for power, mu, power_text, mu_text in powers:
            rates = rates_primed(SourceParams(mu, alpha, eta))
            g = effective_g(rates)
            fidelity, tangle, entropy = _werner_floats(g)
            r_hh, r_hv, r_hr = rates
            # rates_primed, effective_g and _werner_floats return Python floats
            rows.append([power, mu, eta, alpha, r_hh, r_hv, r_hr, g, tangle, entropy, fidelity])
            g_text, tangle_text, entropy_text, fidelity_text = (
                f"{g!r}", f"{tangle!r}", f"{entropy!r}", f"{fidelity!r}")
            lines.append(f"{power_text},{mu_text},{eta_text},{alpha_text},{r_hh!r},{r_hv!r},"
                         f"{r_hr!r},{g_text},{tangle_text},{entropy_text},{fidelity_text}")
            fig2_lines.append(f"model,{g_text},{entropy_text},{tangle_text}")
            fig1b_lines.append(f"{power_text},{eta_text},{fidelity_text},{references}")
    meta = {"version": __version__, "seed": cfg.seed, "config_hash": cfg.config_hash}
    # out_path as given, before Path drops a trailing separator: "dir/" fails here
    write_table(out_path, SWEEP_HEADER, lines, meta)
    out_path = Path(out_path)
    fig2_path = out_path.with_name(out_path.stem + "_fig2" + out_path.suffix)
    write_table(fig2_path, ["kind", "g", "linear_entropy", "tangle"], fig2_lines, meta)
    fig1b_path = out_path.with_name(out_path.stem + "_fig1b" + out_path.suffix)
    write_table(fig1b_path, ["power", "eta", "fidelity", *FIDELITY_REFERENCES], fig1b_lines, meta)
    return rows


def run_metrics(path):
    """Validate a serialized density matrix and compute its metrics."""
    from . import states

    return states.compute_metrics(states.parse_density_matrix(read_text(path)))


def format_metrics(m):
    return (
        f"fidelity={m.fidelity!r}, tangle={m.tangle!r}, "
        f"linear_entropy={m.linear_entropy!r}, werner_g={m.werner_g!r}"
    )
