"""Batch front door: count-file ingestion, synthetic data generation,
power sweeps, and figure-ready tables.

Config files are flat "key=value" text with dotted section prefixes
(source.alpha, sweep.power_grid, ...). CLI flags override config keys.
Keys no subcommand reads are ignored, apart from entering the config hash.
All emitted tables are comma-delimited with '#' provenance comments: the
sweep tables carry the package version, seed and config hash; the tomo
summary carries the package version and its file and error counts.
"""

import hashlib
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

from . import __version__, states, tomography
from .errors import BiphotonError, ConfigError, DegenerateInputError, ParseError, read_text
from .multipair import (
    PowerCalibration,
    SourceParams,
    effective_g,
    g_vs_power_curve,
    rates_primed,
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
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
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


@dataclass
class RunConfig:
    """Resolved configuration for one pipeline invocation."""

    seed: int
    source: SourceParams
    calibration: PowerCalibration
    eta_list: list
    sweep_grid: list
    simulate_grid: list
    scale: float
    raw: dict

    @property
    def config_hash(self):
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def build_config(keys, overrides=None):
    """Merge defaults, config keys and CLI overrides into a RunConfig."""
    merged = dict(DEFAULTS)
    merged.update(keys)
    if overrides:
        merged.update({k: str(v) for k, v in overrides.items() if v is not None})
    eta_list, sweep_grid, simulate_grid = (
        _float_list(merged[key], key) if key in merged else []
        for key in ("sweep.eta_list", "sweep.power_grid", "simulate.power_grid")
    )
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
            raw=merged,
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if not (0 < cfg.scale < math.inf and cfg.seed >= 0):
        raise ConfigError(
            f"simulate.scale={cfg.scale!r} must be positive and finite, seed={cfg.seed} >= 0"
        )
    if not all(0 <= eta <= 1 for eta in eta_list):
        raise ConfigError("sweep.eta_list values must lie in [0, 1]")
    mus = [cfg.calibration.pairs_per_power * p for p in sweep_grid + simulate_grid]
    if not all(0 < mu < math.inf for mu in mus):
        raise ConfigError("power grid values must be positive and give a finite mu")
    return cfg


def load_config(path, overrides=None):
    return build_config(parse_config_file(path), overrides)


# --- tables ---------------------------------------------------------------------


def write_table(path, header, rows, meta):
    """Comma-delimited table with '#' comment lines for provenance. Every
    cell is written through str, which gives a text cell as it is and a
    float cell as its repr, which round-trips exactly."""
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines += [",".join(map(str, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- subcommands ----------------------------------------------------------------


@dataclass
class AnalysisRecord:
    """One reconstructed state plus its metrics and diagnostics."""

    label: str
    rho: object  # 4x4 complex array
    metrics: states.StateMetrics
    optimizer_evals: int
    hr_consistency: float


def analyze_counts(cv, label):
    rho, steps = tomography.mle_reconstruct(cv)
    metrics = states.compute_metrics(rho)
    # RH is the linear-circular consistency setting: 0.25 for Werner states
    rh_index = tomography.CANONICAL_LABELS.index("RH")
    return AnalysisRecord(
        label=label,
        rho=rho,
        metrics=metrics,
        optimizer_evals=steps,
        hr_consistency=float(cv.counts[rh_index] / cv.total_scale),
    )


def write_report(record, path):
    # metrics ride along as a comment so the file re-parses as a matrix
    text = (
        f"# state report for {record.label}\n"
        + states.format_density_matrix(record.rho)
        + f"# {format_metrics(record.metrics)}\n"
    )
    Path(path).write_text(text, encoding="utf-8")


# A label escapes the table delimiter and every character str.splitlines ends a line at.
_LABEL_ESCAPES = {c: f"\\x{c:02x}" if c < 0x100 else f"\\u{c:04x}"
                  for c in map(ord, ",\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029")}


def run_tomo(files, out_dir):
    """Reconstruct every count file; failures are collected, not fatal.

    Returns (records sorted by label, list of (filename, exception) errors).
    A ConvergenceError entry carries the optimizer's best state, and a
    report that cannot be written fails its file only. Reports are named
    by file stem, so a file whose stem an earlier one already took is a
    ParseError. A record's label is the stem as text, with each byte the
    filesystem encoding cannot decode written as an escape such as \\xff,
    and so are a comma and each line break (\\x2c, \\x0a, \\u2028, ...), so
    the label is one cell of the summary and one line of the report and stdout.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, errors = [], []
    first = {}
    for fname in files:
        stem = Path(fname).stem
        label = os.fsencode(stem).decode(sys.getfilesystemencoding(), "backslashreplace")
        label = label.translate(_LABEL_ESCAPES)
        try:
            if label in first:
                raise ParseError(f"{fname}: stem {label!r} repeats that of {first[label]}")
            first[label] = fname
            cv = tomography.read_counts(fname)
            record = analyze_counts(cv, label)
            write_report(record, out_dir / f"{stem}_report.txt")
        except (BiphotonError, OSError) as exc:
            errors.append((str(fname), exc))
            continue
        records.append(record)
    records.sort(key=lambda r: r.label)
    header = ["label", *(f.name for f in fields(states.StateMetrics)),
              "optimizer_evals", "hr_consistency"]
    rows = [[r.label, *astuple(r.metrics), float(r.optimizer_evals), r.hr_consistency]
            for r in records]
    write_table(out_dir / "summary.csv", header, rows,
                {"version": __version__, "files": len(files), "errors": len(errors)})
    return records, errors


def run_simulate(cfg, out_dir):
    """Synthesize one count file per power-grid point. Deterministic in
    (config, seed): identical inputs give byte-identical files. A point with no
    HH, HV, VH or VV count, unusable by tomo, raises DegenerateInputError unwritten."""
    if not cfg.simulate_grid:
        raise ConfigError("simulate requires simulate.power_grid")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    curve = g_vs_power_curve(cfg.calibration, cfg.source, cfg.simulate_grid)
    for i, (power, g) in enumerate(curve):
        mu = cfg.calibration.pairs_per_power * power
        cv = tomography.simulate_counts(states.werner(g), cfg.scale, seed=[cfg.seed, i])
        if cv.total_scale == 0:
            raise DegenerateInputError(f"simulate.scale={cfg.scale!r} gives zero HH, HV, VH and "
                                       f"VV counts at power={power!r}")
        path = out_dir / f"counts_{i:03d}.txt"
        tomography.write_counts(
            cv,
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
    separable-limit and totally-mixed reference values). Each number is
    formatted once: the companions repeat the main table's cell text.
    Returns the main table's rows as numbers.
    """
    if not cfg.eta_list or not cfg.sweep_grid:
        raise ConfigError("sweep requires sweep.eta_list and sweep.power_grid")
    alpha = cfg.source.alpha
    alpha_text = repr(float(alpha))
    powers = [(power, cfg.calibration.pairs_per_power * power) for power in sorted(cfg.sweep_grid)]
    power_texts = [(repr(float(power)), repr(float(mu))) for power, mu in powers]
    rows, cells = [], []
    for eta in sorted(cfg.eta_list):
        eta_text = repr(float(eta))
        for (power, mu), (power_text, mu_text) in zip(powers, power_texts):
            rates = rates_primed(replace(cfg.source, mu=mu, eta=eta))
            g = effective_g(rates)
            m = states.werner_metrics(g)
            # rates_primed, effective_g and werner_metrics return Python floats
            computed = [rates.r_hh, rates.r_hv, rates.r_hr,
                        g, m.tangle, m.linear_entropy, m.fidelity]
            rows.append([float(power), float(mu), float(eta), alpha, *computed])
            cells.append([power_text, mu_text, eta_text, alpha_text, *map(repr, computed)])
    out_path = Path(out_path)
    meta = {"version": __version__, "seed": cfg.seed, "config_hash": cfg.config_hash}
    write_table(out_path, SWEEP_HEADER, cells, meta)

    fig2_rows = []
    for g in [i * 0.005 for i in range(201)]:
        m = states.werner_metrics(g)
        fig2_rows.append(["curve", repr(g), repr(m.linear_entropy), repr(m.tangle)])
    fig2_rows += [["model", c[7], c[9], c[8]] for c in cells]
    fig2_path = out_path.with_name(out_path.stem + "_fig2" + out_path.suffix)
    write_table(fig2_path, ["kind", "g", "linear_entropy", "tangle"], fig2_rows, meta)

    references = [repr(v) for v in FIDELITY_REFERENCES.values()]
    fig1b_rows = [[c[0], c[2], c[10], *references] for c in cells]
    fig1b_path = out_path.with_name(out_path.stem + "_fig1b" + out_path.suffix)
    write_table(
        fig1b_path,
        ["power", "eta", "fidelity"] + list(FIDELITY_REFERENCES),
        fig1b_rows,
        meta,
    )
    return rows


def run_metrics(path):
    """Validate a serialized density matrix and compute its metrics."""
    return states.compute_metrics(states.parse_density_matrix(read_text(path)))


def format_metrics(m):
    return (
        f"fidelity={m.fidelity!r}, tangle={m.tangle!r}, "
        f"linear_entropy={m.linear_entropy!r}, werner_g={m.werner_g!r}"
    )
