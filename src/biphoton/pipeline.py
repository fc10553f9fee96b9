"""Batch front door: count-file ingestion, synthetic data generation,
power sweeps, and figure-ready tables.

Config files are flat "key=value" text with dotted section prefixes
(source.alpha, sweep.power_grid, ...). CLI flags override config keys.
Keys no subcommand reads are ignored, apart from entering the config hash.
All emitted tables are comma-delimited with '#' provenance comments
carrying the config hash, seed and package version.
"""

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, states, tomography
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    ParseError,
    ValidationError,
)
from .multipair import (
    PowerCalibration,
    SourceParams,
    effective_g,
    hr_consistency,
    projection_probabilities_16,
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
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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

    seed: int = 0
    source: SourceParams = field(
        default_factory=lambda: SourceParams(mu=0.0, alpha=0.01, eta=0.03)
    )
    calibration: PowerCalibration = field(
        default_factory=lambda: PowerCalibration(pairs_per_power=0.01)
    )
    eta_list: list = field(default_factory=list)
    sweep_grid: list = field(default_factory=list)
    simulate_grid: list = field(default_factory=list)
    scale: float = 1e6
    raw: dict = field(default_factory=dict)

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
    try:
        source = SourceParams(
            mu=0.0,
            alpha=float(merged["source.alpha"]),
            eta=float(merged["source.eta"]),
        )
        cal = PowerCalibration(
            pairs_per_power=float(merged["calibration.pairs_per_power"]),
            power_unit=merged["calibration.power_unit"],
        )
        cfg = RunConfig(
            seed=int(merged["seed"]),
            source=source,
            calibration=cal,
            scale=float(merged["simulate.scale"]),
            raw=merged,
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if "sweep.eta_list" in merged:
        cfg.eta_list = _float_list(merged["sweep.eta_list"], "sweep.eta_list")
    if "sweep.power_grid" in merged:
        cfg.sweep_grid = _float_list(merged["sweep.power_grid"], "sweep.power_grid")
    if "simulate.power_grid" in merged:
        cfg.simulate_grid = _float_list(merged["simulate.power_grid"], "simulate.power_grid")
    if any(p <= 0 for p in cfg.sweep_grid + cfg.simulate_grid):
        raise ConfigError("power grid values must be positive")
    return cfg


def load_config(path, overrides=None):
    return build_config(parse_config_file(path), overrides)


# --- tables ---------------------------------------------------------------------


def write_table(path, header, rows, meta):
    """Comma-delimited table with '#' comment lines for provenance."""
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(
            ",".join(
                repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path):
    """Parse a table written by write_table: (header, rows of strings)."""
    header = None
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} columns")
        rows.append(cells)
    if header is None:
        raise ParseError(f"{path}: no header row")
    return header, rows


def _meta(cfg, extra=None):
    meta = {"version": __version__, "seed": cfg.seed, "config_hash": cfg.config_hash}
    if extra:
        meta.update(extra)
    return meta


# --- subcommands ----------------------------------------------------------------


@dataclass
class AnalysisRecord:
    """One reconstructed state plus its metrics and diagnostics."""

    label: str
    rho: np.ndarray
    metrics: states.StateMetrics
    min_eigenvalue: float
    optimizer_evals: int
    hr_consistency: float


def analyze_counts(cv, label):
    rho = tomography.mle_reconstruct(cv)
    metrics = states.compute_metrics(rho)
    # RH is the linear-circular consistency setting: 0.25 for Werner states
    rh_index = tomography.CANONICAL_LABELS.index("RH")
    return AnalysisRecord(
        label=label,
        rho=rho,
        metrics=metrics,
        min_eigenvalue=states.validate(rho).min_eigenvalue,
        optimizer_evals=getattr(tomography.mle_reconstruct, "last_nfev", 0),
        hr_consistency=float(cv.counts[rh_index] / cv.total_scale),
    )


def write_report(record, path):
    m = record.metrics
    # metrics ride along as a comment so the file re-parses as a matrix
    text = (
        f"# state report for {record.label}\n"
        + states.format_density_matrix(record.rho)
        + f"# fidelity={m.fidelity!r}, tangle={m.tangle!r}, "
        f"linear_entropy={m.linear_entropy!r}, werner_g={m.werner_g!r}\n"
    )
    Path(path).write_text(text)


def run_tomo(files, out_dir, cfg=None):
    """Reconstruct every count file; failures are collected, not fatal.

    Returns (records sorted by label, list of (filename, exception) errors).
    A ConvergenceError entry carries the optimizer's best state.
    """
    cfg = cfg or build_config({})
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, errors = [], []
    for fname in files:
        label = Path(fname).stem
        try:
            cv = tomography.read_counts(fname)
            record = analyze_counts(cv, label)
        except (ParseError, ValidationError, DegenerateInputError, ConvergenceError) as exc:
            errors.append((str(fname), exc))
            continue
        records.append(record)
        write_report(record, out_dir / f"{label}_report.txt")
    records.sort(key=lambda r: r.label)
    rows = [
        [
            r.label,
            r.metrics.fidelity,
            r.metrics.tangle,
            r.metrics.linear_entropy,
            r.metrics.purity,
            r.metrics.werner_g,
            r.min_eigenvalue,
            float(r.optimizer_evals),
            r.hr_consistency,
        ]
        for r in records
    ]
    write_table(
        out_dir / "summary.csv",
        [
            "label", "fidelity", "tangle", "linear_entropy", "purity",
            "werner_g", "min_eigenvalue", "optimizer_evals", "hr_consistency",
        ],
        rows,
        _meta(cfg, {"files": len(files), "errors": len(errors)}),
    )
    return records, errors


def run_simulate(cfg, out_dir):
    """Synthesize one count file per power-grid point. Deterministic in
    (config, seed): identical inputs give byte-identical files."""
    if not cfg.simulate_grid:
        raise ConfigError("simulate requires simulate.power_grid")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, power in enumerate(cfg.simulate_grid):
        mu = cfg.calibration.pairs_per_power * power
        params = replace(cfg.source, mu=mu)
        probs = projection_probabilities_16(rates_primed(params))
        rng = np.random.default_rng([cfg.seed, i])
        counts = rng.poisson(cfg.scale * np.clip(probs, 0, None)).astype(float)
        path = out_dir / f"counts_{i:03d}.txt"
        tomography.write_counts(
            tomography.CountVector(counts, cfg.scale),
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
    separable-limit and totally-mixed reference values).
    """
    if not cfg.eta_list or not cfg.sweep_grid:
        raise ConfigError("sweep requires sweep.eta_list and sweep.power_grid")
    rows = []
    for eta in sorted(cfg.eta_list):
        for power in sorted(cfg.sweep_grid):
            mu = cfg.calibration.pairs_per_power * power
            params = replace(cfg.source, mu=mu, eta=eta)
            rates = rates_primed(params)
            g = effective_g(rates)
            rho = states.werner(g)
            rows.append([
                float(power), float(mu), float(eta), cfg.source.alpha,
                rates.r_hh, rates.r_hv, rates.r_hr,
                g, states.tangle(rho), states.linear_entropy(rho),
                states.fidelity(rho, states.bell_state()),
            ])
    out_path = Path(out_path)
    write_table(out_path, SWEEP_HEADER, rows, _meta(cfg))

    fig2_rows = []
    for g in np.linspace(0.0, 1.0, 201):
        rho = states.werner(float(g))
        fig2_rows.append(
            ["curve", float(g), states.linear_entropy(rho), states.tangle(rho)]
        )
    for row in rows:
        fig2_rows.append(["model", row[7], row[9], row[8]])
    fig2_path = out_path.with_name(out_path.stem + "_fig2" + out_path.suffix)
    write_table(fig2_path, ["kind", "g", "linear_entropy", "tangle"], fig2_rows, _meta(cfg))

    fig1b_rows = [
        [row[0], row[2], row[10]] + list(FIDELITY_REFERENCES.values()) for row in rows
    ]
    fig1b_path = out_path.with_name(out_path.stem + "_fig1b" + out_path.suffix)
    write_table(
        fig1b_path,
        ["power", "eta", "fidelity"] + list(FIDELITY_REFERENCES),
        fig1b_rows,
        _meta(cfg),
    )
    return rows


def run_metrics(path):
    """Validate a serialized density matrix and compute its metrics."""
    rho = states.parse_density_matrix(Path(path).read_text())
    states.require_valid(rho)
    return states.compute_metrics(rho)


def format_metrics(m):
    return (
        f"fidelity={m.fidelity!r}, tangle={m.tangle!r}, "
        f"linear_entropy={m.linear_entropy!r}, werner_g={m.werner_g!r}"
    )
