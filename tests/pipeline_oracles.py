"""Test-side reader of the pipeline's tables, kept out of the package,
which only writes them; the sweep tables as the package wrote them when
write_table formatted every cell itself, with Werner cells from the literal
closed forms of states_oracles; and the files of run_tomo as the
package wrote them with the per-label parser, the per-entry matrix formatter,
compute_metrics' numpy calls and summary rows built metric by metric from
the column names."""

from pathlib import Path

import numpy as np

from biphoton import __version__, pipeline, tomography
from biphoton.errors import ParseError, read_text
from biphoton.multipair import SourceParams, effective_g, rates_primed
from biphoton.pipeline import FIDELITY_REFERENCES, SWEEP_HEADER
from states_oracles import (
    compute_metrics_numpy_calls,
    format_density_matrix_per_entry,
    werner_metrics_literal,
)
from tomography_oracles import read_counts_per_label


def read_table(path):
    """Parse a table written by write_table: (header, rows of strings)."""
    header = None
    rows = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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


def write_table_per_cell(path, header, rows, meta):
    """write_table when every cell was a value it formatted: repr(float(v))
    for a float cell, str(v) for any other."""
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(
            ",".join(
                repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def sweep_tables_per_cell(cfg, out_path):
    """The three tables of run_sweep, assembled from numeric rows that
    write_table_per_cell formats cell by cell, each table on its own."""
    rows = []
    for eta in sorted(cfg.eta_list):
        for power in sorted(cfg.sweep_grid):
            mu = cfg.calibration.pairs_per_power * power
            rates = rates_primed(SourceParams(mu, cfg.source.alpha, eta))
            g = effective_g(rates)
            m = werner_metrics_literal(g)
            rows.append([
                float(power), float(mu), float(eta), cfg.source.alpha,
                rates.r_hh, rates.r_hv, rates.r_hr,
                g, m["tangle"], m["linear_entropy"], m["fidelity"],
            ])
    out_path = Path(out_path)
    meta = {"version": __version__, "seed": cfg.seed, "config_hash": cfg.config_hash}
    write_table_per_cell(out_path, SWEEP_HEADER, rows, meta)

    fig2_rows = []
    for g in np.linspace(0.0, 1.0, 201).tolist():
        m = werner_metrics_literal(g)
        fig2_rows.append(["curve", g, m["linear_entropy"], m["tangle"]])
    for row in rows:
        fig2_rows.append(["model", row[7], row[9], row[8]])
    write_table_per_cell(out_path.with_name(out_path.stem + "_fig2" + out_path.suffix),
                         ["kind", "g", "linear_entropy", "tangle"], fig2_rows, meta)

    fig1b_rows = [
        [row[0], row[2], row[10]] + list(FIDELITY_REFERENCES.values()) for row in rows
    ]
    write_table_per_cell(out_path.with_name(out_path.stem + "_fig1b" + out_path.suffix),
                         ["power", "eta", "fidelity"] + list(FIDELITY_REFERENCES),
                         fig1b_rows, meta)


# The summary's metric columns in order, listed here rather than taken from
# StateMetrics._fields, so that the oracle checks the column order on its own.
METRIC_NAMES = ("fidelity", "tangle", "linear_entropy", "purity", "werner_g", "min_eigenvalue")


def summary_rows_by_name(records):
    """run_tomo's summary rows, each metric read by its column name."""
    return [[r.label, *(getattr(r.metrics, name) for name in METRIC_NAMES),
             float(r.optimizer_evals), r.hr_consistency] for r in records]


def tomo_texts_per_entry(files, failed=0):
    """{file name: text} of the files run_tomo writes for count files whose
    stems are distinct and need no escape, none of which fails; the batch
    held `failed` more files, each of which failed."""
    texts, records = {}, []
    rh_index = tomography.CANONICAL_LABELS.index("RH")
    for path in map(Path, files):
        counts, total_scale = read_counts_per_label(path)
        rho, steps = tomography.mle_reconstruct(tomography.CountVector(counts))
        metrics = compute_metrics_numpy_calls(rho)
        texts[f"{path.stem}_report.txt"] = (
            f"# state report for {path.stem}\n" + format_density_matrix_per_entry(rho)
            + f"# {pipeline.format_metrics(metrics)}\n"
        )
        records.append(pipeline.AnalysisRecord(path.stem, rho, metrics, steps,
                                               float(counts[rh_index] / total_scale)))
    records.sort(key=lambda r: r.label)
    header = ["label", *METRIC_NAMES, "optimizer_evals", "hr_consistency"]
    lines = [f"# version={__version__}", f"# files={len(files) + failed}", f"# errors={failed}",
             ",".join(header)]
    lines += [",".join(map(str, row)) for row in summary_rows_by_name(records)]
    texts["summary.csv"] = "\n".join(lines) + "\n"
    return texts
