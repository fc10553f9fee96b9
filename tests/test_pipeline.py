"""End-to-end tests of the batch pipeline and CLI."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import biphoton
from biphoton import cli, pipeline, states, tomography
from biphoton.errors import (
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    ParseError,
    ValidationError,
)
from biphoton.multipair import (
    SETTING_CLASSES,
    SourceParams,
    effective_g,
    rates_primed,
    setting_probabilities,
)
from pipeline_oracles import read_table, sweep_tables_per_cell, tomo_texts_per_entry
from test_readme import readme_config
from test_tomography import BOUNDARY_FILES


def write_config(path, extra=""):
    # source.n_max is no longer read; configs that still carry it must load
    path.write_text(
        "seed=0\n"
        "source.alpha=0.005\n"
        "source.eta=1.0\n"
        "source.n_max=15\n"
        "calibration.pairs_per_power=0.01\n"
        "simulate.scale=1e6\n" + extra,
        encoding="utf-8",
    )
    return path


def readme_config_file(path):
    """The config of README's CLI block, written to path."""
    path.write_text(readme_config(), encoding="utf-8")
    return path


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.cfg")
        cfg = pipeline.load_config(cfg_path, {"seed": 7, "source.eta": 0.2})
        assert cfg.seed == 7
        assert cfg.source.eta == 0.2
        assert cfg.source.alpha == 0.005

    def test_bad_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("source.alpha\n")
        with pytest.raises(Exception):
            pipeline.load_config(path)

    def test_positive_grid_required(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.cfg", "sweep.power_grid=-1,2\n")
        with pytest.raises(ConfigError):
            pipeline.load_config(cfg_path)

    def test_byte_order_mark(self, tmp_path):
        # a config saved with a UTF-8 byte-order mark keeps its first key
        text = "seed=5\nsimulate.power_grid=1\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        cfg = pipeline.load_config(bom)
        assert cfg.seed == 5
        assert cfg.config_hash == pipeline.load_config(plain).config_hash


def summary_line(row):
    """A data line as run_tomo joins a summary row: every cell through str."""
    return ",".join(map(str, row))


def sweep_line(row):
    """A data line as run_sweep builds one: every float cell as its repr."""
    return ",".join(f"{v!r}" for v in row)


class TestTables:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[0.1, 1 / 3, 2e-7], [5.0, 0.9999999999, 1e300]]
        lines = [summary_line(rows[0]), sweep_line(rows[1])]
        pipeline.write_table(path, ["a", "b", "c"], lines, {"seed": 0, "files": 2})
        # the lines are written as they come, after the provenance and the header
        assert path.read_text(encoding="utf-8") == (
            "# seed=0\n# files=2\na,b,c\n0.1,0.3333333333333333,2e-07\n5.0,0.9999999999,1e+300\n"
        )
        header, back = read_table(path)
        assert header == ["a", "b", "c"]
        for row, raw in zip(rows, back):
            for v, s in zip(row, raw):
                assert float(s) == v  # repr round-trips exactly
        pipeline.write_table(path, ["a"], [], {})
        assert path.read_text(encoding="utf-8") == "a\n"

    @given(st.lists(st.lists(st.floats(allow_nan=False), min_size=3, max_size=3), max_size=5))
    def test_floats_round_trip_bit_exact(self, tmp_path_factory, rows):
        # both ways the writers turn a float into a cell: str in a summary row
        # (after its text label) and repr in a sweep line
        directory = tmp_path_factory.mktemp("table")
        want = np.array([v for row in rows for v in row], dtype=float)
        tables = {
            "summary": (["label", "a", "b", "c"], [summary_line(["x", *row]) for row in rows]),
            "sweep": (["a", "b", "c"], [sweep_line(row) for row in rows]),
        }
        for name, (header, lines) in tables.items():
            path = directory / f"{name}.csv"
            pipeline.write_table(path, header, lines, {"seed": 0})
            _, back = read_table(path)
            got = np.array([float(s) for row in back for s in row[-3:]])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSimulate:
    def test_deterministic_files(self, tmp_path):
        cfg = pipeline.load_config(
            write_config(tmp_path / "run.cfg", "simulate.power_grid=10,50\n")
        )
        p1 = pipeline.run_simulate(cfg, tmp_path / "a")
        p2 = pipeline.run_simulate(cfg, tmp_path / "b")
        for a, b in zip(p1, p2):
            assert a.read_bytes() == b.read_bytes()

    def test_count_files_keep_their_format(self, tmp_path):
        # the bytes run_simulate wrote before it shared write_counts
        cfg = pipeline.load_config(
            write_config(tmp_path / "run.cfg", "simulate.power_grid=10,50\n")
        )
        paths = pipeline.run_simulate(cfg, tmp_path / "out")
        for power, path in zip(cfg.simulate_grid, paths):
            mu = cfg.calibration.pairs_per_power * power
            counts = tomography.read_counts(path).counts
            expected = (
                f"# synthetic counts, power={power!r} {cfg.calibration.power_unit}, "
                f"mu={mu!r}\n"
                f"# version={pipeline.__version__} seed={cfg.seed} "
                f"config_hash={cfg.config_hash}\n"
                + "\n".join(
                    f"{lab},{float(n)!r}" for lab, n in zip(tomography.CANONICAL_LABELS, counts)
                )
                + "\n"
            )
            assert path.read_text() == expected

    def test_counts_too_few_to_reconstruct(self, tmp_path):
        # the HH, HV, VH and VV means sum to the scale, so at scale 1e-10 each
        # power draws none of those counts with probability exp(-1e-10), whatever
        # the seed: a file tomo would reject, which simulate fails before writing
        cfg = pipeline.load_config(write_config(
            tmp_path / "run.cfg", "simulate.scale=1e-10\nsimulate.power_grid=1,10\n"))
        with pytest.raises(DegenerateInputError, match=r"power=1\.0"):
            pipeline.run_simulate(cfg, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    def test_counts_follow_the_detector_model(self, tmp_path):
        # at alpha = 1, mu = 1 the model's HR settings have probability 0.2365, not
        # the Werner state's 1/4: about 28 sd apart at scale 1e6
        cfg = pipeline.load_config(write_config(
            tmp_path / "run.cfg", "source.alpha=1.0\nsimulate.power_grid=100\n"))
        (path,) = pipeline.run_simulate(cfg, tmp_path / "out")
        counts = tomography.read_counts(path).counts
        rates = rates_primed(SourceParams(1.0, 1.0, 1.0))
        model = 1e6 * np.array(setting_probabilities(rates))
        werner = 1e6 * tomography.expected_probabilities(states.werner(effective_g(rates)))
        assert np.all(np.abs(counts - model) <= 6 * np.sqrt(model))
        hr = [c == "HR" for c in SETTING_CLASSES]
        assert np.all(np.abs(counts - werner)[hr] > 20 * np.sqrt(werner[hr]))

    def test_low_power_near_ideal(self, tmp_path):
        cfg = pipeline.load_config(
            write_config(tmp_path / "run.cfg", "simulate.power_grid=0.001\n")
        )
        (path,) = pipeline.run_simulate(cfg, tmp_path / "out")
        cv = tomography.read_counts(path)
        probs = cv.counts / cv.total_scale
        ideal = tomography.expected_probabilities(states.ideal_bell())
        assert np.max(np.abs(probs - ideal)) < 0.01

    def test_mu_one_matches_werner_half(self, tmp_path):
        cfg = pipeline.load_config(
            write_config(tmp_path / "run.cfg", "simulate.power_grid=100\n")
        )
        (path,) = pipeline.run_simulate(cfg, tmp_path / "out")
        cv = tomography.read_counts(path)
        probs = cv.counts / cv.total_scale
        expect = tomography.expected_probabilities(states.werner(0.5))
        assert np.max(np.abs(probs - expect)) < 0.01


class TestTomoBatch:
    def test_batch_with_corrupt_file(self, tmp_path):
        cfg = pipeline.load_config(
            write_config(tmp_path / "run.cfg", "simulate.power_grid=1,5,10,50\n")
        )
        files = [str(p) for p in pipeline.run_simulate(cfg, tmp_path / "counts")]
        corrupt = tmp_path / "counts" / "broken.txt"
        corrupt.write_text("HH,not-a-number\n")
        files.append(str(corrupt))
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        assert len(records) == 4
        assert len(errors) == 1
        assert "broken.txt" in errors[0][0]
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_failures_of_every_phase_keep_file_order(self, tmp_path, capsys):
        # an unreadable file, a parse error, a validation error from the fit and
        # an unwritable report, with good files in between: the errors and stderr
        # follow the files, and the good files' outputs are those of the oracle
        probs = tomography.expected_probabilities(states.werner(0.3))
        lopsided = np.ones(16)
        lopsided[tomography.CANONICAL_LABELS.index("RH")] = 1e300
        files, good = [], []
        for name, counts in (("g0", probs * 1e6), ("blocked", probs * 1e6), ("g1", probs * 1e5),
                             ("missing", None), ("g2", probs * 1e4), ("broken", None),
                             ("lopsided", lopsided), ("g3", probs * 1e3)):
            files.append(tmp_path / f"{name}.txt")
            if counts is not None:
                pipeline.write_counts(counts, files[-1])
                if name.startswith("g"):
                    good.append(files[-1])
        files[5].write_text("HH,not-a-number\n", encoding="utf-8")
        (tmp_path / "out" / "blocked_report.txt").mkdir(parents=True)
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        assert [r.label for r in records] == ["g0", "g1", "g2", "g3"]
        # the report's error comes last in time, first in file order
        assert [(fname, type(exc)) for fname, exc in errors] == [
            (str(files[1]), IsADirectoryError), (str(files[3]), FileNotFoundError),
            (str(files[5]), ParseError), (str(files[6]), ValidationError)]
        written = {p.name: p.read_text(encoding="utf-8")
                   for p in (tmp_path / "out").iterdir() if p.is_file()}
        assert written == tomo_texts_per_entry(good, failed=4)

        assert cli.main(["tomo", *map(str, files), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"I/O error: {files[1]}: Is a directory",
            f"I/O error: {files[3]}: No such file or directory",
            f"parse error: {files[5]}:1: bad count 'not-a-number'",
            f"validation error: {files[6]}: counts out of proportion to their HH+HV+VH+VV "
            "sum (overflow encountered in square)",
        ]

    def test_a_state_the_metrics_reject_fails_its_file_only(self, tmp_path, monkeypatch):
        # one stacked metrics call; the fit of b is made to leave the unit trace
        probs = tomography.expected_probabilities(states.werner(0.3))
        files = [tmp_path / f"{name}.txt" for name in "abc"]
        for path in files:
            pipeline.write_counts(probs * 1e6, path)
        fit, fits = tomography.mle_reconstruct, []

        def off_trace_for_b(cv):
            rho, steps = fit(cv)
            fits.append(rho)
            return (0.9 * rho if len(fits) == 2 else rho), steps

        monkeypatch.setattr(tomography, "mle_reconstruct", off_trace_for_b)
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        assert [r.label for r in records] == ["a", "c"]
        ((fname, exc),) = errors
        assert fname == str(files[1]) and isinstance(exc, ValidationError)
        assert str(exc).startswith("invalid density matrix: trace (")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "a_report.txt", "c_report.txt", "summary.csv"]

    def test_noiseless_ideal_metrics(self, tmp_path):
        probs = tomography.expected_probabilities(states.ideal_bell())
        path = tmp_path / "ideal.txt"
        pipeline.write_counts(probs * 1e6, path)
        records, errors = pipeline.run_tomo([str(path)], tmp_path / "out")
        assert not errors
        m = records[0].metrics
        assert m.fidelity == pytest.approx(1.0, abs=1e-4)
        assert m.tangle == pytest.approx(1.0, abs=1e-3)
        assert m.linear_entropy == pytest.approx(0.0, abs=1e-3)

    def test_report_round_trips(self, tmp_path):
        probs = tomography.expected_probabilities(states.werner(0.3))
        path = tmp_path / "w.txt"
        pipeline.write_counts(probs * 1e6, path)
        records, _ = pipeline.run_tomo([str(path)], tmp_path / "out")
        report = (tmp_path / "out" / "w_report.txt").read_text()
        rho = states.parse_density_matrix(report)
        assert np.max(np.abs(rho - records[0].rho)) < 1e-15
        assert "fidelity=" in report and "werner_g=" in report

    def test_summary_counts_the_fit_steps(self, tmp_path):
        cfg = pipeline.load_config(
            write_config(tmp_path / "run.cfg", "simulate.power_grid=1,50\n")
        )
        paths = pipeline.run_simulate(cfg, tmp_path / "counts")
        pipeline.run_tomo(paths, tmp_path / "out")
        header, rows = read_table(tmp_path / "out" / "summary.csv")
        column = header.index("optimizer_evals")
        assert [r[0] for r in rows] == [p.stem for p in paths]
        for path, row in zip(paths, rows):
            _, steps = tomography.mle_reconstruct(tomography.read_counts(path))
            assert steps >= 1 and float(row[column]) == steps

    def test_repeated_stem_is_a_parse_error(self, tmp_path):
        files = []
        for sub, g in (("a", 0.3), ("b", 0.6)):
            (tmp_path / sub).mkdir()
            probs = tomography.expected_probabilities(states.werner(g))
            files.append(tmp_path / sub / "c.txt")
            pipeline.write_counts(probs * 1e6, files[-1])
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        assert [r.label for r in records] == ["c"]
        assert records[0].metrics.werner_g == pytest.approx(0.3, abs=1e-6)
        ((fname, exc),) = errors
        assert fname == str(files[1])
        assert isinstance(exc, ParseError)
        assert str(files[0]) in str(exc) and str(files[1]) in str(exc)
        report = states.parse_density_matrix((tmp_path / "out" / "c_report.txt").read_text())
        assert np.max(np.abs(report - records[0].rho)) < 1e-15

    def test_undecodable_file_name(self, tmp_path):
        # a name that is not valid UTF-8 is labelled with its bytes escaped
        probs = tomography.expected_probabilities(states.werner(0.3))
        files = [tmp_path / "good.txt", tmp_path / os.fsdecode(b"\xffbad.txt")]
        for path in files:
            pipeline.write_counts(probs * 1e6, path)
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        assert not errors
        assert [r.label for r in records] == ["\\xffbad", "good"]
        report = tmp_path / "out" / os.fsdecode(b"\xffbad_report.txt")
        assert report.read_text(encoding="utf-8").startswith("# state report for \\xffbad\n")
        _, rows = read_table(tmp_path / "out" / "summary.csv")
        assert [r[0] for r in rows] == ["\\xffbad", "good"]

    def test_labels_fit_one_cell_and_one_line(self, tmp_path):
        # a comma and each character str.splitlines ends a line at are escaped
        # in the label, so every summary row parses and every report re-parses
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        breaks = [line[-1] for line in every.splitlines(keepends=True)[:-1]]
        stems = ["a,b", *(f"x{c}y" for c in breaks)]
        probs = tomography.expected_probabilities(states.werner(0.3))
        files = [tmp_path / f"{stem}.txt" for stem in stems]
        for path in files:
            pipeline.write_counts(probs * 1e6, path)
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        assert not errors and len(records) == len(stems)
        labels = {r.label for r in records}
        assert {"a\\x2cb", "x\\x0ay", "x\\u0085y", "x\\u2028y"} <= labels
        _, rows = read_table(tmp_path / "out" / "summary.csv")
        assert {r[0] for r in rows} == labels
        for stem in stems:
            report = tmp_path / "out" / f"{stem}_report.txt"
            first = report.read_text(encoding="utf-8").splitlines()[0]
            assert first.removeprefix("# state report for ") in labels
            assert pipeline.run_metrics(report).werner_g == pytest.approx(0.3, abs=1e-6)

    def test_a_character_never_takes_the_label_of_a_byte(self, tmp_path):
        # U+0085 (a line break) and U+00A0 (whitespace at an end) are escaped as
        # \u0085 and \u00a0, so they keep apart from the undecodable bytes 0x85
        # and 0xa0, which are written \x85 and \xa0
        stems = {"a\x85b": "a\\u0085b", os.fsdecode(b"a\x85b"): "a\\x85b",
                 "\xa0b": "\\u00a0b", os.fsdecode(b"\xa0b"): "\\xa0b"}
        probs = tomography.expected_probabilities(states.werner(0.3))
        files = [tmp_path / f"{stem}.txt" for stem in stems]
        for path in files:
            pipeline.write_counts(probs * 1e6, path)
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        assert not errors
        assert sorted(r.label for r in records) == sorted(stems.values())
        _, rows = read_table(tmp_path / "out" / "summary.csv")
        assert sorted(r[0] for r in rows) == sorted(stems.values())

    def test_labels_read_back_whole(self, tmp_path):
        # a leading '#' and whitespace at either end are escaped in the label,
        # so a reader that skips '#' lines or strips lines keeps every row
        stems = {"#x": "\\x23x", " y ": "\\x20y\\x20", "\tz": "\\x09z",
                 "w\u3000": "w\\u3000", "# v": "\\x23 v", " #u": "\\x20#u", "a b": "a b"}
        probs = tomography.expected_probabilities(states.werner(0.3))
        files = [tmp_path / f"{stem}.txt" for stem in stems]
        for path in files:
            pipeline.write_counts(probs * 1e6, path)
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        assert not errors
        assert sorted(r.label for r in records) == sorted(stems.values())
        _, rows = read_table(tmp_path / "out" / "summary.csv")
        assert sorted(r[0] for r in rows) == sorted(stems.values())
        for stem, label in stems.items():
            report = (tmp_path / "out" / f"{stem}_report.txt").read_text(encoding="utf-8")
            assert report.splitlines()[0].strip() == f"# state report for {label}"

    def test_a_name_that_spells_an_escape_keeps_its_label(self, tmp_path):
        # a backslash is escaped before an undecodable byte is, so a name that
        # spells an escape does not take the label of the name it spells
        stems = {"a,b": "a\\x2cb", "a\\x2cb": "a\\x5cx2cb",
                 os.fsdecode(b"\xffbad"): "\\xffbad", "\\xffbad": "\\x5cxffbad"}
        probs = tomography.expected_probabilities(states.werner(0.3))
        files = [tmp_path / f"{stem}.txt" for stem in stems]
        for path in files:
            pipeline.write_counts(probs * 1e6, path)
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        assert not errors
        assert sorted(r.label for r in records) == sorted(stems.values())
        assert len(list((tmp_path / "out").glob("*_report.txt"))) == 4
        assert cli.main(["tomo", *map(str, files[:2]), "--out", str(tmp_path / "cli")]) == 0

    def test_unwritable_report_fails_its_file_only(self, tmp_path):
        probs = tomography.expected_probabilities(states.werner(0.3))
        files = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in files:
            pipeline.write_counts(probs * 1e6, path)
        (tmp_path / "out" / "a_report.txt").mkdir(parents=True)
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        assert [r.label for r in records] == ["b"]
        ((fname, exc),) = errors
        assert fname == str(files[0]) and isinstance(exc, OSError)
        _, rows = read_table(tmp_path / "out" / "summary.csv")
        assert [r[0] for r in rows] == ["b"]

    def test_summary_header(self, tmp_path):
        # the columns follow StateMetrics' fields; a change there shows here
        probs = tomography.expected_probabilities(states.werner(0.3))
        path = tmp_path / "w.txt"
        pipeline.write_counts(probs * 1e6, path)
        pipeline.run_tomo([str(path)], tmp_path / "out")
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert [line for line in lines if not line.startswith("#")][0] == (
            "label,fidelity,tangle,linear_entropy,purity,werner_g,min_eigenvalue,"
            "optimizer_evals,hr_consistency"
        )

    def test_huge_counts(self, tmp_path):
        # a low-power boundary file (a barrier fit) scaled by up to 1e300 gives
        # the unscaled state; a file with one count out of proportion to the
        # HH+HV+VH+VV sum overflows the likelihood and alone fails, as a
        # validation error (exit 3)
        counts = np.array([49834, 38, 49890, 47, 24996, 25145, 25090, 24817,
                           25327, 50386, 24918, 24866, 25046, 25256, 25182, 50044.0])
        lopsided = np.ones(16)
        lopsided[tomography.CANONICAL_LABELS.index("RH")] = 1e300
        files = []
        for name, cv in (("unit", counts), ("x1e100", counts * 1e100),
                         ("x1e150", counts * 1e150), ("x1e300", counts * 1e300),
                         ("lopsided", lopsided)):
            files.append(tmp_path / f"{name}.txt")
            pipeline.write_counts(cv, files[-1])
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        unit, *scaled = records
        assert [r.label for r in records] == ["unit", "x1e100", "x1e150", "x1e300"]
        assert unit.optimizer_evals > 1
        for record in scaled:
            assert np.max(np.abs(record.rho - unit.rho)) < 1e-9
        ((fname, exc),) = errors
        assert fname == str(files[4]) and isinstance(exc, ValidationError)
        _, rows = read_table(tmp_path / "out" / "summary.csv")
        assert len(rows) == 4
        assert cli.main(["tomo", *map(str, files), "--out", str(tmp_path / "cli")]) == 3

    def test_summary_carries_no_config_provenance(self, tmp_path):
        # tomo reads no config, so its summary names no seed or config hash
        probs = tomography.expected_probabilities(states.werner(0.3))
        path = tmp_path / "w.txt"
        pipeline.write_counts(probs * 1e6, path)
        pipeline.run_tomo([str(path)], tmp_path / "out")
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        comments = [line for line in lines if line.startswith("#")]
        assert comments == [f"# version={pipeline.__version__}", "# files=1", "# errors=0"]


class TestTomoOutputText:
    """run_tomo's reports and summary, byte for byte the text of the per-label
    parser, the per-entry matrix formatter, compute_metrics' numpy calls and
    by-name rows of pipeline_oracles."""

    def check(self, files, out_dir):
        records, errors = pipeline.run_tomo(files, out_dir)
        assert not errors
        written = {p.name: p.read_text(encoding="utf-8") for p in out_dir.iterdir()}
        assert written == tomo_texts_per_entry(files)
        return records

    def test_readme_count_files(self, tmp_path):
        cfg = pipeline.load_config(readme_config_file(tmp_path / "run.cfg"))
        records = self.check(pipeline.run_simulate(cfg, tmp_path / "counts"), tmp_path / "out")
        assert len(records) == 4

    def test_bell_boundary_file(self, tmp_path):
        # the simulated Bell file of the CI's README-flow step, a barrier fit
        path = tmp_path / "bell.txt"
        path.write_text("".join(f"{lab},{n}\n" for lab, n in
                                zip(tomography.CANONICAL_LABELS, BOUNDARY_FILES[2])),
                        encoding="utf-8")
        (record,) = self.check([path], tmp_path / "out")
        assert record.optimizer_evals > 40


class TestSweep:
    @pytest.fixture
    def sweep_cfg(self, tmp_path):
        return pipeline.load_config(write_config(
            tmp_path / "run.cfg",
            "sweep.eta_list=0.001,0.03,0.20,1.00\n"
            "sweep.power_grid=1,5,10,50,100,200\n",
        ))

    def test_four_eta_blocks(self, sweep_cfg, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = pipeline.run_sweep(sweep_cfg, out)
        etas = sorted({row[2] for row in rows})
        assert etas == [0.001, 0.03, 0.20, 1.00]
        assert len(rows) == 24

    def test_high_g_rows_have_zero_tangle(self, sweep_cfg, tmp_path):
        rows = pipeline.run_sweep(sweep_cfg, tmp_path / "sweep.csv")
        saw_high_g = False
        for row in rows:
            g, tangle = row[7], row[8]
            if g > 2 / 3:
                saw_high_g = True
                assert tangle == 0.0
        assert saw_high_g

    def test_deterministic(self, sweep_cfg, tmp_path):
        pipeline.run_sweep(sweep_cfg, tmp_path / "s1.csv")
        pipeline.run_sweep(sweep_cfg, tmp_path / "s2.csv")
        assert (tmp_path / "s1.csv").read_text().splitlines()[3:] == (
            tmp_path / "s2.csv"
        ).read_text().splitlines()[3:]

    def test_single_point_matches_direct_calls(self, tmp_path):
        cfg = pipeline.load_config(write_config(
            tmp_path / "run.cfg", "sweep.eta_list=1.0\nsweep.power_grid=50\n"
        ))
        (row,) = pipeline.run_sweep(cfg, tmp_path / "one.csv")
        params = SourceParams(mu=0.5, alpha=0.005, eta=1.0)
        rates = rates_primed(params)
        assert row[4] == pytest.approx(rates.r_hh, rel=1e-12)
        assert row[7] == pytest.approx(effective_g(rates), rel=1e-12)

    def test_closed_forms_match_the_matrix_metrics(self, sweep_cfg, tmp_path):
        # the sweep takes its metrics from states.werner_metrics; the matrix
        # path through states.werner is the oracle, at the bounds of test_states
        def check(g, tangle, entropy, fidelity):
            want = states.compute_metrics(states.werner(g))
            assert abs(tangle - want.tangle) <= 1e-9
            assert abs(entropy - want.linear_entropy) <= 1e-12
            assert fidelity is None or abs(fidelity - want.fidelity) <= 1e-12

        out = tmp_path / "sweep.csv"
        rows = pipeline.run_sweep(sweep_cfg, out)
        for row in rows:
            check(row[7], row[8], row[9], row[10])
        _, fig2 = read_table(out.with_name("sweep_fig2.csv"))
        curve = [r for r in fig2 if r[0] == "curve"]
        model = [r for r in fig2 if r[0] == "model"]
        assert [float(r[1]) for r in curve] == np.linspace(0.0, 1.0, 201).tolist()
        assert [[float(c) for c in r[1:]] for r in model] == [
            [row[7], row[9], row[8]] for row in rows
        ]
        for _, g, entropy, tangle in fig2:
            check(float(g), float(tangle), float(entropy), None)

    def test_companion_tables_round_trip(self, sweep_cfg, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = pipeline.run_sweep(sweep_cfg, out)
        header, raw = read_table(out)
        assert header == pipeline.SWEEP_HEADER
        for row, cells in zip(rows, raw):
            assert [float(c) for c in cells] == [float(v) for v in row]
        for suffix in ("_fig2", "_fig1b"):
            path = out.with_name(out.stem + suffix + out.suffix)
            header, raw = read_table(path)
            assert raw


SWEEP_SUFFIXES = ("", "_fig2", "_fig1b")


def assert_sweep_tables_match_per_cell(cfg, directory):
    """run_sweep's three tables equal, byte for byte, those of the oracle
    that formats every cell of every table on its own."""
    (directory / "new").mkdir(parents=True)
    (directory / "old").mkdir()
    pipeline.run_sweep(cfg, directory / "new" / "sweep.csv")
    sweep_tables_per_cell(cfg, directory / "old" / "sweep.csv")
    for suffix in SWEEP_SUFFIXES:
        name = f"sweep{suffix}.csv"
        assert (directory / "new" / name).read_bytes() == (directory / "old" / name).read_bytes()


def assert_companions_repeat_the_main_cells(directory):
    """The _fig2 model rows and the _fig1b rows carry sweep.csv's cells as text."""
    _, main = read_table(directory / "sweep.csv")
    _, fig2 = read_table(directory / "sweep_fig2.csv")
    _, fig1b = read_table(directory / "sweep_fig1b.csv")
    assert [r[1:] for r in fig2 if r[0] == "model"] == [[r[7], r[9], r[8]] for r in main]
    assert fig1b == [[r[0], r[2], r[10], "1.0", "0.5", "0.25"] for r in main]


def grid_config(path, etas, powers, extra=""):
    return pipeline.load_config(write_config(
        path, f"sweep.eta_list={','.join(etas)}\nsweep.power_grid={','.join(powers)}\n" + extra
    ))


class TestSweepTableText:
    """Each sweep number is formatted once and the companions repeat the main
    table's text; the per-cell oracle of pipeline_oracles stays the judge."""

    def test_readme_grid(self, tmp_path):
        cfg = pipeline.load_config(readme_config_file(tmp_path / "run.cfg"))
        assert_sweep_tables_match_per_cell(cfg, tmp_path)
        _, raw = read_table(tmp_path / "new" / "sweep.csv")
        assert raw[0][:4] == ["1.0", "0.01", "0.001", "0.005"]
        assert_companions_repeat_the_main_cells(tmp_path / "new")

    def test_high_power_grid(self, tmp_path):
        # 8 etas and 40 powers drawn as the sweep-high-power benchmark draws them
        rng = np.random.default_rng([11, 1_000_003])
        etas = [repr(float(e)) for e in 10 ** rng.uniform(-3, 0, 8)]
        powers = [repr(float(p)) for p in 10 ** rng.uniform(0, 3, 40)]
        cfg = grid_config(tmp_path / "run.cfg", etas, powers)
        assert_sweep_tables_match_per_cell(cfg, tmp_path)
        _, raw = read_table(tmp_path / "new" / "sweep.csv")
        assert len(raw) == 320

    def test_companions_repeat_the_main_cells(self, tmp_path):
        cfg = grid_config(tmp_path / "run.cfg", ["0", "0.5", "1"], ["1e-3", "7", "1e4"])
        pipeline.run_sweep(cfg, tmp_path / "sweep.csv")
        assert_companions_repeat_the_main_cells(tmp_path)

    @given(
        etas=st.lists(st.one_of(st.sampled_from(["0", "1", "0.5"]),
                                st.floats(0, 1).map(repr)), min_size=1, max_size=3),
        powers=st.lists(st.one_of(st.integers(1, 10_000).map(str),
                                  st.floats(1e-3, 1e4).map(repr)), min_size=1, max_size=4),
        alpha=st.sampled_from(["1", "0.005", "0.01"]),
        pairs_per_power=st.sampled_from(["1", "0.01"]),
    )
    def test_any_grid(self, tmp_path_factory, etas, powers, alpha, pairs_per_power):
        directory = tmp_path_factory.mktemp("sweep")
        cfg = grid_config(directory / "run.cfg", etas, powers,
                          f"source.alpha={alpha}\ncalibration.pairs_per_power={pairs_per_power}\n")
        assert_sweep_tables_match_per_cell(cfg, directory)


class TestRerun:
    """A second run into the outputs of a larger first run writes over them: each
    file it writes is, byte for byte, that of a run into a fresh directory."""

    def test_sweep(self, tmp_path):
        big = pipeline.load_config(readme_config_file(tmp_path / "run.cfg"))
        small = grid_config(tmp_path / "small.cfg", ["0.5", "0.7"], ["3", "30"])
        (tmp_path / "out").mkdir()
        (tmp_path / "fresh").mkdir()
        pipeline.run_sweep(big, tmp_path / "out" / "sweep.csv")
        old = {s: read_table(tmp_path / "out" / f"sweep{s}.csv")[1] for s in SWEEP_SUFFIXES}
        pipeline.run_sweep(small, tmp_path / "out" / "sweep.csv")
        pipeline.run_sweep(small, tmp_path / "fresh" / "sweep.csv")
        for suffix in SWEEP_SUFFIXES:
            name = f"sweep{suffix}.csv"
            new = (tmp_path / "out" / name).read_bytes()
            assert new == (tmp_path / "fresh" / name).read_bytes()
            # the etas differ, so only the _fig2 reference curve repeats a row
            _, rows = read_table(tmp_path / "out" / name)
            kept = [row for row in rows if row in old[suffix]]
            assert kept == [row for row in rows if row[0] == "curve"]
            assert len(rows) < len(old[suffix])

    def test_tomo(self, tmp_path):
        cfg = pipeline.load_config(readme_config_file(tmp_path / "run.cfg"))
        files = [str(p) for p in pipeline.run_simulate(cfg, tmp_path / "counts")]
        pipeline.run_tomo(files, tmp_path / "out")
        pipeline.run_tomo(files[2:], tmp_path / "out")
        pipeline.run_tomo(files[2:], tmp_path / "fresh")
        _, rows = read_table(tmp_path / "out" / "summary.csv")
        assert [row[0] for row in rows] == ["counts_002", "counts_003"]
        written = ["summary.csv", "counts_002_report.txt", "counts_003_report.txt"]
        for name in written:
            assert (tmp_path / "out" / name).read_bytes() == (
                tmp_path / "fresh" / name).read_bytes()


class TestSweepRowsAndText:
    """run_sweep's returned rows are exactly the numbers its sweep.csv holds."""

    def assert_rows_are_the_text(self, cfg, directory):
        rows = pipeline.run_sweep(cfg, directory / "sweep.csv")
        _, raw = read_table(directory / "sweep.csv")
        assert [[float(cell) for cell in line] for line in raw] == rows

    def test_readme_grid(self, tmp_path):
        cfg = pipeline.load_config(readme_config_file(tmp_path / "run.cfg"))
        self.assert_rows_are_the_text(cfg, tmp_path)

    def test_high_power_grid(self, tmp_path):
        # the grid of TestSweepTableText.test_high_power_grid
        rng = np.random.default_rng([11, 1_000_003])
        etas = [repr(float(e)) for e in 10 ** rng.uniform(-3, 0, 8)]
        powers = [repr(float(p)) for p in 10 ** rng.uniform(0, 3, 40)]
        self.assert_rows_are_the_text(grid_config(tmp_path / "run.cfg", etas, powers), tmp_path)


def counting(log, fn):
    """fn, with each call's arguments appended to log first."""
    def wrapper(*args, **kwargs):
        log.append((args, kwargs))
        return fn(*args, **kwargs)
    return wrapper


class TestTracedBindings:
    """The benchmark's tracer rebinds pipeline.rates_primed and pipeline.write_table
    and reads .alpha and .eta from the argument of rates_primed: the pipeline calls
    both through its module globals, once per grid point and once per table. It
    rebinds the layers of tomo as well, and needs a span of each."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"rates_primed": [], "write_table": []}
        for name, log in calls.items():
            monkeypatch.setattr(pipeline, name, counting(log, getattr(pipeline, name)))
        return calls

    def test_sweep(self, tmp_path, calls):
        etas, powers = ["0.001", "0.2", "1"], ["1", "5", "50", "200"]
        cfg = grid_config(tmp_path / "run.cfg", etas, powers)
        pipeline.run_sweep(cfg, tmp_path / "sweep.csv")
        assert len(calls["rates_primed"]) == 12
        # the tracer's key: the first positional argument, else the keyword p
        params = [args[0] if args else kwargs["p"] for args, kwargs in calls["rates_primed"]]
        assert sorted((p.alpha, p.eta) for p in params) == sorted(
            (0.005, float(eta)) for eta in etas for _ in powers
        )
        assert [args[0].name for args, _ in calls["write_table"]] == [
            "sweep.csv", "sweep_fig2.csv", "sweep_fig1b.csv"
        ]

    def test_tomo(self, tmp_path, calls, monkeypatch):
        # the tracer also rebinds these, and reads a span for each: the metrics and
        # the tangle once per batch through the states module's globals, the reading
        # and the fit once per file, the report once per file
        traced = {"compute_metrics": states, "tangle": states, "read_counts": tomography,
                  "mle_reconstruct": tomography, "write_report": pipeline}
        for name, module in traced.items():
            calls[name] = []
            monkeypatch.setattr(module, name, counting(calls[name], getattr(module, name)))
        probs = tomography.expected_probabilities(states.werner(0.3))
        files = [tmp_path / f"{name}.txt" for name in "abc"]
        for path in files:
            pipeline.write_counts(probs * 1e6, path)
        pipeline.run_tomo(files, tmp_path / "out")
        # run_tomo passes the summary's path as a str
        assert [os.path.basename(os.fspath(args[0])) for args, _ in calls["write_table"]] == [
            "summary.csv"
        ]
        assert calls["rates_primed"] == []
        for name in ("compute_metrics", "tangle"):
            rows = [np.asarray(args[0]).reshape(-1, 4, 4) for args, _ in calls[name]]
            assert len(rows) == 1 and sum(map(len, rows)) == len(files)
        assert [args[0] for args, _ in calls["read_counts"]] == files
        assert len(calls["mle_reconstruct"]) == len(files)
        assert [os.path.basename(args[1]) for args, _ in calls["write_report"]] == [
            "a_report.txt", "b_report.txt", "c_report.txt"]


class TestMetricsCommand:
    def test_ideal(self, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text(states.format_density_matrix(states.ideal_bell()))
        m = pipeline.run_metrics(path)
        assert m.fidelity == pytest.approx(1.0, abs=1e-12)
        assert m.tangle == pytest.approx(1.0, abs=1e-9)
        assert m.linear_entropy == pytest.approx(0.0, abs=1e-12)
        assert m.werner_g == pytest.approx(0.0, abs=1e-12)

    def test_werner_two_thirds(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text(states.format_density_matrix(states.werner(2 / 3)))
        m = pipeline.run_metrics(path)
        assert m.tangle == pytest.approx(0.0, abs=1e-9)
        assert m.linear_entropy == pytest.approx(8 / 9, abs=1e-12)
        assert m.fidelity == pytest.approx(0.5, abs=1e-12)

    def test_non_hermitian_named(self, tmp_path):
        rho = states.totally_mixed().astype(complex)
        rho[0, 1] = 0.1j  # not mirrored: breaks Hermiticity
        path = tmp_path / "bad.txt"
        path.write_text(states.format_density_matrix(rho))
        with pytest.raises(Exception, match="hermiticity"):
            pipeline.run_metrics(path)


class TestOneValidation:
    """Each state passes states.validate once; it is counted through the
    module attribute that compute_metrics reaches it by, one entry per state
    checked, as a stack is checked in one call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        validate = states.validate

        def counted(rho):
            calls.extend(np.asarray(rho, dtype=complex).reshape(-1, 4, 4))
            return validate(rho)

        monkeypatch.setattr(states, "validate", counted)
        return calls

    @pytest.mark.parametrize("certified", [True, False], ids=["certified-start", "barrier-fit"])
    def test_run_tomo_fit(self, calls, certified, tmp_path):
        if certified:
            counts = tomography.simulate_counts(states.werner(0.1), 1e5, seed=4).counts
        else:
            counts = BOUNDARY_FILES[0]
        path = tmp_path / "w.txt"
        pipeline.write_counts(counts, path)
        (record,), errors = pipeline.run_tomo([str(path)], tmp_path / "out")
        assert errors == []
        assert (record.optimizer_evals == 1) == certified
        assert len(calls) == 1
        assert record.metrics.min_eigenvalue == states.validate(record.rho)

    def test_run_tomo_batch(self, calls, tmp_path):
        files = []
        for i, g in enumerate((0.1, 0.3, 0.6)):
            files.append(tmp_path / f"w{i}.txt")
            pipeline.write_counts(tomography.simulate_counts(states.werner(g), 1e5, seed=i).counts,
                                  files[-1])
        records, errors = pipeline.run_tomo(files, tmp_path / "out")
        assert errors == [] and len(records) == 3
        assert len(calls) == 3
        for record in records:
            assert record.metrics.min_eigenvalue == states.validate(record.rho)

    def test_run_tomo_summary_reads_it(self, calls, tmp_path):
        probs = tomography.expected_probabilities(states.werner(0.3))
        path = tmp_path / "w.txt"
        pipeline.write_counts(probs * 1e6, path)
        (record,), _ = pipeline.run_tomo([str(path)], tmp_path / "out")
        assert len(calls) == 1
        header, (row,) = read_table(tmp_path / "out" / "summary.csv")
        assert float(row[header.index("min_eigenvalue")]) == record.metrics.min_eigenvalue

    def test_run_metrics(self, calls, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text(states.format_density_matrix(states.werner(0.3)), encoding="utf-8")
        assert pipeline.run_metrics(path).min_eigenvalue == pytest.approx(0.075, abs=1e-15)
        assert len(calls) == 1


def run_cli_strict(args, cwd, **env):
    """The CLI in a fresh interpreter where a text file opened without a
    named encoding is an error."""
    src = Path(biphoton.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "biphoton.cli", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src), **env},
        capture_output=True,
        encoding="utf-8",
    )


class TestTextEncoding:
    """Text files are UTF-8 whatever the locale: a non-ASCII power unit in
    the count-file comments, a non-ASCII count-file stem in the report."""

    def check_chain(self, tmp_path, env, stem, label):
        write_config(
            tmp_path / "run.cfg",
            "calibration.power_unit=\u00b5W\nsimulate.power_grid=10,50\n"
            "sweep.eta_list=0.03,1.0\nsweep.power_grid=10,100\n",
        )

        def run(*args):
            done = run_cli_strict(args, tmp_path, **env)
            assert (done.returncode, done.stderr) == (0, ""), args

        run("simulate", "--config", "run.cfg", "--out", "counts")
        (tmp_path / "counts" / "counts_001.txt").rename(tmp_path / "counts" / f"{stem}.txt")
        run("tomo", "counts/counts_000.txt", f"counts/{stem}.txt", "--out", "results")
        run("sweep", "--config", "run.cfg", "--out", "sweep.csv")
        run("metrics", f"results/{stem}_report.txt")
        comment = (tmp_path / "counts" / "counts_000.txt").read_text(encoding="utf-8")
        assert "power=10.0 \u00b5W" in comment
        report = (tmp_path / "results" / f"{stem}_report.txt").read_text(encoding="utf-8")
        assert report.startswith(f"# state report for {label}\n")
        _, rows = read_table(tmp_path / "results" / "summary.csv")
        assert sorted(r[0] for r in rows) == sorted(["counts_000", label])

    def test_every_encoding_named(self, tmp_path):
        self.check_chain(tmp_path, {}, "z\u00e4hler", "z\u00e4hler")

    def test_ascii_locale(self, tmp_path):
        # with locale coercion and UTF-8 mode off, the filesystem encoding is
        # ASCII, so the two UTF-8 bytes of the umlaut appear escaped
        env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        self.check_chain(tmp_path, env, "z\u00e4hler", "z\\xc3\\xa4hler")

    def test_unencodable_name_fails_its_file_only(self, tmp_path):
        # under an ASCII filesystem encoding a str name with an umlaut, in the
        # stem or in a directory, cannot be encoded: its file fails as a
        # ParseError naming it (exit 2), and the batch goes on and writes the summary
        code = (
            "from biphoton import cli, pipeline\n"
            "names = ['z\\u00e4hler.txt', 'd\\u00efr/x.txt', 'missing.txt']\n"
            "records, errors = pipeline.run_tomo(names, 'out')\n"
            "print(len(records))\n"
            "for fname, exc in errors:\n"
            "    print(ascii(fname), type(exc).__name__, cli._classify(exc)[0],\n"
            "          str(exc).startswith(f'{fname}: '))\n"
        )
        src = Path(biphoton.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src),
               "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, encoding="utf-8")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines() == ["0", "'z\\xe4hler.txt' ParseError 2 True",
                                            "'d\\xefr/x.txt' ParseError 2 True",
                                            "'missing.txt' FileNotFoundError 2 False"]
        summary = (tmp_path / "out" / "summary.csv").read_text(encoding="utf-8")
        assert "# errors=3\n" in summary

    def test_undecodable_file_name(self, tmp_path):
        probs = tomography.expected_probabilities(states.werner(0.3))
        bad = os.fsdecode(b"\xffbad.txt")
        for name in ("good.txt", bad):
            pipeline.write_counts(probs * 1e6, tmp_path / name)
        done = run_cli_strict(["tomo", "good.txt", bad, "--out", "out"], tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        assert [line.split(":")[0] for line in done.stdout.splitlines()] == ["\\xffbad", "good"]
        assert len(list((tmp_path / "out").glob("*_report.txt"))) == 2
        _, rows = read_table(tmp_path / "out" / "summary.csv")
        assert [r[0] for r in rows] == ["\\xffbad", "good"]


class TestCli:
    def test_metrics_exit_ok(self, tmp_path, capsys):
        path = tmp_path / "ideal.txt"
        path.write_text(states.format_density_matrix(states.ideal_bell()))
        assert cli.main(["metrics", str(path)]) == cli.EXIT_OK
        assert "fidelity=" in capsys.readouterr().out

    def test_metrics_validation_exit(self, tmp_path):
        rho = states.totally_mixed().astype(complex)
        rho[0, 1] = 0.1j
        path = tmp_path / "bad.txt"
        path.write_text(states.format_density_matrix(rho))
        assert cli.main(["metrics", str(path)]) == cli.EXIT_VALIDATION

    def test_metrics_parse_exit(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not a matrix\n")
        assert cli.main(["metrics", str(path)]) == cli.EXIT_PARSE

    def test_simulate_then_tomo_and_sweep(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "run.cfg",
            "simulate.power_grid=10\n"
            "sweep.eta_list=0.03,1.0\nsweep.power_grid=10,100\n",
        )
        out_dir = tmp_path / "counts"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == cli.EXIT_OK
        files = sorted(str(p) for p in out_dir.glob("counts_*.txt"))
        assert cli.main(["tomo", *files, "--out", str(tmp_path / "tomo")]) == cli.EXIT_OK
        assert cli.main([
            "sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sweep.csv")
        ]) == cli.EXIT_OK
        # sweep runs on sweep.power_grid, not on simulate.power_grid
        _, rows = read_table(tmp_path / "sweep.csv")
        assert len(rows) == 2 * 2

    def test_sweep_out_ending_in_a_separator(self, tmp_path, capsys, monkeypatch):
        # Path("out/") is Path("out"): the tables went to out, out_fig2 and out_fig1b
        cfg_path = write_config(tmp_path / "run.cfg", "sweep.eta_list=0.03\nsweep.power_grid=10\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", "out" + os.sep]) == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("I/O error: ")
        assert list(work.iterdir()) == []

    def test_tomo_reports_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("HH;1\n")
        assert cli.main(["tomo", str(bad), "--out", str(tmp_path / "out")]) == cli.EXIT_PARSE

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    def test_tomo_nonfinite_count_keeps_batch(self, tmp_path, capsys, value):
        probs = tomography.expected_probabilities(states.werner(0.3))
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        pipeline.write_counts(probs * 1e6, good)
        bad.write_text("".join(
            f"{lab},{value if lab == 'RH' else n}\n"
            for lab, n in zip(tomography.CANONICAL_LABELS, probs * 1e6)
        ))
        out = tmp_path / "out"
        assert cli.main(["tomo", str(good), str(bad), "--out", str(out)]) == cli.EXIT_PARSE
        assert f"parse error: {bad}" in capsys.readouterr().err
        assert [p.name for p in out.glob("*_report.txt")] == ["good_report.txt"]
        _, rows = read_table(out / "summary.csv")
        assert [r[0] for r in rows] == ["good"]

    def test_tomo_zero_counts_exit_validation(self, tmp_path):
        path = tmp_path / "zero.txt"
        pipeline.write_counts(np.zeros(16), path)
        assert cli.main(["tomo", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION

    def test_tomo_overflowing_sum_keeps_batch(self, tmp_path, capsys):
        # HH + VV overflows float arithmetic: a validation error for that file,
        # with no RuntimeWarning (the suite turns warnings into errors)
        probs = tomography.expected_probabilities(states.werner(0.3))
        good, huge = tmp_path / "good.txt", tmp_path / "huge.txt"
        pipeline.write_counts(probs * 1e6, good)
        huge.write_text("".join(
            f"{lab},{1e308 if lab in ('HH', 'VV') else 1.0}\n" for lab in tomography.CANONICAL_LABELS
        ))
        out = tmp_path / "out"
        assert cli.main(["tomo", str(good), str(huge), "--out", str(out)]) == cli.EXIT_VALIDATION
        assert f"validation error: {huge}" in capsys.readouterr().err
        assert [p.name for p in out.glob("*_report.txt")] == ["good_report.txt"]
        _, rows = read_table(out / "summary.csv")
        assert [r[0] for r in rows] == ["good"]

    @pytest.mark.parametrize(
        "command, args, extra, code",
        [
            ("simulate", ["--scale", "inf"], "", cli.EXIT_PARSE),
            ("simulate", ["--seed", "-1"], "", cli.EXIT_PARSE),
            ("sweep", [], "sweep.eta_list=0.5,1.5\n", cli.EXIT_PARSE),
            ("sweep", [], "sweep.power_grid=1,nan\n", cli.EXIT_PARSE),
            ("sweep", [], "calibration.pairs_per_power=inf\n", cli.EXIT_PARSE),
            ("sweep", [], "calibration.pairs_per_power=1e300\nsweep.power_grid=1e10\n",
             cli.EXIT_PARSE),
            ("simulate", ["--scale", "1e300"], "", cli.EXIT_VALIDATION),
            ("simulate", ["--scale", "0"], "", cli.EXIT_PARSE),
            ("simulate", ["--scale", "-5"], "", cli.EXIT_PARSE),
            ("simulate", ["--scale", "1e-10"], "simulate.power_grid=1,10\n", cli.EXIT_VALIDATION),
        ],
        ids=["scale-inf", "seed-negative", "eta-above-one", "grid-nan", "pairs-inf", "mu-inf",
             "scale-1e300", "scale-zero", "scale-negative", "scale-below-one-count"],
    )
    def test_bad_values_get_exit_code(self, tmp_path, capsys, command, args, extra, code):
        cfg_path = write_config(
            tmp_path / "run.cfg",
            "simulate.power_grid=10\nsweep.eta_list=0.03\nsweep.power_grid=10\n" + extra,
        )
        out = tmp_path / ("counts" if command == "simulate" else "sweep.csv")
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out), *args]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, args, extra, message",
        [
            ("sweep", ["--seed", "-3"], "", "parse error: seed=-3 must be >= 0"),
            ("simulate", ["--scale", "0"], "",
             "parse error: simulate.scale=0.0 must be positive and finite"),
            ("sweep", [], "simulate.scale=nan\n",
             "parse error: simulate.scale=nan must be positive and finite"),
        ],
        ids=["seed-negative", "scale-zero", "scale-nan-in-config"],
    )
    def test_bad_value_names_only_its_key(self, tmp_path, capsys, command, args, extra, message):
        cfg_path = write_config(
            tmp_path / "run.cfg",
            "simulate.power_grid=10\nsweep.eta_list=0.03\nsweep.power_grid=10\n" + extra,
        )
        out = tmp_path / ("counts" if command == "simulate" else "s.csv")
        argv = [command, "--config", str(cfg_path), "--out", str(out), *args]
        assert cli.main(argv) == cli.EXIT_PARSE
        assert capsys.readouterr().err == message + "\n"

    # a scale of 0.5 would draw no HH, HV, VH or VV count at power 10
    @pytest.mark.parametrize("flag, value", [("--eta", "0.5"), ("--scale", "1e4")],
                             ids=["--eta", "--scale"])
    def test_only_simulate_takes_eta_and_scale(self, tmp_path, capsys, flag, value):
        cfg_path = write_config(
            tmp_path / "run.cfg",
            "simulate.power_grid=10\nsweep.eta_list=0.03\nsweep.power_grid=10\n",
        )
        sweep = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")]
        with pytest.raises(SystemExit) as exc_info:
            cli.main([*sweep, flag, value])
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        simulate = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "c")]
        assert cli.main([*simulate, flag, value]) == cli.EXIT_OK

    @pytest.mark.parametrize("command", ["tomo", "metrics", "simulate", "sweep"])
    def test_unreadable_input_exit_parse(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.txt")
        out = tmp_path / "out"
        good = tmp_path / "good.txt"
        probs = tomography.expected_probabilities(states.werner(0.3))
        pipeline.write_counts(probs * 1e6, good)
        argv = {
            "tomo": ["tomo", str(good), missing, "--out", str(out)],
            "metrics": ["metrics", missing],
            "simulate": ["simulate", "--config", missing, "--out", str(out)],
            "sweep": ["sweep", "--config", missing, "--out", str(tmp_path / "s.csv")],
        }[command]
        assert cli.main(argv) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("I/O error: ") and "missing.txt" in err
        assert "Traceback" not in err
        if command == "tomo":
            assert [p.name for p in out.glob("*_report.txt")] == ["good_report.txt"]
            _, rows = read_table(out / "summary.csv")
            assert [r[0] for r in rows] == ["good"]

    @pytest.mark.parametrize("command", ["tomo", "metrics", "simulate", "sweep"])
    def test_non_utf8_input_exit_parse(self, tmp_path, capsys, command):
        binary = tmp_path / "bin.txt"
        binary.write_bytes(b"\xff\xfeH\x00H\x00")
        out = tmp_path / "out"
        good = tmp_path / "good.txt"
        probs = tomography.expected_probabilities(states.werner(0.3))
        pipeline.write_counts(probs * 1e6, good)
        argv = {
            "tomo": ["tomo", str(good), str(binary), "--out", str(out)],
            "metrics": ["metrics", str(binary)],
            "simulate": ["simulate", "--config", str(binary), "--out", str(out)],
            "sweep": ["sweep", "--config", str(binary), "--out", str(tmp_path / "s.csv")],
        }[command]
        assert cli.main(argv) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"parse error: {binary}") and "not UTF-8 text" in err
        if command == "tomo":
            assert [p.name for p in out.glob("*_report.txt")] == ["good_report.txt"]
            _, rows = read_table(out / "summary.csv")
            assert [r[0] for r in rows] == ["good"]

    def test_tomo_errors_name_each_file_once(self, tmp_path, capsys):
        good = tmp_path / "a" / "good.txt"
        good.parent.mkdir()
        probs = tomography.expected_probabilities(states.werner(0.3))
        pipeline.write_counts(probs * 1e6, good)
        repeat = tmp_path / "good.txt"
        pipeline.write_counts(probs * 1e6, repeat)
        binary = tmp_path / "bin.txt"
        binary.write_bytes(b"\xff\xfeH\x00")
        bad = tmp_path / "bad.txt"
        bad.write_text("HH,1\nfoo\n")
        missing = tmp_path / "missing.txt"
        files = [str(p) for p in (good, repeat, binary, bad, missing)]
        assert cli.main(["tomo", *files, "--out", str(tmp_path / "out")]) == cli.EXIT_PARSE
        assert capsys.readouterr().err.splitlines() == [
            f"parse error: {repeat}: stem 'good' repeats that of {good}",
            f"parse error: {binary}: not UTF-8 text (invalid start byte at byte 0)",
            f"parse error: {bad}:2: expected 'label,count'",
            f"I/O error: {missing}: No such file or directory",
        ]

    @pytest.mark.parametrize("entry", ["nan", "(nan,0)", "(0,inf)", "inf"])
    def test_metrics_non_finite_entry_exit_parse(self, tmp_path, capsys, entry):
        rows = states.format_density_matrix(states.werner(0.3)).splitlines()
        cells = rows[2].split()
        cells[1] = entry
        rows[2] = " ".join(cells)
        path = tmp_path / "state.txt"
        path.write_text("\n".join(rows) + "\n")
        assert cli.main(["metrics", str(path)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"parse error: {path}: line 3: matrix entry {entry!r} is not finite\n"

    def test_metrics_parse_error_names_file_and_line(self, tmp_path, capsys):
        rows = states.format_density_matrix(states.werner(0.3)).splitlines()
        rows[1] = " ".join(rows[1].split()[:3])
        path = tmp_path / "bad.txt"
        path.write_text("# a comment line\n" + "\n".join(rows) + "\n")
        assert cli.main(["metrics", str(path)]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            f"parse error: {path}: line 3: expected 4 entries per row, got 3\n")

    def test_tomo_nonconvergence_keeps_batch(self, tmp_path, monkeypatch):
        probs = tomography.expected_probabilities(states.werner(0.3))
        files = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.txt"
            pipeline.write_counts(probs * 1e6, path)
            files.append(str(path))
        fit = tomography.mle_reconstruct
        calls = []

        def fail_first(cv):
            calls.append(cv)
            if len(calls) == 1:
                raise ConvergenceError("budget exhausted")
            return fit(cv)

        monkeypatch.setattr(tomography, "mle_reconstruct", fail_first)
        out = tmp_path / "out"
        assert cli.main(["tomo", *files, "--out", str(out)]) == cli.EXIT_NONCONVERGED
        assert [p.name for p in out.glob("*_report.txt")] == ["b_report.txt"]
        _, rows = read_table(out / "summary.csv")
        assert [r[0] for r in rows] == ["b"]


class TestEndToEndConsistency:
    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
    def test_simulate_then_reconstruct_recovers_g(self, tmp_path, mu):
        cfg = pipeline.load_config(write_config(
            tmp_path / "run.cfg", f"simulate.power_grid={mu / 0.01}\n"
        ))
        fits = []
        for seed in range(5):
            cfg = cfg._replace(seed=seed)
            (path,) = pipeline.run_simulate(cfg, tmp_path / f"s{seed}")
            cv = tomography.read_counts(path)
            fits.append(states.werner_fit(tomography.mle_reconstruct(cv)[0]))
        g_model = effective_g(rates_primed(SourceParams(mu=mu, alpha=0.005, eta=1.0)))
        assert abs(float(np.median(fits)) - g_model) < 0.02
