"""End-to-end tests of the batch pipeline and CLI."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biphoton import cli, pipeline, states, tomography
from biphoton.errors import ConfigError, ConvergenceError
from biphoton.multipair import SourceParams, effective_g, rates_primed


def write_config(path, extra=""):
    # source.n_max is no longer read; configs that still carry it must load
    path.write_text(
        "seed=0\n"
        "source.alpha=0.005\n"
        "source.eta=1.0\n"
        "source.n_max=15\n"
        "calibration.pairs_per_power=0.01\n"
        "simulate.scale=1e6\n" + extra
    )
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


class TestTables:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[0.1, 1 / 3, 2e-7], [5.0, 0.9999999999, 1e300]]
        pipeline.write_table(path, ["a", "b", "c"], rows, {"seed": 0})
        header, back = pipeline.read_table(path)
        assert header == ["a", "b", "c"]
        for row, raw in zip(rows, back):
            for v, s in zip(row, raw):
                assert float(s) == v  # repr round-trips exactly

    @given(st.lists(st.lists(st.floats(allow_nan=False), min_size=3, max_size=3), max_size=5))
    def test_floats_round_trip_bit_exact(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        pipeline.write_table(path, ["a", "b", "c"], rows, {"seed": 0})
        _, back = pipeline.read_table(path)
        got = np.array([float(s) for row in back for s in row])
        want = np.array([v for row in rows for v in row], dtype=float)
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

    def test_noiseless_ideal_metrics(self, tmp_path):
        probs = tomography.expected_probabilities(states.ideal_bell())
        path = tmp_path / "ideal.txt"
        tomography.write_counts(tomography.CountVector(probs * 1e6, 1e6), path)
        records, errors = pipeline.run_tomo([str(path)], tmp_path / "out")
        assert not errors
        m = records[0].metrics
        assert m.fidelity == pytest.approx(1.0, abs=1e-4)
        assert m.tangle == pytest.approx(1.0, abs=1e-3)
        assert m.linear_entropy == pytest.approx(0.0, abs=1e-3)

    def test_report_round_trips(self, tmp_path):
        probs = tomography.expected_probabilities(states.werner(0.3))
        path = tmp_path / "w.txt"
        tomography.write_counts(tomography.CountVector(probs * 1e6, 1e6), path)
        records, _ = pipeline.run_tomo([str(path)], tmp_path / "out")
        report = (tmp_path / "out" / "w_report.txt").read_text()
        rho = states.parse_density_matrix(report)
        assert np.max(np.abs(rho - records[0].rho)) < 1e-15
        assert "fidelity=" in report and "werner_g=" in report


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

    def test_companion_tables_round_trip(self, sweep_cfg, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = pipeline.run_sweep(sweep_cfg, out)
        header, raw = pipeline.read_table(out)
        assert header == pipeline.SWEEP_HEADER
        for row, cells in zip(rows, raw):
            assert [float(c) for c in cells] == [float(v) for v in row]
        for suffix in ("_fig2", "_fig1b"):
            path = out.with_name(out.stem + suffix + out.suffix)
            header, raw = pipeline.read_table(path)
            assert raw


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
        _, rows = pipeline.read_table(tmp_path / "sweep.csv")
        assert len(rows) == 2 * 2

    def test_tomo_reports_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("HH;1\n")
        assert cli.main(["tomo", str(bad), "--out", str(tmp_path / "out")]) == cli.EXIT_PARSE

    def test_tomo_zero_counts_exit_validation(self, tmp_path):
        path = tmp_path / "zero.txt"
        tomography.write_counts(tomography.CountVector(np.zeros(16), 1.0), path)
        assert cli.main(["tomo", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION

    def test_tomo_nonconvergence_keeps_batch(self, tmp_path, monkeypatch):
        probs = tomography.expected_probabilities(states.werner(0.3))
        files = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.txt"
            tomography.write_counts(tomography.CountVector(probs * 1e6, 1e6), path)
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
        _, rows = pipeline.read_table(out / "summary.csv")
        assert [r[0] for r in rows] == ["b"]


class TestEndToEndConsistency:
    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
    def test_simulate_then_reconstruct_recovers_g(self, tmp_path, mu):
        cfg = pipeline.load_config(write_config(
            tmp_path / "run.cfg", f"simulate.power_grid={mu / 0.01}\n"
        ))
        fits = []
        for seed in range(5):
            cfg.seed = seed
            (path,) = pipeline.run_simulate(cfg, tmp_path / f"s{seed}")
            cv = tomography.read_counts(path)
            fits.append(states.werner_fit(tomography.mle_reconstruct(cv)))
        g_model = effective_g(rates_primed(SourceParams(mu=mu, alpha=0.005, eta=1.0)))
        assert abs(float(np.median(fits)) - g_model) < 0.02
