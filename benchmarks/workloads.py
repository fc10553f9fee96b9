"""Inputs, timed stages and output checks of the workloads.

Every run exercises the ways a user drives biphoton, each on inputs the
benchmark writes from the seed:

- setup: ``import biphoton`` in a fresh interpreter;
- tomo:  count files -> pipeline.run_tomo -> reports and summary.csv;
- sweep: a config file -> pipeline.run_sweep (program caches emptied first)
         -> the sweep table and its _fig2 and _fig1b companions;
- chain: the README flow ``simulate -> tomo -> sweep`` as three
         ``python -m biphoton.cli`` processes, one config file per step
         that takes one (``tomo`` has no --config option).

A workload names one stage as its primary: that stage gets the workload's
inputs and fills the measurement window in whole rounds. The others run a
fixed number of rounds on the README inputs, spread evenly over the window
between the primary's calls, so every end-to-end metric exists on every
workload.
"""

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles as O

ALPHA = 0.005
PAIRS_PER_POWER = 0.01

# tomo-high-power: the multi-pair regime, linear estimate already physical.
HIGH_POWER_MU = (0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
HIGH_POWER_SCALES = (1e4, 1e5, 1e6)
# sweep-high-power: 8 etas and 40 powers drawn from the seed, mu up to 10.
SWEEP_ETAS = 8
SWEEP_POWERS = 40
SWEEP_POWER_RANGE = (1.0, 1000.0)
SWEEP_N_MAX = 40
# The README flow: the chain, and the inputs of the secondary stages.
README_SOURCE_ETA = 1.0
README_SCALE = 1e6
README_SIMULATE_POWERS = (1.0, 10.0, 50.0, 100.0)
README_SWEEP_ETAS = (0.001, 0.03, 0.20, 1.00)
README_SWEEP_POWERS = (1.0, 5.0, 10.0, 50.0, 100.0, 200.0)
README_N_MAX = 15  # the program's default
# The README's run.cfg has seed=0. The README inputs do not vary with the
# run's seed: the secondary stages then measure one fixed scenario, and the
# cost of its near-boundary state (mu = 0.01) does not change from seed to seed.
README_SEED = 0

# Rounds per run of each stage that is not the workload's primary one.
SECONDARY_ROUNDS = {"setup": 6, "chain": 6, "tomo": 8, "sweep": 36}
PRIMARY = {"tomo-high-power": "tomo", "sweep-high-power": "sweep"}
# Every timed call is scaled to the machine speed at which one calibration()
# takes CALIBRATION_S (see calibration and end_to_end).
CALIBRATION_S = 0.016
CALIBRATION_LOOPS = 30_000
CALIBRATION_PRODUCTS = 700

# Check tolerances (see README.md for where each comes from).
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-12
METRIC_TOL = 1e-9
TANGLE_TOL = 1e-6  # sqrt of eigenvalues near 0 amplifies round-off to ~1e-8
OBJECTIVE_SLACK = 1e-6
FIDELITY_SIGMAS = 8.0
BOUNDARY_EIGENVALUE = 1e-6
CHILD_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import biphoton; "
    "print(repr(time.perf_counter() - t))"
)


class Checks:
    """Collects failed output checks; the run is correct when none failed."""

    def __init__(self):
        self.count = 0
        self.messages = []

    def expect(self, ok, message):
        if not ok:
            self.count += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    @property
    def ok(self):
        return self.count == 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    # (items, wall seconds, seconds at the calibration speed) per timed call:
    # an import, a run_tomo batch (states), a run_sweep (points), a CLI chain
    samples: dict = field(
        default_factory=lambda: {"setup": [], "tomo": [], "sweep": [], "chain": []}
    )
    cli_times: dict = field(
        default_factory=lambda: {"import": [], "simulate": [], "tomo": [], "sweep": []}
    )
    evals_rounds: list = field(default_factory=list)
    boundary: int = 0
    fits: int = 0
    child_spans: list = field(default_factory=list)  # one span list per traced CLI process


# --- inputs ------------------------------------------------------------------------


@dataclass
class CountInput:
    path: Path
    counts: np.ndarray
    g: float
    expected: np.ndarray  # Poisson means of the 16 settings


def readme_g(mu):
    """Werner parameter the README source (alpha=0.005, eta=1) has at mu."""
    r_hh, r_hv, _ = O.rates_generating_function(mu, ALPHA, README_SOURCE_ETA)
    return O.g_from_rates(r_hh, r_hv)


def tomo_points(workload):
    """(mu, g, scale) of every state in one round of the tomo stage."""
    if workload == "tomo-high-power":
        grid = [(mu, s) for mu in HIGH_POWER_MU for s in HIGH_POWER_SCALES]
        return [(mu, O.werner_g_from_mu(mu), s) for mu, s in grid]
    return [
        (PAIRS_PER_POWER * p, readme_g(PAIRS_PER_POWER * p), README_SCALE)
        for p in README_SIMULATE_POWERS
    ]


def stage_seed(workload, kind, seed):
    """The seed of a stage's inputs: the run's for the primary stage, the
    README's for the others."""
    return seed if PRIMARY.get(workload) == kind else README_SEED


def write_count_files(directory, points, seed):
    directory.mkdir(parents=True)
    inputs = []
    for j, (mu, g, scale) in enumerate(points):
        expected = scale * O.werner_probabilities(g)
        counts = np.random.default_rng([seed, j]).poisson(expected)
        path = directory / f"state_{j:03d}.txt"
        lines = [f"# werner g={g!r} mu={mu!r} scale={scale!r} seed={seed}"]
        lines += [f"{lab},{int(n)}" for lab, n in zip(O.LABELS, counts)]
        path.write_text("\n".join(lines) + "\n")
        inputs.append(CountInput(path, counts.astype(float), g, expected))
    return inputs


def sweep_grid(workload, seed):
    """(etas, powers, n_max) of the sweep stage."""
    if workload != "sweep-high-power":
        return README_SWEEP_ETAS, README_SWEEP_POWERS, README_N_MAX
    rng = np.random.default_rng([seed, 1_000_003])
    etas = 10 ** rng.uniform(-3, 0, SWEEP_ETAS)
    lo, hi = np.log10(SWEEP_POWER_RANGE)
    powers = 10 ** rng.uniform(lo, hi, SWEEP_POWERS)
    return [float(e) for e in etas], [float(p) for p in powers], SWEEP_N_MAX


def write_config(path, keys):
    path.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def sweep_config(seed, etas, powers, n_max):
    return {
        "seed": seed,
        "source.alpha": repr(ALPHA),
        "source.eta": repr(README_SOURCE_ETA),
        "source.n_max": n_max,
        "calibration.pairs_per_power": repr(PAIRS_PER_POWER),
        "sweep.eta_list": _floats(etas),
        "sweep.power_grid": _floats(powers),
    }


def simulate_config(seed):
    return {
        "seed": seed,
        "source.alpha": repr(ALPHA),
        "source.eta": repr(README_SOURCE_ETA),
        "calibration.pairs_per_power": repr(PAIRS_PER_POWER),
        "simulate.scale": repr(README_SCALE),
        "simulate.power_grid": _floats(README_SIMULATE_POWERS),
    }


def write_chain_configs(directory, seed):
    """One config file per chain step that takes one (tomo has no --config)."""
    write_config(directory / "simulate.cfg", simulate_config(seed))
    write_config(directory / "sweep.cfg", sweep_config(
        seed, README_SWEEP_ETAS, README_SWEEP_POWERS, README_N_MAX))


# --- machine speed ------------------------------------------------------------------

_CALIBRATION_STACK = np.random.default_rng(0).normal(size=(16, 4, 4)) + 0j


def calibration():
    """Seconds this process takes for a fixed load of the kind the program
    runs, plain Python plus numpy calls on 4x4 matrices. It uses no
    biphoton code, so a change to the program does not move it."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(CALIBRATION_LOOPS):
        acc += (i * i) % 7
        table[i & 255] = acc
    x, total = np.eye(4, dtype=complex), 0.0
    for _ in range(CALIBRATION_PRODUCTS):
        p = np.einsum("nij,ji->n", _CALIBRATION_STACK, x).real
        total += float(np.sum(p * p))
        x = x * 0.999 + 0.001
    return time.perf_counter() - start


def timed(fn):
    """(fn's result, its wall seconds, those seconds at the calibration speed).

    The calibration runs right before and right after fn; the machine's
    speed during fn is taken as the mean of the two.
    """
    before = calibration()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = calibration()
    return result, elapsed, elapsed * CALIBRATION_S / ((before + after) / 2)


# --- reading the program's outputs -------------------------------------------------


def read_csv(path):
    """(header, rows as dicts, comment lines) of a '#'-commented CSV table."""
    header, rows, comments = None, [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return header, rows, comments


def read_count_file(path):
    counts = {}
    for line in Path(path).read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            lab, value = line.split(",")
            counts[lab.strip()] = float(value)
    return np.array([counts[lab] for lab in O.LABELS])


# --- checks --------------------------------------------------------------------------


def check_tomo(inputs, out_dir, checks):
    """Reports and summary of one run_tomo batch.

    Returns (optimizer evaluations, minimum eigenvalue) per checked state.
    """
    labels = sorted(inp.path.stem for inp in inputs)
    _, rows, _ = read_csv(out_dir / "summary.csv")
    checks.expect([r["label"] for r in rows] == labels, "summary rows do not match files")
    reports = sorted(p.name for p in out_dir.glob("*_report.txt"))
    checks.expect(reports == [f"{lab}_report.txt" for lab in labels],
                  "one report per file expected")
    by_label = {r["label"]: r for r in rows}
    fits = []
    for inp in inputs:
        label = inp.path.stem
        row = by_label.get(label)
        report = out_dir / f"{label}_report.txt"
        if row is None or not report.exists():
            continue
        rho = O.parse_matrix(report.read_text())
        where = inp.path.name
        checks.expect(np.max(np.abs(rho - rho.conj().T)) <= HERMITIAN_TOL, f"{where}: not Hermitian")
        checks.expect(abs(np.trace(rho).real - 1) <= TRACE_TOL, f"{where}: trace != 1")
        min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
        checks.expect(min_eig >= -PSD_TOL, f"{where}: min eigenvalue {min_eig}")
        own = O.metrics(rho)
        for key, value in own.items():
            tol = TANGLE_TOL if key == "tangle" else METRIC_TOL
            checks.expect(abs(float(row[key]) - value) <= tol,
                          f"{where}: {key} {row[key]} vs oracle {value!r}")
        checks.expect(abs(float(row["min_eigenvalue"]) - min_eig) <= PSD_TOL,
                      f"{where}: min_eigenvalue column")
        rh = inp.counts[O.LABELS.index("RH")] / O.count_scale(inp.counts)
        checks.expect(float(row["hr_consistency"]) == rh, f"{where}: hr_consistency")
        n_evals = float(row["optimizer_evals"])
        checks.expect(n_evals >= 1 and n_evals == int(n_evals), f"{where}: optimizer_evals")
        # the estimate must fit the counts at least as well as two physical
        # candidates the benchmark builds itself
        f_est = O.objective(rho, inp.counts)
        f_gen = O.objective(O.werner_matrix(inp.g), inp.counts)
        f_lin = O.objective(O.clip_to_psd(O.linear_estimate(inp.counts)), inp.counts)
        checks.expect(f_est <= min(f_gen, f_lin) + OBJECTIVE_SLACK,
                      f"{where}: objective {f_est} > generating {f_gen} / clipped linear {f_lin}")
        sigma = O.fidelity_sigma(inp.expected)
        checks.expect(abs(own["fidelity"] - O.werner_fidelity(inp.g)) <= FIDELITY_SIGMAS * sigma,
                      f"{where}: fidelity {own['fidelity']} vs generating "
                      f"{O.werner_fidelity(inp.g)} (sigma {sigma})")
        fits.append((int(n_evals), min_eig))
    return fits


def sweep_tables(out_path):
    """The main sweep table and its _fig2 and _fig1b companions."""
    return [out_path.with_name(out_path.stem + s + out_path.suffix) for s in ("", "_fig2", "_fig1b")]


def check_sweep(out_path, etas, powers, n_max, seed, checks):
    """The three sweep tables against the configured grids and closed forms."""
    paths = sweep_tables(out_path)
    _, rows, comments = read_csv(paths[0])
    checks.expect(f"# seed={seed}" in comments, "sweep table lacks its seed provenance")
    grid = [(e, p) for e in sorted(etas) for p in sorted(powers)]
    checks.expect(len(rows) == len(grid), f"sweep: {len(rows)} rows for {len(grid)} points")
    for row, (eta, power) in zip(rows, grid):
        where = f"sweep eta={eta!r} power={power!r}"
        checks.expect(float(row["eta"]) == eta and float(row["power"]) == power,
                      f"{where}: grid columns")
        mu = PAIRS_PER_POWER * power
        checks.expect(float(row["mu"]) == mu and float(row["alpha"]) == ALPHA,
                      f"{where}: mu/alpha columns")
        want = O.rates_generating_function(mu, ALPHA, eta)
        bounds = O.rate_error_bound(mu, ALPHA, eta, n_max)
        got = [float(row[k]) for k in ("r_hh", "r_hv", "r_hr")]
        for name, a, b, d in zip(("r_hh", "r_hv", "r_hr"), got, want, bounds):
            checks.expect(abs(a - b) <= d, f"{where}: {name} {a!r} vs {b!r} (bound {d:.3g})")
        lo, hi = O.g_interval(want, bounds)
        g = float(row["g"])
        slack = 8 * O.UNIT_ROUNDOFF
        checks.expect(lo - slack <= g <= hi + slack, f"{where}: g {g!r} outside [{lo!r}, {hi!r}]")
        check_werner_row(g, float(row["fidelity"]), float(row["tangle"]),
                         float(row["linear_entropy"]), checks, where)
    _, fig2, _ = read_csv(paths[1])
    curve = [r for r in fig2 if r["kind"] == "curve"]
    model = [r for r in fig2 if r["kind"] == "model"]
    checks.expect(len(curve) == 201 and len(model) == len(rows), "fig2: row counts")
    for k, r in enumerate(curve):
        g = float(r["g"])
        checks.expect(abs(g - k / 200) <= 1e-15, f"fig2 curve row {k}: g {g!r}")
        check_werner_row(g, None, float(r["tangle"]), float(r["linear_entropy"]), checks, "fig2")
    for r, m in zip(rows, model):
        checks.expect((m["g"], m["linear_entropy"], m["tangle"])
                      == (r["g"], r["linear_entropy"], r["tangle"]), "fig2 model rows")
    _, fig1b, _ = read_csv(paths[2])
    checks.expect(len(fig1b) == len(rows), "fig1b: row count")
    for r, f in zip(rows, fig1b):
        checks.expect((f["power"], f["eta"], f["fidelity"]) == (r["power"], r["eta"], r["fidelity"])
                      and (float(f["f_ideal"]), float(f["f_separable"]), float(f["f_mixed"]))
                      == (1.0, 0.5, 0.25), "fig1b rows")


def check_werner_row(g, fid, tangle, entropy, checks, where):
    if fid is not None:
        checks.expect(abs(fid - O.werner_fidelity(g)) <= 1e-12, f"{where}: fidelity closed form")
    checks.expect(abs(tangle - O.werner_tangle(g)) <= METRIC_TOL, f"{where}: tangle closed form")
    checks.expect(abs(entropy - O.werner_linear_entropy(g)) <= 1e-12,
                  f"{where}: linear entropy closed form")


def check_simulated(paths, checks):
    """simulate's count files: one per power, counts within 8 Poisson sigma."""
    checks.expect(len(paths) == len(README_SIMULATE_POWERS), "simulate: file count")
    inputs = []
    for path, power in zip(paths, README_SIMULATE_POWERS):
        g = readme_g(PAIRS_PER_POWER * power)
        expected = README_SCALE * O.werner_probabilities(g)
        counts = read_count_file(path)
        checks.expect(bool(np.all(np.abs(counts - expected) <= 8 * np.sqrt(expected) + 1)),
                      f"{path.name}: counts off the Werner g={g:.6g} expectation")
        inputs.append(CountInput(path, counts, g, expected))
    return inputs


# --- stages --------------------------------------------------------------------------


def clear_program_caches():
    """Empty every functools cache of the biphoton modules, as a fresh
    ``biphoton sweep`` process has them."""
    for name, module in list(sys.modules.items()):
        if name == "biphoton" or name.startswith("biphoton."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def snapshot(paths):
    return [(p.name, p.read_bytes()) for p in paths]


class Run:
    def __init__(self, workload, seed, work, env, tracer, checks):
        import biphoton.errors
        from biphoton import pipeline

        self.pipeline = pipeline
        self.program_error = biphoton.errors.BiphotonError
        self.workload = workload
        self.primary = PRIMARY[workload]
        self.seed = seed
        self.work = work
        self.env = env
        self.tracer = tracer
        self.checks = checks
        self.tally = Tally()
        self.tomo_inputs = None
        self.sweep_setup = None
        self.chain_inputs = None
        self.first_outputs = {}
        self.traced_cli = Path(__file__).with_name("traced_cli.py")

    def round_calls(self, kind):
        """One round of a stage, as the list of its timed calls."""
        if kind == "tomo":
            return [lambda batch=b: self.tomo_call(batch) for b in range(len(self.tomo_batches()))]
        return [{"setup": self.setup_round, "sweep": self.sweep_round, "chain": self.chain_round}[kind]]

    def setup_round(self):
        """Seconds a fresh interpreter spends in ``import biphoton``."""
        out, elapsed, scaled = timed(lambda: subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=self.env, cwd=self.work,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        ))
        seconds = float(out.stdout)
        self.tally.samples["setup"].append((1, seconds, seconds * scaled / elapsed))

    def same_as_first(self, kind, blob):
        """True for the first round of a stage; later rounds must match it."""
        first = self.first_outputs.setdefault(kind, blob)
        if first is blob:
            return True
        self.checks.expect(blob == first, f"{kind}: outputs differ between identical rounds")
        return False

    def tomo_batches(self):
        """The stage's count files, one run_tomo batch per power (mu): all
        count scales of that power. A round is one call per batch."""
        if self.tomo_inputs is None:
            points = tomo_points(self.workload)
            inputs = write_count_files(
                self.work / "tomo-in", points, stage_seed(self.workload, "tomo", self.seed))
            batches = {}
            for (mu, _, _), inp in zip(points, inputs):
                batches.setdefault(mu, []).append(inp)
            self.tomo_inputs = list(batches.values())
        return self.tomo_inputs

    def tomo_call(self, batch):
        inputs = self.tomo_batches()[batch]
        files = [str(inp.path) for inp in inputs]
        out_dir = self.work / "tomo-out"
        shutil.rmtree(out_dir, ignore_errors=True)
        if batch == 0:
            self.tally.evals_rounds.append([])
        self.tally.attempted += len(files)
        try:
            (_, errors), elapsed, scaled = timed(lambda: self.pipeline.run_tomo(files, out_dir))
        except self.program_error as exc:
            print(f"run_tomo failed: {exc}", file=sys.stderr)
            self.tally.failed += len(files)
            return
        self.tally.failed += len(errors)
        if errors:
            print(f"run_tomo errors: {errors[:3]}", file=sys.stderr)
            return
        self.tally.samples["tomo"].append((len(files), elapsed, scaled))
        fits = check_tomo(inputs, out_dir, self.checks)
        self.tally.evals_rounds[-1].extend(n for n, _ in fits)
        self.tally.fits += len(fits)
        self.tally.boundary += sum(e < BOUNDARY_EIGENVALUE for _, e in fits)

    def sweep_round(self):
        if self.sweep_setup is None:
            seed = stage_seed(self.workload, "sweep", self.seed)
            etas, powers, n_max = sweep_grid(self.workload, seed)
            cfg_path = self.work / "sweep.cfg"
            write_config(cfg_path, sweep_config(seed, etas, powers, n_max))
            (self.work / "sweep").mkdir()
            self.sweep_setup = (seed, etas, powers, n_max, self.pipeline.load_config(cfg_path))
        seed, etas, powers, n_max, cfg = self.sweep_setup
        out_path = self.work / "sweep" / "sweep.csv"
        points = len(etas) * len(powers)
        self.tally.attempted += points
        clear_program_caches()
        if self.tracer is not None:
            self.tracer.cache_epoch += 1
        try:
            _, elapsed, scaled = timed(lambda: self.pipeline.run_sweep(cfg, out_path))
        except self.program_error as exc:
            print(f"run_sweep failed: {exc}", file=sys.stderr)
            self.tally.failed += points
            return
        self.tally.samples["sweep"].append((points, elapsed, scaled))
        if self.same_as_first("sweep", snapshot(sweep_tables(out_path))):
            check_sweep(out_path, etas, powers, n_max, seed, self.checks)

    def run_cli(self, step, args, log):
        spans = self.work / "cli-spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "biphoton.cli", *args]
        else:
            cmd = [sys.executable, str(self.traced_cli), str(spans), *args]
        with open(log, "w") as out:
            def child():
                proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                        env=self.env, cwd=self.work)
                try:
                    return proc.wait(timeout=CHILD_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    return None

            code, elapsed, scaled = timed(child)
        self.tally.cli_times[step].append(elapsed)
        if self.tracer is not None and spans.exists():
            data = json.loads(spans.read_text())
            spans.unlink()
            self.tally.cli_times["import"].append(data["import_s"])
            self.tally.child_spans.append(data["spans"])
        if code != 0:
            print(f"cli {step} exited with {code}: {log.read_text()[-500:]}", file=sys.stderr)
        return code == 0, elapsed, scaled

    def chain_round(self):
        """The README flow with the README's seed."""
        base = self.work / "chain"
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir()
        write_chain_configs(base, README_SEED)
        steps = [
            ("simulate", lambda: ["--config", str(base / "simulate.cfg"), "--out", str(base / "counts")]),
            ("tomo", lambda: [*map(str, sorted((base / "counts").glob("counts_*.txt"))),
                              "--out", str(base / "results")]),
            ("sweep", lambda: ["--config", str(base / "sweep.cfg"), "--out", str(base / "sweep.csv")]),
        ]
        self.tally.attempted += len(steps)
        total = total_scaled = 0.0
        for done, (step, args) in enumerate(steps):
            ok, elapsed, scaled = self.run_cli(step, [step, *args()], base / f"{step}.log")
            total += elapsed
            total_scaled += scaled
            if not ok:
                self.tally.failed += len(steps) - done
                return
        self.tally.samples["chain"].append((1, total, total_scaled))
        count_files = sorted((base / "counts").glob("counts_*.txt"))
        tables = sweep_tables(base / "sweep.csv")
        if self.same_as_first("chain", snapshot(count_files + tables)):
            inputs = check_simulated(count_files, self.checks)
            check_sweep(base / "sweep.csv", README_SWEEP_ETAS, README_SWEEP_POWERS,
                        README_N_MAX, README_SEED, self.checks)
            self.chain_inputs = inputs
        fits = check_tomo(self.chain_inputs, base / "results", self.checks)
        self.checks.expect(len(fits) == len(count_files), "chain tomo: one row per file")

    def measure(self, seconds):
        """Run the stages for a window of `seconds`.

        The primary stage runs in whole rounds. The secondary stages' rounds
        are due at evenly spaced times over the window, each run between two
        primary calls once it is due, so a slow spell of the machine lands on
        few of them. A primary round starts while secondary rounds are still
        due or at least half of a typical round fits in the window, so the
        run ends within half a round of the window's end.
        """
        due = sorted(
            ((i + 0.5) / count, kind)
            for kind, count in SECONDARY_ROUNDS.items() if kind != self.primary
            for i in range(count)
        )
        start = time.perf_counter()
        busy, rounds = 0.0, 0
        while True:
            for call in self.round_calls(self.primary):
                began = time.perf_counter()
                call()
                busy += time.perf_counter() - began
                while due and time.perf_counter() >= start + seconds * due[0][0]:
                    for secondary in self.round_calls(due.pop(0)[1]):
                        secondary()
            rounds += 1
            if not due and time.perf_counter() + busy / rounds / 2 >= start + seconds:
                return self.tally


def end_to_end(tally):
    """The end-to-end metrics of one run, at the calibration speed.

    The machine does not run at one speed: in spells of seconds it runs up
    to 1.7x faster than usual, and over minutes it drifts by a quarter, all
    programs on it together. So each timed call is scaled by CALIBRATION_S
    over the calibration's seconds measured around it, which reads what the
    call takes on this machine at a steady speed. Throughputs are all items
    over all scaled seconds of a stage, chain_s the median scaled chain
    (each CLI step scaled on its own), setup_s the median scaled import.
    """
    samples = tally.samples

    def throughput(kind):
        return sum(n for n, _, _ in samples[kind]) / sum(s for _, _, s in samples[kind])

    return {
        "setup_s": (statistics.median(s for _, _, s in samples["setup"]), "s"),
        "tomo_states_per_s": (throughput("tomo"), "states/s"),
        "sweep_points_per_s": (throughput("sweep"), "points/s"),
        "chain_s": (statistics.median(s for _, _, s in samples["chain"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
