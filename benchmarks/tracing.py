"""Spans around the public functions of each biphoton layer.

The program is not edited: a Tracer rebinds module attributes to timing
wrappers. Two bindings need care:

- pipeline imports rates_primed by name, so the wrapper goes on
  ``pipeline.rates_primed``, the binding the pipeline calls;
- mle_reconstruct reaches linear_reconstruct through its module global, so
  rebinding ``tomography.linear_reconstruct`` also records that inner call
  as a child of the mle_reconstruct span.

Each span is (name, start, end, parent index or -1, attrs). Spans stay in
memory until the run ends; self time is a span's duration minus the time
its direct children cover (calls nest, so children never overlap).
"""

import functools
import importlib
import statistics
import time

BINDINGS = (
    ("biphoton.tomography", "read_counts", "tomography.read_counts"),
    ("biphoton.tomography", "linear_reconstruct", "tomography.linear_reconstruct"),
    ("biphoton.tomography", "mle_reconstruct", "tomography.mle_reconstruct"),
    ("biphoton.states", "compute_metrics", "states.compute_metrics"),
    ("biphoton.states", "tangle", "states.tangle"),
    ("biphoton.pipeline", "rates_primed", "multipair.rates_primed"),
    ("biphoton.pipeline", "run_tomo", "pipeline.run_tomo"),
    ("biphoton.pipeline", "write_report", "pipeline.write_report"),
    ("biphoton.pipeline", "run_sweep", "pipeline.run_sweep"),
    ("biphoton.pipeline", "write_table", "pipeline.write_table"),
    ("biphoton.pipeline", "run_simulate", "pipeline.run_simulate"),
)


def _rates_key(args, kwargs):
    params = args[0] if args else kwargs.get("p")
    return [params.alpha, params.eta]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []
        # bumped whenever the program's caches are emptied, so "first call for
        # an (alpha, eta) pair" means first since the caches were last empty
        self.cache_epoch = 0

    def _wrap(self, fn, name):
        attrs_of = _rates_key if name == "multipair.rates_primed" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            attrs = None
            if attrs_of is not None:
                attrs = {"key": attrs_of(args, kwargs), "epoch": self.cache_epoch}
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, attrs)

        return traced

    def install(self):
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def span_records(self):
        return [list(s) for s in self.spans if s is not None]


def wrapper_cost_s(calls=20000):
    """Seconds one traced call adds, from timing a no-op with and without a wrapper."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap(noop, "noop")
    best = []
    for fn in (noop, wrapped):
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append(time.perf_counter() - start)
            tracer.spans.clear()
        best.append(min(samples) / calls)
    return max(best[1] - best[0], 0.0)


# --- per-layer figures from spans --------------------------------------------------


def _self_times(spans):
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _p(values, q):
    """Nearest-rank percentile; with few values the 95th is the slowest call."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_figures(spans):
    """Durations, self times and rates_primed first/repeat splits by span name."""
    selfs = _self_times(spans)
    out = {}
    seen_keys = set()
    for (name, start, end, _, attrs), self_s in zip(spans, selfs):
        entry = out.setdefault(
            name, {"dur": [], "self": [], "first": [], "repeat": [], "epochs": []}
        )
        entry["dur"].append(end - start)
        entry["self"].append(self_s)
        if attrs is not None:
            key = (attrs["epoch"], *attrs["key"])
            (entry["repeat"] if key in seen_keys else entry["first"]).append(end - start)
            seen_keys.add(key)
            entry["epochs"].append(attrs["epoch"])
    return out


def per_layer_metrics(inproc, children, cli_times, evals_first_round, evals_all):
    """The per-layer metrics of BENCHMARK.json.

    inproc and children are layer_figures() of the benchmark process and of
    the traced CLI processes. A layer's figures come from the benchmark
    process when it called that layer, else from the CLI processes.
    cli_times maps step name to a list of wall times.
    """

    def pick(name):
        entry = inproc.get(name) or children.get(name)
        if not entry:
            raise KeyError(f"no spans recorded for {name}")
        return entry

    med = statistics.median
    mle = pick("tomography.mle_reconstruct")
    rates = pick("multipair.rates_primed")
    evals_total_all = sum(evals_all)
    return {
        "tomography.mle_reconstruct.p50_ms": (1e3 * med(mle["dur"]), "ms"),
        "tomography.mle_reconstruct.p95_ms": (1e3 * _p(mle["dur"], 95), "ms"),
        "tomography.mle_reconstruct.evals_p50": (med(evals_first_round), "count"),
        "tomography.mle_reconstruct.evals_total": (sum(evals_first_round), "count"),
        "tomography.mle_reconstruct.us_per_eval": (
            1e6 * sum(mle["self"]) / evals_total_all, "us"),
        "tomography.linear_reconstruct.p50_us": (
            1e6 * med(pick("tomography.linear_reconstruct")["dur"]), "us"),
        "tomography.read_counts.p50_us": (
            1e6 * med(pick("tomography.read_counts")["dur"]), "us"),
        "states.compute_metrics.p50_us": (
            1e6 * med(pick("states.compute_metrics")["dur"]), "us"),
        "states.tangle.p50_us": (1e6 * med(pick("states.tangle")["dur"]), "us"),
        "multipair.rates_primed.first_call_ms": (1e3 * med(rates["first"]), "ms"),
        "multipair.rates_primed.repeat_call_us": (1e6 * med(rates["repeat"]), "us"),
        # calls between two emptyings of the caches: one sweep's worth, so it repeats
        "multipair.rates_primed.calls": (rates["epochs"].count(min(rates["epochs"])), "count"),
        "pipeline.run_tomo.self_ms": (1e3 * med(pick("pipeline.run_tomo")["self"]), "ms"),
        "pipeline.write_report.p50_us": (
            1e6 * med(pick("pipeline.write_report")["dur"]), "us"),
        "pipeline.run_sweep.self_ms": (1e3 * med(pick("pipeline.run_sweep")["self"]), "ms"),
        "pipeline.write_table.ms": (1e3 * med(pick("pipeline.write_table")["dur"]), "ms"),
        "pipeline.run_simulate.ms": (1e3 * med(pick("pipeline.run_simulate")["dur"]), "ms"),
        "cli.import_s": (med(cli_times["import"]), "s"),
        "cli.simulate_s": (med(cli_times["simulate"]), "s"),
        "cli.tomo_s": (med(cli_times["tomo"]), "s"),
        "cli.sweep_s": (med(cli_times["sweep"]), "s"),
    }
