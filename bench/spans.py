"""Span tracing of one `cellfree run` process, from outside the program.

Each traced function is replaced at the module binding its caller looks it
up through (wrapping `propagation.shadow_fields` itself records nothing,
because `harness` imported the name). Every thread keeps its own span stack,
so runs on the thread pool trace correctly; spans stay in memory and are
written out when the run ends.

Two pseudo-spans give the trace its structure:

* `harness.trial` covers one outer trial. It opens when the trial's stream
  is drawn (`trial_stream(seed, t)`, domain 0, the first statement of every
  trial) and ends at the last exit seen on its thread before the next trial
  starts. Its self time is trial glue that belongs to no wrapped function
  (for perfect CSI, the exponential SNR draws), and is reported as part of
  `harness.run_scenario.self_s`.
* `harness.pool` covers the time the calling thread waits on the thread
  pool. Trials on pool threads are its children; its own self time is
  waiting and is not reported as any layer's work.

A span's self time is the CPU time of its thread (`time.thread_time`) over
the span, minus that of its children on the same thread: the time the layer
kept a core busy. Wall time would charge a pool thread for waiting on the
interpreter lock while another thread runs a different layer. Self times add
across threads. Trial durations (`harness.trial_ms_*`) are wall time.
"""

import functools
import statistics
from array import array
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

TRIAL = "harness.trial"
POOL = "harness.pool"

#: (module attribute, span name) pairs wrapped as spans. The module is named
#: by its key in the dict passed to Tracer.install.
SPAN_BINDINGS = (
    ("cli.run_experiment", "harness.run_experiment"),
    ("cli.write_result_csv", "harness.write_result_csv"),
    ("cli.write_summary_csv", "harness.write_summary_csv"),
    ("cli.write_cdf_tables", "harness.write_cdf_tables"),
    ("harness.run_scenario", "harness.run_scenario"),
    ("harness.trial_stream", "harness.trial_stream"),
    ("harness.summarize", "harness.summarize"),
    ("harness.place_ppp", "deployment.place_ppp"),
    ("harness.worst_position", "deployment.worst_position"),
    ("power.worst_position", "deployment.worst_position"),
    ("harness.optimize_pilot_power", "power.optimize_pilot_power"),
    ("harness.shadow_fields", "propagation.shadow_fields"),
    ("harness.large_scale_from_shadow", "propagation.large_scale_from_shadow"),
    ("harness.random_grouping", "grouping.random_grouping"),
    ("harness.neighbor_grouping", "grouping.neighbor_grouping"),
    ("harness.conditional_error_stats", "channel.conditional_error_stats"),
    ("harness.snr_ls_values", "snr.snr_ls_values"),
    ("harness.lambda_ls", "snr.lambda_ls"),
    ("power.lambda_ls", "snr.lambda_ls"),
    ("harness.coverage_perfect", "metrics.coverage_perfect"),
    ("harness.outage_result", "metrics.outage_result"),
)

#: Functions that are counted and mark the end of a trial but record no span,
#: so their time stays in the trial's self time. `_sample_snr` and
#: `outage_rate` are the last calls of a network and a grouping trial.
MARKER_BINDINGS = (
    ("harness._sample_snr", "harness.sample_snr"),
    ("harness.outage_rate", "metrics.outage_rate"),
    ("harness._hyperexp_gamma_eps", "harness.gamma_eps_roots"),
)

#: Span names reported as `<name>.calls` and `<name>.self_s`.
LAYERS = tuple(dict.fromkeys(name for _, name in SPAN_BINDINGS))
#: Modules whose summed self time is reported as `<module>.module_self_s`.
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in LAYERS))


_ROOT = (-1, -1)


def _now():
    return time.perf_counter(), time.thread_time()


class _ThreadLog:
    """Spans of one thread, in flat arrays indexed by span.

    A span allocates no container the garbage collector tracks, so a run
    with a hundred thousand spans does not trigger extra collections that
    would be charged to whichever layer is running.
    """

    def __init__(self, serial):
        self.serial = serial
        self.names = []
        self.times = array("d")    # start wall, start CPU, end wall, end CPU
        self.parents = array("q")  # parent's thread serial and index; -1, -1 for a root
        self.extras = {}           # span index -> value of the span's extra hook
        self.stack = []
        self.trial = None
        self.last_exit = None
        self.marks = Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()
        self._pool_span = _ROOT  # parent of the root spans of pool threads
        self._n_groups = None    # groups of the scenario being run

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _enter(self, log, name):
        index = len(log.names)
        log.names.append(name)
        log.parents.extend((log.serial, log.stack[-1]) if log.stack else self._pool_span)
        log.times.extend((*_now(), 0.0, 0.0))
        log.stack.append(index)
        return index

    def _exit(self, log, index, end=None):
        end = _now() if end is None else end
        log.times[4 * index + 2], log.times[4 * index + 3] = end
        log.stack.pop()
        log.last_exit = end

    def _close_trials(self):
        """End every open trial at the last exit seen on its thread.

        Called when the pool or run_scenario exits, after the pool's threads
        have finished.
        """
        for log in self._logs:
            if log.trial is not None:
                self._exit(log, log.trial, end=log.last_exit)
                log.trial = None

    # -- wrappers --

    def span(self, fn, name, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = self._log()
            index = self._enter(log, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(log, index)
            if extra is not None:
                log.extras[index] = extra(out, *args, **kwargs)
            return out
        return traced

    def marker(self, fn, name):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            out = fn(*args, **kwargs)
            log = self._log()
            log.last_exit = _now()
            log.marks[name] += 1
            return out
        return marked

    def _trial_stream(self, fn):
        traced = self.span(fn, "harness.trial_stream")

        @functools.wraps(fn)
        def stream(seed, index, domain=0):
            if domain == 0:
                log = self._log()
                if log.trial is not None:
                    self._exit(log, log.trial, end=log.last_exit)
                log.trial = self._enter(log, TRIAL)
            return traced(seed, index, domain)
        return stream

    def _run_scenario(self, fn):
        @functools.wraps(fn)
        def scenario(cfg, *args, **kwargs):
            self._n_groups = cfg.n_groups()
            try:
                return fn(cfg, *args, **kwargs)
            finally:
                self._close_trials()
                self._n_groups = None
        return self.span(scenario, "harness.run_scenario")

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                log = tracer._log()
                tracer._pool_span = (log.serial, tracer._enter(log, POOL))
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close_trials()
                    log = tracer._log()
                    tracer._exit(log, tracer._pool_span[1])
                    tracer._pool_span = _ROOT
        return TracedPool

    def install(self, modules):
        """Wrap every binding; modules maps 'cli', 'harness', 'power' to modules."""
        extras = {
            "deployment.place_ppp": self._layout_extra,
            "deployment.worst_position": _grid_extra,
            "propagation.shadow_fields": _shadow_extra,
            "snr.snr_ls_values": _rows_extra,
        }
        for binding, name in SPAN_BINDINGS:
            module, attr = binding.split(".")
            fn = getattr(modules[module], attr)
            if name == "harness.trial_stream":
                wrapped = self._trial_stream(fn)
            elif name == "harness.run_scenario":
                wrapped = self._run_scenario(fn)
            else:
                wrapped = self.span(fn, name, extras.get(name))
            setattr(modules[module], attr, wrapped)
        for binding, name in MARKER_BINDINGS:
            module, attr = binding.split(".")
            setattr(modules[module], attr, self.marker(getattr(modules[module], attr), name))
        modules["harness"].ThreadPoolExecutor = self._pool_class()

    def _layout_extra(self, layout, *args, **kwargs):
        """(APs, degenerate) for trial layouts; None for layouts drawn in set-up."""
        if self._n_groups is None:
            return None
        return layout.n_aps, layout.n_antennas < self._n_groups

    # -- output --

    def _spans(self):
        """(thread serial, index, name, times, parent) of every recorded span."""
        for log in self._logs:
            for i, name in enumerate(log.names):
                yield (log.serial, i, name, log.times[4 * i:4 * i + 4],
                       tuple(log.parents[2 * i:2 * i + 2]))

    def write_spans(self, path):
        """One line per span: thread, index, name, wall and CPU start and end, parent."""
        with open(path, "w") as f:
            f.write("thread\tindex\tname\tstart_s\tstart_cpu_s\tend_s\tend_cpu_s"
                    "\tparent_thread\tparent_index\n")
            for serial, i, name, times, (pt, pi) in self._spans():
                f.write(f"{serial}\t{i}\t{name}\t" + "\t".join(map(repr, times))
                        + f"\t{pt}\t{pi}\n")

    def layer_metrics(self):
        """Per-layer counts and self times of everything recorded."""
        child_cpu = defaultdict(float)
        for serial, _, _, (_, c0, _, c1), parent in self._spans():
            if parent[0] == serial:
                child_cpu[parent] += c1 - c0
        calls, self_s = Counter(), defaultdict(float)
        extras = defaultdict(list)
        trial_ms = []
        for serial, i, name, (w0, c0, w1, c1), _ in self._spans():
            own = c1 - c0 - child_cpu[(serial, i)]
            if name == TRIAL:
                self_s["harness.run_scenario"] += own
                trial_ms.append(1e3 * (w1 - w0))
            elif name != POOL:
                calls[name] += 1
                self_s[name] += own
        marks = Counter()
        for log in self._logs:
            marks.update(log.marks)
            for i, extra in log.extras.items():
                if extra is not None:
                    extras[log.names[i]].append(extra)

        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for module in MODULES:
            out[f"{module}.module_self_s"] = sum(
                v for name, v in self_s.items() if name.split(".")[0] == module)
        layouts = extras["deployment.place_ppp"]
        out["deployment.aps_per_layout"] = (
            statistics.fmean(n for n, _ in layouts) if layouts else 0.0)
        out["deployment.degenerate_frac"] = (
            sum(d for _, d in layouts) / len(layouts) if layouts else 0.0)
        out["deployment.worst_position.grid_points"] = sum(extras["deployment.worst_position"])
        shadow = extras["propagation.shadow_fields"]
        out["propagation.shadow_fields.chol_mflop"] = sum(f for f, _ in shadow) / 1e6
        out["propagation.shadow_fields.cov_mb"] = sum(b for _, b in shadow) / 1e6
        out["snr.snr_ls_values.rows"] = sum(extras["snr.snr_ls_values"])
        roots = marks["harness.gamma_eps_roots"]
        out["metrics.coverage_perfect.calls_per_root"] = (
            calls["metrics.coverage_perfect"] / roots if roots else 0.0)
        return out, trial_ms


def _grid_extra(point, layout, grid_resolution=None, region=None):
    """Grid points the worst-position search evaluates (computed, as it does)."""
    from cellfree.deployment import mean_nn_spacing

    region = region or layout.region
    hw = region.half_width_km
    if grid_resolution is None:
        grid_resolution = hw / 20.0 if layout.n_aps < 2 else mean_nn_spacing(layout) / 10.0
    return len(np.arange(-hw, hw + grid_resolution / 2.0, grid_resolution)) ** 2


def _shadow_extra(fields, layout, terminals, params, rng):
    """Computed Cholesky flops and covariance bytes of a correlated draw."""
    if params.mode != "correlated" or params.sigma_db == 0:
        return 0.0, 0.0
    n, k = layout.n_aps, len(np.atleast_2d(terminals))
    return (n**3 + k**3) / 3.0, 8.0 * (n**2 + k**2)


def _rows_extra(values, *args, **kwargs):
    return int(np.size(values))
