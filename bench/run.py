"""Benchmark of the `cellfree run` CLI: end-to-end metrics, or per-layer ones.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/cellfree).
Every repetition is a fresh process running `cellfree.cli.main` (child.py)
with BLAS/OpenMP threads pinned to 1; repetitions draw their CLI seed from
--seed and repeat until --seconds are used. Each repetition's outputs are
checked against reference.json (check.py).

--trace 0 reports the end-to-end metrics, as medians over repetitions:
  setup_s      process start to the first trial (imports, preset catalog,
               config load and validation)
  run_s        first trial to the last output file closed
  cpu_s        user + system CPU time of the process
  peak_rss_mb  peak resident set size of the process
Each repetition's three times are rescaled to the reference machine speed:
multiplied by K_REF_S over the time of the speed kernel (speed.py), which
the repetition runs in its own process next to its measured intervals. The
per-repetition lines printed before the result give the times as measured.
--trace 1 alternates untraced and traced repetitions on the same CLI seeds,
checks that both write byte-identical outputs, and reports the per-layer
metrics of spans.py plus the trace's own cost.

The last line of standard output is one JSON object with the keys correct,
attempted, failed (summary rows checked and failed) and metrics. The line
before it is the environment manifest.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check
import speed
from workloads import PINNED_THREAD_VARS, WORKLOADS, nproc

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
OUT_ROOT = ".bench_out"
MAX_REPS = 50
RUN_DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
TIMES = ("setup_s", "run_s", "cpu_s")
LAYER_UNITS = {
    "deployment.aps_per_layout": "count",
    "deployment.degenerate_frac": "ratio",
    "deployment.worst_position.grid_points": "count",
    "propagation.shadow_fields.chol_mflop": "Mflop",
    "propagation.shadow_fields.cov_mb": "MB",
    "snr.snr_ls_values.rows": "count",
    "metrics.coverage_perfect.calls_per_root": "ratio",
    "harness.trial_ms_p50": "ms",
    "harness.trial_ms_p99": "ms",
    "harness.trial_ms.samples": "count",
    "harness.out_mb": "MB",
    "harness.pool_busy_frac": "ratio",
    "bench.trace_overhead_s": "s",
}


def layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith((".self_s", ".module_self_s")):
        return "s"
    return LAYER_UNITS[name]


def cli_seed(seed, rep):
    """CLI seed of repetition rep; never the reference seed."""
    return 1000 + 100 * seed + rep


class Context:
    """Where one benchmark run works, and the environment of its children."""

    def __init__(self, root, workload, seed=0):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = os.path.join(root, OUT_ROOT, f"{workload.name}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.started = time.monotonic()
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src, CELLFREE_BENCH_SRC=src)
        self.env.update({var: "1" for var in PINNED_THREAD_VARS})

    def remaining(self):
        return RUN_DEADLINE_S - (time.monotonic() - self.started)


def _wait(proc, timeout):
    """Reap proc with its resource usage; kill it once it outlives timeout."""
    deadline = time.monotonic() + timeout
    flags = os.WNOHANG
    while True:
        pid, status, usage = os.wait4(proc.pid, flags)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            flags = 0
        else:
            time.sleep(0.01)


def run_child(ctx, tag, cli_args, trace=False, setup_only=False):
    """One fresh process; returns its measurements (ok=False if it failed)."""
    timing_path = os.path.join(ctx.workdir, tag + "_timing.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), timing_path]
    spans_path = os.path.join(ctx.workdir, tag + "_spans.tsv")
    if trace:
        cmd += ["--trace", spans_path]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", *cli_args]
    log_path = os.path.join(ctx.workdir, tag + ".log")
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=ctx.env, cwd=ctx.root, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            usage = _wait(proc, max(1.0, ctx.remaining()))
        finally:
            if proc.returncode is None:
                proc.kill()
                os.waitpid(proc.pid, 0)
    rec = {"tag": tag, "rc": proc.returncode, "ok": False,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode != 0 or not os.path.exists(timing_path):
        with open(log_path) as f:
            rec["log"] = f.read()[-2000:]
        return rec
    with open(timing_path) as f:
        timing = json.load(f)
    rec["ok"] = True
    if setup_only:
        return rec
    rec["setup_s"] = timing["t_setup_end"] - t_spawn
    rec["run_s"] = timing["t_done"] - timing["t_trials_start"]
    rec["cpu_s"] = usage.ru_utime + usage.ru_stime - timing["kernel_cpu_s"]
    rec["kernel_s"] = (timing["kernel_before_s"] + timing["kernel_after_s"]) / 2.0
    rec["trials_s"] = timing["t_trials_end"] - timing["t_trials_start"]
    rec["cpu_trials_s"] = timing["cpu_trials_s"]
    if trace:
        rec["layers"], rec["trial_ms"] = timing["layers"], timing["trial_ms"]
        rec["spans_path"] = spans_path
    return rec


def run_rep(ctx, reference, rep, trace=False, digest=False):
    """One checked repetition of the workload; its output files are removed."""
    w = ctx.workload
    tag = f"rep{rep:02d}{'t' if trace else ''}"
    rec = run_child(ctx, tag, w.cli_args(ctx.workdir, cli_seed(ctx.seed, rep), tag), trace)
    paths = w.output_paths(ctx.workdir, tag)
    rec["attempted"] = len(w.rows)
    if rec["ok"]:
        rec["failures"], rec["deviation"] = check.check_outputs(w, paths, reference)
        rec["out_mb"] = sum(os.path.getsize(p) for p in paths.values()) / 1e6
        if digest:
            rec["digest"] = digest_files(paths.values())
    else:
        rec["failures"] = [(label, f"exit code {rec['rc']}") for label, _ in w.rows]
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    return rec


def digest_files(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            while chunk := f.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()


def _warm_up(ctx):
    """Compile bytecode and fill the file cache before anything is timed."""
    run_child(ctx, "warmup", ctx.workload.cli_args(ctx.workdir, 1, "warmup"), setup_only=True)


def _repeat(ctx, seconds, one_rep):
    """Call one_rep(i) until the next call would overrun seconds (at least once)."""
    t0 = time.monotonic()
    reps, last = [], 0.0
    while len(reps) < MAX_REPS:
        t = time.monotonic()
        elapsed = t - t0
        if reps and (elapsed + last > seconds or last > ctx.remaining() - 5.0):
            break
        reps.append(one_rep(len(reps)))
        last = time.monotonic() - t
    return reps


def _rescaled(rec, name):
    """A repetition's time at the reference machine speed (see speed.py)."""
    return rec[name] * speed.K_REF_S / rec["kernel_s"]


def measure_end_to_end(ctx, reference, seconds):
    reps = _repeat(ctx, seconds, lambda i: run_rep(ctx, reference, i))
    good = [r for r in reps if r["ok"]]
    if not good:
        return reps, {}
    metrics = {name: statistics.median(_rescaled(r, name) for r in good) for name in TIMES}
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in good)
    return reps, metrics


def measure_layers(ctx, reference, seconds):
    def pair(i):
        return (run_rep(ctx, reference, i, digest=True),
                run_rep(ctx, reference, i, trace=True, digest=True))

    pairs = _repeat(ctx, seconds, pair)
    reps = [r for p in pairs for r in p]
    plain = [p for p, _ in pairs if p["ok"]]
    traced = [t for _, t in pairs if t["ok"]]
    for p, t in pairs:
        if p["ok"] and t["ok"] and p["digest"] != t["digest"]:
            t["failures"] = [(label, "traced output differs from untraced")
                             for label, _ in ctx.workload.rows]
    if not (plain and traced):
        return reps, {}
    os.replace(traced[-1]["spans_path"],
               os.path.join(ctx.root, OUT_ROOT, f"{ctx.workload.name}-spans.tsv"))
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    trial_ms = sorted(x for r in traced for x in r["trial_ms"])
    percentiles = statistics.quantiles(trial_ms, n=100, method="inclusive")
    p50, p99 = percentiles[49], percentiles[98]
    threads = ctx.workload.thread_count()
    metrics.update({
        "harness.trial_ms_p50": p50,
        "harness.trial_ms_p99": p99,
        "harness.trial_ms.samples": len(trial_ms),
        "harness.out_mb": statistics.median(r["out_mb"] for r in plain),
        "harness.pool_busy_frac": statistics.median(
            r["cpu_trials_s"] / (r["trials_s"] * threads) for r in plain),
        "bench.trace_overhead_s": statistics.median(_rescaled(r, "run_s") for r in traced)
        - statistics.median(_rescaled(r, "run_s") for r in plain),
    })
    return reps, metrics


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(ctx):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned": {var: ctx.env[var] for var in PINNED_THREAD_VARS},
        "workload": ctx.workload.name,
        "threads": ctx.workload.thread_count(),
        "seed": ctx.seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cellfree", "cli.py")):
        print(f"error: no cellfree source under {root}/src; run from the checkout root",
              file=sys.stderr)
        return 2
    with open(REFERENCE_PATH) as f:
        reference = json.load(f)[args.workload]["rows"]
    ctx = Context(root, WORKLOADS[args.workload], args.seed)
    try:
        _warm_up(ctx)
        measure = measure_layers if args.trace else measure_end_to_end
        reps, values = measure(ctx, reference, args.seconds)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    units = layer_unit if args.trace else END_TO_END.__getitem__
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    for r in reps:
        print(json.dumps({k: r[k] for k in ("tag", "rc", "setup_s", "run_s", "cpu_s",
                                            "peak_rss_mb", "kernel_s", "deviation",
                                            "failures", "log") if k in r}))
    print("manifest " + json.dumps(manifest(ctx)))
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)}
                    for name, value in sorted(values.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
