"""One benchmark repetition: a fresh process running `cellfree.cli.main`.

    python3 bench/child.py TIMING_JSON [--trace SPANS_TSV] [--setup-only] -- CLI_ARGS...

Records, on the system-wide monotonic clock, when set-up ends and the trials
start (the call into `cli.run_experiment`) and when `main` returns, after the
last output file is closed, and writes them to TIMING_JSON. Between set-up
and the first trial, and again after `main` returns, it times the speed
kernel (speed.py); neither lies inside a measured interval. With --trace the
layers are wrapped (see spans.py), the spans are written to SPANS_TSV and the
per-layer metrics go into TIMING_JSON. With --setup-only the process stops
where the first trial would start.
"""

import json
import os
import sys
import time

T_ENTER = time.monotonic()


class _SetupDone(Exception):
    pass


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    timing_path = opts[0]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    setup_only = "--setup-only" in opts

    from cellfree import cli, harness, power

    import speed

    src = os.path.realpath(os.environ["CELLFREE_BENCH_SRC"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"cellfree imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if spans_path is not None:
        import spans
        tracer = spans.Tracer()
        tracer.install({"cli": cli, "harness": harness, "power": power})

    timing = {"t_enter": T_ENTER}
    run_experiment = cli.run_experiment

    def timed_run_experiment(*args, **kwargs):
        timing["t_setup_end"] = time.monotonic()
        if setup_only:
            raise _SetupDone
        timing["kernel_before_s"], timing["kernel_cpu_s"] = speed.measure()
        timing["t_trials_start"] = time.monotonic()
        cpu0 = time.process_time()
        try:
            return run_experiment(*args, **kwargs)
        finally:
            timing["t_trials_end"] = time.monotonic()
            timing["cpu_trials_s"] = time.process_time() - cpu0

    cli.run_experiment = timed_run_experiment
    try:
        rc = cli.main(cli_args)
    except _SetupDone:
        rc = 0
    timing["t_done"] = time.monotonic()
    timing["rc"] = rc
    if "kernel_before_s" in timing:
        timing["kernel_after_s"], cpu = speed.measure()
        timing["kernel_cpu_s"] += cpu
    if tracer is not None:
        tracer.write_spans(spans_path)
        timing["layers"], timing["trial_ms"] = tracer.layer_metrics()
    with open(timing_path, "w") as f:
        json.dump(timing, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
