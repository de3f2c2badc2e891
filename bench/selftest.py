"""Self-tests of the benchmark itself, at reduced trial counts (about a minute).

    python3 bench/selftest.py

Run from the checkout root; exits 0 when every check passes. Checks:

1. traced and untraced runs write byte-identical output files, per workload;
2. every traced layer records at least one call on the workload named for it
   (a wrapper on a binding nobody calls through records nothing); layers that
   no workload reaches are checked on a small probe config instead;
3. with BLAS pinned, --threads 1 and --threads nproc write byte-identical
   output files on `shadow`;
4. the metric names and units the benchmark prints are those BENCHMARK.json
   declares.
"""

import dataclasses
import json
import os
import shutil
import sys

import run
import spans
from workloads import WORKLOADS, nproc

SMALL_OUTER = {"shadow": 20, "perfect-csv": 20, "ls-power": 20, "hypoexp": 200}

#: Workload (or probe) on which each traced layer must record a call.
LAYER_WORKLOAD = {
    "harness.run_experiment": "perfect-csv",
    "harness.write_result_csv": "perfect-csv",
    "harness.write_summary_csv": "perfect-csv",
    "harness.write_cdf_tables": "perfect-csv",
    "harness.run_scenario": "perfect-csv",
    "harness.trial_stream": "perfect-csv",
    "harness.summarize": "perfect-csv",
    "metrics.outage_result": "perfect-csv",
    "deployment.place_ppp": "perfect-csv",
    "propagation.large_scale_from_shadow": "perfect-csv",
    "propagation.shadow_fields": "shadow",
    "deployment.worst_position": "ls-power",
    "power.optimize_pilot_power": "ls-power",
    "grouping.random_grouping": "ls-power",
    "channel.conditional_error_stats": "ls-power",
    "snr.snr_ls_values": "ls-power",
    "metrics.coverage_perfect": "hypoexp",
    # no workload groups by neighbours or runs single-group LS
    "grouping.neighbor_grouping": "probe-neighbor",
    "snr.lambda_ls": "probe-single-ls",
}

_PROBE_BASE = "deployment=ppp\ndensity=20.0\nhalf_width_km=1.0\nshadow=none\ncsi=ls\n" \
              "power=uniform\nepsilon=0.01\ninner=10\n"
PROBES = {
    "probe-neighbor": dataclasses.replace(
        WORKLOADS["ls-power"], name="probe-neighbor", scenario="neighbor.cfg", threads="1",
        config_text=_PROBE_BASE + "code=alamouti\ngrouping=neighbor\n"),
    "probe-single-ls": dataclasses.replace(
        WORKLOADS["ls-power"], name="probe-single-ls", scenario="single_ls.cfg", threads="1",
        config_text=_PROBE_BASE + "code=single\n"),
}


def _run(ctx, tag, trace=False, threads=None):
    w = ctx.workload
    rec = run.run_child(ctx, tag, w.cli_args(ctx.workdir, 7, tag, threads), trace=trace)
    if not rec["ok"]:
        raise RuntimeError(f"{w.name}/{tag} failed:\n{rec['log']}")
    paths = w.output_paths(ctx.workdir, tag)
    rec["digest"] = run.digest_files(paths.values())
    return rec


def main():
    root = os.getcwd()
    failures = []
    layers = {}
    for name, w in {**WORKLOADS, **PROBES}.items():
        ctx = run.Context(root, dataclasses.replace(w, outer=SMALL_OUTER.get(name, 20)))
        try:
            traced = _run(ctx, "traced", trace=True)
            layers[name] = traced["layers"]
            if name in WORKLOADS and _run(ctx, "plain")["digest"] != traced["digest"]:
                failures.append(f"{name}: traced output differs from untraced")
            if name == "shadow":
                one = _run(ctx, "one", threads=1)["digest"]
                many = _run(ctx, "many", threads=nproc())["digest"]
                if one != many:
                    failures.append(f"shadow: --threads 1 and --threads {nproc()} outputs differ")
        finally:
            shutil.rmtree(ctx.workdir, ignore_errors=True)

    for layer in spans.LAYERS:
        where = LAYER_WORKLOAD[layer]
        if layers[where][f"{layer}.calls"] < 1:
            failures.append(f"{layer}: no call recorded on {where}")

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END:
        failures.append(f"end_to_end in BENCHMARK.json {declared} != printed {run.END_TO_END}")
    printed = set(layers["shadow"]) | set(run.LAYER_UNITS)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if set(declared) != printed:
        failures.append(f"per_layer names differ: {sorted(set(declared) ^ printed)}")
    failures += [f"{n}: unit {u} != {run.layer_unit(n)}" for n, u in declared.items()
                 if n in printed and u != run.layer_unit(n)]

    for f in failures:
        print("FAIL", f)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
