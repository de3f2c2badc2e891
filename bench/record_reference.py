"""Record reference.json: each workload's summary rows at the reference seed.

    python3 bench/record_reference.py [WORKLOAD ...]

Run from the checkout root. Re-record only when a change is meant to alter
the numbers, and say so where the change is described.
"""

import json
import os
import shutil
import sys

import check
import run
from workloads import WORKLOADS

REFERENCE_SEED = 1  # the presets' own seed


def record(name):
    ctx = run.Context(os.getcwd(), WORKLOADS[name])
    try:
        args = ctx.workload.cli_args(ctx.workdir, REFERENCE_SEED, "ref")
        rec = run.run_child(ctx, "ref", args)
        if not rec["ok"]:
            raise RuntimeError(f"{name}: reference run failed\n{rec['log']}")
        rows = check.read_summary(ctx.workload.output_paths(ctx.workdir, "ref")["summary"])
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    cli = ["cellfree", *(a.replace(ctx.workdir, "OUT") for a in args)]
    return {"seed": REFERENCE_SEED, "cli": cli, "rows": rows}


def main(names):
    reference = {}
    if os.path.exists(run.REFERENCE_PATH):
        with open(run.REFERENCE_PATH) as f:
            reference = json.load(f)
    for name in names or sorted(WORKLOADS):
        reference[name] = record(name)
        print(f"{name}: {reference[name]['rows']}")
    with open(run.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
