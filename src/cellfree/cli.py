"""Command-line front end: run experiments, validate configs, run oracles."""

import argparse
import os
import sys

# BLAS and LAPACK run on one thread, so output bytes do not depend on the
# thread count (a multi-threaded LAPACK factors the correlated-shadowing
# covariance differently in the last bits). Pinned only while BLAS loads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
_prior_env = {k: os.environ[k] for k in _BLAS_THREAD_VARS if k in os.environ}
os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from . import linklevel
from .harness import (
    PRESETS,
    Experiment,
    config_from_text,
    experiment_catalog,
    run_experiment,
    validate_config,
    with_overrides,
    write_cdf_tables,
    write_result_csv,
    write_summary_csv,
)

for _k in _BLAS_THREAD_VARS:
    del os.environ[_k]
os.environ.update(_prior_env)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _config_label(path):
    """A config file's name without its extension, which labels its CSV rows."""
    label = os.path.splitext(os.path.basename(path))[0]
    if any(c in label for c in ',"#\r\n'):
        raise UsageError(f"config file name {path!r} would label CSV rows with a comma, "
                         "quote, '#' or line break; rename the file")
    return label


def _read_config(path):
    """(label, config) of a config file; a bad name or content is a usage error."""
    label = _config_label(path)
    try:
        with open(path) as f:
            return label, config_from_text(f.read())
    except (ValueError, OSError) as e:
        raise UsageError(f"malformed config file {path}: {e}")


def _load_experiment(name_or_path):
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]()
    if os.path.exists(name_or_path):
        label, cfg = _read_config(name_or_path)
        return Experiment(label, ((label, cfg),))
    raise UsageError(
        f"unknown scenario {name_or_path!r}: not a preset "
        f"({', '.join(sorted(PRESETS))}) and no such file"
    )


def cmd_run(args):
    exp = with_overrides(_load_experiment(args.scenario), seed=args.seed,
                         outer=args.outer, inner=args.inner)
    try:
        for _, cfg in exp.members:
            validate_config(cfg)
    except ValueError as e:
        raise UsageError(f"invalid scenario configuration: {e}")
    results = run_experiment(exp)
    try:
        write_result_csv(args.out, results)
        if args.summary:
            write_summary_csv(args.summary, results)
        if args.cdf:
            write_cdf_tables(args.cdf, results)
    except OSError as e:
        raise UsageError(f"cannot write output: {e}")
    print(f"wrote {sum(r.values.size for r in results)} samples to {args.out}")
    return EXIT_OK


def cmd_list(args):
    for name, exp in sorted(experiment_catalog().items()):
        print(f"{name}: {exp.description} ({len(exp.members)} member"
              f"{'s' if len(exp.members) != 1 else ''})")
    return EXIT_OK


def cmd_validate(args):
    _, cfg = _read_config(args.config)
    try:
        validate_config(cfg)
    except ValueError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def cmd_oracle(args):
    seed = args.seed
    if seed < 0:
        raise UsageError(f"oracle seed must be >= 0, got {seed}")
    if args.check == "corollary1":
        res = linklevel.check_corollary1(seed)
        print(f"corollary1: KS statistic={res['statistic']:.5f} p={res['pvalue']:.4f} "
              f"(n={res['n_trials']}, lambda={res['lambda_ls']:.6g})")
    elif args.check == "hyperexp":
        res = linklevel.check_hyperexp(seed)
        print(f"hyperexp: max |dev|/SE = {res['max_dev_se']:.3f} over "
              f"{res['n_gammas']} gamma points (n={res['n_trials']})")
    else:
        res = linklevel.check_theorem1(seed)
        for name, r in res["codes"].items():
            print(f"theorem1[{name}]: {r['n_pass']}/{r['n_configs']} configurations "
                  f"within 3 SE")
    print("PASS" if res["ok"] else "FAIL")
    return EXIT_OK if res["ok"] else EXIT_VALIDATION


def build_parser():
    p = argparse.ArgumentParser(
        prog="cellfree",
        description="Coverage and outage-rate experiments for cell-free "
        "massive MIMO system-information broadcast.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset experiment or a config file")
    run.add_argument("--scenario", required=True, help="preset name or config path")
    run.add_argument("--seed", type=int, default=None, help="master seed override")
    run.add_argument("--outer", type=int, default=None, help="outer trial count override")
    run.add_argument("--inner", type=int, default=None, help="inner trial count override")
    run.add_argument("--out", required=True, help="result CSV path")
    run.add_argument("--summary", default=None, help="summary CSV path")
    run.add_argument("--cdf", default=None, help="gnuplot CDF table path")
    run.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored: trials run one after another "
                     "on one thread (default: 1)")
    run.set_defaults(func=cmd_run)

    lst = sub.add_parser("list-scenarios", help="list preset experiments")
    lst.set_defaults(func=cmd_list)

    val = sub.add_parser("validate", help="validate a scenario config file")
    val.add_argument("--config", required=True)
    val.set_defaults(func=cmd_validate)

    orc = sub.add_parser("oracle", help="run a link-level validation suite")
    orc.add_argument("--check", required=True,
                     choices=("theorem1", "corollary1", "hyperexp"))
    orc.add_argument("--seed", type=int, default=1)
    orc.set_defaults(func=cmd_oracle)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
