"""Correctness check of one repetition's output files against the reference.

A summary row fails when it is missing, when its n_trials or its sample count
in the result CSV (and CDF table, when written) differs from the workload's,
when it is NaN but the reference is finite, or when its rate_bpcu lies
outside the tolerance around the reference row recorded in reference.json.

Bytes cannot be the check: the reference is recorded at one seed and the
benchmark runs other seeds, and the BLAS thread count changes ulps. The
tolerance is K times sqrt(2) times the reference row's ci_halfwidth, the
spread of a difference of two estimates of that precision. The row's own
ci_halfwidth is not used, so an error that also widens it (a scaled rate
widens it as much) cannot widen its tolerance. K is:

* quantile rows (gamma_eps finite): ci_halfwidth is the 95% order-statistic
  half-width, which treats all outer x inner samples as independent, but the
  inner samples of one outer trial share its layout and shadowing, so rows
  move between seeds by more than it says; K = K_QUANTILE;
* grouping rows (fig7_positions, gamma_eps NaN): rate_bpcu is the median of
  per-grouping rates and ci_halfwidth half their interquartile range, not a
  confidence interval; for terminal t0 the rates have two modes and the
  median jumps between them; K = K_GROUPING.

README.md gives the width of every row and the largest deviation seen over
the calibration seeds.
"""

import csv
import math
from collections import Counter

K_QUANTILE = 10.0
K_GROUPING = 3.0


def read_summary(path):
    """Summary CSV rows keyed by scenario label, values as floats/ints."""
    rows = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            rows[row["scenario"]] = {
                "gamma_eps": float(row["gamma_eps"]),
                "rate_bpcu": float(row["rate_bpcu"]),
                "ci_halfwidth": float(row["ci_halfwidth"]),
                "n_trials": int(row["n_trials"]),
            }
    return rows


def tolerance(ref):
    """Largest |rate_bpcu - reference rate_bpcu| a correct program may show."""
    k = K_GROUPING if math.isnan(ref["gamma_eps"]) else K_QUANTILE
    return k * math.sqrt(2.0) * ref["ci_halfwidth"]


def result_counts(path):
    """Data rows per scenario label in the result CSV."""
    counts = Counter()
    with open(path, "rb") as f:
        for line in f:
            if not line.startswith(b"#"):
                counts[line.split(b",", 1)[0].decode()] += 1
    counts.pop("scenario", None)  # header
    return counts


def cdf_counts(path):
    """'value cdf' lines per block of the gnuplot CDF table."""
    counts = Counter()
    label = None
    with open(path, "rb") as f:
        for line in f:
            if line.startswith(b"# "):
                label = line[2:].rsplit(b" (", 1)[0].decode()
            elif line.strip():
                counts[label] += 1
    return counts


def check_outputs(workload, paths, reference):
    """Return the failed rows as (label, reason), and the largest
    |rate_bpcu - reference| / tolerance over the rows."""
    summary = read_summary(paths["summary"])
    samples = result_counts(paths["out"])
    cdf = cdf_counts(paths["cdf"]) if "cdf" in paths else None
    failures, worst = [], 0.0
    for label, n in workload.rows:
        row, ref = summary.get(label), reference[label]
        if row is None:
            failures.append((label, "missing summary row"))
        elif row["n_trials"] != n or samples[label] != n or (cdf is not None and cdf[label] != n):
            failures.append((label, f"sample count: summary {row['n_trials']}, csv "
                                    f"{samples[label]}, cdf {cdf and cdf[label]}; expected {n}"))
        elif math.isnan(row["rate_bpcu"]):
            if not math.isnan(ref["rate_bpcu"]):
                failures.append((label, "NaN rate, finite reference"))
        else:
            tol = tolerance(ref)
            dev = abs(row["rate_bpcu"] - ref["rate_bpcu"]) / tol
            worst = max(worst, dev)
            if not dev <= 1.0:
                failures.append((label, f"rate {row['rate_bpcu']:.6g} outside "
                                        f"{ref['rate_bpcu']:.6g} +- {tol:.3g}"))
    return failures, worst
