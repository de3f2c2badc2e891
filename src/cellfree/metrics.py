"""Outage rate, coverage probability, and empirical SNR quantiles."""

import numpy as np
from dataclasses import dataclass
from scipy.linalg import expm


class SampleSizeError(ValueError):
    """Too few samples for a reliable epsilon-quantile."""


@dataclass(frozen=True)
class OutageResult:
    """Outage summary at a target outage probability epsilon.

    gamma_eps is the empirical epsilon-quantile of the SNR samples and
    rate_bpcu = (1 - tau_p/tau_c) (N_s/tau_d) log2(1 + gamma_eps). The
    confidence half-width is reported in rate units (95% order-statistic CI
    on the quantile, mapped through the rate formula).
    """

    epsilon: float
    gamma_eps: float
    rate_bpcu: float
    n_trials: int
    ci_halfwidth: float


def outage_rate(gamma_eps, tau_p, tau_c, code):
    """Outage rate in bpcu; perfect-CSI runs use tau_p = 0."""
    if not 0 <= tau_p < tau_c:
        raise ValueError("require 0 <= tau_p < tau_c")
    if gamma_eps < 0:
        raise ValueError("gamma_eps must be >= 0")
    return (1.0 - tau_p / tau_c) * code.rate * np.log2(1.0 + gamma_eps)


def coverage_perfect(gamma, lambdas):
    """P(snr >= gamma) for a sum of independent exponentials with rates lambdas.

    Phase-type form (Neuts 1981): the sum is the absorption time of a chain
    that passes through one phase per rate, so the coverage is the sum of the
    first row of expm(gamma T), with T bidiagonal (-lambda on the diagonal,
    lambda[:-1] on the superdiagonal). Exact for equal or nearly equal rates,
    where partial fractions cancel catastrophically. An array gamma gives an
    array of the same shape.
    """
    lam = np.asarray(lambdas, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("rates must be positive")
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise ValueError("gamma must be >= 0")
    t = np.diag(-lam) + np.diag(lam[:-1], 1)
    out = expm(np.multiply.outer(gamma, t))[..., 0, :].sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def coverage_ls_single(gamma, lambda_ls_samples):
    """P(snr >= gamma) for single-group LS: mean of exp(-gamma lambda_ls).

    The expectation over large-scale randomness is replaced by the sample
    mean over the supplied lambda_ls draws; no small-scale simulation needed.
    """
    lam = np.asarray(lambda_ls_samples, dtype=float)
    if lam.size == 0:
        raise ValueError("need at least one lambda sample")
    gamma = np.asarray(gamma, dtype=float)
    out = np.mean(np.exp(-np.multiply.outer(gamma, lam)), axis=-1)
    return float(out) if out.ndim == 0 else out


def quantile_threshold(snr_samples, epsilon, min_exceedances=50.0, z=1.959964):
    """Empirical epsilon-quantile gamma_eps with a binomial confidence interval.

    Uses the lower-interpolation quantile (conservative for coverage claims).
    Requires at least min_exceedances/epsilon samples so the quantile rests on
    enough mass. Returns (gamma_eps, (gamma_lo, gamma_hi)) where the interval
    is the 95% order-statistic CI.
    """
    x = np.sort(np.asarray(snr_samples, dtype=float))
    n = x.size
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if n < min_exceedances / epsilon:
        raise SampleSizeError(
            f"{n} samples < {min_exceedances / epsilon:.0f} required for epsilon={epsilon}"
        )
    gamma = float(np.quantile(x, epsilon, method="lower"))
    k = int(np.floor(epsilon * (n - 1)))
    half = z * np.sqrt(n * epsilon * (1.0 - epsilon))
    lo = int(np.clip(np.floor(k - half), 0, n - 1))
    hi = int(np.clip(np.ceil(k + half), 0, n - 1))
    return gamma, (float(x[lo]), float(x[hi]))


def outage_result(snr_samples, epsilon, tau_p, tau_c, code):
    """Bundle quantile and rate into an :class:`OutageResult`."""
    gamma, (lo, hi) = quantile_threshold(snr_samples, epsilon)
    rate = outage_rate(gamma, tau_p, tau_c, code)
    half = 0.5 * (outage_rate(hi, tau_p, tau_c, code) - outage_rate(lo, tau_p, tau_c, code))
    return OutageResult(
        epsilon=epsilon,
        gamma_eps=gamma,
        rate_bpcu=float(rate),
        n_trials=len(np.asarray(snr_samples)),
        ci_halfwidth=float(half),
    )
