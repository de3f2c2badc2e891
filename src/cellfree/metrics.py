"""Outage rate, coverage probability, and empirical SNR quantiles."""

import numpy as np

from .power import DEFAULT_RHO, TAU_C


class SampleSizeError(ValueError):
    """Too few samples for a reliable epsilon-quantile."""


def outage_rate(gamma_eps, tau_p, code):
    """Outage rate in bpcu; perfect-CSI runs use tau_p = 0. gamma_eps may be an array."""
    if not 0 <= tau_p < TAU_C:
        raise ValueError("require 0 <= tau_p < tau_c")
    if np.any(np.asarray(gamma_eps) < 0):
        raise ValueError("gamma_eps must be >= 0")
    return (1.0 - tau_p / TAU_C) * code.rate * np.log2(1.0 + gamma_eps)


def as_rates(lambdas):
    """lambdas as a float array of shape (..., n), n >= 1, all finite and positive."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] == 0:
        raise ValueError(f"need at least one rate, got shape {lam.shape}")
    bad = ~(np.isfinite(lam) & (lam > 0))
    if bad.any():
        raise ValueError(f"rates must be finite and positive, got {lam[bad].flat[0]}")
    return lam


def lambda_perfect(beta_bar, es):
    """Exponential rates 1/(rho Es beta_bar_n) of the perfect-CSI SNR, at rho = DEFAULT_RHO."""
    return 1.0 / (DEFAULT_RHO * es * np.asarray(beta_bar, dtype=float))


def coverage_perfect(gamma, lambdas):
    """P(snr >= gamma) for a sum of independent exponentials with rates lambdas.

    Phase-type form (Neuts 1981): the sum is the absorption time of a chain
    that passes through one phase per rate, so the coverage is the sum of the
    first row of expm(gamma T), with T bidiagonal (-lambda on the diagonal,
    lambda[:-1] on the superdiagonal). Exact for equal or nearly equal rates,
    where partial fractions cancel catastrophically.

    lambdas may be one rate set of shape (n,) or a stack of shape (..., n);
    gamma broadcasts against lambdas.shape[:-1], and the result has the
    broadcast shape (a float when that shape is empty). The whole stack is
    evaluated at once by :func:`coverage_and_density`.
    """
    lam = as_rates(lambdas)
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(gamma) & (gamma >= 0)):
        raise ValueError("gamma must be finite and >= 0")
    shape = np.broadcast_shapes(gamma.shape, lam.shape[:-1])
    n = lam.shape[-1]
    gamma = np.broadcast_to(gamma, shape).reshape(-1)
    out, _ = coverage_and_density(gamma, np.broadcast_to(lam, shape + (n,)).reshape(-1, n))
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def coverage_and_density(gamma, lam):
    """Coverage P(snr >= gamma[k]) and density of snr at gamma[k], rate sets lam[k].

    gamma has shape (m,) and lam shape (m, n); both are taken as valid (see
    :func:`coverage_perfect`, which checks them). Both values come from one
    first row of expm(gamma T): its sum is the coverage, and since the chain
    is absorbed only from its last phase, at rate lam[-1], the density is
    row[-1] * lam[-1] (Neuts 1981). Each row is computed on its own, so a
    row's values do not depend on the other rows of the stack.
    """
    row = _expm_first_row(gamma[:, None] * lam)
    return row.sum(axis=1), row[:, -1] * lam[:, -1]


_TAYLOR_DEGREE = 12
_TAYLOR_THETA = 0.25  # 0.25**13 / 13! < 2**-53: degree 12 is exact to rounding


def _expm_first_row(x):
    """First rows of expm(A) for the stack A[k] = diag(-x[k]) + diag(x[k, :-1], 1).

    Scaling and squaring (Higham 2005) with a scaling exponent per matrix: A[k]
    is divided by the least power of two 2**s[k] that brings its 1-norm (at
    most 2 max x[k]) under _TAYLOR_THETA, the Taylor polynomial is evaluated,
    and each matrix is squared s[k] times. After every squaring the diagonal
    and superdiagonal are set to their exact values (Al-Mohy and Higham 2009,
    code fragment 2.1), so rounding errors do not grow over many squarings.
    With n <= 2 those two bands are the whole first row, so they are written
    directly and the Taylor and squaring steps are skipped. x has shape
    (m, n); the result too.
    """
    m, n = x.shape
    if n <= 2:
        e = np.zeros((m, n, n))
        _set_exact_bands(e, x)
        return e[:, 0, :]
    _, s = np.frexp(2.0 * x.max(axis=1) / _TAYLOR_THETA)
    s = np.maximum(s, 0)
    a = np.zeros((m, n, n))
    diag, upper = np.arange(n), np.arange(n - 1)
    scaled = np.ldexp(x, -s[:, None])
    a[:, diag, diag] = -scaled
    a[:, upper, upper + 1] = scaled[:, :-1]
    eye = np.eye(n)
    e = eye + a / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        e = eye + (a @ e) / k
    _set_exact_bands(e, scaled)
    for i in range(int(s.max(initial=0)) - 1, -1, -1):
        rows = np.flatnonzero(s > i)
        sq = e[rows] @ e[rows]
        _set_exact_bands(sq, np.ldexp(x[rows], -i))
        e[rows] = sq
    return e[:, 0, :]


def _set_exact_bands(e, x):
    """Write the exact diagonal and superdiagonal of expm(A), A as in _expm_first_row.

    Entry (j, j+1) is x_j (exp(-x_{j+1}) - exp(-x_j)) / (x_j - x_{j+1}), written
    as x_j exp(-min(x_j, x_{j+1})) (1 - exp(-d)) / d with d = |x_j - x_{j+1}|,
    which neither cancels for close rates nor overflows for distant ones.
    """
    n = x.shape[1]
    diag, upper = np.arange(n), np.arange(n - 1)
    e[:, diag, diag] = np.exp(-x)
    here, after = x[:, :-1], x[:, 1:]
    d = np.abs(here - after)
    ratio = np.where(d > 0, -np.expm1(-d) / np.where(d > 0, d, 1.0), 1.0)
    e[:, upper, upper + 1] = here * np.exp(-np.minimum(here, after)) * ratio


def quantile_threshold(snr_samples, epsilon):
    """Empirical epsilon-quantile gamma_eps with a binomial confidence interval.

    Uses the lower-interpolation quantile (conservative for coverage claims).
    Requires at least 50/epsilon samples, so that about 50 fall below the
    quantile. Returns (gamma_eps, (gamma_lo, gamma_hi)) where the interval
    is the 95% order-statistic CI.
    """
    x = np.sort(np.asarray(snr_samples, dtype=float))
    n = x.size
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if n < 50.0 / epsilon:
        raise SampleSizeError(
            f"{n} samples < {50.0 / epsilon:.0f} required for epsilon={epsilon}"
        )
    k = int(np.floor(epsilon * (n - 1)))  # numpy's "lower" quantile index
    half = 1.959964 * np.sqrt(n * epsilon * (1.0 - epsilon))  # 97.5% normal quantile
    lo = int(np.clip(np.floor(k - half), 0, n - 1))
    hi = int(np.clip(np.ceil(k + half), 0, n - 1))
    return float(x[k]), (float(x[lo]), float(x[hi]))


def outage_result(snr_samples, epsilon, tau_p, code):
    """Outage summary at a target outage probability epsilon, as summary-row fields.

    gamma_eps is the empirical epsilon-quantile of the SNR samples and
    rate_bpcu = (1 - tau_p/TAU_C) (N_s/tau_d) log2(1 + gamma_eps). The
    confidence half-width ci_halfwidth is reported in rate units (95%
    order-statistic CI on the quantile, mapped through the rate formula).
    """
    gamma, (lo, hi) = quantile_threshold(snr_samples, epsilon)
    rate = outage_rate(gamma, tau_p, code)
    half = 0.5 * (outage_rate(hi, tau_p, code) - outage_rate(lo, tau_p, code))
    return dict(gamma_eps=gamma, rate_bpcu=float(rate), ci_halfwidth=float(half))
