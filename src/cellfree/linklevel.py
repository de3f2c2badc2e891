"""Symbol-level simulation oracle.

Simulates actual pilot and OSTBC data transmission with per-antenna fading
and validates every closed form of :mod:`cellfree.snr` and the perfect-CSI
law of :mod:`cellfree.metrics`: the processed symbol decomposes as
shat_n = sqrt(rho_d) ||hhat||^2 s_n + eta_n + z_n and the conditional
moments of eta_n are measured by Monte Carlo. This module ships with the
library (not test-only code); the tests compare its measurements with the
closed forms as they run and hold no values frozen from it.
"""

import numpy as np
from dataclasses import dataclass

from . import channel as chan
from . import ostbc as ost
from .grouping import group_large_scale
from .metrics import coverage_perfect, lambda_perfect
from .power import DEFAULT_RHO
from .snr import conditional_snr_terms, lambda_ls, snr_ls_values


@dataclass(frozen=True)
class TrialRecord:
    """One full forward simulation with its noise decomposition."""

    h: np.ndarray
    h_hat: np.ndarray
    symbols: np.ndarray
    processed: np.ndarray  # shat_n
    eta: np.ndarray        # estimation-error noise, eta_bar + i eta_tilde
    z: np.ndarray          # additive noise, z_bar + i z_tilde


def detect_symbols(code, h_hat, y):
    """Per-symbol detection shat_n = Re(hhat^H A_n^H y) + i Im(hhat^H B_n^H y).

    y has shape (..., block_len); the result has shape (..., n_symbols).
    """
    va = np.einsum("ntg,g->nt", code.a.conj(), h_hat.conj())  # (hhat^H A_n^H) rows
    vb = np.einsum("ntg,g->nt", code.b.conj(), h_hat.conj())
    return (y @ va.T).real + 1j * (y @ vb.T).imag


def run_trial(code, assignment, beta, rho_p, rho_d, tau_p, rng):
    """Full forward simulation of one coherence interval.

    Draws per-antenna small-scale fading g_m ~ CN(0,1) and aggregates the
    effective channel h_k = sum_{m in G_k} g_m sqrt(beta_m), G_k being the
    antennas that assignment puts in group k, runs the pilot phase and LS
    estimation, transmits a random symbol block through the code, and
    detects with the estimate. The record decomposes the processed
    symbols into signal, eta (estimation error), and z (noise) parts.
    """
    beta = np.asarray(beta, dtype=float)
    per_antenna = chan.complex_normal(rng, beta.size, beta)
    h = group_large_scale(per_antenna.real, assignment, code.n_groups)
    h = h + 1j * group_large_scale(per_antenna.imag, assignment, code.n_groups)

    h_hat = chan.ls_estimate(h, chan.make_pilot_block(tau_p, code.n_groups), rho_p, rng)
    e = h_hat - h

    s = chan.complex_normal(rng, code.n_symbols, code.es)
    x_d = ost.code_matrix(code, s)
    w = chan.complex_normal(rng, code.block_len)
    y = np.sqrt(rho_d) * x_d @ h + w

    processed = detect_symbols(code, h_hat, y)
    eta = -np.sqrt(rho_d) * detect_symbols(code, h_hat, x_d @ e)
    z = detect_symbols(code, h_hat, w)
    return TrialRecord(h=h, h_hat=h_hat, symbols=s, processed=processed, eta=eta, z=z)


@dataclass(frozen=True)
class ConditionalMoments:
    """MC estimates of E[s_n* eta_n | hhat]/Es and E[|eta_n|^2 | hhat]."""

    c_n: complex
    c_n_se: float
    eta_power: float
    eta_power_se: float


def _conditional_error(h_hat, cond_gain, cond_cov, n_draws, rng):
    """n_draws errors from e | hhat ~ CN(U hhat, C_cond), shape (n_draws, n_groups).

    Drawn with complex_normal rather than draw_effective_channel: C_cond is
    zero for a perfect estimate.
    """
    return cond_gain * h_hat + chan.complex_normal(rng, (n_draws, h_hat.shape[-1]), cond_cov)


def conditional_moments(code, n, h_hat, cond_gain, cond_cov, rho_d, n_draws, rng):
    """Monte-Carlo conditional moments of eta_n given the estimate.

    Realizes the conditional law of the estimation error directly (orders
    faster than rejection on joint draws and exactly the same distribution):
    draws e | hhat ~ CN(U hhat, C_cond), then the symbols.
    """
    if n_draws < 1000:
        raise ValueError("need at least 1e3 conditional draws")
    e = _conditional_error(h_hat, cond_gain, cond_cov, n_draws, rng)
    s = chan.complex_normal(rng, (n_draws, code.n_symbols), code.es)
    xe = np.einsum("dtg,dg->dt", ost.code_matrix(code, s), e)
    eta = -np.sqrt(rho_d) * detect_symbols(code, h_hat, xe)[:, n]
    corr = np.conj(s[:, n]) * eta / code.es
    c_n = complex(corr.mean())
    c_n_se = float(
        np.sqrt((corr.real.var(ddof=1) + corr.imag.var(ddof=1)) / n_draws)
    )
    p = np.abs(eta) ** 2
    return ConditionalMoments(
        c_n=c_n,
        c_n_se=c_n_se,
        eta_power=float(p.mean()),
        eta_power_se=float(p.std(ddof=1) / np.sqrt(n_draws)),
    )


def empirical_snr_cdf(code, beta_bar, rho_p, rho_d, tau_p, n_trials, rng):
    """Sorted LS SNR samples of symbol 0 over small-scale randomness.

    Runs the actual pilot observation y_p = sqrt(rho_p) X_p h + w per trial
    and its LS estimate (not the equivalent hhat = h + CN(0, I/(rho_p tau_p))
    shortcut), then evaluates the conditional LS SNR at each estimate.
    """
    if n_trials < 1000:
        raise ValueError("need at least 1e3 trials")
    beta_bar = np.asarray(beta_bar, dtype=float)
    h = chan.draw_effective_channel(beta_bar, rng, size=n_trials)
    h_hat = chan.ls_estimate(h, chan.make_pilot_block(tau_p, beta_bar.size), rho_p, rng)
    _, u, cc = chan.conditional_error_stats(beta_bar, rho_p, tau_p)
    return np.sort(snr_ls_values(code, 0, np.abs(h_hat) ** 2, u, cc, rho_d))


def _oracle_stream(seed):
    """The Philox stream an oracle check draws from, keyed by its seed alone."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def check_corollary1(seed, n_trials=100_000):
    """KS test of simulated single-group LS SNR against Exp(lambda_ls).

    At beta_bar = 2e-10, rho_p = rho_d = DEFAULT_RHO and one pilot, the
    estimates come from the simulated pilot path; the closed-form rate is
    the single-group value at the same parameters.
    """
    from scipy import stats

    beta_bar, rho, tau_p = 2e-10, DEFAULT_RHO, 1
    rng = _oracle_stream(seed)
    code = ost.by_name("single")
    samples = empirical_snr_cdf(code, [beta_bar], rho, rho, tau_p, n_trials, rng)
    lam = lambda_ls(beta_bar, rho, tau_p, rho, code.es)
    res = stats.kstest(samples, "expon", args=(0.0, 1.0 / lam))
    return {
        "statistic": float(res.statistic),
        "pvalue": float(res.pvalue),
        "lambda_ls": lam,
        "n_trials": n_trials,
        "ok": bool(res.pvalue > 0.01),
    }


def check_hyperexp(seed, n_trials=100_000, n_gammas=20):
    """Perfect-CSI SNR draws vs the hyperexponential coverage formula.

    Three groups at beta_bar = (1e-10, 2.3e-10, 0.7e-10) and rho =
    DEFAULT_RHO. Compares empirical coverage with
    :func:`cellfree.metrics.coverage_perfect` (the phase-type form) at a
    gamma grid spanning the distribution; every point must fall within three
    binomial standard errors.
    """
    rng = _oracle_stream(seed)
    beta_bar = np.array([1e-10, 2.3e-10, 0.7e-10])
    h = chan.draw_effective_channel(beta_bar, rng, size=n_trials)
    samples = np.sort(DEFAULT_RHO * np.sum(np.abs(h) ** 2, axis=-1))  # perfect CSI: rho ||h||^2
    lam = lambda_perfect(beta_bar, 1.0)
    gammas = np.quantile(samples, np.linspace(0.02, 0.98, n_gammas))
    p = coverage_perfect(gammas, lam)
    se = np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / n_trials)
    empirical = 1.0 - np.searchsorted(samples, gammas, side="left") / n_trials
    worst = np.max(np.abs(empirical - p) / se)
    return {"max_dev_se": float(worst), "n_gammas": n_gammas, "n_trials": n_trials,
            "ok": bool(worst < 3.0)}


def check_theorem1(seed, n_configs=20, n_draws=100_000):
    """Conditional-MC moments vs the general-OSTBC closed forms.

    For Alamouti and then rate 3/4, each at its own Es, draws n_configs random
    (beta_bar, hhat, power) configurations and requires that c_n and the eta
    power both match within three standard errors in all but at most one.
    """
    rng = _oracle_stream(seed)
    out = {"ok": True, "codes": {}}
    for name in ("alamouti", "rate34"):
        code = ost.by_name(name)
        ng = code.n_groups
        n_pass = 0
        for _ in range(n_configs):
            beta_bar = rng.uniform(0.2, 3.0, ng)
            rho_p = rng.uniform(0.3, 4.0)
            rho_d = rng.uniform(0.3, 4.0)
            tau_p = ng
            c_e, u, cc = chan.conditional_error_stats(beta_bar, rho_p, tau_p)
            h_hat = chan.draw_effective_channel(beta_bar + c_e, rng)
            n = int(rng.integers(code.n_symbols))
            terms = conditional_snr_terms(code, n, h_hat, u, cc, rho_d)
            mc = conditional_moments(code, n, h_hat, u, cc, rho_d, n_draws, rng)
            ok_c = abs(mc.c_n - terms.c_n) <= 3.0 * mc.c_n_se
            ok_p = abs(mc.eta_power - terms.eta_power) <= 3.0 * mc.eta_power_se
            n_pass += ok_c and ok_p
        out["codes"][name] = {"n_pass": n_pass, "n_configs": n_configs}
        out["ok"] = out["ok"] and n_pass >= n_configs - 1
    return out


def mrc_empirical_sinr(code, n, h_hat, cond_gain, cond_cov, rho_d, n_draws, rng):
    """Empirical post-combining SINR for multiple receive branches.

    h_hat holds one estimate row per branch, shape (n_branches, n_groups),
    and cond_gain and cond_cov are the diagonals the branches share.
    Conditioned on the estimates, draws shared symbols with independent
    per-branch estimation error and noise, forms each branch's processed
    symbol, combines with conjugate-gain/noise-variance weights, and
    measures |E[shat s*]|^2 Es / (Es E[|shat|^2] - |E[shat s*]|^2).
    """
    s = chan.complex_normal(rng, (n_draws, code.n_symbols), code.es)
    x_d = ost.code_matrix(code, s)
    combined = np.zeros(n_draws, dtype=complex)
    for row in h_hat:
        e = _conditional_error(row, cond_gain, cond_cov, n_draws, rng)
        w = chan.complex_normal(rng, (n_draws, code.block_len))
        xe = np.einsum("dtg,dg->dt", x_d, e)
        eta = -np.sqrt(rho_d) * detect_symbols(code, row, xe)[:, n]
        z = detect_symbols(code, row, w)[:, n]
        hh2 = float(np.sum(np.abs(row) ** 2))
        shat = np.sqrt(rho_d) * hh2 * s[:, n] + eta + z
        # branch gain and uncorrelated-noise power from the closed form
        corr = np.conj(s[:, n]) * eta / code.es
        c_n = corr.mean()
        gain = np.sqrt(rho_d) * hh2 + c_n
        noise_var = np.mean(np.abs(shat - gain * s[:, n]) ** 2)
        combined += np.conj(gain) / noise_var * shat
    corr = np.mean(np.conj(s[:, n]) * combined) / code.es
    power = np.mean(np.abs(combined) ** 2)
    return float(abs(corr) ** 2 * code.es / (power - code.es * abs(corr) ** 2))
