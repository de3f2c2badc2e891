"""Closed-form SNR machinery for LS-estimated CSI.

The perfect-CSI rates 1/(rho Es beta_bar_n) are
:func:`cellfree.metrics.lambda_perfect`, next to the coverage they feed.
With an LS estimate the SNR conditioned on hhat is

    snr = Es |sqrt(rho_d) ||hhat||^2 + c_n|^2
          / (E[|eta_n|^2 | hhat] + ||hhat||^2 - Es |c_n|^2)

with c_n and the eta power given by the general-OSTBC closed form
(:func:`conditional_snr_terms`, the literal reference). For the shipped
codes it does not depend on the phases of hhat: :func:`snr_ls_values`
evaluates it as a ratio of quadratic forms in x = |hhat|^2, with tables
built once per code. The single-group special case collapses to an
exponential with rate :func:`lambda_ls`. Given a code, Es is ``code.es``.
"""

import numpy as np
from dataclasses import dataclass


@dataclass(frozen=True)
class ConditionalSnrTerms:
    """Closed-form pieces of the LS SNR for one symbol index."""

    c_n: complex
    z_power: float
    eta_power: float


def conditional_snr_terms(code, n, h_hat, cond_gain, cond_cov, rho_d):
    """General-OSTBC conditional moments for symbol n, literal matrix form.

    c_n = -sqrt(rho_d) (hhat^H U hhat + i Im(hhat^H A_n^H B_n U hhat)),
    E[|z_n|^2|hhat] = ||hhat||^2, and E[|eta_n|^2|hhat] assembles the psi and
    psi-bar quadratic forms over all dispersion pairs with
    Q1 = U hhat hhat^H U^H + C_cond and Q2 = U hhat hhat^T U^T. h_hat is one
    estimate, shape (n_groups,); cond_gain and cond_cov are the diagonals of
    U and C_cond (:func:`cellfree.channel.conditional_error_stats`).
    """
    if not 0 <= n < code.n_symbols:
        raise ValueError(f"symbol index {n} out of range for {code.n_symbols} symbols")
    h_hat = np.asarray(h_hat, dtype=complex)
    if h_hat.shape != (code.n_groups,):
        raise ValueError(
            f"estimate has {h_hat.shape[-1]} groups but the code needs {code.n_groups}"
        )
    u = np.asarray(cond_gain, dtype=float)
    uh = u * h_hat
    a_n, b_n = code.a[n], code.b[n]

    c_n = -np.sqrt(rho_d) * (
        np.vdot(h_hat, uh).real + 1j * np.imag(h_hat.conj() @ (a_n.conj().T @ b_n) @ uh)
    )
    z_power = float(np.vdot(h_hat, h_hat).real)
    q1 = np.outer(uh, uh.conj()) + np.diag(cond_cov)
    q2 = np.outer(uh, uh)

    def psi(c, q):
        s = sum(
            code.a[k] @ q @ code.a[k].conj().T + code.b[k] @ q @ code.b[k].conj().T
            for k in range(code.n_symbols)
        )
        return float((h_hat.conj() @ c.conj().T @ s @ c @ h_hat).real)

    def psi_bar(c, q):
        s = sum(
            code.a[k] @ q @ code.a[k].T - code.b[k] @ q @ code.b[k].T
            for k in range(code.n_symbols)
        )
        return float((h_hat.conj() @ c.conj().T @ s @ c.conj() @ h_hat.conj()).real)

    eta_power = (rho_d * code.es / 4.0) * (
        psi(a_n, q1) + psi_bar(a_n, q2) + psi(b_n, q1) - psi_bar(b_n, q2)
    )
    return ConditionalSnrTerms(c_n=complex(c_n), z_power=z_power, eta_power=float(eta_power))


def snr_ls(code, n, h_hat, cond_gain, cond_cov, rho_d):
    """Per-symbol SNR under LS estimation, conditioned on the estimate.

    The literal matrix form of :func:`conditional_snr_terms`; the reference
    that :func:`snr_ls_values` is checked against.
    """
    terms = conditional_snr_terms(code, n, h_hat, cond_gain, cond_cov, rho_d)
    num = code.es * abs(np.sqrt(rho_d) * terms.z_power + terms.c_n) ** 2
    den = terms.eta_power + terms.z_power - code.es * abs(terms.c_n) ** 2
    if den <= 0:
        raise ArithmeticError(f"non-positive SNR denominator {den}")
    return float(num / den)


def _eta_form(code, n, cond_gain, cond_cov, rho_d):
    """(E, f) with E[|eta_n|^2 | hhat] = x^T E x + f.x at x = |hhat|^2: with the
    code's tables P and R, E = (rho_d Es / 4) sym(P o u u^T + R o 1 (u^2)^T)
    and f = (rho_d Es / 4) R cc, for u = cond_gain and cc = cond_cov."""
    p, r = code.ls_snr_tables
    u = np.asarray(cond_gain, dtype=float)
    scale = rho_d * code.es / 4.0
    e = p[n] * np.outer(u, u) + r[n] * u**2
    return (0.5 * scale) * (e + e.T), scale * (r[n] @ np.asarray(cond_cov, dtype=float))


def snr_ls_values(code, n, x, cond_gain, cond_cov, rho_d):
    """LS SNR of symbol n at batched squared estimate moduli x = |hhat|^2,
    shape (..., n_groups), one per row: with u = cond_gain and w = 1 - u,

        snr = Es rho_d (w.x)^2 / (x^T E x + (1 + f).x - Es rho_d (u.x)^2),

    since c_n = -sqrt(rho_d) u.x and the eta power is x^T E x + f.x
    (:func:`_eta_form`). Equals :func:`snr_ls` at any hhat with moduli sqrt(x).
    """
    if not 0 <= n < code.n_symbols:
        raise ValueError(f"symbol index {n} out of range for {code.n_symbols} symbols")
    if np.iscomplexobj(x):
        raise TypeError("snr_ls_values takes the squared moduli |hhat|^2, not hhat")
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (code.n_groups,):
        raise ValueError(f"estimate shape {x.shape} does not end in {code.n_groups} groups")
    u = np.asarray(cond_gain, dtype=float)
    e, f = _eta_form(code, n, u, cond_cov, rho_d)
    k = code.es * rho_d
    ux = x @ u
    den = np.sum((x @ e) * x, axis=-1) + x @ (1.0 + f) - k * ux**2
    if np.any(den <= 0):
        raise ArithmeticError("non-positive SNR denominator in batch")
    return k * (x @ (1.0 - u)) ** 2 / den


def lambda_ls(beta_bar_total, rho_p, tau_p, rho_d, es=1.0):
    """Exponential rate of the LS SNR in the single-group case.

    lambda = (1 + beta_bar (rho_p tau_p + rho_d Es)) / (rho_d Es rho_p tau_p beta_bar^2).
    beta_bar_total may be an array of large-scale draws.
    """
    b = np.asarray(beta_bar_total, dtype=float)
    if np.any(b <= 0) or min(rho_p, tau_p, rho_d, es) <= 0:
        raise ValueError("all arguments must be positive")
    out = (1.0 + b * (rho_p * tau_p + rho_d * es)) / (rho_d * es * rho_p * tau_p * b**2)
    return float(out) if out.ndim == 0 else out

