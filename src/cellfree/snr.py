"""Closed-form SNR machinery for perfect and LS-estimated CSI.

With perfect CSI the per-symbol SNR is rho Es ||h||^2, distributed as a sum
of independent exponentials with rates 1/(rho Es beta_bar_n). With an LS
estimate the SNR conditioned on hhat is

    snr = Es |sqrt(rho_d) ||hhat||^2 + c_n|^2
          / (E[|eta_n|^2 | hhat] + ||hhat||^2 - Es |c_n|^2)

with c_n and the eta power given by the general-OSTBC closed form
(:func:`conditional_snr_terms`). The single-group special case collapses to an
exponential with rate :func:`lambda_ls`. Given a code, Es is ``code.es``.
"""

import numpy as np
from dataclasses import dataclass


class NumericalDegeneracyError(ArithmeticError):
    """Non-positive SNR denominator; must not happen for valid inputs."""


@dataclass(frozen=True)
class ConditionalSnrTerms:
    """Closed-form pieces of the LS SNR for one symbol index."""

    c_n: complex
    z_power: float
    eta_power: float
    q1: np.ndarray


def lambda_perfect(beta_bar, rho, es=1.0):
    """Exponential rates lambda_n = 1/(rho Es beta_bar_n) of the perfect-CSI SNR."""
    beta_bar = np.asarray(beta_bar, dtype=float)
    return 1.0 / (rho * es * beta_bar)


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
    return ConditionalSnrTerms(c_n=complex(c_n), z_power=z_power, eta_power=float(eta_power), q1=q1)


def snr_ls(code, n, h_hat, cond_gain, cond_cov, rho_d):
    """Per-symbol SNR under LS estimation, conditioned on the estimate.

    The literal matrix form of :func:`conditional_snr_terms`; the reference
    that :func:`snr_ls_values` is checked against.
    """
    terms = conditional_snr_terms(code, n, h_hat, cond_gain, cond_cov, rho_d)
    num = code.es * abs(np.sqrt(rho_d) * terms.z_power + terms.c_n) ** 2
    den = terms.eta_power + terms.z_power - code.es * abs(terms.c_n) ** 2
    if den <= 0:
        raise NumericalDegeneracyError(f"non-positive SNR denominator {den}")
    return float(num / den)


def snr_ls_values(code, n, h_hat, cond_gain, cond_cov, rho_d):
    """Vectorized LS SNR over batched estimates, h_hat shape (..., n_groups).

    Algebraically identical to :func:`snr_ls` but reduces the psi / psi-bar
    quadratic forms through the rank-one structure of Q1 and Q2, so nothing
    larger than (..., n_groups) is materialized. cond_gain and cond_cov are
    the shared (n_groups,) diagonals.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    u = np.asarray(cond_gain, dtype=float)
    cc = np.asarray(cond_cov, dtype=float)
    p = u * h_hat  # U hhat
    hh2 = np.sum(np.abs(h_hat) ** 2, axis=-1)

    m_ab = code.a[n].conj().T @ code.b[n]
    im_part = np.imag(np.einsum("...i,ij,...j->...", h_hat.conj(), m_ab, p))
    c_n = -np.sqrt(rho_d) * (np.einsum("...k,...k->...", u, np.abs(h_hat) ** 2) + 1j * im_part)

    # G stacks: (A_k^H C) and (B_k^H C) for C in {A_n, B_n}; shapes (Ns, Ng, Ng)
    eta = 0.0
    for sign, c_mat in ((+1.0, code.a[n]), (-1.0, code.b[n])):
        ga = np.einsum("kts,tu->ksu", code.a.conj(), c_mat)
        gb = np.einsum("kts,tu->ksu", code.b.conj(), c_mat)
        for g_stack, inner_sign in ((ga, +1.0), (gb, -1.0)):
            w = np.einsum("ksu,...u->...ks", g_stack, h_hat)
            alpha = np.einsum("...ks,...s->...k", w.conj(), p)
            psi_part = (np.abs(alpha) ** 2 + np.einsum("s,...ks->...k", cc, np.abs(w) ** 2)).sum(axis=-1)
            psibar_part = np.real(alpha**2).sum(axis=-1)
            # psi(C, Q1) always adds; psi_bar(C, Q2) adds for A_n, subtracts for B_n
            # and within psi_bar the B_k inner terms subtract
            eta = eta + psi_part + sign * inner_sign * psibar_part

    eta_power = (rho_d * code.es / 4.0) * eta
    num = code.es * np.abs(np.sqrt(rho_d) * hh2 + c_n) ** 2
    den = eta_power + hh2 - code.es * np.abs(c_n) ** 2
    if np.any(den <= 0):
        raise NumericalDegeneracyError("non-positive SNR denominator in batch")
    return num / den


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

