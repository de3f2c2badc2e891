"""Effective channels, downlink pilots, and LS estimation.

The effective channel h is CN(0, C_h) with C_h = diag(beta_bar). The LS
estimate from the pilot block is hhat = h + e with e ~ CN(0, I/(rho_p tau_p));
conditioning on hhat gives e | hhat ~ CN(U_cond hhat, C_cond). All covariance
algebra stays on the diagonals since C_h and C_e are diagonal by construction.
"""

import numpy as np


def complex_normal(rng, shape, var=1.0):
    """CN(0, var) draws: sqrt(var/2) (x + iy), every real part x drawn before
    any imaginary part y. var broadcasts against shape and may be zero."""
    return np.sqrt(var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def draw_effective_channel(beta_bar, rng, size=None):
    """Draw h with independent CN(0, beta_bar_k) components.

    Returns h of shape beta_bar.shape; size, when given, prepends batch axes:
    h then has shape (*size, n_groups).
    """
    beta_bar = np.asarray(beta_bar, dtype=float)
    if np.any(beta_bar <= 0):
        raise ValueError("beta_bar entries must be positive")
    shape = beta_bar.shape if size is None else (*np.atleast_1d(size), *beta_bar.shape)
    return complex_normal(rng, shape, beta_bar)


def make_pilot_block(tau_p, n_groups):
    """Pilot matrix X_p: the first n_groups columns of the tau_p-point DFT.

    All entries have unit modulus (constant per-AP pilot power) and the
    columns are exactly orthogonal with squared norm tau_p.
    """
    if tau_p < n_groups:
        raise ValueError(f"tau_p = {tau_p} cannot carry {n_groups} orthogonal pilot sequences")
    t = np.arange(tau_p)[:, None]
    k = np.arange(n_groups)[None, :]
    return np.exp(-2j * np.pi * t * k / tau_p)


def conditional_error_stats(beta_bar, rho_p, tau_p):
    """(c_e, cond_gain, cond_cov) for given pilot energy.

    c_e is the scalar diagonal of C_e = I/(rho_p tau_p); cond_gain is the
    diagonal of U_cond = C_e (C_e + C_h)^-1, entries in (0, 1), and cond_cov
    that of C_cond = (C_e^-1 + C_h^-1)^-1. With hhat they are the LS estimate
    that the SNR laws and the oracle read: (h_hat, cond_gain, cond_cov).
    """
    if rho_p <= 0 or tau_p <= 0:
        raise ValueError("pilot power and length must be positive")
    beta_bar = np.asarray(beta_bar, dtype=float)
    c_e = 1.0 / (rho_p * tau_p)
    cond_gain = c_e / (c_e + beta_bar)
    cond_cov = 1.0 / (1.0 / c_e + 1.0 / beta_bar)
    return c_e, cond_gain, cond_cov


def ls_estimate_from_obs(y_p, x_p, rho_p):
    """LS estimate from a pilot observation y_p = sqrt(rho_p) X_p h + w.

    hhat = (sqrt(rho_p) X_p^H X_p)^-1 X_p^H y_p = h + X_p^H w / (sqrt(rho_p) tau_p).
    y_p has shape (..., tau_p) and hhat (..., n_groups).
    """
    if rho_p <= 0:
        raise ValueError("pilot power must be > 0")
    return (y_p @ x_p.conj()) / (np.sqrt(rho_p) * x_p.shape[0])


def ls_estimate(h, x_p, rho_p, rng):
    """Simulate the pilot phase for channel h, shape (..., n_groups), and
    return the LS estimate hhat; each leading index gets its own noise block."""
    if rho_p <= 0:
        raise ValueError("pilot power must be > 0")
    w = complex_normal(rng, (*h.shape[:-1], x_p.shape[0]))
    return ls_estimate_from_obs(np.sqrt(rho_p) * h @ x_p.T + w, x_p, rho_p)
