"""Large-scale fading: three-slope COST-Hata path loss and shadow fading."""

import numpy as np
from dataclasses import dataclass
# The one scipy import on the CLI's path. At n = 500 (2-vCPU Xeon VM, 1 BLAS
# thread) np.linalg.cholesky takes about 3.5 ms against 1.7 ms for scipy's
# in-place factor, and importing scipy.linalg inside the correlated path
# instead would add its 0.3 s import to the run time of every correlated run.
from scipy.linalg import LinAlgError, cholesky

from .grouping import group_large_scale


@dataclass(frozen=True)
class PathLossParams:
    """Three-slope COST-Hata parameters (suburban defaults).

    f_c_mhz : carrier frequency in MHz
    h_ap_m, h_t_m : AP and terminal heights in m
    d_r_km : reference distance for the fixed loss term
    d_i_km, d_o_km : inner/outer break distances of the three slopes
    """

    f_c_mhz: float = 1900.0
    h_ap_m: float = 15.0
    h_t_m: float = 1.5
    d_r_km: float = 1.0
    d_i_km: float = 0.01
    d_o_km: float = 0.05

    def __post_init__(self):
        if not (0 < self.d_i_km < self.d_o_km):
            raise ValueError("require 0 < d_i < d_o")
        if min(self.f_c_mhz, self.h_ap_m, self.h_t_m, self.d_r_km) <= 0:
            raise ValueError("frequency, heights and reference distance must be positive")

    @property
    def reference_loss_db(self):
        """Fixed loss L (dB) at the reference distance."""
        lf = np.log10(self.f_c_mhz)
        return (
            46.3
            + 33.9 * lf
            - 13.82 * np.log10(self.h_ap_m)
            - (1.1 * lf - 0.7) * self.h_t_m
            + 1.56 * lf
            - 0.8
        )


@dataclass(frozen=True)
class ShadowParams:
    """Shadow-fading model: none, uncorrelated, or spatially correlated.

    The correlated model is v = sqrt(delta)*a + sqrt(1-delta)*b with a per
    terminal and b per AP, both N(0, sigma_db^2) with normalized correlation
    2^(-d/d_u) over spatial separation d.
    """

    mode: str = "correlated"
    sigma_db: float = 8.0
    delta: float = 0.5
    decorrelation_km: float = 0.2

    def __post_init__(self):
        if self.mode not in ("none", "uncorrelated", "correlated"):
            raise ValueError(f"unknown shadow mode {self.mode!r}")
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be >= 0")
        if not 0 <= self.delta <= 1:
            raise ValueError("delta must lie in [0, 1]")
        if self.mode == "correlated" and not self.decorrelation_km > 0:
            raise ValueError("decorrelation_km must be > 0 for correlated shadowing")


@dataclass(frozen=True)
class LargeScale:
    """Per-antenna linear coefficients beta and their per-group sums."""

    beta: np.ndarray      # (n_antennas,)
    beta_bar: np.ndarray  # (n_groups,)

    def __post_init__(self):
        if np.any(self.beta <= 0):
            raise ValueError("all beta coefficients must be positive")


class CovarianceFactorizationError(RuntimeError):
    """Cholesky of the shadow covariance failed even after jitter."""


def path_loss_db(d, params=PathLossParams()):
    """Three-slope path loss in dB at distance d km (scalar or array).

    Constant for d <= d_i, slope 20 dB/decade up to d_o, then 35 dB/decade
    (effective exponent 3.5). d = 0 maps to the inner branch. Distances are
    clamped to d_i before the one log10, so the inner branch is the middle
    one evaluated at d_i.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be >= 0")
    L = params.reference_loss_db
    t1 = 15.0 * np.log10(params.d_o_km / params.d_r_km)
    ld = np.log10(np.maximum(d, params.d_i_km) / params.d_r_km)
    out = np.where(d <= params.d_o_km, L + t1 + 20.0 * ld, L + 35.0 * ld)
    return out if out.ndim else float(out)


def _covariance(positions, sigma_db, d_u):
    """sigma^2 * 2^(-d_ij/d_u) over all position pairs.

    Built in blocks of 64 rows, so that each block's temporaries stay in
    cache. d_ij = sqrt(dx*dx + dy*dy) is bit-identical to scipy's ``cdist``.
    """
    n, rows = len(positions), 64
    x, y = positions[:, 0], positions[:, 1]
    cov, dy = np.empty((n, n)), np.empty((min(rows, n), n))
    for start in range(0, n, rows):
        block, dy_block = cov[start:start + rows], dy[:min(rows, n - start)]
        block[:] = x
        block -= x[start:start + rows, None]
        block *= block
        dy_block[:] = y
        dy_block -= y[start:start + rows, None]
        dy_block *= dy_block
        block += dy_block
        np.sqrt(block, out=block)
        block /= -d_u
        np.exp2(block, out=block)
        block *= sigma_db**2
    return cov


def _correlation_chol(positions, sigma_db, d_u, jitter_rel=1e-10):
    """Lower Cholesky factor of sigma^2 * 2^(-d_ij/d_u) with jitter fallback.

    The covariance is factored in place: its transpose is the same symmetric
    matrix in Fortran order, so LAPACK overwrites the buffer without a copy.
    If the factorization fails (e.g. coincident positions), jitter of
    jitter_rel * sigma^2 is added to the diagonal of a rebuilt covariance and
    multiplied by 100 on each of at most 3 retries. The returned factor is
    Fortran-ordered with its strict upper triangle zeroed.
    """
    jitter = 0.0
    for attempt in range(4):
        cov = _covariance(positions, sigma_db, d_u)
        cov.flat[::len(cov) + 1] += jitter
        try:
            return cholesky(cov.T, lower=True, overwrite_a=True, check_finite=False)
        except LinAlgError:
            jitter = jitter_rel * sigma_db**2 if attempt == 0 else jitter * 100.0
    raise CovarianceFactorizationError(
        f"shadow covariance not factorizable for {len(positions)} APs even with jitter"
    )


def shadow_fields(layout, terminals, params, rng):
    """Shadow losses in dB for every (terminal, AP) pair, shape (K, n_aps).

    mode none -> zeros. mode uncorrelated -> i.i.d. N(0, sigma^2). mode
    correlated -> v_km = sqrt(delta) a_k + sqrt(1-delta) b_m where the a and b
    fields are jointly Gaussian over terminal and AP positions respectively,
    each with covariance sigma^2 * 2^(-d/d_u).
    """
    terminals = np.atleast_2d(np.asarray(terminals, dtype=float))
    k, n = len(terminals), layout.n_aps
    if params.mode == "none" or params.sigma_db == 0:
        return np.zeros((k, n))
    if params.mode == "uncorrelated":
        return rng.normal(0.0, params.sigma_db, size=(k, n))
    chol_a = _correlation_chol(terminals, params.sigma_db, params.decorrelation_km)
    chol_b = _correlation_chol(layout.positions, params.sigma_db, params.decorrelation_km)
    a = chol_a @ rng.standard_normal(k)
    b = chol_b @ rng.standard_normal(n)
    return np.sqrt(params.delta) * a[:, None] + np.sqrt(1.0 - params.delta) * b[None, :]


def large_scale_from_shadow(layout, terminal, pl_params, shadow_db, grouping):
    """Per-antenna beta and per-group beta_bar for one terminal.

    beta_m = 10^(-(PL(d_m) + v_m)/10) in linear scale, with v the shadow
    losses of :func:`shadow_fields`; all antennas of an AP share the AP's
    beta. beta_bar_k sums beta over the antennas of group k.
    """
    beta = antenna_beta(layout, terminal, pl_params, shadow_db)
    return LargeScale(beta=beta, beta_bar=group_large_scale(beta, grouping))


def antenna_beta(layout, terminals, pl_params, shadow_db=0.0):
    """Linear beta = 10^(-(PL(d) + v)/10) per antenna.

    Shape (n_antennas,) for one terminal position, (K, n_antennas) for K.
    shadow_db is the shadow loss v per AP; all antennas of an AP share its beta.
    """
    terminals = np.asarray(terminals, dtype=float)
    dx = layout.positions[:, 0] - terminals[..., None, 0]
    dy = layout.positions[:, 1] - terminals[..., None, 1]
    d = np.sqrt(dx * dx + dy * dy)
    beta_ap = 10.0 ** (-(path_loss_db(d, pl_params) + shadow_db) / 10.0)
    return np.repeat(beta_ap, layout.antennas_per_ap, axis=-1)
