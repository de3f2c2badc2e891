"""Large-scale fading: three-slope COST-Hata path loss and shadow fading."""

import numpy as np
from dataclasses import dataclass
from typing import ClassVar
# The one scipy package on the CLI's path. At n = 500 (2-vCPU Xeon VM, 1 BLAS
# thread) the whole correlated draw, built on one triangle, factored in place
# by LAPACK's dpotrf and multiplied by BLAS dtrmv, takes 3.0-3.3 ms, less than
# np.linalg.cholesky alone on the full matrix (3.2-3.7 ms). Importing
# scipy.linalg inside the correlated path instead would add its 0.3 s import
# to the run time of every correlated run.
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dpotrf

from .grouping import group_large_scale


#: Inner and outer break distances (km) of the three slopes.
D_I_KM, D_O_KM = 0.01, 0.05

#: Fixed COST-Hata loss (dB) at 1 km, suburban: 1900 MHz carrier, AP and
#: terminal heights of 15 m and 1.5 m.
REFERENCE_LOSS_DB = (
    46.3
    + 33.9 * np.log10(1900.0)
    - 13.82 * np.log10(15.0)
    - (1.1 * np.log10(1900.0) - 0.7) * 1.5
    + 1.56 * np.log10(1900.0)
    - 0.8
)

#: Squared break distances (km^2) and the linear gains 10^(-PL/10) of the two
#: sloped branches: _NEAR_GAIN / d^2 up to D_O_KM, _FAR_GAIN * d^-3.5 beyond.
_D_I2, _D_O2 = D_I_KM**2, D_O_KM**2
_NEAR_GAIN = 10.0 ** (-(REFERENCE_LOSS_DB + 15.0 * np.log10(D_O_KM)) / 10.0)
_FAR_GAIN = 10.0 ** (-REFERENCE_LOSS_DB / 10.0)

#: ln(10) / 10: a loss of v dB is the linear gain exp(-v * _LN10_DIV_10).
_LN10_DIV_10 = np.log(10.0) / 10.0


@dataclass(frozen=True)
class ShadowParams:
    """Shadow-fading model: none, uncorrelated, or spatially correlated.

    The correlated model is v = sqrt(delta)*a + sqrt(1-delta)*b with a per
    terminal and b per AP, both N(0, sigma_db^2) with normalized correlation
    2^(-d/d_u) over spatial separation d. Only the mode is a field.
    """

    mode: str = "correlated"
    sigma_db: ClassVar[float] = 8.0
    delta: ClassVar[float] = 0.5
    decorrelation_km: ClassVar[float] = 0.2

    def __post_init__(self):
        if self.mode not in ("none", "uncorrelated", "correlated"):
            raise ValueError(f"unknown shadow mode {self.mode!r}")


def path_loss_db(d):
    """Three-slope path loss in dB at distance d km (scalar or array).

    Constant for d <= D_I_KM, slope 20 dB/decade up to D_O_KM, then 35
    dB/decade (effective exponent 3.5), anchored at REFERENCE_LOSS_DB at
    1 km. d = 0 maps to the inner branch. Distances are clamped to D_I_KM
    before the one log10, so the inner branch is the middle one evaluated
    at D_I_KM.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be >= 0")
    L = REFERENCE_LOSS_DB
    ld = np.log10(np.maximum(d, D_I_KM))
    out = np.where(d <= D_O_KM, L + 15.0 * np.log10(D_O_KM) + 20.0 * ld, L + 35.0 * ld)
    return out if out.ndim else float(out)


def _covariance_triangle(positions):
    """Upper triangle of sigma^2 * 2^(-d_ij/d_u) in a C-ordered n x n buffer.

    That triangle is the lower triangle of the buffer's transpose in Fortran
    order, the one ``dpotrf(..., lower=1)`` reads; the rest of the buffer is
    left unset. Rows are built in blocks of 64 over columns s:, each block in
    contiguous scratch so its temporaries stay in cache (numpy is no faster
    over strided half rows). d_ij = sqrt(dx*dx + dy*dy) is bit-identical to
    scipy's ``cdist``.
    """
    n, rows = len(positions), 64
    x, y = positions[:, 0], positions[:, 1]
    cov = np.empty((n, n))
    dx_buf, dy_buf = np.empty((2, min(rows, n) * n))
    for s in range(0, n, rows):
        r, m = min(rows, n - s), n - s
        dx, dy = dx_buf[:r * m].reshape(r, m), dy_buf[:r * m].reshape(r, m)
        dx[:] = x[s:]
        dx -= x[s:s + r, None]
        dx *= dx
        dy[:] = y[s:]
        dy -= y[s:s + r, None]
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        dx /= -ShadowParams.decorrelation_km
        np.exp2(dx, out=dx)
        np.multiply(dx, ShadowParams.sigma_db**2, out=cov[s:s + r, s:])
    return cov


def _cholesky_lower(positions):
    """Lower Cholesky factor of sigma^2 * 2^(-d_ij/d_u) with jitter fallback.

    Fortran-ordered; only its lower triangle is set, and only that triangle
    may be read. LAPACK factors the triangle of :func:`_covariance_triangle`
    in place. If the factorization fails (e.g. coincident positions), jitter
    of 1e-10 * sigma^2 is added to the diagonal of a rebuilt covariance
    and multiplied by 100 on each of at most 3 retries.
    """
    sigma_db, jitter = ShadowParams.sigma_db, 0.0
    for attempt in range(4):
        cov = _covariance_triangle(positions)
        cov.flat[::len(cov) + 1] += jitter
        chol, info = dpotrf(cov.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return chol
        if info < 0:
            raise ValueError(f"dpotrf: illegal value in argument {-info}")
        jitter = 1e-10 * sigma_db**2 if attempt == 0 else jitter * 100.0
    raise RuntimeError(
        f"shadow covariance not factorizable for {len(positions)} APs even with jitter"
    )


def shadow_fields(layout, terminals, params, rng):
    """Shadow losses in dB of the one terminal to every AP, shape (1, n_aps).

    terminals holds one position; any other count raises ValueError. mode
    none -> zeros. mode uncorrelated -> i.i.d. N(0, sigma^2). mode correlated
    -> v_m = sqrt(delta) a + sqrt(1-delta) b_m: the terminal part a is one
    N(0, sigma^2) draw, the AP field b is L z for the lower Cholesky factor L
    of sigma^2 * 2^(-d/d_u) over the AP positions (``dtrmv`` reads only L's
    lower triangle; one AP's L is LAPACK's exact sqrt(sigma^2)).
    """
    terminals = np.atleast_2d(np.asarray(terminals, dtype=float))
    if len(terminals) != 1:
        raise ValueError(f"shadow fields are drawn for one terminal, not {len(terminals)}")
    n = layout.n_aps
    if params.mode == "none":
        return np.zeros((1, n))
    if params.mode == "uncorrelated":
        return rng.normal(0.0, params.sigma_db, size=(1, n))
    a = params.sigma_db * rng.standard_normal(1)
    b = rng.standard_normal(n)
    if n:
        b = dtrmv(_cholesky_lower(layout.positions), b, lower=1, overwrite_x=1)
    return np.sqrt(params.delta) * a[:, None] + np.sqrt(1.0 - params.delta) * b[None, :]


def path_gain(layout, terminals):
    """Linear path gain 10^(-PL(d)/10) of every AP, from squared distances.

    Shape (n_aps,) for one terminal position, (K, n_aps) for K. With
    m = max(d^2, D_I_KM^2) the gain is _NEAR_GAIN / m for d^2 <= D_O_KM^2 and
    _FAR_GAIN * exp(-1.75 ln m) beyond: :func:`path_loss_db` in linear scale
    without a square root, log10 or power of ten, within 5e-14 relative.
    """
    terminals = np.asarray(terminals, dtype=float)
    d2 = layout.positions[:, 0] - terminals[..., None, 0]
    dy = layout.positions[:, 1] - terminals[..., None, 1]
    d2 *= d2
    dy *= dy
    d2 += dy
    m = np.maximum(d2, _D_I2)
    far = np.log(m)
    far *= -1.75
    np.exp(far, out=far)
    far *= _FAR_GAIN
    return np.where(d2 <= _D_O2, np.divide(_NEAR_GAIN, m, out=m), far)


def per_antenna(beta, antennas_per_ap):
    """Per-AP values along the last axis, repeated for each antenna of the AP."""
    return beta if antennas_per_ap == 1 else np.repeat(beta, antennas_per_ap, axis=-1)


def large_scale_from_shadow(layout, gain, shadow_db, assignment, n_groups):
    """Per-group beta_bar for one terminal.

    beta_bar_k sums beta over the antennas of group k, assignment[i] being
    the group of antenna i. An AP's beta is its path gain (:func:`path_gain`)
    times 10^(-v/10) for its shadow loss v (:func:`shadow_fields`), or the
    path gain alone when shadow_db is None; all antennas of an AP share its
    beta.
    """
    beta = gain if shadow_db is None else gain * np.exp(shadow_db * -_LN10_DIV_10)
    return group_large_scale(per_antenna(beta, layout.antennas_per_ap), assignment, n_groups)
