"""Linear orthogonal space-time block codes via dispersion matrices.

A code maps N_s complex symbols onto a tau_d x N_g matrix
X = sum_n A_n Re(s_n) + i B_n Im(s_n) and satisfies X^H X = (sum |s_n|^2) I.
"""

import numpy as np
from dataclasses import dataclass


class NotLinearError(ValueError):
    """The supplied generator is not linear in Re(s_n), Im(s_n)."""


@dataclass(frozen=True)
class OstbcCode:
    """Dispersion-matrix representation of a linear OSTBC.

    a : (n_symbols, block_len, n_groups) complex stack of the A_n matrices
    b : same shape, the B_n matrices
    """

    a: np.ndarray
    b: np.ndarray
    name: str = "ostbc"

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        if a.shape != b.shape or a.ndim != 3:
            raise ValueError("dispersion stacks must share shape (n_symbols, block_len, n_groups)")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_symbols(self):
        return self.a.shape[0]

    @property
    def block_len(self):
        return self.a.shape[1]

    @property
    def n_groups(self):
        return self.a.shape[2]

    @property
    def rate(self):
        return self.n_symbols / self.block_len


def code_matrix(code, symbols):
    """Code matrix for a symbol vector, batched over leading axes.

    symbols : (..., n_symbols) complex -> (..., block_len, n_groups) complex.
    """
    s = np.asarray(symbols, dtype=complex)
    if s.shape[-1] != code.n_symbols:
        raise ValueError(f"expected {code.n_symbols} symbols, got {s.shape[-1]}")
    return np.einsum("ntg,...n->...tg", code.a, s.real) + 1j * np.einsum(
        "ntg,...n->...tg", code.b, s.imag
    )


def dispersion_matrices(generator, n_symbols):
    """Extract (A, B) stacks from a code-matrix generator by basis probing.

    A_n is the generator at Re(s_n) = 1 (all else zero); B_n is -i times the
    generator at Im(s_n) = 1. Raises :class:`NotLinearError` when a
    superposition check on random inputs fails.
    """
    zero = generator(np.zeros(n_symbols, dtype=complex))
    a_list, b_list = [], []
    for n in range(n_symbols):
        e = np.zeros(n_symbols, dtype=complex)
        e[n] = 1.0
        a_list.append(np.asarray(generator(e), dtype=complex) - zero)
        e[n] = 1j
        b_list.append(-1j * (np.asarray(generator(e), dtype=complex) - zero))
    a, b = np.array(a_list), np.array(b_list)
    probe = OstbcCode(a, b, "probe")
    rng = np.random.default_rng(0)
    for _ in range(8):
        s = rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols)
        if np.abs(np.asarray(generator(s)) - code_matrix(probe, s)).max() > 1e-9 or np.abs(
            zero
        ).max() > 1e-12:
            raise NotLinearError("generator is not linear in the symbol components")
    return a, b


def single_group():
    """Trivial one-antenna-group repetition code (N_g = N_s = tau_d = 1)."""
    one = np.ones((1, 1, 1), dtype=complex)
    return OstbcCode(one, one.copy(), "single")


def alamouti():
    """Alamouti code: X = [[s1, s2], [-s2*, s1*]] (N_g = 2, rate 1)."""
    a = np.array([[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], dtype=complex)
    b = np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]]], dtype=complex)
    return OstbcCode(a, b, "alamouti")


def _rate34_generator(s):
    s1, s2, s3 = s
    c = np.conj
    return np.array(
        [
            [s1, s2, s3, 0],
            [-c(s2), c(s1), 0, s3],
            [-c(s3), 0, c(s1), -s2],
            [0, -c(s3), c(s2), s1],
        ],
        dtype=complex,
    )


def rate_three_quarter():
    """Standard four-antenna orthogonal code with rate 3/4 (N_g = 4)."""
    a, b = dispersion_matrices(_rate34_generator, 3)
    return OstbcCode(a, b, "rate34")


# Built once: codes are frozen with read-only arrays, so callers share them.
_BY_NAME = {code.name: code for code in (single_group(), alamouti(), rate_three_quarter())}


def by_name(name):
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown code {name!r}; choose from {sorted(_BY_NAME)}") from None


def draw_symbols(rng, shape, energy=1.0):
    """Circularly-symmetric complex Gaussian symbols with E[|s|^2] = energy."""
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    return np.sqrt(energy / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


def orthogonality_defect(code, symbols):
    """max |X^H X - (sum |s_n|^2) I| for one or many symbol vectors."""
    x = code_matrix(code, symbols)
    gram = np.einsum("...tg,...th->...gh", x.conj(), x)
    target = np.sum(np.abs(np.asarray(symbols)) ** 2, axis=-1)
    eye = np.eye(code.n_groups)
    defect = gram - target[..., None, None] * eye
    return float(np.abs(defect).max())


def expected_projection_identity_check(code, rng, n_draws=100_000, energy=1.0, tol_se=5.0):
    """Monte-Carlo check of E[X Re(s_n)] = (E_s/2) A_n and E[X Im(s_n)] = i (E_s/2) B_n.

    Returns True when every entry of both estimates is within tol_se standard
    errors of its target, for every symbol index.
    """
    s = draw_symbols(rng, (n_draws, code.n_symbols), energy)
    x = code_matrix(code, s)
    # entrywise SE of mean(X * component); X entries are O(sqrt(Es)) combos
    for n in range(code.n_symbols):
        for comp, target in (
            (s[:, n].real, energy / 2.0 * code.a[n]),
            (s[:, n].imag, 1j * energy / 2.0 * code.b[n]),
        ):
            prod = x * comp[:, None, None]
            est = prod.mean(axis=0)
            se = prod.std(axis=0) / np.sqrt(n_draws)
            if np.any(np.abs(est - target) > tol_se * np.maximum(se, 1e-15)):
                return False
    return True
