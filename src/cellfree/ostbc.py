"""Linear orthogonal space-time block codes via dispersion matrices.

A code maps N_s complex symbols onto a tau_d x N_g matrix
X = sum_n A_n Re(s_n) + i B_n Im(s_n) and satisfies X^H X = (sum |s_n|^2) I.
"""

import numpy as np
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class OstbcCode:
    """Dispersion-matrix representation of a linear OSTBC.

    a : (n_symbols, block_len, n_groups) complex stack of the A_n matrices
    b : same shape, the B_n matrices
    """

    a: np.ndarray
    b: np.ndarray
    name: str

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

    @property
    def es(self):
        """Per-symbol energy Es = 1/rate, which spends the data budget exactly:
        the budget assumes rho_d per data channel use, but a code matrix carries
        N_s symbols over tau_d uses per antenna (the rate-3/4 matrix has a
        silent slot per antenna), so the mean per-use energy is Es * rate."""
        return 1.0 / self.rate

    @cached_property
    def ls_snr_tables(self):
        """Real tables (P, R), each (n_symbols, n_groups, n_groups), of the LS
        eta power as a quadratic form in |hhat|^2 (:func:`cellfree.snr._eta_form`).

        For symbol n, G = D_k^H C over C in {A_n (+), B_n (-)}, D in {A_k (+),
        B_k (-)} and all k, with g = diag G and s the product of the two signs:
        P = sum Re(conj(g) g^T) - diag|g|^2 + s Re(g g^T + G o G^T - diag g^2)
        and R = sum |G^T|^2. Built on first use and kept with the frozen code.
        """
        disp = np.stack([self.a, self.b])
        g = np.einsum("dkts,cntu->ncdksu", disp.conj(), disp)
        d = np.einsum("...ii->...i", g)[..., None, :]
        dt, eye, sign = np.swapaxes(d, -1, -2), np.eye(self.n_groups), np.array([1.0, -1.0])
        psi = np.real(dt.conj() * d) - eye * np.abs(d) ** 2
        psi_bar = np.real(dt * d + g * np.swapaxes(g, -1, -2) - eye * d**2)
        p = psi.sum(axis=(1, 2, 3)) + np.einsum("c,d,ncdkij->nij", sign, sign, psi_bar)
        r = (np.abs(np.swapaxes(g, -1, -2)) ** 2).sum(axis=(1, 2, 3))
        p.setflags(write=False)
        r.setflags(write=False)
        return p, r


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


def single_group():
    """Trivial one-antenna-group repetition code (N_g = N_s = tau_d = 1)."""
    one = np.ones((1, 1, 1), dtype=complex)
    return OstbcCode(one, one.copy(), "single")


def alamouti():
    """Alamouti code: X = [[s1, s2], [-s2*, s1*]] (N_g = 2, rate 1)."""
    a = np.array([[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], dtype=complex)
    b = np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]]], dtype=complex)
    return OstbcCode(a, b, "alamouti")


def rate_three_quarter():
    """Rate-3/4 orthogonal design for N_g = 4 (Tarokh, Jafarkhani & Calderbank 1999):
    X = [[s1, s2, s3, 0], [-s2*, s1*, 0, s3], [-s3*, 0, s1*, -s2], [0, -s3*, s2*, s1]].
    """
    a = np.array([np.eye(4),
                  [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                  [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]], dtype=complex)
    b = np.array([np.diag([1, -1, -1, 1]),
                  [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]],
                  [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]], dtype=complex)
    return OstbcCode(a, b, "rate34")


# Built once: codes are frozen with read-only arrays, so callers share them.
_BY_NAME = {code.name: code for code in (single_group(), alamouti(), rate_three_quarter())}


def by_name(name):
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown code {name!r}; choose from {sorted(_BY_NAME)}") from None


def orthogonality_defect(code, symbols):
    """max |X^H X - (sum |s_n|^2) I| for one or many symbol vectors."""
    x = code_matrix(code, symbols)
    gram = np.einsum("...tg,...th->...gh", x.conj(), x)
    target = np.sum(np.abs(np.asarray(symbols)) ** 2, axis=-1)
    eye = np.eye(code.n_groups)
    defect = gram - target[..., None, None] * eye
    return float(np.abs(defect).max())
