import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree import ostbc
from cellfree.channel import complex_normal
from cellfree.ostbc import (
    alamouti,
    by_name,
    code_matrix,
    orthogonality_defect,
    rate_three_quarter,
    single_group,
)


def _textbook_alamouti(s):
    return np.array([[s[0], s[1]], [-np.conj(s[1]), np.conj(s[0])]])


def _textbook_rate34(s):
    s1, s2, s3 = s
    c = np.conj
    return np.array([[s1, s2, s3, 0], [-c(s2), c(s1), 0, s3],
                     [-c(s3), 0, c(s1), -s2], [0, -c(s3), c(s2), s1]])


TEXTBOOK = {"alamouti": _textbook_alamouti, "rate34": _textbook_rate34}


def _expected_projection_identity_check(code, rng, n_draws=100_000, energy=1.0, tol_se=5.0):
    """Monte-Carlo check of E[X Re(s_n)] = (E_s/2) A_n and E[X Im(s_n)] = i (E_s/2) B_n.

    Returns True when every entry of both estimates is within tol_se standard
    errors of its target, for every symbol index.
    """
    s = complex_normal(rng, (n_draws, code.n_symbols), energy)
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


def test_alamouti_direct_expansion():
    x = code_matrix(alamouti(), np.array([1.0, 1.0j]))
    assert np.allclose(x, [[1.0, 1.0j], [1.0j, 1.0]])
    assert np.allclose(x.conj().T @ x, 2.0 * np.eye(2))


def test_alamouti_dispersion_matrices():
    code = alamouti()
    assert np.array_equal(code.a[0], np.eye(2))
    assert np.array_equal(code.a[1], [[0, 1], [-1, 0]])
    assert np.array_equal(code.b[0], [[1, 0], [0, -1]])
    assert np.array_equal(code.b[1], [[0, 1], [1, 0]])
    assert (code.n_symbols, code.block_len, code.n_groups) == (2, 2, 2)


def test_single_group_code_is_identity_map():
    code = single_group()
    assert np.array_equal(code.a[0], [[1.0]])
    assert np.array_equal(code.b[0], [[1.0]])
    s = np.array([0.3 - 0.7j])
    assert code_matrix(code, s)[0, 0] == s[0]


def test_rate34_dimensions_and_orthogonality():
    code = rate_three_quarter()
    assert (code.n_groups, code.n_symbols, code.block_len) == (4, 3, 4)
    rng = np.random.default_rng(0)
    s = complex_normal(rng, (100, 3))
    assert orthogonality_defect(code, s) < 1e-10


@pytest.mark.parametrize("name,rate", [("single", 1.0), ("alamouti", 1.0), ("rate34", 0.75)])
def test_code_rates(name, rate):
    assert by_name(name).rate == pytest.approx(rate)


@pytest.mark.parametrize("name", ["single", "alamouti", "rate34"])
def test_by_name_returns_one_shared_code(name):
    code = by_name(name)
    assert by_name(name) is code
    assert code.name == name and not code.a.flags.writeable and not code.b.flags.writeable


def test_unknown_code_name():
    with pytest.raises(ValueError):
        by_name("golden")


@pytest.mark.parametrize("name", sorted(TEXTBOOK))
def test_code_matrix_matches_textbook_generator(name):
    # the dispersion tables against X written out as in the literature
    code, textbook = by_name(name), TEXTBOOK[name]
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = rng.standard_normal(code.n_symbols) + 1j * rng.standard_normal(code.n_symbols)
        assert np.abs(code_matrix(code, s) - textbook(s)).max() < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_linearity_superposition(seed):
    rng = np.random.default_rng(seed)
    code = rate_three_quarter()
    s = complex_normal(rng, 3)
    t = complex_normal(rng, 3)
    lhs = code_matrix(code, s + t)
    rhs = code_matrix(code, s) + code_matrix(code, t)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_symbol_count_mismatch():
    with pytest.raises(ValueError):
        code_matrix(alamouti(), np.zeros(3))


def test_zero_symbols_give_zero_matrix():
    assert np.all(code_matrix(rate_three_quarter(), np.zeros(3)) == 0)


@pytest.mark.parametrize("name", ["alamouti", "rate34"])
def test_projection_identity_monte_carlo(name):
    rng = np.random.default_rng(42)
    assert _expected_projection_identity_check(by_name(name), rng, n_draws=100_000)


def test_projection_identity_needs_zero_mean_symbols():
    # the identity E[X Re(s_n)] = (Es/2) A_n rests on zero-mean, mutually
    # independent symbol components; a mean shift breaks it
    code = alamouti()
    rng = np.random.default_rng(43)
    s = complex_normal(rng, (50_000, 2)) + 0.5
    x = code_matrix(code, s)
    est = (x * s[:, 0].real[:, None, None]).mean(axis=0)
    energy = np.mean(np.abs(s) ** 2)
    assert np.abs(est - energy / 2.0 * code.a[0]).max() > 0.1


def test_symbol_energy():
    rng = np.random.default_rng(2)
    s = complex_normal(rng, 200_000, var=2.5)
    assert np.mean(np.abs(s) ** 2) == pytest.approx(2.5, rel=0.02)


@pytest.mark.parametrize("code", ostbc._BY_NAME.values(), ids=list(ostbc._BY_NAME))
def test_symbol_energy_spends_the_data_budget(code):
    # at Es = 1/rate every antenna radiates unit energy per channel use on
    # average, so rho_d is the data power; rate 3/4 needs Es = 4/3 for it
    rng = np.random.default_rng(44)
    x = code_matrix(code, complex_normal(rng, (100_000, code.n_symbols), code.es))
    assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.02)
