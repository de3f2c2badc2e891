import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree.ostbc import (
    NotLinearError,
    alamouti,
    by_name,
    code_matrix,
    dispersion_matrices,
    draw_symbols,
    expected_projection_identity_check,
    orthogonality_defect,
    rate_three_quarter,
    single_group,
)


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
    s = draw_symbols(rng, (100, 3))
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


def test_dispersion_extraction_roundtrip():
    def gen(s):
        return np.array([[s[0], s[1]], [-np.conj(s[1]), np.conj(s[0])]])

    a, b = dispersion_matrices(gen, 2)
    code = alamouti()
    assert np.allclose(a, code.a) and np.allclose(b, code.b)
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.abs(code_matrix(code, s) - gen(s)).max() < 1e-12


def test_dispersion_single_group_from_generator():
    a, b = dispersion_matrices(lambda s: s.reshape(1, 1), 1)
    assert np.array_equal(a, [[[1.0]]]) and np.array_equal(b, [[[1.0]]])


def test_nonlinear_generator_rejected():
    with pytest.raises(NotLinearError):
        dispersion_matrices(lambda s: np.array([[s[0] * abs(s[0])]]), 1)


def test_affine_generator_rejected():
    with pytest.raises(NotLinearError):
        dispersion_matrices(lambda s: np.array([[s[0] + 1.0]]), 1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_linearity_superposition(seed):
    rng = np.random.default_rng(seed)
    code = rate_three_quarter()
    s = draw_symbols(rng, 3)
    t = draw_symbols(rng, 3)
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
    assert expected_projection_identity_check(by_name(name), rng, n_draws=100_000)


def test_projection_identity_needs_zero_mean_symbols():
    # the identity E[X Re(s_n)] = (Es/2) A_n rests on zero-mean, mutually
    # independent symbol components; a mean shift breaks it
    code = alamouti()
    rng = np.random.default_rng(43)
    s = draw_symbols(rng, (50_000, 2)) + 0.5
    x = code_matrix(code, s)
    est = (x * s[:, 0].real[:, None, None]).mean(axis=0)
    energy = np.mean(np.abs(s) ** 2)
    assert np.abs(est - energy / 2.0 * code.a[0]).max() > 0.1


def test_symbol_energy():
    rng = np.random.default_rng(2)
    s = draw_symbols(rng, 200_000, energy=2.5)
    assert np.mean(np.abs(s) ** 2) == pytest.approx(2.5, rel=0.02)
