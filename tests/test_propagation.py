import numpy as np
import pytest
from scipy.spatial.distance import cdist

from cellfree import propagation
from cellfree.deployment import NetworkLayout, Region, place_ppp
from cellfree.grouping import Grouping, random_grouping
from cellfree.propagation import (
    CovarianceFactorizationError,
    PathLossParams,
    ShadowParams,
    antenna_beta,
    large_scale_from_shadow,
    path_loss_db,
    shadow_fields,
)

PL = PathLossParams()


def test_reference_anchor_141_db():
    # L is the loss at d_r = 1 km, about 141 dB for the suburban defaults
    assert abs(path_loss_db(1.0, PL) - 141.16) < 0.1
    assert path_loss_db(1.0, PL) == pytest.approx(PL.reference_loss_db)


def test_continuity_at_break_distances():
    for d in (PL.d_i_km, PL.d_o_km):
        left = path_loss_db(d * (1 - 1e-12), PL)
        right = path_loss_db(d * (1 + 1e-12), PL)
        assert abs(left - right) < 1e-9


def test_inner_branch_constant():
    expected = PL.reference_loss_db + 15 * np.log10(0.05) + 20 * np.log10(0.01)
    assert path_loss_db(0.0, PL) == pytest.approx(expected, abs=1e-12)
    assert path_loss_db(0.005, PL) == pytest.approx(expected, abs=1e-12)
    assert abs(expected - 81.6) < 0.1


def test_monotone_nondecreasing():
    d = np.linspace(0.0, 3.0, 20_000)
    pl = path_loss_db(d, PL)
    assert np.all(np.diff(pl) >= -1e-12)


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        path_loss_db(-0.1, PL)


def _three_branch_path_loss(d, params):
    """The path loss as three separate branches, each with its own log10."""
    d = np.asarray(d, dtype=float)
    L = params.reference_loss_db
    t1 = 15.0 * np.log10(params.d_o_km / params.d_r_km)
    inner = L + t1 + 20.0 * np.log10(params.d_i_km / params.d_r_km)
    with np.errstate(divide="ignore"):
        mid = L + t1 + 20.0 * np.log10(d / params.d_r_km)
        outer = L + 35.0 * np.log10(d / params.d_r_km)
    out = np.where(d <= params.d_i_km, inner, np.where(d <= params.d_o_km, mid, outer))
    return out if out.ndim else float(out)


def test_path_loss_bit_identical_to_three_branch_form():
    edges = [0.0, np.nextafter(0.0, 1.0)]
    for b in (PL.d_i_km, PL.d_o_km):
        edges += [np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)]
    d = np.concatenate([edges, np.random.default_rng(14).uniform(0.0, 10.0, 10_000)])
    want = _three_branch_path_loss(d, PL)
    assert np.array_equal(path_loss_db(d, PL), want)
    assert np.array_equal(path_loss_db(d.reshape(2, -1), PL), want.reshape(2, -1))
    for x, w in zip(d.tolist(), want.tolist()):
        got = path_loss_db(x, PL)
        assert type(got) is float and got == w == _three_branch_path_loss(x, PL)


def test_antenna_beta_distances_equal_norm(monkeypatch):
    layout = _layout(seed=15, density=30.0)
    seen = []

    def recording(d, params):
        seen.append(d)
        return path_loss_db(d, params)

    monkeypatch.setattr(propagation, "path_loss_db", recording)
    rng = np.random.default_rng(15)
    for terminals in (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (4, 2))):
        antenna_beta(layout, terminals, PL)
        want = np.linalg.norm(layout.positions - terminals[..., None, :], axis=-1)
        assert seen[-1].shape == want.shape
        assert np.array_equal(seen[-1], want)


def test_params_validation():
    with pytest.raises(ValueError):
        PathLossParams(d_i_km=0.1, d_o_km=0.05)
    with pytest.raises(ValueError):
        ShadowParams(mode="weird")
    with pytest.raises(ValueError):
        ShadowParams(delta=1.5)


def _layout(seed=0, density=20.0, hw=1.0):
    return place_ppp(density, Region(hw), np.random.default_rng(seed))


def test_shadow_none_is_zero():
    layout = _layout()
    v = shadow_fields(layout, [(0.0, 0.0)], ShadowParams(mode="none"), np.random.default_rng(0))[0]
    assert np.all(v == 0.0)


def test_shadow_uncorrelated_variance():
    layout = NetworkLayout(np.zeros((1, 2)), 1, "ppp", Region(1.0))
    rng = np.random.default_rng(8)
    params = ShadowParams(mode="uncorrelated", sigma_db=8.0)
    draws = np.array([shadow_fields(layout, [(0, 0)], params, rng)[0][0] for _ in range(100_000)])
    assert abs(draws.var() - 64.0) < 1.0  # 3 SE of the variance estimate


def test_shadow_correlated_pair_correlation():
    # with delta = 0 the field is the pure AP component b; at separation equal
    # to the decorrelation distance the correlation is 2^-1 = 0.5
    layout = NetworkLayout(np.array([[0.0, 0.0], [0.2, 0.0]]), 1, "ppp", Region(1.0))
    params = ShadowParams(mode="correlated", sigma_db=8.0, delta=0.0, decorrelation_km=0.2)
    rng = np.random.default_rng(9)
    draws = np.array([shadow_fields(layout, [(0, 0)], params, rng)[0] for _ in range(10_000)])
    corr = np.corrcoef(draws.T)[0, 1]
    assert abs(corr - 0.5) < 0.05


def test_shadow_correlated_variance_includes_both_parts():
    layout = NetworkLayout(np.zeros((1, 2)), 1, "ppp", Region(1.0))
    params = ShadowParams(mode="correlated", sigma_db=8.0, delta=0.5)
    rng = np.random.default_rng(10)
    draws = np.array([shadow_fields(layout, [(0, 0)], params, rng)[0][0] for _ in range(50_000)])
    assert abs(draws.var() - 64.0) < 1.5


def _reference_cov(positions, sigma_db, d_u):
    """Reference construction of the covariance from broadcast distances."""
    diff = positions[:, None, :] - positions[None, :, :]
    return sigma_db**2 * np.exp2(-np.sqrt(np.sum(diff * diff, axis=-1)) / d_u)


def test_correlated_covariance_is_psd():
    layout = _layout(seed=3, density=30.0)
    cov = _reference_cov(layout.positions, 8.0, 0.2)
    assert np.allclose(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() > -1e-8 * 64.0


def test_covariance_bit_identical_to_cdist_build():
    # sizes below, at and off the 64-row block, and a full layout
    rng = np.random.default_rng(13)
    for positions in (rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, (64, 2)),
                      rng.uniform(-1, 1, (65, 2)), _layout(seed=2, density=20.0, hw=2.4).positions):
        want = cdist(positions, positions)
        np.divide(want, -0.2, out=want)
        np.exp2(want, out=want)
        want *= 8.0**2
        assert np.array_equal(propagation._covariance(positions, 8.0, 0.2), want)


def test_duplicate_positions_fall_back_to_jitter():
    layout = NetworkLayout(np.zeros((3, 2)), 1, "ppp", Region(1.0))
    params = ShadowParams(mode="correlated", sigma_db=8.0)
    v = shadow_fields(layout, [(0, 0)], params, np.random.default_rng(11))[0]
    assert np.all(np.isfinite(v))


def test_correlation_chol_matches_reference_construction():
    layout = _layout(seed=1, density=20.0, hw=2.4)
    assert 400 < layout.n_aps < 520
    ref = np.linalg.cholesky(_reference_cov(layout.positions, 8.0, 0.2))
    chol = propagation._correlation_chol(layout.positions, 8.0, 0.2)
    assert np.max(np.abs(chol - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(chol, np.tril(chol))


def test_jitter_fallback_factors_rebuilt_covariance():
    # coincident APs make the covariance singular; the first attempt fails
    # after overwriting its buffer, so the retry must factor a fresh copy
    positions = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0], [0.1, 0.0]])
    sigma_db, jitter = 8.0, 1e-10 * 64.0
    cov = _reference_cov(positions, sigma_db, 0.2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    chol = propagation._correlation_chol(positions, sigma_db, 0.2)
    assert np.array_equal(chol, np.tril(chol))
    target = cov + jitter * np.eye(4)
    assert np.allclose(chol @ chol.T, target, rtol=0, atol=1e-2 * jitter)


def test_factorization_error_after_four_attempts(monkeypatch):
    calls = []

    def failing(a, **kwargs):
        calls.append(a.copy())
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(propagation, "cholesky", failing)
    positions = np.array([[0.0, 0.0], [0.3, 0.0]])
    with pytest.raises(CovarianceFactorizationError):
        propagation._correlation_chol(positions, 8.0, 0.2)
    assert len(calls) == 4
    jitters = [c[0, 0] - 64.0 for c in calls]
    assert jitters[0] == 0.0
    assert jitters[1:] == pytest.approx([64e-10, 64e-8, 64e-6], rel=1e-4)


def test_cross_terminal_field_shape():
    layout = _layout(seed=4)
    params = ShadowParams(mode="correlated")
    v = shadow_fields(layout, [(0, 0), (0.1, 0.1)], params, np.random.default_rng(12))
    assert v.shape == (2, layout.n_aps)


def _large_scale(layout, sh_params, grouping, rng):
    """LargeScale at the origin, shadowed by one draw of shadow_fields."""
    shadow = shadow_fields(layout, [(0, 0)], sh_params, rng)[0]
    return large_scale_from_shadow(layout, (0, 0), PL, shadow, grouping)


def test_large_scale_beta_at_one_km():
    layout = NetworkLayout(np.array([[1.0, 0.0]]), 1, "ppp", Region(2.0))
    g = Grouping(np.zeros(1, dtype=int), 1)
    ls = _large_scale(layout, ShadowParams(mode="none"), g, np.random.default_rng(0))
    # 141.2 dB of loss is about 7.6e-15 in linear scale
    assert ls.beta[0] == pytest.approx(10 ** (-path_loss_db(1.0, PL) / 10.0))
    assert abs(ls.beta[0] - 7.6e-15) < 0.05 * 7.6e-15


def test_beta_bar_single_group_sums_both_aps():
    layout = NetworkLayout(np.array([[0.5, 0.0], [0.0, 0.5]]), 1, "ppp", Region(1.0))
    g = Grouping(np.zeros(2, dtype=int), 1)
    ls = _large_scale(layout, ShadowParams(mode="none"), g, np.random.default_rng(0))
    assert ls.beta_bar[0] == pytest.approx(ls.beta.sum(), rel=1e-15)


def test_multi_antenna_aps_share_beta():
    layout = NetworkLayout(np.array([[0.3, 0.2]]), 2, "ppp", Region(1.0))
    g = Grouping(np.array([0, 1]), 2)
    ls = _large_scale(layout, ShadowParams(mode="none"), g, np.random.default_rng(0))
    assert ls.beta[0] == ls.beta[1]


def test_partition_property_any_grouping():
    layout = _layout(seed=5, density=30.0)
    rng = np.random.default_rng(13)
    for n_groups in (1, 2, 4, 7):
        g = random_grouping(layout.n_antennas, n_groups, rng)
        ls = _large_scale(layout, ShadowParams(mode="correlated"), g, rng)
        assert ls.beta_bar.sum() == pytest.approx(ls.beta.sum(), rel=1e-12)
        assert ls.beta_bar.shape == (n_groups,)


def test_grouping_must_cover_layout():
    layout = _layout(seed=6)
    g = Grouping(np.zeros(3, dtype=int), 1)
    with pytest.raises(ValueError):
        _large_scale(layout, ShadowParams(mode="none"), g, np.random.default_rng(0))
