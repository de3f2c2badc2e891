import numpy as np
import pytest
from scipy.linalg.blas import dtrmv
from scipy.spatial.distance import cdist

from cellfree import propagation
from cellfree.deployment import NetworkLayout, Region, place_ppp
from cellfree.grouping import random_grouping
from cellfree.harness import experiment_catalog
from cellfree.propagation import (
    D_I_KM,
    D_O_KM,
    REFERENCE_LOSS_DB,
    ShadowParams,
    large_scale_from_shadow,
    path_gain,
    path_loss_db,
    per_antenna,
    shadow_fields,
)


def test_reference_anchor_141_db():
    # L is the loss at 1 km, about 141 dB for the suburban defaults
    assert abs(path_loss_db(1.0) - 141.16) < 0.1
    assert path_loss_db(1.0) == pytest.approx(REFERENCE_LOSS_DB)


def test_continuity_at_break_distances():
    for d in (D_I_KM, D_O_KM):
        left = path_loss_db(d * (1 - 1e-12))
        right = path_loss_db(d * (1 + 1e-12))
        assert abs(left - right) < 1e-9


def test_inner_branch_constant():
    expected = REFERENCE_LOSS_DB + 15 * np.log10(0.05) + 20 * np.log10(0.01)
    assert path_loss_db(0.0) == pytest.approx(expected, abs=1e-12)
    assert path_loss_db(0.005) == pytest.approx(expected, abs=1e-12)
    assert abs(expected - 81.6) < 0.1


def test_monotone_nondecreasing():
    d = np.linspace(0.0, 3.0, 20_000)
    pl = path_loss_db(d)
    assert np.all(np.diff(pl) >= -1e-12)


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        path_loss_db(-0.1)


def _three_branch_path_loss(d):
    """The path loss as three separate branches, each with its own log10."""
    d = np.asarray(d, dtype=float)
    L = REFERENCE_LOSS_DB
    t1 = 15.0 * np.log10(D_O_KM)
    inner = L + t1 + 20.0 * np.log10(D_I_KM)
    with np.errstate(divide="ignore"):
        mid = L + t1 + 20.0 * np.log10(d)
        outer = L + 35.0 * np.log10(d)
    out = np.where(d <= D_I_KM, inner, np.where(d <= D_O_KM, mid, outer))
    return out if out.ndim else float(out)


def test_path_loss_bit_identical_to_three_branch_form():
    edges = [0.0, np.nextafter(0.0, 1.0)]
    for b in (D_I_KM, D_O_KM):
        edges += [np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)]
    d = np.concatenate([edges, np.random.default_rng(14).uniform(0.0, 10.0, 10_000)])
    want = _three_branch_path_loss(d)
    assert np.array_equal(path_loss_db(d), want)
    assert np.array_equal(path_loss_db(d.reshape(2, -1)), want.reshape(2, -1))
    for x, w in zip(d.tolist(), want.tolist()):
        got = path_loss_db(x)
        assert type(got) is float and got == w == _three_branch_path_loss(x)


def test_path_gain_matches_path_loss_db():
    # APs on the x axis at the edge set of the test above, uniform distances
    # and a geometric sweep; terminals at the origin (exact distances) and
    # at random points (distances by np.linalg.norm)
    edges = [0.0, np.nextafter(0.0, 1.0)]
    for b in (D_I_KM, D_O_KM):
        edges += [np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)]
    rng = np.random.default_rng(15)
    d = np.concatenate([edges, rng.uniform(0.0, 10.0, 10_000), np.geomspace(1e-6, 1e4, 2_001)])
    layout = NetworkLayout(np.column_stack([d, np.zeros_like(d)]), 1, Region(1e4))
    for terminals in (np.zeros(2), np.vstack([np.zeros(2), rng.uniform(-1, 1, (3, 2))])):
        dist = np.linalg.norm(layout.positions - terminals[..., None, :], axis=-1)
        want = 10.0 ** (-path_loss_db(dist) / 10.0)
        got = path_gain(layout, terminals)
        assert got.shape == want.shape
        assert np.max(np.abs(got / want - 1.0)) <= 5e-14


def test_params_validation():
    with pytest.raises(ValueError):
        ShadowParams(mode="weird")


def _layout(seed=0, density=20.0, hw=1.0):
    return place_ppp(density, Region(hw), np.random.default_rng(seed))


def test_shadow_none_is_zero():
    layout = _layout()
    v = shadow_fields(layout, [(0.0, 0.0)], ShadowParams(mode="none"), np.random.default_rng(0))[0]
    assert np.all(v == 0.0)


def test_shadow_uncorrelated_variance():
    layout = NetworkLayout(np.zeros((1, 2)), 1, Region(1.0))
    rng = np.random.default_rng(8)
    params = ShadowParams(mode="uncorrelated")
    draws = np.array([shadow_fields(layout, [(0, 0)], params, rng)[0][0] for _ in range(100_000)])
    assert abs(draws.var() - 64.0) < 1.0  # 3 SE of the variance estimate


def test_shadow_correlated_pair_correlation():
    # the AP part b = L z of the field, as shadow_fields draws it: at separation
    # equal to the decorrelation distance the correlation is 2^-1 = 0.5
    chol = propagation._cholesky_lower(np.array([[0.0, 0.0], [0.2, 0.0]]))
    rng = np.random.default_rng(9)
    draws = np.array([dtrmv(chol, rng.standard_normal(2), lower=1) for _ in range(10_000)])
    corr = np.corrcoef(draws.T)[0, 1]
    assert abs(corr - 0.5) < 0.05


def test_shadow_correlated_variance_includes_both_parts():
    layout = NetworkLayout(np.zeros((1, 2)), 1, Region(1.0))
    params = ShadowParams(mode="correlated")
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
    # sizes below, at and off the 64-row block, and a full layout; only the
    # upper triangle of the C-ordered buffer is built
    rng = np.random.default_rng(13)
    for positions in (rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, (64, 2)),
                      rng.uniform(-1, 1, (65, 2)), _layout(seed=2, density=20.0, hw=2.4).positions):
        want = cdist(positions, positions)
        np.divide(want, -0.2, out=want)
        np.exp2(want, out=want)
        want *= 8.0**2
        upper = np.triu_indices(len(positions))
        cov = propagation._covariance_triangle(positions)
        assert np.array_equal(cov[upper], want[upper])


def test_duplicate_positions_fall_back_to_jitter():
    layout = NetworkLayout(np.zeros((3, 2)), 1, Region(1.0))
    params = ShadowParams(mode="correlated")
    v = shadow_fields(layout, [(0, 0)], params, np.random.default_rng(11))[0]
    assert np.all(np.isfinite(v))


def test_cholesky_lower_matches_reference_construction():
    layout = _layout(seed=1, density=20.0, hw=2.4)
    assert 400 < layout.n_aps < 520
    ref = np.linalg.cholesky(_reference_cov(layout.positions, 8.0, 0.2))
    chol = np.tril(propagation._cholesky_lower(layout.positions))
    assert np.max(np.abs(chol - ref)) <= 1e-12 * np.max(np.abs(ref))


def _correlated_parts(layout, seed):
    """The terminal draw z0 and the AP draws z that shadow_fields takes from one stream."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(1), rng.standard_normal(layout.n_aps)


def test_correlated_draw_matches_reference_construction():
    # v = sqrt(delta) 8 z0 + sqrt(1-delta) L z with L from the broadcast covariance
    layout = _layout(seed=1, density=20.0, hw=2.4)
    z0, z = _correlated_parts(layout, 14)
    want = (np.sqrt(0.5) * 8.0 * z0
            + np.sqrt(0.5) * np.linalg.cholesky(_reference_cov(layout.positions, 8.0, 0.2)) @ z)
    v = shadow_fields(layout, [(0, 0)], ShadowParams(mode="correlated"), np.random.default_rng(14))
    assert v.shape == (1, layout.n_aps)
    assert np.max(np.abs(v[0] - want)) <= 1e-12 * np.max(np.abs(want))


def test_correlated_draw_ignores_the_unset_triangle(monkeypatch):
    # neither LAPACK nor BLAS may read the triangle the build leaves unset
    layout = _layout(seed=1, density=20.0, hw=2.4)
    params = ShadowParams(mode="correlated")
    want = shadow_fields(layout, [(0, 0)], params, np.random.default_rng(15))
    empty = np.empty
    monkeypatch.setattr(np, "empty", lambda *a, **kw: np.full_like(empty(*a, **kw), np.nan))
    cov = propagation._covariance_triangle(layout.positions)
    assert np.isnan(cov[-1, 0])
    assert np.array_equal(shadow_fields(layout, [(0, 0)], params, np.random.default_rng(15)), want)


def test_single_ap_correlated_field_is_sigma_times_both_draws():
    # one AP's Cholesky factor is LAPACK's sqrt(64) = 8.0 exactly
    layout = NetworkLayout(np.array([[0.3, -0.1]]), 1, Region(1.0))
    z0, z1 = _correlated_parts(layout, 16)
    want = np.sqrt(0.5) * 8.0 * z0 + np.sqrt(0.5) * 8.0 * z1
    v = shadow_fields(layout, [(0, 0)], ShadowParams(mode="correlated"), np.random.default_rng(16))
    assert np.array_equal(v, want[None, :])


def test_empty_layout_correlated_field():
    layout = NetworkLayout(np.zeros((0, 2)), 1, Region(1.0))
    v = shadow_fields(layout, [(0, 0)], ShadowParams(mode="correlated"), np.random.default_rng(17))
    assert v.shape == (1, 0)


def test_jitter_fallback_factors_rebuilt_covariance():
    # coincident APs make the covariance singular; the first attempt fails
    # after overwriting its buffer, so the retry must factor a fresh copy
    positions = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0], [0.1, 0.0]])
    sigma_db, jitter = 8.0, 1e-10 * 64.0
    cov = _reference_cov(positions, sigma_db, 0.2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    chol = np.tril(propagation._cholesky_lower(positions))
    target = cov + jitter * np.eye(4)
    assert np.allclose(chol @ chol.T, target, rtol=0, atol=1e-2 * jitter)


def _record_dpotrf(monkeypatch, info):
    """Patch dpotrf to report ``info`` and record the matrices it is given."""
    calls = []

    def failing(a, **kwargs):
        calls.append(a.copy())
        return a, info

    monkeypatch.setattr(propagation, "dpotrf", failing)
    return calls


def test_factorization_error_after_four_attempts(monkeypatch):
    calls = _record_dpotrf(monkeypatch, 1)
    positions = np.array([[0.0, 0.0], [0.3, 0.0]])
    with pytest.raises(RuntimeError, match="shadow covariance not factorizable for 2 APs"):
        propagation._cholesky_lower(positions)
    assert len(calls) == 4
    jitters = [c[0, 0] - 64.0 for c in calls]
    assert jitters[0] == 0.0
    assert jitters[1:] == pytest.approx([64e-10, 64e-8, 64e-6], rel=1e-4)


def test_illegal_argument_raises_without_retry(monkeypatch):
    calls = _record_dpotrf(monkeypatch, -1)
    with pytest.raises(ValueError, match="argument 1"):
        propagation._cholesky_lower(np.array([[0.0, 0.0], [0.3, 0.0]]))
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["none", "uncorrelated", "correlated"])
def test_shadow_fields_take_exactly_one_terminal(mode):
    layout = _layout(seed=4)
    for terminals in ([(0, 0), (0.1, 0.1)], np.zeros((0, 2))):
        with pytest.raises(ValueError, match="one terminal"):
            shadow_fields(layout, terminals, ShadowParams(mode=mode), np.random.default_rng(12))


def test_every_shadowed_preset_member_has_one_terminal():
    # shadow_fields draws one terminal's field, and every shadowed run is one
    shadowed = [cfg for exp in experiment_catalog().values() for _, cfg in exp.members
                if cfg.shadow != "none"]
    assert shadowed
    assert all(len(cfg.terminals) == 1 for cfg in shadowed)


def _large_scale(layout, sh_params, assignment, n_groups, rng):
    """beta per antenna and beta_bar at the origin, shadowed by one draw of shadow_fields."""
    shadow = shadow_fields(layout, [(0, 0)], sh_params, rng)[0]
    gain = path_gain(layout, (0, 0))
    beta = per_antenna(gain * 10.0 ** (-shadow / 10.0), layout.antennas_per_ap)
    return beta, large_scale_from_shadow(layout, gain, shadow, assignment, n_groups)


def test_large_scale_beta_at_one_km():
    layout = NetworkLayout(np.array([[1.0, 0.0]]), 1, Region(2.0))
    g = np.zeros(1, dtype=np.int64)
    beta, _ = _large_scale(layout, ShadowParams(mode="none"), g, 1, np.random.default_rng(0))
    # 141.2 dB of loss is about 7.6e-15 in linear scale
    assert beta[0] == pytest.approx(10 ** (-path_loss_db(1.0) / 10.0))
    assert abs(beta[0] - 7.6e-15) < 0.05 * 7.6e-15


def test_beta_bar_single_group_sums_both_aps():
    layout = NetworkLayout(np.array([[0.5, 0.0], [0.0, 0.5]]), 1, Region(1.0))
    g = np.zeros(2, dtype=np.int64)
    beta, beta_bar = _large_scale(layout, ShadowParams(mode="none"), g, 1,
                                  np.random.default_rng(0))
    assert beta_bar[0] == pytest.approx(beta.sum(), rel=1e-15)


def test_multi_antenna_aps_share_beta():
    layout = NetworkLayout(np.array([[0.3, 0.2]]), 2, Region(1.0))
    g = np.array([0, 1])
    beta, _ = _large_scale(layout, ShadowParams(mode="none"), g, 2, np.random.default_rng(0))
    assert beta[0] == beta[1]


def test_partition_property_any_grouping():
    layout = _layout(seed=5, density=30.0)
    rng = np.random.default_rng(13)
    for n_groups in (1, 2, 4, 7):
        g = random_grouping(layout.n_antennas, n_groups, rng).assignment
        beta, beta_bar = _large_scale(layout, ShadowParams(mode="correlated"), g, n_groups, rng)
        assert beta_bar.sum() == pytest.approx(beta.sum(), rel=1e-12)
        assert beta_bar.shape == (n_groups,)


def test_grouping_must_cover_layout():
    layout = _layout(seed=6)
    g = np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError):
        _large_scale(layout, ShadowParams(mode="none"), g, 1, np.random.default_rng(0))
