import numpy as np
import pytest
from scipy import stats

from cellfree.deployment import (
    NetworkLayout,
    NoAccessPointsError,
    Region,
    hex_spacing,
    mean_nn_spacing,
    place_hex,
    place_ppp,
    worst_position,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(0.0)
    assert Region(5.0).area_km2 == 100.0


def test_ppp_zero_density_gives_empty_layout():
    layout = place_ppp(0.0, Region(5.0), rng_for(0))
    assert layout.n_aps == 0
    assert layout.deployment_kind == "ppp"


def test_ppp_negative_density_rejected():
    with pytest.raises(ValueError):
        place_ppp(-1.0, Region(5.0), rng_for(0))


def test_ppp_poisson_mean_over_seeded_draws():
    # density 20 on a 10x10 km region: mean count over 1000 draws near 2000
    region = Region(5.0)
    counts = [place_ppp(20.0, region, rng_for(s)).n_aps for s in range(1000)]
    assert abs(np.mean(counts) - 2000.0) < 3.0 * np.sqrt(2000.0)


def test_ppp_positions_inside_region():
    layout = place_ppp(20.0, Region(2.0), rng_for(1))
    assert np.all(np.abs(layout.positions) <= 2.0)


@pytest.mark.parametrize("seed", [2, 5, 11])
def test_ppp_quadrat_counts_chi_square(seed):
    # conditional on the total, quadrat counts are multinomial-uniform
    region = Region(5.0)
    layout = place_ppp(40.0, region, rng_for(seed))
    k = 5
    edges = np.linspace(-5.0, 5.0, k + 1)
    counts, _, _ = np.histogram2d(
        layout.positions[:, 0], layout.positions[:, 1], bins=(edges, edges)
    )
    expected = layout.n_aps / k**2
    chi2 = np.sum((counts - expected) ** 2 / expected)
    p = stats.chi2.sf(chi2, k**2 - 1)
    assert p > 0.01


def test_hex_spacing_matches_paper_default():
    # triangular lattice at 20 APs/km^2 has ~240 m nearest-neighbor spacing
    s = hex_spacing(20.0)
    assert abs(s - 0.240) < 1e-3
    layout = place_hex(20.0, Region(5.0))
    assert abs(mean_nn_spacing(layout) - s) < 1e-9


def test_hex_interior_neighbors_equidistant():
    layout = place_hex(20.0, Region(5.0))
    s = hex_spacing(20.0)
    center = layout.positions[np.argmin(np.linalg.norm(layout.positions, axis=1))]
    d = np.linalg.norm(layout.positions - center, axis=1)
    neighbors = d[(d > 1e-9) & (d < 1.5 * s)]
    assert len(neighbors) == 6
    assert np.ptp(neighbors) < 1e-12


def test_hex_deterministic_bit_for_bit():
    a = place_hex(20.0, Region(5.0))
    b = place_hex(20.0, Region(5.0))
    assert a.positions.tobytes() == b.positions.tobytes()


def test_hex_count_matches_density_within_boundary_ring():
    density, hw = 20.0, 5.0
    layout = place_hex(density, Region(hw))
    s = hex_spacing(density)
    ring = 4 * (2 * hw) / s + 8  # one ring of boundary cells
    assert abs(layout.n_aps - density * (2 * hw) ** 2) <= ring


def test_hex_invalid_density_rejected():
    with pytest.raises(ValueError):
        place_hex(0.0, Region(5.0))


def test_worst_position_single_ap_returns_corner():
    layout = NetworkLayout(np.array([[0.0, 0.0]]), 1, "ppp", Region(1.0))
    p = worst_position(layout, grid_resolution=0.25)
    assert np.allclose(np.abs(p), [1.0, 1.0])


def test_worst_position_hex_interior_is_circumcenter():
    # triangle circumradius s/sqrt(3), checked away from the clipped boundary
    density = 20.0
    layout = place_hex(density, Region(5.0))
    s = hex_spacing(density)
    p = worst_position(layout, grid_resolution=s / 20.0, region=Region(2.0))
    dmin = np.linalg.norm(layout.positions - p, axis=1).min()
    assert abs(dmin - s / np.sqrt(3.0)) < 0.1 * s


def test_worst_position_avoids_ap_coincident_grid_point():
    layout = NetworkLayout(np.array([[0.0, 0.0]]), 1, "ppp", Region(1.0))
    p = worst_position(layout, grid_resolution=1.0)  # grid includes the AP itself
    assert np.linalg.norm(p) > 0


def test_worst_position_maximizes_over_grid():
    rng = rng_for(7)
    layout = place_ppp(5.0, Region(2.0), rng)
    res = 0.5
    p = worst_position(layout, grid_resolution=res)
    best = np.linalg.norm(layout.positions - p, axis=1).min()
    axis = np.arange(-2.0, 2.0 + res / 2, res)
    for x in axis:
        for y in axis:
            d = np.linalg.norm(layout.positions - [x, y], axis=1).min()
            assert best >= d - 1e-12


def test_worst_position_empty_layout_errors():
    layout = place_ppp(0.0, Region(1.0), rng_for(0))
    with pytest.raises(NoAccessPointsError):
        worst_position(layout)


def test_layout_outside_region_rejected():
    with pytest.raises(ValueError):
        NetworkLayout(np.array([[3.0, 0.0]]), 1, "ppp", Region(1.0))

