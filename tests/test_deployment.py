import numpy as np
import pytest
from scipy import stats
from scipy.spatial import cKDTree

from cellfree.deployment import (
    NetworkLayout,
    _CellList,
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


def _hex_reference(density, hw):
    """The lattice built one row at a time, odd rows offset by half a spacing."""
    s = hex_spacing(density)
    row_step = s * np.sqrt(3.0) / 2.0
    shift = np.array([s / 2.0, row_step / 2.0])
    jmax = int(np.ceil((hw + abs(shift[1])) / row_step)) + 1
    imax = int(np.ceil((hw + abs(shift[0])) / s)) + 1
    rows = []
    for j in range(-jmax, jmax + 1):
        xoff = (s / 2.0) if (j % 2) else 0.0
        xs = np.arange(-imax, imax + 1) * s + xoff + shift[0]
        ys = np.full_like(xs, j * row_step + shift[1])
        rows.append(np.column_stack([xs, ys]))
    pts = np.concatenate(rows)
    return pts[np.all(np.abs(pts) <= hw, axis=1)]


@pytest.mark.parametrize("density, hw", [
    (10.0, 5.0), (20.0, 5.0), (40.0, 5.0),  # fig3's hexagonal members
    (10.0, 0.6),  # fig9's cellular member
    (1.0, 0.1),  # no lattice point inside the region
    (1000.0, 0.6),
])
def test_hex_matches_the_row_by_row_lattice(density, hw):
    pts = place_hex(density, Region(hw)).positions
    ref = _hex_reference(density, hw)
    assert pts.shape == ref.shape and pts.dtype == ref.dtype
    assert np.array_equal(pts, ref)  # same points in the same order
    assert len(ref) > 0 or density == 1.0


def test_hex_invalid_density_rejected():
    with pytest.raises(ValueError):
        place_hex(0.0, Region(5.0))


def test_worst_position_single_ap_returns_corner():
    layout = NetworkLayout(np.array([[0.0, 0.0]]), 1, Region(1.0))
    p = worst_position(layout, grid_resolution=0.25)
    assert np.allclose(np.abs(p), [1.0, 1.0])


def test_worst_position_hex_interior_is_circumcenter():
    # triangle circumradius s/sqrt(3). APs every s/10 along the edge of the
    # region bound every point by s/sqrt(3) + s/20: a point whose nearest
    # point of the unclipped lattice lies outside is closer than that to the
    # edge. So the clipped boundary holds no point much farther from an AP.
    density, hw = 20.0, 2.0
    s = hex_spacing(density)
    edge = np.linspace(-hw, hw, int(np.ceil(20.0 * hw / s)) + 1)
    guards = np.concatenate([np.column_stack([edge, np.full_like(edge, side)])
                             for side in (-hw, hw)])
    lattice = place_hex(density, Region(hw)).positions
    layout = NetworkLayout(np.concatenate([lattice, guards, guards[:, ::-1]]), 1, Region(hw))
    p = worst_position(layout, grid_resolution=s / 20.0)
    dmin = np.linalg.norm(layout.positions - p, axis=1).min()
    assert abs(dmin - s / np.sqrt(3.0)) < 0.1 * s


def test_worst_position_avoids_ap_coincident_grid_point():
    layout = NetworkLayout(np.array([[0.0, 0.0]]), 1, Region(1.0))
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


def _full_grid_worst_position(layout, grid_resolution):
    """Reference: nearest-AP distance at every grid point, first argmax."""
    hw = layout.region.half_width_km
    axis = np.arange(-hw, hw + grid_resolution / 2.0, grid_resolution)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    dmin, _ = cKDTree(layout.positions).query(grid, k=1)
    return grid[int(np.argmax(dmin))].copy()


# step None: a tenth of the mean AP spacing, up to 418,609 grid points
@pytest.mark.parametrize("density,half_width,step", [
    (1.0, 5.0, None), (1.0, 2.5, 0.05), (5.0, 2.5, 0.1), (20.0, 2.5, 0.05),
    (20.0, 2.5, None), (20.0, 0.5, 0.02), (100.0, 1.0, 0.013), (1000.0, 0.6, 0.05),
    (1000.0, 0.5, None), (1000.0, 1.0, 0.02),
])
def test_worst_position_equals_full_grid_scan_on_ppp(density, half_width, step):
    region = Region(half_width)
    for seed in range(8):
        layout = place_ppp(density, region, rng_for(seed))
        if layout.n_aps == 0:
            continue
        s = step or mean_nn_spacing(layout) / 10.0
        expected = _full_grid_worst_position(layout, s)
        assert np.array_equal(worst_position(layout, s), expected)


@pytest.mark.parametrize("step", [None, 0.05, hex_spacing(20.0) / 20.0])
def test_worst_position_equals_full_grid_scan_on_hex(step):
    layout = place_hex(20.0, Region(2.5))
    step = step or mean_nn_spacing(layout) / 10.0
    expected = _full_grid_worst_position(layout, step)
    assert np.array_equal(worst_position(layout, step), expected)


def test_worst_position_single_ap_tie_takes_first_corner():
    # with a dyadic step all four corners tie; (-hw, -hw) has the lowest
    # row-major index. The step hw / 20 = 0.05 rounds the last axis value up.
    hw = 1.0
    layout = NetworkLayout(np.array([[0.0, 0.0]]), 1, Region(hw))
    for step in (hw / 20, 0.25, 1 / 64):
        p = worst_position(layout, step)
        assert np.array_equal(p, _full_grid_worst_position(layout, step))
        if step != hw / 20:
            assert np.array_equal(p, [-1.0, -1.0])


def test_worst_position_exact_tie_takes_lowest_row_major_index():
    # APs on a square lattice of 22 grid steps, 9 steps in from the edges of
    # the region: the 25 hole centres, 11 * sqrt(2) steps from their APs,
    # tie exactly, and every edge point is nearer an AP. The first hole, grid
    # index (20, 20), is not on the coarse anchor stride of 8; (64, 64) is.
    step = 1 / 64
    ap_axis = -1.0 + np.arange(9, 129, 22) * step
    ax, ay = np.meshgrid(ap_axis, ap_axis, indexing="ij")
    layout = NetworkLayout(np.column_stack([ax.ravel(), ay.ravel()]), 1, Region(1.0))
    p = worst_position(layout, step)
    assert np.array_equal(p, _full_grid_worst_position(layout, step))
    assert np.array_equal(p, [-1.0 + 20 * step, -1.0 + 20 * step])


def test_worst_position_keeps_block_whose_bound_equals_best():
    # APs on every grid point except two disks of radius 10 steps centred on
    # the right edge at rows 39 and 64; both centres are 10 steps from the
    # nearest AP. The anchor of row 39's first-level block (row 32) is 3 steps
    # from an AP and 7 from row 39, so that block's bound equals the best
    # distance exactly once row 64, a first-level anchor, has been queried.
    step = 1 / 64
    ki, kj = (g.ravel() for g in np.meshgrid(np.arange(129), np.arange(129), indexing="ij"))
    open_ = np.ones(ki.size, dtype=bool)
    for row in (39, 64):
        open_ &= (ki - 128) ** 2 + (kj - row) ** 2 >= 100
    positions = np.column_stack([ki[open_], kj[open_]]) * step - 1.0
    layout = NetworkLayout(positions, 1, Region(1.0))
    p = worst_position(layout, step)
    assert np.array_equal(p, _full_grid_worst_position(layout, step))
    assert np.array_equal(p, [1.0, -1.0 + 39 * step])


@pytest.mark.parametrize("step", [0.0, -0.05, float("nan")])
def test_worst_position_non_positive_step_rejected(step):
    layout = place_ppp(20.0, Region(1.0), rng_for(0))
    with pytest.raises(ValueError, match="grid_resolution"):
        worst_position(layout, step)


def test_worst_position_coincident_aps_rejected():
    # two APs at one point: zero mean spacing, but the step is the caller's
    layout = NetworkLayout(np.array([[0.1, 0.2], [0.1, 0.2]]), 1, Region(1.0))
    assert mean_nn_spacing(layout) == 0.0
    assert np.array_equal(worst_position(layout, 0.05), _full_grid_worst_position(layout, 0.05))


def _grid(hw, n):
    axis = np.linspace(-hw, hw, n)
    return np.column_stack([np.repeat(axis, n), np.tile(axis, n)])


@pytest.mark.parametrize("density,seed", [(1.0, 0), (5.0, 1), (20.0, 2), (20.0, 3),
                                          (300.0, 4), (2000.0, 5)])
def test_cell_list_nearest_bit_identical_to_kdtree_on_ppp(density, seed):
    rng = rng_for(seed)
    layout = place_ppp(density, Region(2.0), rng)
    assert layout.n_aps > 1
    queries = np.concatenate([rng.uniform(-2.0, 2.0, (3000, 2)), _grid(2.0, 61)])
    cells = _CellList(layout.positions, layout.region)
    assert np.array_equal(cells.query(queries), cKDTree(layout.positions).query(queries)[0])


def test_cell_list_nearest_bit_identical_to_kdtree_on_hex():
    layout = place_hex(20.0, Region(2.5))
    queries = np.concatenate([rng_for(6).uniform(-2.5, 2.5, (3000, 2)), _grid(2.5, 101)])
    cells = _CellList(layout.positions, layout.region)
    assert np.array_equal(cells.query(queries), cKDTree(layout.positions).query(queries)[0])


def test_cell_list_queries_in_smaller_region():
    # most APs lie outside the queried square
    layout = place_ppp(20.0, Region(5.0), rng_for(7))
    queries = _grid(1.3, 131)
    cells = _CellList(layout.positions, layout.region)
    assert np.array_equal(cells.query(queries), cKDTree(layout.positions).query(queries)[0])


def test_cell_list_single_ap():
    layout = NetworkLayout(np.array([[0.3, -0.2]]), 1, Region(1.0))
    queries = _grid(1.0, 41)
    cells = _CellList(layout.positions, layout.region)
    assert np.array_equal(cells.query(queries), cKDTree(layout.positions).query(queries)[0])


@pytest.mark.parametrize("corner", [1.0, -1.0])
def test_cell_list_far_queries_scan_every_ap(corner):
    # 100 APs crowd one corner, so the cell side (0.5 km) is far below the
    # distance from the opposite corner, below or above the grid of cells;
    # 14,641 such queries take two chunks
    positions = corner * rng_for(8).uniform(0.9, 1.0, (100, 2))
    layout = NetworkLayout(positions, 1, Region(1.0))
    cells = _CellList(layout.positions, layout.region)
    queries = corner * (_grid(1.0, 121) * 0.4 - 0.6)
    tree = cKDTree(positions)
    want = tree.query(queries)[0]
    assert want.min() > cells.side
    assert np.array_equal(cells.query(queries), want)
    assert np.array_equal(cells.query(queries, k=2), tree.query(queries, k=2)[0][:, 1])


def test_cell_list_block_answer_beyond_reach_is_rescanned():
    # cell side 0.5 km, cells from -1: the query's 3 x 3 block spans x in
    # [-0.5, 1). Its best AP there is 0.75 km away, but an AP two cells to
    # the left is 0.6 km away; 98 more APs fill the far corner
    q = np.array([[0.001, 0.1]])
    positions = np.concatenate([[[-1.0, -1.0], [q[0, 0] - 0.6, 0.1], [q[0, 0] + 0.75, 0.1]],
                                rng_for(12).uniform(-1.0, -0.9, (97, 2))])
    cells = _CellList(positions, Region(1.0))
    assert cells.side == 0.5
    assert np.array_equal(cells.query(q), cKDTree(positions).query(q)[0])
    assert cells.query(q)[0] == pytest.approx(0.6)


def test_mean_nn_spacing_bit_identical_to_kdtree():
    for layout in (place_ppp(20.0, Region(2.0), rng_for(9)), place_hex(20.0, Region(2.0)),
                   place_ppp(1.0, Region(3.0), rng_for(10))):
        d = cKDTree(layout.positions).query(layout.positions, k=2)[0][:, 1]
        assert mean_nn_spacing(layout) == d.mean()
    # coincident APs: their nearest-neighbour distance is 0
    positions = place_ppp(20.0, Region(1.0), rng_for(11)).positions
    layout = NetworkLayout(np.concatenate([positions, positions[:7]]), 1, Region(1.0))
    d = cKDTree(layout.positions).query(layout.positions, k=2)[0][:, 1]
    assert np.count_nonzero(d == 0) == 14
    assert mean_nn_spacing(layout) == d.mean()


def test_coincident_aps_have_zero_spacing_and_no_default_grid():
    layout = NetworkLayout(np.array([[0.1, 0.2]] * 3), 1, Region(1.0))
    assert mean_nn_spacing(layout) == 0.0
    assert np.array_equal(worst_position(layout, 0.05), _full_grid_worst_position(layout, 0.05))


def test_worst_position_empty_layout_errors():
    layout = place_ppp(0.0, Region(1.0), rng_for(0))
    with pytest.raises(ValueError, match="worst_position needs a non-empty layout"):
        worst_position(layout, 0.05)


def test_layout_outside_region_rejected():
    with pytest.raises(ValueError):
        NetworkLayout(np.array([[3.0, 0.0]]), 1, Region(1.0))


@pytest.mark.parametrize("point", [(np.nan, 0.0), (0.0, np.nan), (1.0 + 2e-12, 0.0),
                                   (0.0, -1.0 - 2e-12)])
def test_layout_nan_or_just_outside_rejected(point):
    NetworkLayout(np.array([[0.5, 0.5], [1.0 + 1e-13, -1.0]]), 1, Region(1.0))
    with pytest.raises(ValueError):
        NetworkLayout(np.array([[0.5, 0.5], point]), 1, Region(1.0))

