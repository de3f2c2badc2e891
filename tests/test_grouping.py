import numpy as np
import pytest

from cellfree.deployment import NetworkLayout, Region, closest_pair, place_hex, place_ppp
from cellfree.grouping import balanced_split, group_large_scale, neighbor_grouping, random_grouping


def test_single_group_assigns_all_to_zero():
    g = random_grouping(7, 1, np.random.default_rng(0))
    assert np.all(g.assignment == 0)


def test_balanced_sizes_ten_into_four():
    g = random_grouping(10, 4, np.random.default_rng(1))
    assert sorted(np.bincount(g.assignment, minlength=4)) == [2, 2, 3, 3]


def test_sizes_differ_by_at_most_one():
    rng = np.random.default_rng(2)
    for n, k in [(5, 2), (13, 4), (100, 7)]:
        sizes = np.bincount(random_grouping(n, k, rng).assignment, minlength=k)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == n


def test_membership_uniformity():
    # each antenna lands in each group with frequency 1/n_groups
    n, k, runs = 8, 4, 4000
    counts = np.zeros((n, k))
    for seed in range(runs):
        g = random_grouping(n, k, np.random.default_rng(seed))
        counts[np.arange(n), g.assignment] += 1
    freq = counts / runs
    tol = 4.0 * np.sqrt(0.25 * 0.75 / runs)  # 4 sigma: 32 cells are checked at once
    assert np.abs(freq - 1.0 / k).max() < tol


@pytest.mark.parametrize("n, k", [(7, 1), (10, 4), (13, 4), (12, 3), (101, 2)])
def test_balanced_split_of_a_block_matches_random_grouping_row_by_row(n, k):
    seeds = range(6)
    perms = np.stack([np.random.default_rng(s).permutation(n) for s in seeds])
    block = balanced_split(perms, k)
    assert block.shape == perms.shape and block.dtype == np.int64
    for row, perm, s in zip(block, perms, seeds):
        assert np.array_equal(row, random_grouping(n, k, np.random.default_rng(s)).assignment)
        assert np.array_equal(balanced_split(perm, k), row)
        # group k holds the k-th contiguous block of the permutation's slots
        assert np.all(np.diff(row[perm]) >= 0)
        sizes = np.bincount(row, minlength=k)
        assert list(sizes) == [n // k + 1] * (n % k) + [n // k] * (k - n % k)
    if k == 1:
        assert not block.any()


def test_infeasible_counts_rejected():
    with pytest.raises(ValueError, match="3 antennas cannot fill 4 groups"):
        random_grouping(3, 4, np.random.default_rng(0))


def _layout_from(points, m=1, hw=10.0):
    return NetworkLayout(np.asarray(points, dtype=float), m, Region(hw))


def test_neighbor_two_aps_split():
    g = neighbor_grouping(_layout_from([[0, 0], [1, 0]]), 2)
    assert g.assignment[0] != g.assignment[1]


def test_neighbor_line_hand_trace():
    # closest pair (0,1) starts the chain at x=0; hops 0 -> 1 -> 3 -> 6 give
    # groups {0 km, 3 km} and {1 km, 6 km}
    layout = _layout_from([[0, 0], [1, 0], [3, 0], [6, 0]])
    g = neighbor_grouping(layout, 2)
    assert list(g.assignment) == [0, 1, 0, 1]


def test_neighbor_single_group():
    layout = _layout_from([[0, 0], [1, 0], [3, 0]])
    g = neighbor_grouping(layout, 1)
    assert np.all(g.assignment == 0)


def test_neighbor_permutation_covariant():
    # the geometric partition is label-free once the chain start is pinned;
    # the start itself is the documented lower-index tie-break, so keep the
    # original start AP as the lower-indexed member of the closest pair
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, size=(12, 2))
    layout = _layout_from(pts)
    g = neighbor_grouping(layout, 3)
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    i, j = np.unravel_index(np.argmin(d), d.shape)
    perm = rng.permutation(12)
    if list(perm).index(i) > list(perm).index(j):
        a, b = list(perm).index(i), list(perm).index(j)
        perm[a], perm[b] = perm[b], perm[a]
    g2 = neighbor_grouping(_layout_from(pts[perm]), 3)
    partition = lambda pos, a, k: {frozenset(map(tuple, pos[a == i])) for i in range(k)}
    assert partition(pts, g.assignment, 3) == partition(pts[perm], g2.assignment, 3)


@pytest.mark.parametrize("seed", range(5))
def test_neighbor_always_separates_closest_pair(seed):
    layout = place_ppp(10.0, Region(2.0), np.random.default_rng(seed))
    if layout.n_aps < 2:
        pytest.skip("degenerate draw")
    d = np.linalg.norm(layout.positions[:, None] - layout.positions[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    i, j = np.unravel_index(np.argmin(d), d.shape)
    g = neighbor_grouping(layout, 2)
    assert g.assignment[i] != g.assignment[j]


def test_neighbor_multi_antenna_round_robin():
    layout = _layout_from([[0, 0], [1, 0], [2.5, 0]], m=3)
    g = neighbor_grouping(layout, 2)
    for ap in range(3):
        groups = set(g.assignment[ap * 3 : (ap + 1) * 3])
        assert groups == {0, 1}  # every AP covers all groups when m >= n_groups


def _neighbor_reference(layout, n_groups):
    """The chain kept step by step: a mask of unvisited APs, then one antenna at a time."""
    n_aps, m = layout.n_aps, layout.antennas_per_ap
    dist, start, _ = closest_pair(layout.positions)
    unassigned = np.ones(n_aps, dtype=bool)
    unassigned[start] = False
    order = [start]
    prev = start
    for _ in range(n_aps - 1):
        nxt = int(np.argmin(np.where(unassigned, dist[prev], np.inf)))
        unassigned[nxt] = False
        order.append(nxt)
        prev = nxt
    assignment = np.empty(n_aps * m, dtype=np.int64)
    counter = 0
    for ap in order:
        for j in range(m):
            assignment[ap * m + j] = counter % n_groups
            counter += 1
    return assignment


def _rounded_layouts():
    # positions on a 0.1 km grid: tied distances and coincident APs are common
    for seed in range(40):
        rng = np.random.default_rng(seed)
        pts = np.round(rng.uniform(-0.5, 0.5, size=(rng.integers(1, 30), 2)), 1)
        yield _layout_from(pts, m=int(rng.integers(1, 5)))
    yield place_hex(10.0, Region(0.6), 100)  # fig9's cellular lattice


def test_neighbor_grouping_matches_the_step_by_step_chain():
    checked = 0
    for layout in _rounded_layouts():
        for n_groups in range(1, 5):
            if layout.n_antennas < n_groups:
                continue
            g = neighbor_grouping(layout, n_groups)
            ref = _neighbor_reference(layout, n_groups)
            assert g.assignment.dtype == ref.dtype
            assert np.array_equal(g.assignment, ref)
            checked += 1
    assert checked > 150


def test_neighbor_infeasible():
    with pytest.raises(ValueError, match="1 antennas cannot fill 2 groups"):
        neighbor_grouping(_layout_from([[0, 0]]), 2)


@pytest.mark.parametrize("n_groups", [0, -1])
def test_groupings_need_a_group(n_groups):
    layout = _layout_from([[0, 0], [1, 0], [3, 0]])
    with pytest.raises(ValueError, match="n_groups must be >= 1"):
        neighbor_grouping(layout, n_groups)
    with pytest.raises(ValueError, match="n_groups must be >= 1"):
        random_grouping(3, n_groups, np.random.default_rng(0))


def test_grouping_is_disjoint_cover():
    g = random_grouping(23, 5, np.random.default_rng(4))
    assert g.assignment.shape == (23,) and g.assignment.dtype == np.int64
    assert np.bincount(g.assignment, minlength=5).sum() == 23
    members = np.concatenate([np.flatnonzero(g.assignment == k) for k in range(5)])
    assert sorted(members) == list(range(23))


def test_group_large_scale_direct_sum():
    beta_bar = group_large_scale([1.0, 2.0, 3.0], np.array([0, 0, 1]), 2)
    assert np.allclose(beta_bar, [3.0, 3.0])


def test_group_large_scale_empty_last_group_sums_to_zero():
    beta_bar = group_large_scale([1.0, 2.0, 3.0], np.array([0, 1, 0]), 3)
    assert list(beta_bar) == [4.0, 2.0, 0.0]


def test_group_large_scale_partition_identity():
    rng = np.random.default_rng(5)
    beta = rng.uniform(0.1, 2.0, 40)
    for k in (1, 3, 8):
        g = random_grouping(40, k, rng).assignment
        assert group_large_scale(beta, g, k).sum() == pytest.approx(beta.sum(), rel=1e-12)


def test_group_large_scale_single_group_collapse():
    beta = np.array([0.5, 1.5, 2.0])
    assert group_large_scale(beta, np.zeros(3, dtype=np.int64), 1)[0] == pytest.approx(4.0)


def test_group_large_scale_length_mismatch():
    with pytest.raises(ValueError):
        group_large_scale([1.0, 2.0], np.array([0, 0, 1]), 2)
