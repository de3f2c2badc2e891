"""Access-point deployment: PPP and hexagonal layouts, worst-position search."""

import numpy as np
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Region:
    """Square region centered at the origin with side 2*half_width_km."""

    half_width_km: float = 5.0

    def __post_init__(self):
        if not self.half_width_km > 0:
            raise ValueError(f"half_width_km must be > 0, got {self.half_width_km}")

    @property
    def area_km2(self):
        return 4.0 * self.half_width_km * self.half_width_km  # inf, not OverflowError


@dataclass(frozen=True)
class NetworkLayout:
    """AP positions in km and the region they lie in.

    All antennas of an AP are co-located; antenna i of AP m has flat index
    m * antennas_per_ap + i throughout the package.
    """

    positions: np.ndarray  # (n_aps, 2) km
    antennas_per_ap: int = 1
    region: Region = field(default_factory=Region)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "positions", pos)
        if self.antennas_per_ap < 1:
            raise ValueError("antennas_per_ap must be >= 1")
        if len(pos) and not np.abs(pos).max() <= self.region.half_width_km + 1e-12:
            raise ValueError("all AP positions must lie inside the region")

    @property
    def n_aps(self):
        return len(self.positions)

    @property
    def n_antennas(self):
        return self.n_aps * self.antennas_per_ap


def place_ppp(density, region, rng, antennas_per_ap=1):
    """Draw AP positions from a homogeneous Poisson point process.

    Parameters
    ----------
    density : float
        Intensity in APs per km^2 (>= 0).
    region : Region
        Deployment region; positions are i.i.d. uniform over it.
    rng : numpy.random.Generator

    The AP count is Poisson(density * area). No repulsion constraint is
    applied, so APs can be arbitrarily close to each other.
    """
    if density < 0:
        raise ValueError(f"density must be >= 0, got {density}")
    n = rng.poisson(density * region.area_km2)
    hw = region.half_width_km
    positions = rng.uniform(-hw, hw, size=(n, 2))
    return NetworkLayout(positions, antennas_per_ap, region)


def hex_spacing(density):
    """Nearest-neighbor spacing of a triangular lattice with the given density."""
    return np.sqrt(2.0 / (np.sqrt(3.0) * density))


def place_hex(density, region, antennas_per_ap=1):
    """Deterministic triangular ("hexagonal") lattice clipped to the region.

    Every interior AP has six equidistant neighbors at distance
    s = sqrt(2 / (sqrt(3) * density)). The lattice is anchored with one point
    at the origin and then translated by half a cell, (s/2, s*sqrt(3)/4), so
    the origin terminal does not sit on a lattice point.
    """
    if density <= 0:
        raise ValueError(f"density must be > 0, got {density}")
    s = hex_spacing(density)
    row_step = s * np.sqrt(3.0) / 2.0
    hw = region.half_width_km
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
    pts = pts[np.all(np.abs(pts) <= hw, axis=1)]
    return NetworkLayout(pts, antennas_per_ap, region)


def closest_pair(positions):
    """Pairwise distances with an infinite diagonal, and the closest pair (i, j).

    Row-major argmin visits (i, j) with i < j first, so i is the lower index.
    """
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(dist, np.inf)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return dist, int(i), int(j)


def mean_nn_spacing(layout):
    """Mean nearest-neighbor distance between APs (km)."""
    if layout.n_aps < 2:
        raise ValueError("need at least two APs for a spacing estimate")
    d = _CellList(layout.positions, layout.region).query(layout.positions, k=2)
    return float(d.mean())


class _CellList:
    """Exact k-th nearest AP distances from a uniform grid of square cells.

    APs are bucketed into cells of side about 2.5 / sqrt(APs per km^2) of
    ``region``, so a cell holds about six of them. Each cell keeps the APs of
    its 3 x 3 block of cells, padded with inf to the longest such list. A
    query clipped to the grid takes the k-th smallest ``dx*dx + dy*dy`` over
    its cell's list, which holds every AP within one cell side of it; a query
    whose answer lies farther scans all APs instead. Distances are computed
    as ``cKDTree`` computes them, so they are bit-identical to its.
    """

    def __init__(self, points, region):
        self.points = points
        self.side = 2.5 * np.sqrt(region.area_km2 / len(points))
        # an AP within reach of a query lies in its 3 x 3 block even if the
        # cell coordinate of either rounds the other way
        self.reach2 = (self.side * (1.0 - 1e-9)) ** 2
        self.lo = points.min(axis=0)
        cell = self._cell(points)
        self.top = cell.max(axis=0)
        # each AP joins the lists of the 9 cells around its own, on the grid
        # with a ring of empty cells around it
        width = self.top[1] + 3
        n_cells = (self.top[0] + 3) * width
        block = (np.arange(-1, 2)[:, None] * width + np.arange(-1, 2)).ravel()
        member = ((cell @ (width, 1) + width + 1)[:, None] + block).ravel()
        # a stable sort of integers this small is a radix sort
        order = np.argsort(member.astype(np.min_scalar_type(n_cells)), kind="stable")
        member, src = member[order], order // 9
        counts = np.bincount(member, minlength=n_cells)
        slot = np.arange(member.size) - (np.cumsum(counts) - counts)[member]
        m = counts.max()
        xy = np.full((n_cells, 2, m), np.inf)
        at = member * (2 * m) + slot
        xy.reshape(-1)[at] = points[:, 0][src]
        xy.reshape(-1)[at + m] = points[:, 1][src]
        # indexed by the unpadded cell coordinates
        self.xy, self.stride = xy[width + 1:], (width, 1)

    def _cell(self, q):
        """Cell coordinates of q, truncated; truncation is the floor at or above 0."""
        return ((q - self.lo) / self.side).astype(np.intp)

    def query(self, q, k=1):
        """Distance from each row of q to its k-th nearest AP (k = 1 or 2)."""
        cell = np.minimum(np.maximum(self._cell(q), 0), self.top)
        d2 = self._kth(q, self.xy[cell @ self.stride], k)
        far = np.flatnonzero(d2 > self.reach2)
        chunk = max(1, (1 << 20) // len(self.points))
        for start in range(0, far.size, chunk):
            f = far[start:start + chunk]
            d2[f] = self._kth(q[f], np.tile(self.points.T, (f.size, 1, 1)), k)
        return np.sqrt(d2)

    @staticmethod
    def _kth(q, xy, k):
        """k-th smallest squared distance from q[i] to the points xy[i].T.

        Overwrites xy, of shape (len(q), 2, points).
        """
        xy -= q[:, :, None]
        xy *= xy
        d2 = xy[:, 0]
        d2 += xy[:, 1]
        return d2.min(axis=1) if k == 1 else np.partition(d2, k - 1, axis=1)[:, k - 1]


#: The worst-position search starts with every stride-th grid point per axis,
#: the stride being the largest power of two that leaves at least this many
#: anchors per side; grids under twice this size per side take one full query.
_COARSE_ANCHORS = 16


def worst_position(layout, grid_resolution):
    """Grid point of the layout's region maximizing the minimum distance to any AP.

    Parameters
    ----------
    layout : NetworkLayout
    grid_resolution : float
        Grid step in km (> 0); runs take it from ScenarioConfig.opt_grid_km.

    The grid is ``axis x axis`` with ``axis = arange(-hw, hw + step/2, step)``,
    and the result equals the argmax of the nearest-AP distance over every
    grid point, ties broken by the lowest row-major index. It is found by an
    exact bound-and-refine search: the nearest-AP distance is 1-Lipschitz,
    so no point of a block beats the distance at its corner anchor plus the
    corner's distance to the farthest point of the block. Anchors of a coarse
    stride are queried first; blocks whose bound falls below the best
    distance found so far (less a slack far above rounding) are dropped, the
    others split in four, until the stride is one. The coarse stride follows
    from the grid size alone; small grids get a single full query.

    A finite grid finds a "bad" position, not necessarily the worst one,
    which is all the power heuristic needs.
    """
    if layout.n_aps == 0:
        raise ValueError("worst_position needs a non-empty layout")
    hw = layout.region.half_width_km
    if not grid_resolution > 0:
        raise ValueError(f"grid_resolution must be > 0, got {grid_resolution}")
    axis = np.arange(-hw, hw + grid_resolution / 2.0, grid_resolution)
    n = axis.size
    cells = _CellList(layout.positions, layout.region)
    slack = 1e-9 * hw  # APs lie in the region, so distances are at most 2 * sqrt(2) * hw
    stride = 1 << max(0, (n // _COARSE_ANCHORS).bit_length() - 1)
    anchors = np.arange(0, n, stride)
    i, j = np.repeat(anchors, anchors.size), np.tile(anchors, anchors.size)
    d = cells.query(np.column_stack([axis[i], axis[j]]))
    # (i, j, d) are the anchors of the live blocks. The best point queried so
    # far always stays live, so d.max() is the best distance found so far.
    while stride > 1:
        # block [i, i+stride) x [j, j+stride): its far corner bounds the reach
        far_i, far_j = np.minimum(i + stride, n) - 1, np.minimum(j + stride, n) - 1
        keep = d + np.hypot(axis[far_i] - axis[i], axis[far_j] - axis[j]) >= d.max() - slack
        i, j, d = i[keep], j[keep], d[keep]
        stride //= 2
        # the (0, 0) child keeps the parent's anchor; query the other three
        ci = np.concatenate([i, i + stride, i + stride])
        cj = np.concatenate([j + stride, j, j + stride])
        inside = (ci < n) & (cj < n)
        ci, cj = ci[inside], cj[inside]
        i, j = np.concatenate([i, ci]), np.concatenate([j, cj])
        d = np.concatenate([d, cells.query(np.column_stack([axis[ci], axis[cj]]))])
    k = (i * n + j)[d == d.max()].min()
    return np.array([axis[k // n], axis[k % n]])
