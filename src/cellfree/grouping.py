"""Partitioning AP antennas into OSTBC groups: random and neighbor grouping."""

import numpy as np
from dataclasses import dataclass

from .deployment import closest_pair


@dataclass(frozen=True)
class Grouping:
    """Per-antenna group assignment forming a disjoint cover of [0, n_groups)."""

    assignment: np.ndarray  # (n_antennas,) int
    n_groups: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        if a.size and (a.min() < 0 or a.max() >= self.n_groups):
            raise ValueError("group indices out of range")

    @property
    def n_antennas(self):
        return self.assignment.size


def random_grouping(n_antennas, n_groups, rng):
    """Uniformly random balanced partition (group sizes differ by at most 1).

    Shuffles the antenna indices and splits the permutation into contiguous
    blocks; the first (n_antennas mod n_groups) groups get the extra antenna.
    """
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    if n_antennas < n_groups:
        raise ValueError(f"{n_antennas} antennas cannot fill {n_groups} groups")
    perm = rng.permutation(n_antennas)
    base, extra = divmod(n_antennas, n_groups)
    assignment = np.empty(n_antennas, dtype=np.int64)
    start = 0
    for k in range(n_groups):
        size = base + (1 if k < extra else 0)
        assignment[perm[start : start + size]] = k
        start += size
    return Grouping(assignment, n_groups)


def neighbor_grouping(layout, n_groups):
    """Deterministic chain heuristic assigning close APs to different groups.

    Starting from the lower-index AP of the closest pair (group 0), the chain
    repeatedly hops from the previously assigned AP to its nearest unassigned
    AP, assigning groups cyclically. Ties break toward the lower AP index and
    the chain never restarts.

    Grouping is per antenna: each AP's antennas continue the cyclic counter,
    so with antennas_per_ap >= n_groups every AP covers all groups and can
    transmit the full code.
    """
    n_aps, m = layout.n_aps, layout.antennas_per_ap
    if n_aps * m < n_groups:
        raise ValueError(f"{n_aps * m} antennas cannot fill {n_groups} groups")
    dist, start, _ = closest_pair(layout.positions)  # one AP: (inf, 0, 0), a chain of one
    unassigned = np.ones(n_aps, dtype=bool)
    unassigned[start] = False
    order = [start]
    prev = start
    for _ in range(n_aps - 1):
        cand = np.where(unassigned, dist[prev], np.inf)
        nxt = int(np.argmin(cand))  # argmin takes the lowest index on ties
        unassigned[nxt] = False
        order.append(nxt)
        prev = nxt

    assignment = np.empty(n_aps * m, dtype=np.int64)
    counter = 0
    for ap in order:
        for j in range(m):
            assignment[ap * m + j] = counter % n_groups
            counter += 1
    return Grouping(assignment, n_groups)


def group_large_scale(beta, grouping):
    """Per-group sums beta_bar_k = sum of beta over the antennas of group k."""
    beta = np.asarray(beta, dtype=float)
    if beta.size != grouping.n_antennas:
        raise ValueError(
            f"beta has {beta.size} entries but grouping covers {grouping.n_antennas} antennas"
        )
    return np.bincount(grouping.assignment, weights=beta, minlength=grouping.n_groups)
