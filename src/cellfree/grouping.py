"""Partitioning AP antennas into OSTBC groups: random and neighbor grouping."""

import numpy as np
from dataclasses import dataclass

from .deployment import closest_pair


@dataclass(frozen=True)
class Grouping:
    """Group of every antenna, in [0, n_groups), as built by the two constructors."""

    assignment: np.ndarray  # (n_antennas,) int64


def random_grouping(n_antennas, n_groups, rng):
    """Uniformly random balanced partition (group sizes differ by at most 1).

    Shuffles the antenna indices and splits the permutation with
    :func:`balanced_split`.
    """
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    if n_antennas < n_groups:
        raise ValueError(f"{n_antennas} antennas cannot fill {n_groups} groups")
    return Grouping(balanced_split(rng.permutation(n_antennas), n_groups))


def balanced_split(perms, n_groups):
    """Group of every antenna when each permutation is split into contiguous blocks.

    perms is one permutation of the n antenna indices, shape (n,), or a block
    of them, shape (m, n). Group k takes the k-th block of permutation slots,
    and the first (n mod n_groups) blocks are one slot longer; antenna
    perms[..., i] joins the group of slot i. Returns the assignment in
    antenna order, shaped like perms.
    """
    base, extra = divmod(perms.shape[-1], n_groups)
    slot_group = np.arange(n_groups).repeat([base + 1] * extra + [base] * (n_groups - extra))
    out = np.empty(perms.shape, dtype=np.int64)
    rows = () if perms.ndim == 1 else (np.arange(len(perms))[:, None],)
    out[(*rows, perms)] = slot_group
    return out


#: Elements (draws x rows of beta x antennas) of one batch of random_group_sums:
#: each per-batch array holds at most 64 KB, whatever the number of draws,
#: unless one draw alone needs more.
_BATCH_ELEMENTS = 8192


def random_group_sums(beta, n_groups, n_draws, stream):
    """Group sums of beta under n_draws random balanced groupings.

    beta has shape (K, n antennas); the result has shape (n_draws, K,
    n_groups). Draw t permutes the antennas with stream(t).permutation(n), as
    random_grouping does, in draw order and even for one group. The
    permutations of a batch of draws are split together, and one
    group_large_scale call takes every sum of the batch, keyed by (draw, row,
    group): entry (t, k) is bit-identical to group_large_scale(beta[k], g,
    n_groups) for draw t's assignment g.
    """
    n_rows, n = beta.shape
    batch = max(1, _BATCH_ELEMENTS // beta.size)
    perms = np.empty((batch, n), dtype=np.int64)
    sums = np.empty((n_draws, n_rows, n_groups))
    for start in range(0, n_draws, batch):
        m = min(batch, n_draws - start)
        for i in range(m):
            perms[i] = stream(start + i).permutation(n)
        # the sum of draw i of the batch, row k and group g goes to bin (i*K + k)*G + g
        keys = ((np.arange(m * n_rows) * n_groups).reshape(m, n_rows, 1)
                + balanced_split(perms[:m], n_groups)[:, None, :])
        weights = np.broadcast_to(beta, keys.shape).ravel()
        sums[start:start + m] = group_large_scale(
            weights, keys.ravel(), m * n_rows * n_groups).reshape(m, n_rows, n_groups)
    return sums


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
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    n_aps, m = layout.n_aps, layout.antennas_per_ap
    if n_aps * m < n_groups:
        raise ValueError(f"{n_aps * m} antennas cannot fill {n_groups} groups")
    # one AP: (inf, 0, 0), a chain of one; a visited AP's column becomes inf
    dist, prev, _ = closest_pair(layout.positions)
    order = np.empty(n_aps, dtype=np.int64)
    order[0] = prev
    for k in range(1, n_aps):
        dist[:, prev] = np.inf
        prev = order[k] = np.argmin(dist[prev])  # argmin takes the lowest index on ties

    assignment = np.empty(n_aps * m, dtype=np.int64)
    antennas = order[:, None] * m + np.arange(m)  # the k-th AP of the chain counts from k*m
    assignment[antennas] = np.arange(n_aps * m).reshape(n_aps, m) % n_groups
    return Grouping(assignment)


def group_large_scale(beta, assignment, n_groups):
    """Per-group sums beta_bar_k = sum of beta over the antennas of group k.

    assignment holds the group of every antenna; a group without antennas
    sums to zero.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.size != len(assignment):
        raise ValueError(
            f"beta has {beta.size} entries but the assignment covers {len(assignment)} antennas"
        )
    return np.bincount(assignment, weights=beta, minlength=n_groups)
