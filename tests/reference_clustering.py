"""Frozen scipy-based clustered baseline, kept as a test reference.

This is the ``clustered_baseline`` whose assignment step called scipy's
``linear_sum_assignment`` on the capacity-replicated centroid columns,
copied without change of arithmetic; it returns the genome rather than a
``Partition``. ``test_assignment`` holds the numpy assignment in
``cfmimo.deployment`` to it. Do not optimize this file.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment


def clustered_baseline(
    oru_positions: np.ndarray,
    num_edu: int,
    rng: np.random.Generator | None = None,
    restarts: int = 8,
    iterations: int = 30,
) -> np.ndarray:
    """Balanced geographic clustering of O-RUs into EDUs.

    Lloyd iterations with an exactly balanced assignment step (Hungarian
    matching against capacity-replicated centroids); the best of several
    seeded restarts by within-group pairwise spread is returned.
    """
    pos = np.asarray(oru_positions, dtype=float)
    if pos.ndim != 2:
        raise ValueError("oru_positions must be (L, dim)")
    L = pos.shape[0]
    M = num_edu
    if L < M:
        raise ValueError("cannot split fewer O-RUs than EDUs")
    if M == 1:
        return np.zeros(L, dtype=int)
    if M == L:
        return np.arange(L)
    rng = rng or np.random.default_rng(0)

    # Capacity slots: ceil for the first L%M groups, floor for the rest.
    base, extra = divmod(L, M)
    capacities = np.array([base + (1 if m < extra else 0) for m in range(M)])
    slot_group = np.repeat(np.arange(M), capacities)

    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)

    def within_spread(genome: np.ndarray) -> float:
        tot = 0.0
        for m in range(M):
            idx = np.flatnonzero(genome == m)
            tot += dist[np.ix_(idx, idx)].sum() / 2.0
        return tot

    best_genome, best_cost = None, math.inf
    for _ in range(restarts):
        centroids = pos[rng.choice(L, size=M, replace=False)]
        genome = np.zeros(L, dtype=int)
        for _ in range(iterations):
            cost = np.linalg.norm(pos[:, None, :] - centroids[None, :, :], axis=-1)
            row, col = linear_sum_assignment(cost[:, slot_group])
            new_genome = np.empty(L, dtype=int)
            new_genome[row] = slot_group[col]
            if np.array_equal(new_genome, genome):
                break
            genome = new_genome
            for m in range(M):
                centroids[m] = pos[genome == m].mean(axis=0)
        c = within_spread(genome)
        if c < best_cost:
            best_genome, best_cost = genome, c
    return best_genome
