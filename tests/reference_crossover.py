"""Frozen one-hot GA crossover, kept as a test reference.

This is ``cfmimo.deployment._crossover`` as it was before it worked on
integer labels: it builds the (2n, L, M) one-hot children and parents and
ranks each child's genes by two reversed cumulative sums. It is copied
without change of arithmetic or of RNG draws, and ``test_deployment`` holds
the integer version to it, children and RNG state alike. Do not optimize
this file.
"""

from __future__ import annotations

import numpy as np


def _one_hot(genomes, M):
    return genomes[..., None] == np.arange(M)


def reference_crossover(a, b, M, rate, rng):
    n, L = a.shape
    cut = np.where(rng.random(n) < rate, rng.integers(1, L, size=n), L)
    in_head = np.arange(L) < cut[:, None]
    heads = np.concatenate([a, b])
    kids = np.concatenate([np.where(in_head, a, b), np.where(in_head, b, a)])
    X = _one_hot(kids, M)
    excess = X.sum(1) - _one_hot(heads, M).sum(1)
    from_end = np.cumsum(X[:, ::-1], axis=1)[:, ::-1]
    rank = np.take_along_axis(from_end, kids[..., None], 2)[..., 0]
    move = rank <= np.take_along_axis(excess, kids, 1)
    slots_end = np.cumsum(np.maximum(-excess, 0), axis=1)
    k = np.cumsum(move, axis=1) - 1
    label = (k[..., None] >= slots_end[:, None, :]).sum(-1)
    return np.where(move, label, kids)
