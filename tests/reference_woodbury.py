"""Frozen full-inverse combiner kernel, kept as a test reference.

This is ``CombinerWorkspace`` as it was before each serving set was solved
only for the identity columns its UEs read: every distinct serving set of a
unit, the empty set included, is solved against the whole K x K identity,
and each (atom, UE) then picks its column. The plan and the fill are copied
without change of arithmetic, for one block of realizations and without the
plan cache. ``test_combiner_kernel`` holds the kernel to it bit for bit. Do
not optimize this file.
"""

from __future__ import annotations

import numpy as np

from cfmimo.deployment import _one_hot, unit_labels
from cfmimo.transceiver import _solve_regularized


def _plan(units, delta, N):
    K = delta.shape[0]
    local = (np.bincount(units)[units] == 1) & (N <= K)
    wide = np.flatnonzero(~local)
    local = np.flatnonzero(local)
    if not wide.size:
        return local, wide, None, None, ()
    wide_units = units[wide]
    in_unit = _one_hot(wide_units, units.max() + 1).T
    sets = delta[:, None, wide] & in_unit[None]
    sets, which = np.unique(sets.reshape(-1, wide.size), axis=0, return_inverse=True)
    set_of = which.reshape(K, -1)[:, wide_units].T
    key = np.column_stack([wide_units, delta[:, wide].T])
    _, first, atom = np.unique(key, axis=0, return_index=True, return_inverse=True)
    size = np.bincount(atom)
    by_size = np.argsort(size, kind="stable")
    order = np.argsort(np.argsort(by_size)[atom], kind="stable")
    first = first[by_size]
    groups = []
    a = l = 0
    for n, count in zip(*np.unique(size, return_counts=True)):
        groups.append((slice(a, a + count), slice(l, l + count * n), n * N))
        a, l = a + count, l + count * n
    return local, wide[order], sets[:, first].astype(float), set_of[first], tuple(groups)


def full_inverse_combiners(spec, association, genome, C, p_mw, noise_mw, hhat):
    """(T, K, L, N) combiners of ``spec`` for the realization batch ``hhat``."""
    delta = association.delta
    if spec.rule == "mrc":
        return np.where(delta[:, :, None], hhat, 0.0)
    T, K, L, N = hhat.shape
    p = np.asarray(p_mw, dtype=float)
    units = np.asarray(unit_labels(spec.granularity, genome, L), dtype=np.intp)
    local, wide, sets, set_of, groups = _plan(units, delta, N)
    D = np.einsum("i,ilnm->lnm", p, C) + float(noise_mw) * np.eye(N)

    v = np.zeros_like(hhat)
    H = hhat.transpose(0, 2, 3, 1)
    if local.size:
        Hl = H[:, local] * p
        G = Hl @ np.conj(H[:, local]).swapaxes(-1, -2) + D[local]
        v[:, :, local] = _solve_regularized(G, Hl).transpose(0, 3, 1, 2)
    if wide.size:
        Dinv = _solve_regularized(D[wide], np.eye(N))
        Hw = H[:, wide]
        F = Dinv @ Hw
        A = len(set_of)
        Q = np.empty((T, A, K, K), dtype=complex)
        for atoms, orus, n in groups:
            Ha = np.conj(Hw[:, orus]).reshape(T, -1, n, K)
            Q[:, atoms] = Ha.swapaxes(-1, -2) @ F[:, orus].reshape(T, -1, n, K)
        Qs = (sets @ Q.reshape(T, A, K * K)).reshape(T, -1, K, K)
        X = _solve_regularized(np.eye(K) + p[:, None] * Qs, np.eye(K))
        Y = X.swapaxes(-1, -2)[:, set_of, np.arange(K)].swapaxes(-1, -2)
        for atoms, orus, n in groups:
            Va = (F[:, orus].reshape(T, -1, n, K) @ Y[:, atoms]) * p
            v[:, :, wide[orus]] = Va.reshape(T, -1, N, K).transpose(0, 3, 1, 2)
    v[:, ~delta] = 0.0
    return v
