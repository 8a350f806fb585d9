"""Frozen whole-batch combiners and link moments, kept as a test reference.

This is the link code that ``transceiver._link_moments`` replaced, copied
without change of arithmetic: one scheme's combiners for the whole
realization batch in one (T, K, L, N) array, then one pass of link products
per moment set (plain, quantized uplink or drifted downlink) over that
array. ``test_transceiver`` holds the one-pass kernel, which builds and
reduces the combiners block by block, to it bit for bit. Do not optimize
this file.
"""

from __future__ import annotations

import numpy as np

from cfmimo.channel import _blocks
from cfmimo.transceiver import quantize


def whole_batch_combiners(workspace, hhat):
    """``CombinerWorkspace.combiners`` over the whole batch at once."""
    if workspace.spec.rule == "mrc":
        return np.where(workspace.delta[:, :, None], hhat, 0.0)
    v = np.zeros_like(hhat)
    for b in _blocks(hhat.shape[0], workspace.item_bytes):
        workspace._fill(hhat[b], v[b])
    v[:, ~workspace.delta] = 0.0
    return v


def link_moments(v, h, rot=None, bits="infinite", E=None):
    """E[s_kk] (K,), E|s_ki|^2 (K, K) and E||v_kl||^2 (K, L) of whole-batch
    combiners ``v``; ``rot`` rotates each O-RU's channels, ``E`` is the
    one-hot of the O-RUs' units whose coefficients are quantized."""
    T, K, L, N = h.shape
    if T < 2:
        raise ValueError("need at least 2 realizations")
    s = np.empty((T, K, K), dtype=complex)
    energy = np.empty((T, K, L))
    for b in _blocks(T, 16 * K * L * (N if E is None else max(K, N))):
        hb = h[b] if rot is None else h[b] * rot[b, None, :, None]
        if E is None:
            vb, hb = v[b].reshape(-1, K, L * N), hb.reshape(-1, K, L * N)
            s[b] = np.conj(vb) @ hb.swapaxes(1, 2)
        else:
            g = np.einsum("tkln,tiln->tkil", np.conj(v[b]), hb) @ E
            s[b] = quantize(g, bits, axis=(1, 2, 3)).sum(axis=-1)
        e = np.abs(v[b]) ** 2
        energy[b] = e[..., 0]
        for n in range(1, N):
            energy[b] += e[..., n]
    num = np.diagonal(s, axis1=1, axis2=2).mean(axis=0)
    return num, (np.abs(s) ** 2).mean(axis=0), energy.mean(axis=0)
