"""Frozen channel sampling and estimation, kept as a test reference.

This is the sampling code that the in-place kernels of ``cfmimo.channel``
replaced, copied without change of arithmetic: each part of the normal
draws comes from one ``standard_normal`` call over the whole batch, and the
per-link products write into a second channel-sized array. ``test_channel``
holds the kernels to it bit for bit. Do not optimize this file.
"""

from __future__ import annotations

import numpy as np

from cfmimo.channel import _blocks
from cfmimo.scenario import rng_stream


def per_link(A, x):
    T, N = x.shape[0], x.shape[-1]
    out = np.empty(x.shape, dtype=np.result_type(A, x))
    A = np.ascontiguousarray(A).reshape(-1, N, N)
    x_links = x.reshape(T, -1, N).transpose(1, 2, 0)
    out_links = out.reshape(T, -1, N).transpose(1, 2, 0)
    for b in _blocks(A.shape[0], 32 * N * T):
        out_links[b] = np.einsum("pnm,pmt->pnt", A[b], x_links[b])
    return out


def sample_channel(sqrt_R, rng, size):
    shape = (size,) + sqrt_R.shape[:-1]
    g = np.empty(shape, dtype=complex)
    g.real = rng.standard_normal(shape)
    g.imag = rng.standard_normal(shape)
    g /= np.sqrt(2.0)
    return per_link(sqrt_R, g)


def estimate_channels(h, W, pilot_power_mw, pilot_len, noise_mw, rng):
    ptau = pilot_power_mw * pilot_len
    sigma = np.sqrt(noise_mw / 2.0)
    y = np.sqrt(ptau) * h
    y.real += sigma * rng.standard_normal(h.shape)
    y.imag += sigma * rng.standard_normal(h.shape)
    return per_link(W, y)


def sample_drop_channels(stats, num_realizations, config, drop_index):
    rng_h = rng_stream(config.master_seed, drop_index, "small-scale")
    h = sample_channel(stats.sqrt_R, rng_h, size=num_realizations)
    rng_e = rng_stream(config.master_seed, drop_index, "estimation-noise")
    hhat = estimate_channels(
        h, stats.W, config.ul_power_mw, config.pilot_count, stats.noise_mw, rng_e
    )
    return h, hhat
