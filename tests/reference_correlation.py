"""Frozen per-link quadrature of the spatial correlation, kept as a test reference.

This is the ``spatial_correlation_batch`` that the fixed-grid quadrature in
``cfmimo.channel`` replaced, copied without change of arithmetic: every
call builds, normalizes and copies its own (P, n, n) weight array from the
per-link Gaussian pdf, a zero spread collapses to a single point mass, and
the result is symmetrized at the end. ``test_channel`` holds the new code
to it. Do not optimize this file.
"""

from __future__ import annotations

import numpy as np

QUAD_NODES = 40
ANGLE_TRUNC_SIGMAS = 4.0


def axis_nodes(center, std: float):
    """Quadrature nodes (P, n) and unnormalized weights (P, n) of a Gaussian
    axis truncated at +/-4 std; a zero std is a point mass at the center."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if std == 0.0:
        return center[:, None], np.ones((center.size, 1))
    x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
    half = ANGLE_TRUNC_SIGMAS * std
    nodes = center[:, None] + half * x[None, :]
    pdf = np.exp(-0.5 * ((nodes - center[:, None]) / std) ** 2)
    weights = w[None, :] * pdf
    return nodes, weights


def reference_spatial_correlation_batch(
    nominal_azimuth,
    nominal_elevation,
    asd_azimuth: float,
    asd_elevation: float,
    num_antennas: int,
    beta,
) -> np.ndarray:
    az = np.atleast_1d(np.asarray(nominal_azimuth, dtype=float))
    el = np.atleast_1d(np.asarray(nominal_elevation, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    P = az.size
    N = num_antennas

    az_nodes, az_w = axis_nodes(az, asd_azimuth)
    el_nodes, el_w = axis_nodes(el, asd_elevation)

    w2 = az_w[:, :, None] * el_w[:, None, :]
    w2 /= w2.sum(axis=(1, 2), keepdims=True)

    step = 1j * np.pi * np.sin(az_nodes)[:, :, None] * np.cos(el_nodes)[:, None, :]
    np.exp(step, out=step)

    offsets = np.arange(N)
    r = np.empty((P, N), dtype=complex)
    term = w2.astype(complex)
    r[:, 0] = term.sum(axis=(1, 2))
    for d in offsets[1:]:
        term *= step
        r[:, d] = term.sum(axis=(1, 2))

    idx = offsets[:, None] - offsets[None, :]
    R = np.where(idx >= 0, r[:, np.abs(idx)], np.conj(r[:, np.abs(idx)]))
    R = R * beta[:, None, None]
    return 0.5 * (R + np.conj(np.swapaxes(R, -1, -2)))
