"""Uplink fixed power and the heuristic downlink allocation.

The downlink rule splits the per-O-RU budget across served UEs in inverse
proportion to the square roots of their aggregate large-scale gain and of
their largest per-O-RU precoder energy share, normalized so the most loaded
serving O-RU exactly meets the cap.
"""

from __future__ import annotations

import warnings

import numpy as np


def uplink_power(num_ue: int, p_fixed_mw: float) -> np.ndarray:
    """Fixed transmit power per UE."""
    if p_fixed_mw <= 0:
        raise ValueError("uplink power must be > 0")
    return np.full(num_ue, float(p_fixed_mw))


def downlink_power(
    lambda_gain: np.ndarray,
    omega: np.ndarray,
    delta: np.ndarray,
    p_max_mw: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Heuristic per-UE downlink powers under a per-O-RU radiated cap.

    Args:
        lambda_gain: (K, L) linear large-scale gains.
        omega: (K,) largest per-O-RU energy share of each normalized precoder.
        delta: (K, L) service indicators.
        p_max_mw: per-O-RU transmit power cap.

    Returns (p_dl, excluded); UEs with an empty serving set are excluded
    with zero power, and with a warning if they have a precoder (omega > 0)
    that no O-RU would radiate. A UE without a precoder (omega = 0) was
    reported where its precoder was normalized. A zero omega for a served
    UE is an error.
    """
    lam = np.asarray(lambda_gain, dtype=float)
    omega = np.asarray(omega, dtype=float)
    delta = np.asarray(delta, dtype=bool)
    K, L = lam.shape
    if p_max_mw <= 0:
        raise ValueError("p_max must be > 0")

    served = delta.any(axis=1)
    excluded = ~served
    unradiated = excluded & (omega > 0)
    if np.any(unradiated):
        warnings.warn(
            f"{int(unradiated.sum())} UE(s) have no serving O-RU and get zero "
            "downlink power"
        )
    if np.any(served & (omega <= 0)):
        raise ValueError("omega must be > 0 for every served UE")

    agg = (lam * delta).sum(axis=1)  # sum of gains over the serving set
    s = np.zeros(K)
    s[served] = 1.0 / np.sqrt(agg[served])
    t = np.zeros(K)
    t[served] = s[served] * np.sqrt(omega[served])

    col_sum = t @ delta  # (L,) sum of t_i over UEs served by each O-RU
    denom = np.where(delta, col_sum, -np.inf).max(axis=1)  # most loaded server
    p = np.zeros(K)
    p[served] = p_max_mw * (s[served] / np.sqrt(omega[served])) / denom[served]
    return p, excluded
