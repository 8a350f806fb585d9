"""Exhaustive association oracle and the fronthaul feasibility test it uses.

``exhaustive_oracle`` searches every per-UE subset of EDUs on small
instances, so the Q-learning tests can compare the learned association with
the true optimum. ``fronthaul_ok`` is the constraint indicator chi of the
reward; the Q-learning loop in ``cfmimo.association`` computes it inline
from a per-EDU load counter, and this array form is the reference for it.
"""

from __future__ import annotations

import itertools

import numpy as np


def fronthaul_ok(delta_km: np.ndarray, ue_cap: int) -> int:
    """1 if every EDU serves at most ue_cap UEs, else 0."""
    delta_km = np.asarray(delta_km, dtype=bool)
    return int(delta_km.sum(axis=0).max(initial=0) <= ue_cap)


def exhaustive_oracle(
    evaluator,
    num_ue: int,
    num_edu: int,
    ue_cap: int,
    max_states: int = 100_000,
) -> tuple[np.ndarray, float]:
    """Brute-force best feasible association (per-UE subsets of EDUs).

    Refuses when the joint space (2^M)^K exceeds ``max_states``. The empty
    association is always feasible and scores 0, so an all-infeasible cap
    returns it.
    """
    K, M = num_ue, num_edu
    total = (2**M) ** K
    if total > max_states:
        raise ValueError(f"{total} joint associations exceed the oracle limit")
    best_delta = np.zeros((K, M), dtype=bool)
    best_r = 0.0
    subsets = np.array(
        [[bool(s >> m & 1) for m in range(M)] for s in range(2**M)], dtype=bool
    )
    for combo in itertools.product(range(2**M), repeat=K):
        delta = subsets[list(combo)]
        if not fronthaul_ok(delta, ue_cap):
            continue
        r = float(evaluator(delta))
        if r > best_r:
            best_r = r
            best_delta = delta.copy()
    return best_delta, best_r
