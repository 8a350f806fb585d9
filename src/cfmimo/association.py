"""Q-learning UE-EDU association under a fronthaul load constraint.

Each EDU is an agent whose state is the K-bit vector of UEs it serves and
whose actions toggle a single UE on or off (plus a no-op). Agents act in
round-robin order on a shared environment; the shared reward compares the
current sum rate against the all-associated reference. A statistical
(large-scale-only) SINR table makes the in-loop rate evaluation cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics
from .deployment import _one_hot, unit_labels

REWARD_CAP = 1e6  # sentinel where the reward ratio diverges
LEARNING_RATE = 0.1  # alpha of the temporal-difference update
DISCOUNT = 0.9  # kappa, the weight of the next state's best Q value
EPSILON_INIT = 0.9  # exploration probability of the first episode
ATTENUATION = 10.0  # phi, how slowly exploration decays over episodes


@dataclass
class QlConfig:
    episodes: int = 300
    fronthaul_ue_cap: int = 24
    steps_per_episode: int | None = None  # default 4 * K * M

    def validate(self) -> None:
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.fronthaul_ue_cap < 0:
            raise ValueError("fronthaul_ue_cap must be >= 0")
        if self.steps_per_episode is not None and self.steps_per_episode < 1:
            raise ValueError("steps_per_episode must be None or >= 1")


def epsilon_schedule(
    episode: int, epsilon_init: float, attenuation: float, action_count: int
) -> float:
    """Exploration probability eps_init * (1 - eps_init)^(e / (phi*|A|))."""
    return epsilon_init * (1.0 - epsilon_init) ** (
        episode / (attenuation * action_count)
    )


def q_update(
    q: float, reward_next: float, max_next_q: float, alpha: float, kappa: float
) -> float:
    """One temporal-difference update of a tabular Q value."""
    return (1.0 - alpha) * q + alpha * (reward_next + kappa * max_next_q)


def reward(chi: int, r_sum: float, r_sum_all: float) -> float:
    """Constraint-gated rate ratio r = chi * R_sum / (R_all - R_sum).

    The ratio diverges as R_sum approaches the all-associated reference; at
    that boundary a large finite sentinel is returned instead.
    """
    if chi == 0:
        return 0.0
    if r_sum >= r_sum_all - 1e-9:
        return chi * REWARD_CAP
    return chi * r_sum / (r_sum_all - r_sum)


class EduSinrTable:
    """Statistical per-(UE, EDU) uplink SINR table.

    gamma[k, m] is the expected regularized-MMSE SINR of UE k at EDU m
    computed from correlation matrices only: the estimate outer product is
    replaced by its mean and the interference-plus-noise covariance by its
    expectation. Stream SINRs add across serving EDUs (SINR-weighted
    combining at the aggregation point), so a candidate association is
    scored in O(K*M).
    """

    def __init__(self, gamma: np.ndarray):
        gamma = np.asarray(gamma, dtype=float)
        if gamma.ndim != 2:
            raise ValueError(f"SINR table must be 2-D (K, M), got shape {gamma.shape}")
        if not np.all(np.isfinite(gamma)):
            raise ValueError("SINR table must be finite")
        if np.any(gamma < 0):
            raise ValueError("SINR table must be >= 0")
        self.gamma = gamma

    @classmethod
    def from_statistics(
        cls,
        stats: ChannelStatistics,
        genome: np.ndarray,
        p_mw: np.ndarray,
        noise_mw: float,
    ) -> "EduSinrTable":
        """Table from the drop's correlation matrices and an O-RU genome.

        An EDU's expected covariance is block diagonal over its O-RUs, so
        its SINR is a sum of per-O-RU terms:
        gamma[k, m] = p_k sum_{l in m} tr(Sigma_kl^-1 Phi_kl) with
        Sigma_kl = sum_i p_i R_il - p_k Phi_kl + sigma^2 I. The (K, L) terms
        come from one batched N x N solve and are summed per EDU.
        """
        edus = unit_labels("edu", genome, stats.R.shape[1])
        N = stats.antennas_per_oru
        p = np.asarray(p_mw, dtype=float)
        G = np.einsum("i,ilnm->lnm", p, stats.R)
        Sigma = G - p[:, None, None, None] * stats.Phi + noise_mw * np.eye(N)
        per_oru = np.trace(np.linalg.solve(Sigma, stats.Phi), axis1=-2, axis2=-1).real
        return cls(p[:, None] * (per_oru @ _one_hot(edus, edus.max() + 1)))

    def r_sum(self, delta_km: np.ndarray) -> float:
        """Sum over UEs of log2(1 + SINR) for a boolean (K, M) association."""
        return float(np.log2(1.0 + (self.gamma * delta_km).sum(axis=1)).sum())


@dataclass
class QlResult:
    best_delta: np.ndarray  # (K, M) best feasible association observed
    best_r_sum: float
    r_sum_all: float
    episode_rewards: np.ndarray  # (EP,) mean reward per episode
    episode_best: np.ndarray  # (EP,) best feasible R_sum seen so far
    q_table_sizes: list[int]


def ql_associate(
    evaluator,
    num_ue: int,
    num_edu: int,
    config: QlConfig,
    rng: np.random.Generator,
) -> QlResult:
    """Learn a UE-EDU association maximizing the constrained sum rate.

    ``evaluator`` maps a (K, M) boolean association to its sum rate. It must
    be a pure function of the association: it is called once for the
    all-serve reference, once at the start of each episode (the empty
    association) and once after each action that changes the association;
    no-ops and redundant toggles reuse the last rate. Actions per agent:
    no-op, associate UE k, disassociate UE k. The best feasible association
    observed anywhere during training is returned, which is the quantity a
    deployment would keep.

    Each EDU's state is its K-bit serving set held as an int, and each
    visited (EDU, state) owns one row of 2K+1 Q values plus an int bitmask
    of the actions written so far; a state without a row has all Q values
    0. An EDU's Q-table size counts its first writes as they happen.
    """
    config.validate()
    K, M = num_ue, num_edu
    n_actions = 2 * K + 1
    steps = config.steps_per_episode or 4 * K * M
    cap = config.fronthaul_ue_cap
    r_sum_all = float(evaluator(np.ones((K, M), dtype=bool)))

    q_rows: list[dict[int, np.ndarray]] = [dict() for _ in range(M)]
    written: list[dict[int, int]] = [dict() for _ in range(M)]
    q_table_sizes = [0] * M
    delta = np.zeros((K, M), dtype=bool)

    best_delta = np.zeros((K, M), dtype=bool)
    best_r = 0.0  # the empty association is feasible and rates 0

    ep_rewards = np.zeros(config.episodes)
    ep_best = np.zeros(config.episodes)

    for e in range(config.episodes):
        delta[:] = False
        states = [0] * M
        load = [0] * M
        chi = 1  # no EDU serves anyone
        r_sum = float(evaluator(delta))
        r = reward(chi, r_sum, r_sum_all)
        eps = epsilon_schedule(e, EPSILON_INIT, ATTENUATION, n_actions)
        acc_reward = 0.0
        for t in range(steps):
            m = t % M
            rows = q_rows[m]
            s = states[m]
            row = rows.get(s)
            if rng.random() < eps:
                a = int(rng.integers(n_actions))
            else:
                a = 0 if row is None else int(row.argmax())

            s_next = s
            if a:
                on = a <= K
                k = a - 1 if on else a - K - 1
                if bool(s >> k & 1) != on:
                    s_next = states[m] = s ^ (1 << k)
                    delta[k, m] = on
                    load[m] += 1 if on else -1
                    chi = int(max(load) <= cap)
                    r_sum = float(evaluator(delta))
                    r = reward(chi, r_sum, r_sum_all)
            acc_reward += r

            row_next = row if s_next == s else rows.get(s_next)
            max_next = 0.0 if row_next is None else float(row_next.max())
            if row is None:
                row = rows[s] = np.zeros(n_actions)
                written[m][s] = 0
            row[a] = q_update(row.item(a), r, max_next, LEARNING_RATE, DISCOUNT)
            if not written[m][s] >> a & 1:
                written[m][s] |= 1 << a
                q_table_sizes[m] += 1

            if chi and r_sum > best_r:
                best_r = r_sum
                best_delta = delta.copy()
        ep_rewards[e] = acc_reward / steps
        ep_best[e] = best_r

    return QlResult(
        best_delta=best_delta,
        best_r_sum=best_r,
        r_sum_all=r_sum_all,
        episode_rewards=ep_rewards,
        episode_best=ep_best,
        q_table_sizes=q_table_sizes,
    )
