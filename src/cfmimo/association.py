"""Q-learning UE-EDU association under a fronthaul load constraint.

Each EDU is an agent whose state is the K-bit vector of UEs it serves and
whose actions toggle a single UE on or off (plus a no-op). Agents act in
round-robin order on a shared environment; the shared reward compares the
current sum rate against the all-associated reference. A statistical
(large-scale-only) SINR table makes the in-loop rate evaluation cheap, and
an exhaustive search over small instances serves as the validation oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics
from .transceiver import se_from_sinr

REWARD_CAP = 1e6  # sentinel where the reward ratio diverges


@dataclass
class QlConfig:
    learning_rate: float = 0.1
    discount: float = 0.9
    epsilon_init: float = 0.9
    attenuation: float = 10.0
    episodes: int = 300
    fronthaul_ue_cap: int = 24
    steps_per_episode: int | None = None  # default 4 * K * M

    def validate(self) -> None:
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")
        if not (0.0 <= self.discount < 1.0):
            raise ValueError("discount must be in [0, 1)")
        if not (0.0 < self.epsilon_init < 1.0):
            raise ValueError("epsilon_init must be in (0, 1)")
        if self.attenuation <= 0:
            raise ValueError("attenuation must be > 0")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.fronthaul_ue_cap < 0:
            raise ValueError("fronthaul_ue_cap must be >= 0")


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


def fronthaul_ok(delta_km: np.ndarray, ue_cap: int) -> int:
    """1 if every EDU serves at most ue_cap UEs, else 0."""
    delta_km = np.asarray(delta_km, dtype=bool)
    return int(delta_km.sum(axis=0).max(initial=0) <= ue_cap)


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
        self.gamma = np.asarray(gamma, dtype=float)
        self.num_ue, self.num_edu = self.gamma.shape

    @classmethod
    def from_statistics(
        cls,
        stats: ChannelStatistics,
        genome: np.ndarray,
        p_mw: np.ndarray,
        noise_mw: float,
    ) -> "EduSinrTable":
        genome = np.asarray(genome, dtype=int)
        K = stats.num_ue
        N = stats.antennas_per_oru
        M = int(genome.max()) + 1
        p = np.asarray(p_mw, dtype=float)
        gamma = np.zeros((K, M))
        for m in range(M):
            orus = np.flatnonzero(genome == m)
            A = orus.size * N
            # Expected received covariance of the EDU's stacked antennas.
            G = np.zeros((A, A), dtype=complex)
            Phi_blocks = np.zeros((K, A, A), dtype=complex)
            for j, l in enumerate(orus):
                s = slice(j * N, (j + 1) * N)
                G[s, s] = np.einsum("i,inm->nm", p, stats.R[:, l])
                for k in range(K):
                    Phi_blocks[k][s, s] = stats.Phi[k, l]
            eye = np.eye(A)
            for k in range(K):
                Sigma = G - p[k] * Phi_blocks[k] + noise_mw * eye
                sol = np.linalg.solve(Sigma, Phi_blocks[k])
                gamma[k, m] = p[k] * np.trace(sol).real
        return cls(gamma)

    def per_ue_se(self, delta_km: np.ndarray) -> np.ndarray:
        delta_km = np.asarray(delta_km, dtype=bool)
        g = (self.gamma * delta_km).sum(axis=1)
        return se_from_sinr(g)

    def r_sum(self, delta_km: np.ndarray) -> float:
        return float(self.per_ue_se(delta_km).sum())


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

    ``evaluator`` maps a (K, M) boolean association to its sum rate. Actions
    per agent: no-op, associate UE k, disassociate UE k. The best feasible
    association observed anywhere during training is returned, which is the
    quantity a deployment would keep.
    """
    config.validate()
    K, M = num_ue, num_edu
    n_actions = 2 * K + 1
    steps = config.steps_per_episode or 4 * K * M
    r_sum_all = float(evaluator(np.ones((K, M), dtype=bool)))

    q_tables: list[dict[tuple[int, int], float]] = [dict() for _ in range(M)]
    delta = np.zeros((K, M), dtype=bool)

    best_delta = np.zeros((K, M), dtype=bool)
    best_r = 0.0  # the empty association is feasible and rates 0

    ep_rewards = np.zeros(config.episodes)
    ep_best = np.zeros(config.episodes)

    def state_key(m: int) -> int:
        bits = 0
        col = delta[:, m]
        for k in range(K):
            if col[k]:
                bits |= 1 << k
        return bits

    def best_q(table: dict, s: int) -> tuple[int, float]:
        vals = np.array([table.get((s, a), 0.0) for a in range(n_actions)])
        return int(np.argmax(vals)), float(vals.max())

    for e in range(config.episodes):
        delta[:] = False
        eps = epsilon_schedule(e, config.epsilon_init, config.attenuation, n_actions)
        acc_reward = 0.0
        for t in range(steps):
            m = t % M
            s = state_key(m)
            if rng.random() < eps:
                a = int(rng.integers(n_actions))
            else:
                a, _ = best_q(q_tables[m], s)

            if 1 <= a <= K:
                delta[a - 1, m] = True
            elif a > K:
                delta[a - K - 1, m] = False

            chi = fronthaul_ok(delta, config.fronthaul_ue_cap)
            r_sum = float(evaluator(delta))
            r = reward(chi, r_sum, r_sum_all)
            acc_reward += r

            s_next = state_key(m)
            _, max_next = best_q(q_tables[m], s_next)
            q_old = q_tables[m].get((s, a), 0.0)
            q_tables[m][(s, a)] = q_update(
                q_old, r, max_next, config.learning_rate, config.discount
            )

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
        q_table_sizes=[len(t) for t in q_tables],
    )


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
