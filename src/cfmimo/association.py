"""Q-learning UE-EDU association under a fronthaul load constraint.

Each EDU is an agent whose state is the K-bit vector of UEs it serves and
whose actions toggle a single UE on or off (plus a no-op). Agents act in
round-robin order on a shared environment; the shared reward compares the
current sum rate against the all-associated reference. A statistical
(large-scale-only) SINR table makes the in-loop rate evaluation cheap.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics
from .deployment import _one_hot, unit_labels
from .scenario import require_integers

REWARD_CAP = 1e6  # sentinel where the reward ratio diverges
LEARNING_RATE = 0.1  # alpha of the temporal-difference update
DISCOUNT = 0.9  # kappa, the weight of the next state's best Q value
EPSILON_INIT = 0.9  # exploration probability of the first episode
ATTENUATION = 10.0  # phi, how slowly exploration decays over episodes


@dataclass(frozen=True)
class QlConfig:
    """Q-learning settings, checked by :meth:`validate` when made."""

    episodes: int = 300
    fronthaul_ue_cap: int = 24
    steps_per_episode: int | None = None  # default 4 * K * M

    def validate(self) -> None:
        require_integers(episodes=self.episodes, fronthaul_ue_cap=self.fronthaul_ue_cap)
        if self.steps_per_episode is not None:
            require_integers(steps_per_episode=self.steps_per_episode)
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.fronthaul_ue_cap < 0:
            raise ValueError("fronthaul_ue_cap must be >= 0")
        if self.steps_per_episode is not None and self.steps_per_episode < 1:
            raise ValueError("steps_per_episode must be None or >= 1")

    __post_init__ = validate


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
        self._ue_rates: dict[int, list[float]] = {}  # bitmask -> every UE's rate

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

    def ue_rate(self, k: int, edus: int) -> float:
        """log2(1 + SINR) of UE k served by the EDUs of the bitmask ``edus``.

        This is the k-th term that :meth:`r_sum` adds, bit for bit: every
        UE's rate under one bitmask comes from the same (K, M) array
        expression, so the same summation order and log2 kernel run. The
        rates are memoized per bitmask as they are asked for, so a table
        with many EDUs stores only the bitmasks visited.
        """
        rates = self._ue_rates.get(edus)
        if rates is None:
            served = np.array([edus >> m & 1 for m in range(self.gamma.shape[1])], dtype=bool)
            rates = np.log2(1.0 + (self.gamma * served).sum(axis=1)).tolist()
            self._ue_rates[edus] = rates
        return rates[k]


def _row_max(
    actions: Sequence[int], values: Sequence[float], prevs: Sequence[int], j: int, n: int
) -> tuple[float, int]:
    """The largest of a row's n Q values, 0.0 where not written, and its
    first action, the one ``ndarray.argmax`` picks.

    The row's written values are the chain of entries that starts at its
    latest entry ``j`` and follows ``prevs`` back to -1; entry ``j`` holds
    action ``actions[j]`` and value ``values[j]``. No other entry is read.
    """
    row = [0.0] * n
    while j >= 0:
        row[actions[j]] = values[j]
        j = prevs[j]
    best = max(row)
    return best, row.index(best)


@dataclass
class QlResult:
    best_delta: np.ndarray  # (K, M) best feasible association observed
    best_r_sum: float
    r_sum_all: float
    episode_rewards: np.ndarray  # (EP,) mean reward per episode
    episode_best: np.ndarray  # (EP,) best feasible R_sum seen so far
    q_table_sizes: list[int]


def ql_associate(
    table: EduSinrTable,
    num_ue: int,
    num_edu: int,
    config: QlConfig,
    rng: np.random.Generator,
) -> QlResult:
    """Learn a UE-EDU association maximizing the constrained sum rate.

    ``table`` rates associations: :meth:`EduSinrTable.r_sum` gives the
    all-serve reference; the empty association that starts each episode
    rates 0. An action toggles one (UE k, EDU m) entry, which changes only
    UE k's term of the sum, so the loop keeps the K per-UE rates
    (:meth:`EduSinrTable.ue_rate` of UE k's served-EDU bitmask) and sums
    them as ``r_sum`` does, to the same bits; no-ops and redundant toggles
    reuse the last rate. Actions per agent: no-op, associate UE k,
    disassociate UE k. The best feasible association observed anywhere
    during training is returned, which is the quantity a deployment would
    keep.

    Each EDU's state is its K-bit serving set held as an int, and each
    visited (EDU, state) gets a row number, together with the largest of
    its 2K+1 Q values and that value's first action, both kept current as
    the row is written. The written Q values sit in flat typed arrays, one
    entry per first write, holding its action, its value and the index of
    its row's previous entry; each row keeps the index of its latest entry,
    so a row's written values are a short chain (two or three entries on
    average), walked to read one value and, when the row's largest value
    falls, to recount it (:func:`_row_max`). An action with no entry in its
    row's chain, and every action of a state without a row, has Q value 0.
    Each EDU's current row is cached, so a step looks up only the row of a
    state it moves to, and a count of the EDUs over the cap stands in for
    the largest load. An EDU's Q-table size counts its first writes.

    Raises ``ValueError`` when ``table`` is not (num_ue, num_edu).
    """
    from array import array  # a shared library, loaded only by runs that learn

    K, M = num_ue, num_edu
    if table.gamma.shape != (K, M):
        raise ValueError(
            f"SINR table has shape {table.gamma.shape} but the association "
            f"has shape {(K, M)} (num_ue, num_edu)"
        )
    n_actions = 2 * K + 1
    steps = config.steps_per_episode or 4 * K * M
    over_cap = config.fronthaul_ue_cap + 1  # the least load over the cap
    r_sum_all = float(table.r_sum(np.ones((K, M), dtype=bool)))

    row_of: list[dict[int, int]] = [dict() for _ in range(M)]  # state -> row
    row_head = array("i")  # each row's latest entry
    row_max = array("d")  # the largest Q value of each row
    row_arg = array("i")  # its first action, which argmax would pick
    entry_action = array("i")
    entry_value = array("d")  # the written Q values
    entry_prev = array("i")  # the previous entry of the same row, or -1
    q_table_sizes = [0] * M
    rates = np.zeros(K)  # log2(1 + SINR) of each UE

    best_states = [0] * M
    best_r = 0.0  # the empty association is feasible and rates 0

    ep_rewards = np.zeros(config.episodes)
    ep_best = np.zeros(config.episodes)

    random, integers, ue_rate = rng.random, rng.integers, table.ue_rate
    for e in range(config.episodes):
        states = [0] * M
        cur = [rows.get(0, -1) for rows in row_of]  # each EDU's current row, or -1
        edus = [0] * K  # served-EDU bitmask of each UE
        load = [0] * M
        over = 0  # the EDUs serving more than cap UEs
        rates[:] = 0.0
        chi = 1  # no EDU serves anyone
        r_sum = 0.0  # each UE's rate is log2(1)
        r = reward(chi, r_sum, r_sum_all)
        eps = epsilon_schedule(e, EPSILON_INIT, ATTENUATION, n_actions)
        acc_reward = 0.0
        for t in range(steps):
            m = t % M
            s = states[m]
            i = cur[m]
            if random() < eps:
                a = int(integers(n_actions))
            else:
                a = 0 if i < 0 else row_arg[i]

            i_next = i
            if a:
                on = a <= K
                k = a - 1 if on else a - K - 1
                if bool(s >> k & 1) != on:
                    states[m] = s ^ (1 << k)
                    i_next = cur[m] = row_of[m].get(states[m], -1)
                    edus[k] ^= 1 << m
                    if on:
                        load[m] += 1
                        over += load[m] == over_cap
                    else:
                        over -= load[m] == over_cap
                        load[m] -= 1
                    chi = int(not over)
                    rates[k] = ue_rate(k, edus[k])
                    r_sum = float(rates.sum())
                    r = reward(chi, r_sum, r_sum_all)
            acc_reward += r

            max_next = 0.0 if i_next < 0 else row_max[i_next]
            if i < 0:  # the first visit of state s: a new row
                i = row_of[m][s] = len(row_head)
                if states[m] == s:  # the step stayed in s
                    cur[m] = i
                row_head.append(-1)
                row_max.append(0.0)
                row_arg.append(0)
            j = row_head[i]  # the row's entry for action a, or -1
            while j >= 0 and entry_action[j] != a:
                j = entry_prev[j]
            if j < 0:  # a first write
                value = q_update(0.0, r, max_next, LEARNING_RATE, DISCOUNT)
                entry_prev.append(row_head[i])
                row_head[i] = len(entry_value)
                entry_action.append(a)
                entry_value.append(value)
                q_table_sizes[m] += 1
            else:
                value = entry_value[j] = q_update(
                    entry_value[j], r, max_next, LEARNING_RATE, DISCOUNT
                )
            best, arg = row_max[i], row_arg[i]
            if value > best or (value == best and a < arg):
                row_max[i], row_arg[i] = value, a
            elif a == arg and value < best:  # the max entry fell
                row_max[i], row_arg[i] = _row_max(
                    entry_action, entry_value, entry_prev, row_head[i], n_actions
                )

            if chi and r_sum > best_r:
                best_r = r_sum
                best_states = states.copy()
        ep_rewards[e] = acc_reward / steps
        ep_best[e] = best_r

    best_delta = np.array([[s >> k & 1 for s in best_states] for k in range(K)], dtype=bool)
    return QlResult(
        best_delta=best_delta,
        best_r_sum=best_r,
        r_sum_all=r_sum_all,
        episode_rewards=ep_rewards,
        episode_best=ep_best,
        q_table_sizes=q_table_sizes,
    )
