"""Frozen dict-based Q-learning association loop, kept as a test reference.

This is the ``ql_associate`` that the array-based loop in
``cfmimo.association`` replaced, copied without change of arithmetic or of
RNG draws: the state key is rebuilt over all K bits every step, each Q row
is rebuilt from a dict twice per step, and the rate evaluator runs every
step. ``test_association`` holds the new loop to it bit for bit. Do not
optimize this file. Its hyperparameters are written out as numbers
(alpha 0.1, kappa 0.9, eps_init 0.9, phi 10), so the comparison also pins
the constants of ``cfmimo.association``.
"""

from __future__ import annotations

import numpy as np

from cfmimo.association import (
    QlResult,
    epsilon_schedule,
    q_update,
    reward,
)
from reference_association import fronthaul_ok


def reference_ql_associate(evaluator, num_ue, num_edu, config, rng):
    config.validate()
    K, M = num_ue, num_edu
    n_actions = 2 * K + 1
    steps = config.steps_per_episode or 4 * K * M
    r_sum_all = float(evaluator(np.ones((K, M), dtype=bool)))

    q_tables: list[dict[tuple[int, int], float]] = [dict() for _ in range(M)]
    delta = np.zeros((K, M), dtype=bool)

    best_delta = np.zeros((K, M), dtype=bool)
    best_r = 0.0

    ep_rewards = np.zeros(config.episodes)
    ep_best = np.zeros(config.episodes)

    def state_key(m):
        bits = 0
        col = delta[:, m]
        for k in range(K):
            if col[k]:
                bits |= 1 << k
        return bits

    def best_q(table, s):
        vals = np.array([table.get((s, a), 0.0) for a in range(n_actions)])
        return int(np.argmax(vals)), float(vals.max())

    for e in range(config.episodes):
        delta[:] = False
        eps = epsilon_schedule(e, 0.9, 10.0, n_actions)
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
            q_tables[m][(s, a)] = q_update(q_old, r, max_next, 0.1, 0.9)

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
