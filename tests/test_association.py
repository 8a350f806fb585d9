import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfmimo import association
from cfmimo.association import (
    EduSinrTable,
    QlConfig,
    epsilon_schedule,
    q_update,
    ql_associate,
    reward,
)
from cfmimo.channel import build_statistics
from cfmimo.harness import resolve_partition
from cfmimo.power import uplink_power
from cfmimo.scenario import build_topology
from cfmimo.transceiver import Association, se_from_sinr

from conftest import edu_consistent
from reference_association import exhaustive_oracle, fronthaul_ok
from reference_ql import reference_ql_associate


class RescaledTable(EduSinrTable):
    """Every rate 2.5 times that of ``gamma``, in ``r_sum`` and per UE
    alike: a rate model other than log2(1 + SINR) for the loop to follow."""

    def r_sum(self, delta_km):
        return float((2.5 * np.log2(1.0 + (self.gamma * delta_km).sum(axis=1))).sum())

    def ue_rate(self, k, edus):
        return 2.5 * super().ue_rate(k, edus)


class EvaluatingTable(EduSinrTable):
    """Hands ``evaluator`` the whole (K, M) association on every ``r_sum``
    call and on every per-UE rate, which the loop asks for once per change;
    the rates themselves come from ``gamma``. The loop rates an episode's
    empty start without asking, so a test clears ``delta`` where one starts."""

    def __init__(self, gamma, evaluator):
        super().__init__(gamma)
        self.evaluator = evaluator
        self.delta = np.zeros(self.gamma.shape, dtype=bool)

    def r_sum(self, delta_km):
        self.delta = np.array(delta_km, dtype=bool)
        return self.evaluator(self.delta)

    def ue_rate(self, k, edus):
        self.delta[k] = [edus >> m & 1 for m in range(self.delta.shape[1])]
        self.evaluator(self.delta)
        return super().ue_rate(k, edus)


# ---------------------------------------------------------------------------
# schedule / update / reward primitives
# ---------------------------------------------------------------------------
def test_epsilon_schedule_at_zero():
    assert epsilon_schedule(0, 0.7, 10.0, 9) == pytest.approx(0.7)


def test_epsilon_schedule_hand_value():
    # eps_init=0.5, phi*|A| = 10, e=10 -> 0.5 * 0.5^1 = 0.25
    assert epsilon_schedule(10, 0.5, 10.0, 1) == pytest.approx(0.25)


def test_epsilon_schedule_strictly_decreasing():
    vals = [epsilon_schedule(e, 0.9, 10.0, 9) for e in range(0, 300, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_q_update_examples():
    assert q_update(5.0, 2.0, 0.0, 1.0, 0.0) == pytest.approx(2.0)
    assert q_update(5.0, 2.0, 7.0, 0.0, 0.9) == pytest.approx(5.0)
    assert q_update(0.0, 1.0, 2.0, 0.5, 0.9) == pytest.approx(1.4)


def test_q_update_algebraic_property():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q, r, mx = rng.normal(size=3)
        a = rng.uniform(0.01, 1.0)
        k = rng.uniform(0.0, 0.99)
        expect = (1 - a) * q + a * (r + k * mx)
        assert q_update(q, r, mx, a, k) == pytest.approx(expect, rel=1e-12)


def test_fronthaul_ok_cases():
    K, M = 4, 2
    assert fronthaul_ok(np.ones((K, M), dtype=bool), K) == 1
    over = np.zeros((K, M), dtype=bool)
    over[:3, 0] = True
    assert fronthaul_ok(over, 2) == 0
    balanced = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=bool)
    assert fronthaul_ok(balanced, 2) == 1


def test_reward_examples():
    assert reward(0, 30.0, 40.0) == 0.0
    assert reward(1, 20.0, 40.0) == pytest.approx(1.0)
    assert reward(1, 30.0, 40.0) == pytest.approx(3.0)


def test_reward_sentinel_at_boundary():
    assert reward(1, 40.0, 40.0) == pytest.approx(1e6)
    assert reward(1, 40.0 - 1e-12, 40.0) == pytest.approx(1e6)
    assert reward(0, 40.0, 40.0) == 0.0


def test_reward_monotone_in_rate():
    vals = [reward(1, r, 100.0) for r in np.linspace(1.0, 99.0, 25)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_qlconfig_validation():
    for steps in (0, -3):
        with pytest.raises(ValueError, match="steps_per_episode"):
            QlConfig(steps_per_episode=steps).validate()
    QlConfig(steps_per_episode=None).validate()
    QlConfig(steps_per_episode=1).validate()


def test_qlconfig_is_checked_when_made_and_frozen():
    with pytest.raises(ValueError, match="episodes"):
        QlConfig(episodes=0)
    with pytest.raises(AttributeError):
        QlConfig().episodes = 0


@pytest.mark.parametrize(
    "fields",
    [
        {"episodes": 2.5},
        {"episodes": True},
        {"steps_per_episode": 1.5},
        {"fronthaul_ue_cap": 3.7},
    ],
)
def test_qlconfig_rejects_a_count_that_is_not_an_integer_when_made(fields):
    # each would fail inside the drop with a TypeError, or compare loads
    # against a fractional cap
    name, value = next(iter(fields.items()))
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        QlConfig(**fields)


# ---------------------------------------------------------------------------
# learning loop and oracle
# ---------------------------------------------------------------------------
def _toy_table(tiny_config):
    genome = resolve_partition(tiny_config, "clustered")[0]
    topo = build_topology(tiny_config, 0).with_partition(genome)
    stats = build_statistics(tiny_config, topo, 0)
    table = EduSinrTable.from_statistics(
        stats,
        topo.edu_partition,
        uplink_power(tiny_config.num_ue, tiny_config.ul_power_mw),
        stats.noise_mw,
    )
    return table, topo


def test_single_ue_single_edu_converges():
    table = EduSinrTable(np.array([[3.0]]))
    res = ql_associate(
        table, 1, 1, QlConfig(episodes=50, fronthaul_ue_cap=1),
        np.random.default_rng(0),
    )
    assert res.best_delta[0, 0]
    assert res.best_r_sum == pytest.approx(np.log2(4.0))


def test_ql_never_returns_empty_when_positive_reward_exists(tiny_config):
    table, _ = _toy_table(tiny_config)
    res = ql_associate(
        table, 4, 2, QlConfig(episodes=60, fronthaul_ue_cap=2),
        np.random.default_rng(1),
    )
    assert res.best_delta.any()
    assert res.best_r_sum > 0


def test_ql_toy_instance_beats_095_of_oracle(tiny_config):
    table, _ = _toy_table(tiny_config)
    _, r_opt = exhaustive_oracle(table.r_sum, 4, 2, 2)
    wins = 0
    for seed in range(10):
        res = ql_associate(
            table, 4, 2, QlConfig(episodes=500, fronthaul_ue_cap=2),
            np.random.default_rng(seed),
        )
        wins += res.best_r_sum >= 0.95 * r_opt
    assert wins >= 9


def test_ql_respects_cap(tiny_config):
    table, _ = _toy_table(tiny_config)
    res = ql_associate(
        table, 4, 2, QlConfig(episodes=100, fronthaul_ue_cap=1),
        np.random.default_rng(2),
    )
    assert res.best_delta.sum(axis=0).max() <= 1


def test_ql_emits_edu_granular_association(tiny_config):
    table, topo = _toy_table(tiny_config)
    res = ql_associate(
        table, 4, 2, QlConfig(episodes=50, fronthaul_ue_cap=2),
        np.random.default_rng(3),
    )
    assoc = Association.from_edu(res.best_delta, topo.edu_partition)
    assert edu_consistent(assoc.delta, topo.edu_partition)


def test_greedy_policy_invariant_to_reward_rescale(tiny_config):
    # scaling the rate evaluator leaves the reward ratio, and hence the
    # whole learning trajectory, unchanged
    table, _ = _toy_table(tiny_config)

    res_a = ql_associate(
        table, 4, 2, QlConfig(episodes=120, fronthaul_ue_cap=2),
        np.random.default_rng(7),
    )
    res_b = ql_associate(
        RescaledTable(table.gamma), 4, 2, QlConfig(episodes=120, fronthaul_ue_cap=2),
        np.random.default_rng(7),
    )
    np.testing.assert_array_equal(res_a.best_delta, res_b.best_delta)


def test_greedy_extraction_invariant_to_affine_q_transform():
    # argmax of a Q row is unchanged by any positive affine transform
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = rng.normal(size=9)
        a = rng.uniform(0.1, 10.0)
        b = rng.normal()
        assert np.argmax(a * q + b) == np.argmax(q)


def test_oracle_m1_subsets():
    table = EduSinrTable(np.array([[1.0], [2.0], [0.5], [4.0]]))
    delta, r = exhaustive_oracle(table.r_sum, 4, 1, 4)
    assert delta.all()  # serving everyone maximizes the rate
    assert r == pytest.approx(table.r_sum(np.ones((4, 1), dtype=bool)))


def test_oracle_infeasible_cap_returns_empty():
    table = EduSinrTable(np.array([[1.0, 2.0]] * 3))
    delta, r = exhaustive_oracle(table.r_sum, 3, 2, 0)
    assert not delta.any()
    assert r == 0.0


def test_oracle_refuses_large_state_space():
    table = EduSinrTable(np.ones((10, 4)))
    with pytest.raises(ValueError, match="oracle limit"):
        exhaustive_oracle(table.r_sum, 10, 4, 4)


def _reference_gamma(stats, genome, p, noise_mw):
    # The per-EDU block-diagonal solve that the per-O-RU form replaced.
    K, N = stats.beta.shape[0], stats.antennas_per_oru
    M = int(genome.max()) + 1
    gamma = np.zeros((K, M))
    for m in range(M):
        orus = np.flatnonzero(genome == m)
        A = orus.size * N
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
    return gamma


@pytest.mark.parametrize("mode", ["clustered", "ga"])
def test_sinr_table_matches_block_solve(desk_config, mode):
    genome = resolve_partition(desk_config, mode)[0]
    stats = build_statistics(desk_config, build_topology(desk_config, 0), 0)
    p = uplink_power(desk_config.num_ue, desk_config.ul_power_mw)
    p[2] = 0.0  # a silent UE rates 0 everywhere
    table = EduSinrTable.from_statistics(stats, genome, p, stats.noise_mw)
    ref = _reference_gamma(stats, genome, p, stats.noise_mw)
    assert table.gamma.shape == ref.shape
    assert np.all(table.gamma[2] == 0.0)
    np.testing.assert_allclose(table.gamma, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "gamma, match",
    [
        (np.array([[1.0, np.nan]]), "finite"),
        (np.array([[1.0, np.inf]]), "finite"),
        (np.array([[1.0, -0.5]]), ">= 0"),
        (np.array([1.0, 2.0]), "2-D"),
        (np.ones((2, 2, 2)), "2-D"),
    ],
)
def test_sinr_table_rejects_bad_gamma(gamma, match):
    with pytest.raises(ValueError, match=match):
        EduSinrTable(gamma)


def test_r_sum_matches_se_from_sinr():
    rng = np.random.default_rng(4)
    for _ in range(50):
        K, M = rng.integers(1, 12, size=2)
        table = _random_table(K, M, int(rng.integers(1 << 30)))
        delta = rng.random((K, M)) < 0.5
        g = (table.gamma * delta).sum(axis=1)
        assert table.r_sum(delta) == float(se_from_sinr(g).sum())


@settings(max_examples=150, deadline=None)
@given(
    K=st.integers(1, 24),
    M=st.integers(1, 10),
    toggles=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(K=24, M=8, toggles=300, seed=1)
@example(K=24, M=10, toggles=300, seed=2)
def test_ue_rates_sum_to_r_sum_bit_for_bit(K, M, toggles, seed):
    # the loop's running sum of per-UE rates after each toggle is r_sum of
    # the association, to the bit; M >= 8 sums each UE's row pairwise
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, (K, M))
    table = EduSinrTable(rng.exponential(size=(K, M)) * scale * (rng.random((K, M)) < 0.7))
    delta = np.zeros((K, M), dtype=bool)
    edus = [0] * K
    rates = np.zeros(K)
    for k, m in zip(rng.integers(0, K, toggles), rng.integers(0, M, toggles)):
        delta[k, m] = not delta[k, m]
        edus[k] ^= 1 << int(m)
        rates[k] = table.ue_rate(int(k), edus[k])
        assert float(rates.sum()) == table.r_sum(delta)


def test_sinr_table_monotone_in_edus(tiny_config):
    table, _ = _toy_table(tiny_config)
    none = np.zeros((4, 2), dtype=bool)
    one = none.copy()
    one[0, 0] = True
    both = one.copy()
    both[0, 1] = True
    assert table.r_sum(none) == 0.0
    assert table.r_sum(one) > 0.0
    assert table.r_sum(both) > table.r_sum(one)


# ---------------------------------------------------------------------------
# bit-identity against the frozen dict-based loop
# ---------------------------------------------------------------------------
def _assert_same_result(res, ref):
    np.testing.assert_array_equal(res.best_delta, ref.best_delta)
    assert res.best_r_sum == ref.best_r_sum
    assert res.r_sum_all == ref.r_sum_all
    np.testing.assert_array_equal(res.episode_rewards, ref.episode_rewards)
    np.testing.assert_array_equal(res.episode_best, ref.episode_best)
    assert res.q_table_sizes == ref.q_table_sizes


def _random_table(K, M, seed):
    rng = np.random.default_rng(seed)
    return EduSinrTable(rng.exponential(size=(K, M)) * (rng.random((K, M)) < 0.8))


def _gate_instances(tiny_config):
    toy, _ = _toy_table(tiny_config)
    wide = _random_table(24, 8, 11)
    single = _random_table(5, 1, 12)
    return {
        "toy": (toy, 4, 2, QlConfig(episodes=120, fronthaul_ue_cap=2), 7),
        "toy-rescaled": (
            RescaledTable(toy.gamma), 4, 2,
            QlConfig(episodes=120, fronthaul_ue_cap=2), 7,
        ),
        "k24-m8-binding-cap": (
            wide, 24, 8, QlConfig(episodes=6, fronthaul_ue_cap=5), 3,
        ),
        "steps-per-episode": (
            toy, 4, 2,
            QlConfig(episodes=40, fronthaul_ue_cap=1, steps_per_episode=7), 4,
        ),
        "m1": (single, 5, 1, QlConfig(episodes=60, fronthaul_ue_cap=3), 5),
    }


# the instances on which some row's largest Q value falls, so that the row's
# largest value and first best action are recomputed from its written entries
_ROW_MAX_FALLS = {"toy", "toy-rescaled", "k24-m8-binding-cap", "steps-per-episode"}


@pytest.mark.parametrize(
    "name", ["toy", "toy-rescaled", "k24-m8-binding-cap", "steps-per-episode", "m1"]
)
def test_ql_matches_frozen_reference(monkeypatch, tiny_config, name):
    table, K, M, qcfg, seed = _gate_instances(tiny_config)[name]
    recomputed = []

    def row_max(*args):
        recomputed.append(args)
        return real_row_max(*args)

    real_row_max = association._row_max
    monkeypatch.setattr(association, "_row_max", row_max)
    res = ql_associate(table, K, M, qcfg, np.random.default_rng(seed))
    ref = reference_ql_associate(table.r_sum, K, M, qcfg, np.random.default_rng(seed))
    _assert_same_result(res, ref)
    assert bool(recomputed) == (name in _ROW_MAX_FALLS)


def test_row_max_is_the_first_largest_entry_of_the_row():
    # row 2 of 5 actions, as ndarray.argmax picks it: an unwritten entry
    # reads 0.0, ties go to the first action, and the entries of the
    # neighbouring rows 1 and 3 (9.0 each), written between row 2's in the
    # same arrays, are not read
    for written, expect in [
        ({1: 0.5, 3: 0.5, 4: 0.25}, (0.5, 1)),
        ({0: -1.0, 2: -0.5}, (0.0, 1)),
        ({2: 0.0}, (0.0, 0)),
    ]:
        log = [(1, 0, 9.0)]
        for a, v in written.items():
            log += [(2, a, v), (3, a, 9.0)]
        actions, values, prevs = array("i"), array("d"), array("i")
        head = {}
        for row, a, v in log:
            prevs.append(head.get(row, -1))
            head[row] = len(values)
            actions.append(a)
            values.append(v)
        row = np.array([written.get(a, 0.0) for a in range(5)])
        assert (row.max(), int(row.argmax())) == expect
        assert association._row_max(actions, values, prevs, head[2], 5) == expect


def test_ql_memory_grows_with_the_written_q_values_only():
    # a 24 x 8 table at 40 episodes writes about 27,000 of the 2K+1 = 49 Q
    # values of some 11,600 visited rows; a dense row array held every
    # unwritten zero, and copied itself when it grew (about 400 B per
    # written value); a dict of the written values, an int key and a float
    # object each, took about 160 B, and typed entry chains take about 80 B
    # (the per-bitmask rate memo included)
    table = _random_table(24, 8, 11)
    qcfg = QlConfig(episodes=40, fronthaul_ue_cap=12)
    tracemalloc.start()
    try:
        res = ql_associate(table, 24, 8, qcfg, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * sum(res.q_table_sizes)


def _assert_same_as_reference_on_a_drawn_table(K, M, qcfg, seed, data):
    # small integer SINRs and zero entries make rate ties common
    gamma = data.draw(
        st.lists(st.integers(0, 3), min_size=K * M, max_size=K * M), label="gamma"
    )
    table = EduSinrTable(np.array(gamma, dtype=float).reshape(K, M))
    res = ql_associate(table, K, M, qcfg, np.random.default_rng(seed))
    ref = reference_ql_associate(table.r_sum, K, M, qcfg, np.random.default_rng(seed))
    _assert_same_result(res, ref)


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(1, 5),
    M=st.integers(1, 3),
    cap=st.integers(0, 5),
    episodes=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_ql_matches_frozen_reference_on_random_tables(K, M, cap, episodes, seed, data):
    qcfg = QlConfig(episodes=episodes, fronthaul_ue_cap=cap)
    _assert_same_as_reference_on_a_drawn_table(K, M, qcfg, seed, data)


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(1, 5),
    M=st.integers(1, 3),
    cap=st.integers(0, 5),
    episodes=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_ql_matches_frozen_reference_when_episodes_end_mid_round(
    K, M, cap, episodes, seed, data
):
    # 1 to 2M + 1 steps per episode: an episode ends before every EDU has
    # acted, or part-way through a second round, and the next one restarts
    # every EDU's cached row at state 0
    steps = data.draw(st.integers(1, 2 * M + 1), label="steps_per_episode")
    qcfg = QlConfig(episodes=episodes, fronthaul_ue_cap=cap, steps_per_episode=steps)
    _assert_same_as_reference_on_a_drawn_table(K, M, qcfg, seed, data)


def test_ql_rejects_a_table_of_another_shape(tiny_config):
    qcfg = QlConfig(episodes=1, fronthaul_ue_cap=2)
    with pytest.raises(ValueError, match=r"SINR table has shape \(2, 4\) .* \(4, 2\)"):
        ql_associate(EduSinrTable(np.ones((2, 4))), 4, 2, qcfg, np.random.default_rng(0))
    # a genome that skips EDU label 1 makes a column per label up to 2
    stats = build_statistics(tiny_config, build_topology(tiny_config, 0), 0)
    p = uplink_power(tiny_config.num_ue, tiny_config.ul_power_mw)
    table = EduSinrTable.from_statistics(stats, np.array([0, 2, 0, 2]), p, stats.noise_mw)
    assert table.gamma.shape == (4, 3)
    with pytest.raises(ValueError, match=r"SINR table has shape \(4, 3\) .* \(4, 2\)"):
        ql_associate(table, 4, 2, qcfg, np.random.default_rng(0))


def test_ql_evaluates_once_per_association_change(tiny_config, monkeypatch):
    table, _ = _toy_table(tiny_config)
    calls = []

    def evaluator(delta):
        calls.append(delta.copy())
        return table.r_sum(delta)

    evaluating = EvaluatingTable(table.gamma, evaluator)
    real_schedule = association.epsilon_schedule

    def epsilon_schedule(*args):
        # called once as each episode starts, which asks no rate: record the
        # empty association it starts from
        evaluating.delta[:] = False
        calls.append(evaluating.delta.copy())
        return real_schedule(*args)

    monkeypatch.setattr(association, "epsilon_schedule", epsilon_schedule)
    qcfg = QlConfig(episodes=30, fronthaul_ue_cap=2)
    ql_associate(evaluating, 4, 2, qcfg, np.random.default_rng(0))
    assert calls[0].all()  # the all-serve reference
    starts = [i for i, d in enumerate(calls) if not d.any()]
    assert len(starts) >= qcfg.episodes
    assert starts[0] == 1
    for prev, cur in zip(calls[1:], calls[2:]):
        # each later call either starts an episode or follows one toggle
        assert not cur.any() or np.count_nonzero(prev != cur) == 1
    assert len(calls) < 1 + qcfg.episodes * 4 * 4 * 2
