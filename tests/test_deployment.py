import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo import ScenarioConfig
from cfmimo.deployment import (
    GA_CROSSOVER_RATE,
    GaConfig,
    Partition,
    _crossover,
    _mutate,
    clustered_baseline,
    fitness,
    ga_optimize,
    is_balanced,
    random_balanced_genome,
    surrogate_denominators,
)
from cfmimo.harness import resolve_partition
from cfmimo.scenario import build_topology, rng_stream

from reference_crossover import reference_crossover


def line_distances(L):
    pos = np.arange(L, dtype=float)[:, None]
    return np.abs(pos - pos.T)


def exhaustive_best_two_groups(dist, L):
    """Enumeration oracle: best exact fitness over balanced 2-way splits."""
    best = -math.inf
    for comb in itertools.combinations(range(L), L // 2):
        g = np.ones(L, dtype=int)
        g[list(comb)] = 0
        if not is_balanced(g, 2):
            continue
        best = max(best, fitness(g, dist, 2, "exact"))
    return best


# ---------------------------------------------------------------------------
# fitness
# ---------------------------------------------------------------------------
def test_fitness_line_hand_examples():
    dist = line_distances(4)
    # tuples for {0,1}x{2,3}: distances 2,3,1,2 -> denominator 8
    assert fitness([0, 0, 1, 1], dist, 2, "exact") == pytest.approx(1 / 8)
    # interleaved {0,2}x{1,3}: 1,3,1,1 -> denominator 6
    assert fitness([0, 1, 0, 1], dist, 2, "exact") == pytest.approx(1 / 6)
    assert fitness([0, 1, 0, 1], dist, 2, "exact") > fitness([0, 0, 1, 1], dist, 2, "exact")


def test_fitness_exact_matches_enumeration_m3():
    # independent tuple enumeration for a 3-way split
    rng = np.random.default_rng(0)
    pos = rng.uniform(0, 10, (6, 2))
    dist = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    genome = np.array([0, 1, 2, 0, 1, 2])
    groups = [np.flatnonzero(genome == m) for m in range(3)]
    denom = 0.0
    for a, b, c in itertools.product(*groups):
        denom += math.sqrt(
            dist[a, b] ** 2 + dist[a, c] ** 2 + dist[b, c] ** 2
        )
    assert fitness(genome, dist, 3, "exact") == pytest.approx(1 / denom)


def test_fitness_colocated_is_infinite():
    dist = np.zeros((4, 4))
    assert fitness([0, 0, 1, 1], dist, 2, "exact") == math.inf


def test_fitness_surrogate_equals_exact_for_two_groups():
    for L in range(4, 9):
        dist = line_distances(L)
        for _ in range(10):
            g = random_balanced_genome(L, 2, np.random.default_rng(L))
            assert fitness(g, dist, 2, "pairwise-surrogate") == pytest.approx(
                fitness(g, dist, 2, "exact")
            )


def test_surrogate_denominators_match_pair_sum():
    # the batched one-hot form against a plain loop over cross-EDU pairs
    rng = np.random.default_rng(7)
    for _ in range(30):
        L = int(rng.integers(2, 30))
        M = int(rng.integers(1, L + 1))
        pos = rng.uniform(0, 1000, (L, 2))
        dist = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        genomes = rng.integers(0, M, (4, L))
        got = surrogate_denominators(genomes, dist, M)
        for g, d in zip(genomes, got):
            want = 0.0
            for i, j in itertools.combinations(range(L), 2):
                if g[i] != g[j]:
                    want += dist[i, j]
            assert d == pytest.approx(want, rel=1e-12, abs=0.0)


def test_fitness_exact_refuses_huge_tuple_counts():
    L, M = 64, 8
    dist = np.abs(np.arange(L)[:, None] - np.arange(L)[None, :]).astype(float)
    genome = np.arange(L) % M
    with pytest.raises(ValueError, match="surrogate"):
        fitness(genome, dist, M, "exact")


def test_fitness_requires_balance():
    dist = line_distances(4)
    with pytest.raises(ValueError):
        fitness([0, 0, 0, 1], dist, 2)


# ---------------------------------------------------------------------------
# GA
# ---------------------------------------------------------------------------
def test_ga_single_edu_trivial():
    dist = line_distances(5)
    res = ga_optimize(dist, 1, GaConfig(generations=3), np.random.default_rng(0))
    assert np.all(res.partition.genome == 0)


def test_ga_recovers_line_optimum():
    dist = line_distances(4)
    res = ga_optimize(
        dist, 2, GaConfig(population_size=8, generations=50, fitness_mode="exact"),
        np.random.default_rng(1),
    )
    assert res.partition.fitness == pytest.approx(1 / 6)


def test_ga_emitted_partitions_balanced_random_topologies():
    rng = np.random.default_rng(2)
    for _ in range(5):
        L = int(rng.integers(5, 12))
        M = int(rng.integers(2, min(5, L) + 1))
        pos = rng.uniform(0, 100, (L, 2))
        dist = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        res = ga_optimize(dist, M, GaConfig(population_size=10, generations=10), rng)
        assert is_balanced(res.partition.genome, M)


def test_ga_best_fitness_nondecreasing():
    rng = np.random.default_rng(3)
    pos = rng.uniform(0, 100, (12, 2))
    dist = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    res = ga_optimize(dist, 3, GaConfig(population_size=12, generations=40), rng)
    assert np.all(np.diff(res.history) >= 0)


def test_ga_beats_clustered_on_default_grid():
    cfg = ScenarioConfig()
    dist = build_topology(cfg, 0).oru_pairwise
    res = ga_optimize(
        dist, cfg.num_edu, GaConfig(generations=40), rng_stream(cfg.master_seed, 0, "ga")
    )
    clustered = resolve_partition(cfg, "clustered")[0]
    assert res.partition.fitness > fitness(clustered, dist, cfg.num_edu)


def _group_sizes(genomes, M):
    return np.stack([np.bincount(g, minlength=M) for g in genomes])


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    pairs=st.integers(1, 4),
    crossover_rate=st.floats(0.0, 1.0),
    mutation_rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_operators_keep_group_sizes(data, pairs, crossover_rate, mutation_rate, seed):
    L = data.draw(st.integers(2, 40), label="L")
    M = data.draw(st.integers(1, L), label="M")
    rng = np.random.default_rng(seed)
    # parents with arbitrary, mutually different group sizes
    a = rng.integers(0, M, (pairs, L))
    b = rng.integers(0, M, (pairs, L))
    children = _crossover(a, b, M, crossover_rate, rng)
    # child i of a pair has its head parent's sizes: a's, then b's
    np.testing.assert_array_equal(
        _group_sizes(children, M), _group_sizes(np.concatenate([a, b]), M)
    )
    mutated = _mutate(children.copy(), mutation_rate, rng)
    np.testing.assert_array_equal(_group_sizes(mutated, M), _group_sizes(children, M))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    pairs=st.integers(1, 6),
    rate=st.sampled_from([0.0, 1.0, GA_CROSSOVER_RATE]),
    balanced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_crossover_matches_frozen_reference(data, pairs, rate, balanced, seed):
    L = data.draw(st.integers(2, 100), label="L")
    M = data.draw(st.integers(1, min(L, 8)), label="M")
    rng = np.random.default_rng(seed)
    if balanced:  # parents as the GA makes them
        a, b = (
            np.stack([random_balanced_genome(L, M, rng) for _ in range(pairs)])
            for _ in range(2)
        )
    else:
        a, b = rng.integers(0, M, (2, pairs, L))
    got_rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    parents = a.copy(), b.copy()
    got = _crossover(a, b, M, rate, got_rng)
    ref = reference_crossover(a, b, M, rate, ref_rng)
    np.testing.assert_array_equal(got, ref)
    assert got.dtype == ref.dtype
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    np.testing.assert_array_equal(a, parents[0])  # the parents are left as they were
    np.testing.assert_array_equal(b, parents[1])


def test_ga_rejects_more_edus_than_orus():
    with pytest.raises(ValueError):
        ga_optimize(line_distances(2), 3, GaConfig(), np.random.default_rng(0))


def test_ga_default_rates_golden():
    """The GA's crossover and mutation rates are fixed constants; any other
    rate moves this seeded run's genome and best-fitness history."""
    res = ga_optimize(line_distances(30), 5, GaConfig(), np.random.default_rng(7))
    assert res.partition.genome.tolist() == [
        1, 3, 0, 2, 4, 1, 3, 0, 2, 4, 4, 3, 2, 1, 0,
        3, 1, 2, 4, 0, 4, 1, 0, 3, 2, 1, 0, 3, 4, 2,
    ]
    # line distances are integers, so every cross-EDU spread is exact
    runs = [(3644, 2), (3638, 4), (3634, 1), (3630, 3), (3624, 8), (3620, 182)]
    spread = np.repeat([s for s, _ in runs], [n for _, n in runs]).astype(float)
    np.testing.assert_array_equal(res.history, 1.0 / spread)


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=7).validate()


def test_ga_config_is_checked_when_made_and_frozen():
    with pytest.raises(ValueError, match="generations"):
        GaConfig(generations=0)
    with pytest.raises(AttributeError):
        GaConfig().generations = 0


# ---------------------------------------------------------------------------
# clustered baseline
# ---------------------------------------------------------------------------
def test_clustered_line_pairs():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    part = clustered_baseline(pos, 2, np.random.default_rng(0))
    groups = sorted(sorted(np.flatnonzero(part.genome == m).tolist()) for m in range(2))
    assert groups == [[0, 1], [2, 3]]


def test_clustered_singletons_when_m_equals_l():
    pos = np.random.default_rng(0).uniform(0, 10, (5, 2))
    part = clustered_baseline(pos, 5, np.random.default_rng(0))
    assert sorted(part.genome.tolist()) == [0, 1, 2, 3, 4]


def test_clustered_balanced_on_grid():
    xs, ys = np.meshgrid(np.arange(4), np.arange(4))
    pos = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    part = clustered_baseline(pos, 3, np.random.default_rng(1))
    assert is_balanced(part.genome, 3)


def test_partition_constructor_enforces_constraints():
    with pytest.raises(ValueError):
        Partition(np.array([0, 0, 0, 0]), 2)
    with pytest.raises(ValueError):
        Partition(np.array([0, 0, 0, 1]), 2)
    with pytest.raises(ValueError, match="integers"):  # not cast to [0, 1, 0, 1]
        Partition([0.9, 1.9, 0.2, 1.1], 2)
