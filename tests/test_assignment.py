"""The clustered baseline's balanced assignment against scipy as an oracle.

``deployment._balanced_assignment`` must return, bit for bit, the labels of
``scipy.optimize.linear_sum_assignment`` on the capacity-replicated cost
matrix, ties included, so that clustered partitions stay those of the
scipy-based code (``reference_clustering``).
"""

import importlib.util
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from cfmimo.deployment import _balanced_assignment, _crouse_labels, _unique_optimum
from cfmimo.harness import resolve_partition
from cfmimo.scenario import build_topology, config_from_dict, rng_stream
from reference_clustering import clustered_baseline as reference_clustered_baseline


def scipy_labels(cost, capacities):
    slot_group = np.repeat(np.arange(len(capacities)), capacities)
    row, col = linear_sum_assignment(cost[:, slot_group])
    labels = np.empty(len(cost), dtype=int)
    labels[row] = slot_group[col]
    return labels


def balanced_capacities(L, M):
    return np.array([L // M + (m < L % M) for m in range(M)])


def assignment_instances(count=1200, seed=0):
    """Seeded (cost, capacities) instances, most of them with tied optima.

    A quarter are uniform random costs. A quarter are small integer costs,
    so most assignments have tied optima. A quarter are distances from the
    O-RUs of a regular grid to grid points or to means of random O-RU
    groups, the costs the clustered baseline solves, where exact ties come
    from the grid's symmetry. A quarter are sums x_i + y_m, for which every
    balanced labelling has the same cost up to rounding. Capacities are
    balanced, except in every third instance, where they are random.
    """
    rng = np.random.default_rng(seed)
    for n in range(count):
        L = int(rng.integers(2, 41))
        M = int(rng.integers(2, min(L, 12) + 1))
        if n % 3 == 2:
            capacities = 1 + np.bincount(rng.integers(0, M, L - M), minlength=M)
        else:
            capacities = balanced_capacities(L, M)
        kind = n % 4
        if kind == 0:
            cost = rng.random((L, M))
        elif kind == 1:
            cost = rng.integers(0, 4, (L, M)).astype(float)
        elif kind == 2:
            cols = int(rng.integers(1, L + 1))
            rows = -(-L // cols)
            grid = np.stack(np.meshgrid(np.arange(cols), np.arange(rows)), -1)
            pos = (grid.reshape(-1, 2)[:L] + 0.5) * 20.0
            if rng.random() < 0.5:
                centroids = pos[rng.choice(L, size=M, replace=False)]
            else:
                groups = rng.permutation(np.arange(L) % M)
                centroids = np.stack([pos[groups == m].mean(0) for m in range(M)])
            cost = np.linalg.norm(pos[:, None] - centroids[None], axis=-1)
        else:
            cost = rng.random(L)[:, None] + rng.random(M)[None, :]
        yield cost, capacities


def test_balanced_assignment_matches_scipy():
    count = 0
    for cost, capacities in assignment_instances():
        assert np.array_equal(
            _balanced_assignment(cost, capacities), scipy_labels(cost, capacities)
        )
        count += 1
    assert count >= 1000


def test_certified_solver_keeps_its_share():
    # The certified solver decided 491 of these instances when this test was
    # written; each instance it gives up on costs a run of the slower port.
    certified = sum(
        _unique_optimum(cost, capacities) is not None
        for cost, capacities in assignment_instances()
    )
    assert certified >= 491


def test_port_alone_matches_scipy():
    for cost, capacities in assignment_instances(seed=1):
        assert np.array_equal(
            _crouse_labels(cost, capacities), scipy_labels(cost, capacities)
        )


def benchmark_configs():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [config_from_dict(workloads.config(name, 1)) for name in workloads.WORKLOADS]


def test_clustered_genomes_match_scipy_reference(desk_config, tiny_config):
    seen = set()
    for config in [desk_config, tiny_config, *benchmark_configs()]:
        key = (config.num_oru, config.num_edu, config.area_side_m)
        if key in seen:
            continue
        seen.add(key)
        for seed in range(1, 6):
            config.master_seed = seed
            topology = build_topology(config, 0)
            expected = reference_clustered_baseline(
                topology.oru_positions[:, :2],
                config.num_edu,
                rng_stream(seed, 0, "clustering"),
            )
            genome, _ = resolve_partition(config, "clustered")
            assert np.array_equal(genome, expected), (key, seed)
