import numpy as np
import pytest

from cfmimo import ScenarioConfig


@pytest.fixture
def desk_config():
    """Small 16-O-RU setup that runs in well under a second per drop."""
    return ScenarioConfig(
        num_oru=16,
        antennas_per_oru=2,
        num_ue=8,
        num_edu=4,
        pilot_count=8,
        fronthaul_ue_cap=8,
        mc_drops=2,
        mc_realizations=20,
        master_seed=3,
        schemes=("joint-mmse", "edu-mmse"),
    )


@pytest.fixture
def tiny_config():
    return ScenarioConfig(
        num_oru=4,
        antennas_per_oru=2,
        num_ue=4,
        num_edu=2,
        pilot_count=4,
        fronthaul_ue_cap=2,
        mc_drops=1,
        mc_realizations=10,
        master_seed=3,
        area_side_m=100.0,
        schemes=("edu-mmse",),
    )


def random_error_covs(rng, K, L, N, scale=0.1):
    C = np.zeros((K, L, N, N), dtype=complex)
    for k in range(K):
        for l in range(L):
            A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            C[k, l] = scale * (A @ A.conj().T)
    return C


def edu_consistent(delta, genome):
    """True if every UE's (K, L) indicator is constant over each EDU's O-RUs."""
    _, first, edu = np.unique(genome, return_index=True, return_inverse=True)
    return np.array_equal(delta, delta[:, first[edu]])


def random_channels(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
