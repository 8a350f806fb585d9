import dataclasses

import numpy as np
import pytest

from cfmimo import ScenarioConfig
from cfmimo.channel import spatial_correlation_batch


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


def spatial_correlation(
    nominal_azimuth: float,
    nominal_elevation: float,
    asd_azimuth: float,
    asd_elevation: float,
    num_antennas: int,
    beta: float,
) -> np.ndarray:
    """Single-link convenience wrapper around
    :func:`cfmimo.channel.spatial_correlation_batch`."""
    return spatial_correlation_batch(
        np.array([nominal_azimuth]),
        np.array([nominal_elevation]),
        asd_azimuth,
        asd_elevation,
        num_antennas,
        np.array([beta]),
    )[0]


def nan_uplink_reports(monkeypatch, scheme):
    """Make ``harness.uplink_sinr`` return NaN SINR and SE for ``scheme``."""
    import cfmimo.harness as hz

    real = hz.uplink_sinr

    def uplink_sinr(*args, **kwargs):
        report = real(*args, **kwargs)
        if report.scheme != scheme:
            return report
        nan = np.full_like(report.gamma, np.nan)
        return dataclasses.replace(report, gamma=nan, se=nan.copy())

    monkeypatch.setattr(hz, "uplink_sinr", uplink_sinr)
