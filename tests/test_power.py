import numpy as np
import pytest

from cfmimo import channel as ch
from cfmimo.power import downlink_power, uplink_power
from cfmimo.transceiver import Association

from conftest import random_channels, random_error_covs
from whole_batch import downlink_sinr


def test_uplink_fixed_power():
    p = uplink_power(24, 200.0)
    assert p.shape == (24,)
    assert np.all(p == 200.0)
    np.testing.assert_array_equal(uplink_power(1, 200.0), [200.0])


def test_uplink_rejects_nonpositive():
    with pytest.raises(ValueError):
        uplink_power(4, 0.0)


def test_downlink_single_ue_single_oru_gets_cap():
    p, excluded = downlink_power(
        np.array([[0.37]]), np.array([1.0]), np.array([[True]]), 200.0
    )
    assert p[0] == pytest.approx(200.0)
    assert not excluded.any()


def test_downlink_symmetric_ues_equal_power():
    lam = np.array([[1.0, 2.0], [1.0, 2.0]])
    omega = np.array([0.6, 0.6])
    delta = np.ones((2, 2), dtype=bool)
    p, _ = downlink_power(lam, omega, delta, 100.0)
    assert p[0] == pytest.approx(p[1])


def test_downlink_scale_equivariance():
    rng = np.random.default_rng(0)
    lam = rng.uniform(0.1, 2.0, (4, 3))
    omega = rng.uniform(0.2, 1.0, 4)
    delta = rng.random((4, 3)) < 0.7
    delta[:, 0] = True  # keep everyone served
    p1, _ = downlink_power(lam, omega, delta, 100.0)
    p2, _ = downlink_power(lam, omega, delta, 200.0)
    np.testing.assert_allclose(p2, 2 * p1, rtol=1e-12)


def test_downlink_permutation_equivariance():
    rng = np.random.default_rng(1)
    K = 5
    lam = rng.uniform(0.1, 2.0, (K, 4))
    omega = rng.uniform(0.2, 1.0, K)
    delta = rng.random((K, 4)) < 0.6
    delta[:, 1] = True
    p, _ = downlink_power(lam, omega, delta, 50.0)
    perm = rng.permutation(K)
    pp, _ = downlink_power(lam[perm], omega[perm], delta[perm], 50.0)
    np.testing.assert_allclose(pp, p[perm], rtol=1e-12)


def test_downlink_empty_serving_set_excluded():
    lam = np.array([[1.0], [1.0]])
    omega = np.array([1.0, 1.0])
    delta = np.array([[True], [False]])
    with pytest.warns(UserWarning, match="no serving O-RU"):
        p, excluded = downlink_power(lam, omega, delta, 10.0)
    assert excluded[1] and not excluded[0]
    assert p[1] == 0.0


def test_downlink_zero_omega_is_error():
    with pytest.raises(ValueError, match="omega"):
        downlink_power(np.array([[1.0]]), np.array([0.0]), np.array([[True]]), 10.0)


def test_per_oru_power_cap_monte_carlo():
    # 20 random 4-UE/4-O-RU instances; the cap must hold for every O-RU
    p_max = 4.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        K, L, N, T = 4, 4, 2, 50
        hhat = random_channels(rng, (T, K, L, N))
        h = hhat + 0.2 * random_channels(rng, (T, K, L, N))
        C = random_error_covs(rng, K, L, N)
        beta = rng.uniform(0.05, 2.0, (K, L))
        delta = rng.random((K, L)) < 0.7
        delta[np.arange(K), rng.integers(0, L, K)] = True  # nonempty rows
        res = downlink_sinr(
            "edu-mmse",
            h,
            hhat,
            C,
            Association(delta),
            np.array([0, 0, 1, 1]),
            beta,
            np.full(K, 1.0),
            0.5,
            0.5,
            p_max,
        )
        assert res.per_oru_radiated_mw.max() <= p_max * 1.01
