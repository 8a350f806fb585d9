import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from cfmimo import ScenarioConfig
from cfmimo import channel as ch
from cfmimo.scenario import build_topology
from conftest import spatial_correlation
import reference_sampling
from reference_correlation import axis_nodes, reference_spatial_correlation_batch


# ---------------------------------------------------------------------------
# pathloss
# ---------------------------------------------------------------------------
def test_pathloss_reference_points():
    assert ch.pathloss_db(1.0) == pytest.approx(-30.5)
    assert ch.pathloss_db(100.0) == pytest.approx(-103.9)
    # hand arithmetic: -30.5 - 36.7*log10(10) = -67.2
    assert ch.pathloss_db(10.0) == pytest.approx(-67.2)


def test_pathloss_rejects_nonpositive():
    with pytest.raises(ValueError):
        ch.pathloss_db(0.0)
    with pytest.raises(ValueError):
        ch.pathloss_db(-2.0)


def test_powerlaw_switch():
    assert ch.powerlaw_gain(2.0, exponent=2.0) == pytest.approx(0.25)


def test_large_scale_gain_model_switch():
    d = np.array([[10.0]])
    f = np.array([[3.0]])
    log_dist = ch.large_scale_gain(d, f, model="log-distance")
    assert 10 * np.log10(log_dist[0, 0]) == pytest.approx(-67.2 + 3.0)
    power_law = ch.large_scale_gain(d, f, model="power-law", exponent=2.0)
    assert power_law[0, 0] == pytest.approx(0.01 * 10 ** 0.3)
    with pytest.raises(ValueError):
        ch.large_scale_gain(d, f, model="bogus")


# ---------------------------------------------------------------------------
# shadowing
# ---------------------------------------------------------------------------
def test_shadowing_zero_sigma_degenerate():
    rng = np.random.default_rng(0)
    f = ch.sample_shadowing((100,), 0.0, rng)
    assert np.all(f == 0.0)


def test_shadowing_moments():
    rng = np.random.default_rng(2)
    f = ch.sample_shadowing((100_000,), 4.0, rng)
    assert 3.9 <= f.std() <= 4.1
    assert -0.05 <= f.mean() <= 0.05


# ---------------------------------------------------------------------------
# spatial correlation
# ---------------------------------------------------------------------------
def _dense_oracle(az, el, s_az, s_el, N, beta, nodes=201):
    """Brute-force quadrature of the angular integral on a 201x201 grid."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    a_nodes = az + 4 * s_az * x
    a_w = w * np.exp(-0.5 * ((a_nodes - az) / s_az) ** 2)
    e_nodes = el + 4 * s_el * x
    e_w = w * np.exp(-0.5 * ((e_nodes - el) / s_el) ** 2)
    W = np.outer(a_w, e_w)
    W /= W.sum()
    sc = np.sin(a_nodes)[:, None] * np.cos(e_nodes)[None, :]
    R = np.empty((N, N), complex)
    for m in range(N):
        for n in range(N):
            R[m, n] = beta * (W * np.exp(1j * np.pi * (m - n) * sc)).sum()
    return R


def test_single_antenna_correlation_is_beta():
    R = spatial_correlation(0.3, -0.1, 0.2, 0.2, 1, 2.5)
    assert R.shape == (1, 1)
    assert R[0, 0] == pytest.approx(2.5)


def test_single_antenna_batch_skips_the_quadrature(monkeypatch):
    """One antenna has no offset d >= 1: R is exactly beta, as the quadrature
    gave before it was skipped, and no part of the expansion is evaluated."""
    rng = np.random.default_rng(16)
    P = 300
    az = rng.uniform(-np.pi, np.pi, P)
    el = rng.uniform(-np.pi / 3, 0.0, P)
    beta = 10.0 ** rng.uniform(-12.0, 1.0, P)
    s = np.deg2rad(15)
    ref = reference_spatial_correlation_batch(az, el, s, s, 1, beta)

    def skipped(*args):
        raise AssertionError("expansion evaluated for one antenna")

    for name in ("_quadrature", "_expansion", "_chebyshev", "_bilinear"):
        monkeypatch.setattr(ch, name, skipped)
    R = ch.spatial_correlation_batch(az, el, s, s, 1, beta)
    assert R.dtype == complex
    assert np.array_equal(R, beta[:, None, None])
    assert np.abs(R - ref).max() <= 1e-14 * beta.max()


def test_zero_spread_rank_one():
    az, el, beta = 0.6, -0.15, 1.7
    R = spatial_correlation(az, el, 0.0, 0.0, 4, beta)
    m, n = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    expect = beta * np.exp(1j * np.pi * (m - n) * np.sin(az) * np.cos(el))
    np.testing.assert_allclose(R, expect, atol=1e-14)
    assert np.linalg.matrix_rank(R, tol=1e-9) == 1


def test_correlation_matches_dense_quadrature():
    az, el = np.deg2rad(30), np.deg2rad(-10)
    s = np.deg2rad(15)
    R = spatial_correlation(az, el, s, s, 4, 1.0)
    Rref = _dense_oracle(az, el, s, s, 4, 1.0)
    assert np.abs(R - Rref).max() < 1e-4


def test_correlation_invariants_random_links():
    rng = np.random.default_rng(7)
    P, N = 1000, 4
    az = rng.uniform(-np.pi, np.pi, P)
    el = rng.uniform(-np.pi / 3, 0.0, P)
    beta = rng.uniform(0.01, 10.0, P)
    R = ch.spatial_correlation_batch(
        az, el, np.deg2rad(15), np.deg2rad(15), N, beta
    )
    herm = np.abs(R - np.conj(np.swapaxes(R, -1, -2))).max()
    assert herm < 1e-12
    traces = np.trace(R, axis1=-2, axis2=-1).real
    np.testing.assert_allclose(traces, N * beta, rtol=1e-6)
    eigs = np.linalg.eigvalsh(R)
    assert np.all(eigs.min(axis=-1) >= -1e-10 * traces)


def _per_offset_exp_correlation(az, el, s_az, s_el, N, beta):
    """The quadrature with one complex exponential per antenna offset."""
    az_nodes, az_w = axis_nodes(az, s_az)
    el_nodes, el_w = axis_nodes(el, s_el)
    w2 = az_w[:, :, None] * el_w[:, None, :]
    w2 /= w2.sum(axis=(1, 2), keepdims=True)
    sc = np.sin(az_nodes)[:, :, None] * np.cos(el_nodes)[:, None, :]
    r = np.empty((az.size, N), dtype=complex)
    for d in range(N):
        r[:, d] = (w2 * np.exp(1j * np.pi * d * sc)).sum(axis=(1, 2))
    idx = np.arange(N)[:, None] - np.arange(N)[None, :]
    R = np.where(idx >= 0, r[:, np.abs(idx)], np.conj(r[:, np.abs(idx)]))
    R = R * beta[:, None, None]
    return 0.5 * (R + np.conj(np.swapaxes(R, -1, -2)))


def test_correlation_matches_per_offset_exponentials():
    rng = np.random.default_rng(12)
    P, N = 300, 8
    az = rng.uniform(-np.pi, np.pi, P)
    el = rng.uniform(-np.pi / 3, 0.0, P)
    beta = rng.uniform(0.01, 10.0, P)
    s = np.deg2rad(15)
    R = ch.spatial_correlation_batch(az, el, s, s, N, beta)
    ref = _per_offset_exp_correlation(az, el, s, s, N, beta)
    rel = np.abs(R - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert rel.max() <= 1e-12


@pytest.mark.parametrize("N", [1, 2, 4, 8])
@pytest.mark.parametrize("spread_deg", [0.0, 5.0, 15.0, 40.0])
def test_correlation_matches_frozen_per_link_quadrature(N, spread_deg):
    rng = np.random.default_rng(14)
    P = 500
    az = rng.uniform(-np.pi, np.pi, P)
    el = rng.uniform(-np.pi / 3, 0.0, P)
    beta = 10.0 ** rng.uniform(-12.0, 1.0, P)
    s = np.deg2rad(spread_deg)
    R = ch.spatial_correlation_batch(az, el, s, s, N, beta)
    ref = reference_spatial_correlation_batch(az, el, s, s, N, beta)
    rel = np.abs(R - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert rel.max() <= 1e-14
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    assert np.array_equal(diag, np.broadcast_to(beta[:, None], diag.shape))
    assert np.array_equal(R, np.conj(np.swapaxes(R, -1, -2)))


def _leggauss_rule():
    """The quadrature rule from numpy's leggauss(40), with the kernel's
    Gaussian weighting and normalization: the stored rule equals it bit for
    bit."""
    x, w = np.polynomial.legendre.leggauss(ch.QUAD_NODES)
    w = w * np.exp(-0.5 * (ch.ANGLE_TRUNC_SIGMAS * x) ** 2)
    return x, w / w.sum()


def test_quadrature_nodes_cached_read_only():
    x, grid = ch._quadrature()
    assert ch._quadrature()[1] is grid
    assert not x.flags.writeable and not grid.flags.writeable
    x_ref, grid_ref = _leggauss_rule()
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(grid, grid_ref)


def test_stored_rule_is_a_gauss_legendre_rule():
    # independent of numpy's eigensolver, so it holds on every platform: a
    # mistyped leading digit of the stored table fails it
    x, _ = ch._quadrature()
    half = np.array(ch._LEGENDRE_NODES)
    w = np.array(ch._LEGENDRE_WEIGHTS[::-1] + ch._LEGENDRE_WEIGHTS)
    assert x.size == w.size == ch.QUAD_NODES == 2 * half.size
    assert np.array_equal(x[half.size:], half)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert -1.0 < x[0] and x[-1] < 1.0
    assert np.all(w > 0) and abs(w.sum() - 2.0) <= 1e-14
    for j in range(ch.QUAD_NODES):  # exact up to degree 2 * 40 - 1
        assert abs(w @ x ** (2 * j) - 2 / (2 * j + 1)) <= 1e-14


def test_quadrature_rule_built_without_linear_algebra(monkeypatch):
    # no eigensolve: building the rule calls no numpy.linalg routine
    az, el, beta = _random_links(17, P=20)
    s = np.deg2rad(15)
    R = ch.spatial_correlation_batch(az, el, s, s, 4, beta)

    def forbidden(*args, **kwargs):
        raise AssertionError("the quadrature rule called numpy.linalg")

    for name in np.linalg.__all__:
        if name != "LinAlgError":
            monkeypatch.setattr(np.linalg, name, forbidden)
    ch._quadrature.cache_clear()
    np.testing.assert_array_equal(ch.spatial_correlation_batch(az, el, s, s, 4, beta), R)
    assert ch._quadrature.cache_info().misses == 1


def test_correlation_bit_identical_to_direct_leggauss(monkeypatch):
    rng = np.random.default_rng(13)
    P, N = 50, 4
    az = rng.uniform(-np.pi, np.pi, P)
    el = rng.uniform(-np.pi / 3, 0.0, P)
    beta = rng.uniform(0.01, 10.0, P)
    s = np.deg2rad(15)
    R = ch.spatial_correlation_batch(az, el, s, s, N, beta)
    monkeypatch.setattr(ch, "_quadrature", _leggauss_rule)
    ref = ch.spatial_correlation_batch(az, el, s, s, N, beta)
    np.testing.assert_array_equal(R, ref)


def test_blocks_cover_every_item_once(monkeypatch):
    monkeypatch.setattr(ch, "_BLOCK_BYTES", 100)
    # the last slice ends at n, so a block's length is its slice's
    assert ch._blocks(7, 30) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert ch._blocks(2, 101) == [slice(0, 1), slice(1, 2)]  # at least one item
    assert ch._blocks(5, 1) == [slice(0, 5)]
    assert ch._blocks(0, 30) == []


@pytest.mark.parametrize("N", [1, 2, 4, 8])
def test_correlation_blocks_bit_identical_to_one_block(N):
    # the links of one call, evaluated one per call and in calls of 3 with a
    # ragged last call of 1, give the whole call's R bit for bit
    rng = np.random.default_rng(15)
    P = 7
    az = rng.uniform(-np.pi, np.pi, P)
    el = rng.uniform(-np.pi / 3, 0.0, P)
    beta = rng.uniform(0.01, 10.0, P)
    s = np.deg2rad(15)
    whole = ch.spatial_correlation_batch(az, el, s, s, N, beta)
    for links in (1, 3):
        parts = [
            ch.spatial_correlation_batch(az[b], el[b], s, s, N, beta[b])
            for b in (slice(i, i + links) for i in range(0, P, links))
        ]
        np.testing.assert_array_equal(np.concatenate(parts), whole)


def _same_bits(a, b):
    return (
        a.shape == b.shape and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def _frozen_factor_and_filters(R, pilot_power_mw, pilot_len, noise_mw):
    """sqrt_R, W, Phi and C by the whole-batch expressions that
    ``build_statistics`` ran before it filled its arrays in link blocks."""
    vals, vecs = np.linalg.eigh(R)
    vals = np.clip(vals, 0.0, None)
    sqrt_R = vecs * np.sqrt(vals)[..., None, :] @ np.conj(np.swapaxes(vecs, -1, -2))
    ptau = pilot_power_mw * pilot_len
    A = ptau * R + noise_mw * np.eye(R.shape[-1])
    Ainv_R = np.linalg.solve(A, R)
    W = np.sqrt(ptau) * np.swapaxes(np.conj(Ainv_R), -1, -2)
    Phi = ptau * np.swapaxes(np.conj(Ainv_R), -1, -2) @ R
    Phi = 0.5 * (Phi + np.conj(np.swapaxes(Phi, -1, -2)))
    C = R - Phi
    C = 0.5 * (C + np.conj(np.swapaxes(C, -1, -2)))
    return sqrt_R, W, Phi, C


@pytest.mark.parametrize("scale", ["full", "desk"])
def test_statistics_bit_identical_for_any_link_blocks(monkeypatch, desk_config, scale):
    # A drop's statistics in one link block, held to the frozen whole-batch
    # factor and filters; then in one-link blocks, and under a budget that
    # leaves a ragged last block in both loops: blocks of 19 links in the
    # correlation and 11 in the factor and filters at full scale (2400
    # links), 30 and 44 at desk scale (128 links).
    cfg = ScenarioConfig(master_seed=4) if scale == "full" else desk_config
    topo = build_topology(cfg, 0)
    monkeypatch.setattr(ch, "_BLOCK_BYTES", 1 << 40)
    whole = ch.build_statistics(cfg, topo, 0)
    frozen = _frozen_factor_and_filters(
        whole.R, cfg.ul_power_mw, cfg.pilot_count, whole.noise_mw
    )
    for name, ref in zip(("sqrt_R", "W", "Phi", "C"), frozen):
        assert _same_bits(getattr(whole, name), ref), name
    for budget in (1, 11312):
        monkeypatch.setattr(ch, "_BLOCK_BYTES", budget)
        stats = ch.build_statistics(cfg, topo, 0)
        for name in ("beta", "shadow_db", "R", "sqrt_R", "W", "Phi", "C"):
            assert _same_bits(getattr(stats, name), getattr(whole, name)), (budget, name)
        assert stats.noise_mw == whole.noise_mw
        # a drop's sampling blocks read the filters without a copy
        assert stats.W.flags.c_contiguous


def test_statistics_hold_little_beside_what_they_return():
    # the correlation, factor and filters run in link blocks into the
    # returned arrays, so a full-scale drop's statistics add at most a
    # quarter of their own size at their peak; whole-batch temporaries
    # doubled it
    cfg = ScenarioConfig(master_seed=4)
    topo = build_topology(cfg, 0)
    ch.build_statistics(cfg, topo, 0)  # fill the expansion cache
    tracemalloc.start()
    try:
        stats = ch.build_statistics(cfg, topo, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in vars(stats).values() if isinstance(a, np.ndarray))
    assert peak <= 1.25 * held


def _random_links(seed, P=1000):
    rng = np.random.default_rng(seed)
    az = rng.uniform(-np.pi, np.pi, P)
    el = rng.uniform(-np.pi / 2, np.pi / 2, P)
    beta = 10.0 ** rng.uniform(-12.0, 1.0, P)
    return az, el, beta


@pytest.mark.parametrize(
    "N, az_deg, el_deg",
    [
        (3, 15.0, 15.0),
        (5, 15.0, 15.0),
        (6, 15.0, 15.0),
        (7, 15.0, 15.0),  # (N - 1) * asd = 90 deg
        (4, 5.0, 30.0),
        (4, 30.0, 5.0),
        (8, 1e-6, 1e-6),
        (2, 40.0, 40.0),  # the corners of the region a ScenarioConfig accepts
        (3, 40.0, 40.0),
        (4, 30.0, 30.0),
        (10, 10.0, 10.0),
        (16, 6.0, 6.0),
        (16, 0.0, 0.0),
    ],
)
def test_correlation_matches_frozen_reference_across_the_validated_region(
    N, az_deg, el_deg
):
    az, el, beta = _random_links(N)
    s_az, s_el = np.deg2rad(az_deg), np.deg2rad(el_deg)
    R = ch.spatial_correlation_batch(az, el, s_az, s_el, N, beta)
    ref = reference_spatial_correlation_batch(az, el, s_az, s_el, N, beta)
    rel = np.abs(R - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert rel.max() <= 1e-14
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    assert np.array_equal(diag, np.broadcast_to(beta[:, None], diag.shape))
    assert np.array_equal(R, np.conj(np.swapaxes(R, -1, -2)))


@pytest.mark.parametrize("N, spread_deg", [(32, 90.0 / 31), (64, 0.0)])
def test_long_array_correlation_within_its_phase_rounding(N, spread_deg):
    # offset d multiplies the rounding of sin(az)cos(el) by pi*d, in the
    # reference as much as here
    az, el, beta = _random_links(N, P=300)
    s = np.deg2rad(spread_deg)
    R = ch.spatial_correlation_batch(az, el, s, s, N, beta)
    ref = reference_spatial_correlation_batch(az, el, s, s, N, beta)
    rel = np.abs(R - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert rel.max() <= N * 1e-15


def test_correlation_of_a_link_does_not_depend_on_the_other_links():
    az, el, beta = _random_links(18, P=64)
    s_az, s_el = np.deg2rad(15.0), np.deg2rad(5.0)
    whole = ch.spatial_correlation_batch(az, el, s_az, s_el, 8, beta)
    for width in (1, 3, 17):
        for i in range(0, az.size, width):
            part = slice(i, i + width)
            np.testing.assert_array_equal(
                ch.spatial_correlation_batch(
                    az[part], el[part], s_az, s_el, 8, beta[part]
                ),
                whole[part],
            )
    flip = slice(None, None, -1)
    np.testing.assert_array_equal(
        ch.spatial_correlation_batch(az[flip], el[flip], s_az, s_el, 8, beta[flip]),
        whole[flip],
    )


def test_bessel_recurrence_matches_scipy():
    from scipy.special import jv

    for d in range(1, 17):
        x = np.pi * d / 2
        kmax = 2 * d + 60
        err = np.abs(ch._bessel_j(x, kmax) - jv(np.arange(kmax + 1), x)).max()
        assert err <= 1e-15


def _expansion_terms(d, size):
    """|C_mn| for m, n < size from scipy's Bessel functions, and C itself."""
    from scipy.special import jv

    m = np.arange(size)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    eps = np.where(m > 0, 2.0, 1.0)
    J = jv(np.arange(-size, size), np.pi * d / 2)  # J[size + k] = J_k
    C = (
        np.outer(eps, eps) * np.array([1, 1j, -1, -1j])[mm % 4]  # j^m
        * J[size + (mm + nn) // 2] * J[size + (mm - nn) // 2]
    )
    return np.where((mm - nn) % 2 == 0, C, 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 15, 31, 63])
def test_expansion_matches_scipy_and_drops_a_tail_below_the_bound(d):
    even, odd = ch._expansion(d)
    M = even.shape[0] + odd.shape[0]
    assert even.shape == (-(-M // 2),) * 2 and odd.shape == (M // 2,) * 2
    C = _expansion_terms(d, M + 80)
    # scipy's J_k(x) drifts by up to 6.5e-15 at x = 99 (against 40 digits)
    atol = 1e-15 * max(1, d // 12)
    np.testing.assert_allclose(even, C[:M:2, :M:2].real, rtol=0, atol=atol)
    np.testing.assert_allclose(odd, C[1:M:2, 1:M:2].imag, rtol=0, atol=atol)
    assert not np.any(C[:M:2, :M:2].imag) and not np.any(C[1:M:2, 1:M:2].real)
    dropped = np.abs(C)
    dropped[:M, :M] = 0.0
    assert dropped.sum() < 1e-17
    one_less = np.abs(C)
    one_less[: M - 1, : M - 1] = 0.0
    assert one_less.sum() >= 1e-17  # the order is the least that meets it


def test_expansion_cached_per_offset_read_only():
    code = "import cfmimo.channel as ch; print(ch._expansion.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "0"  # nothing computed at import
    even, odd = ch._expansion(4)
    again = ch._expansion(4)
    assert again[0] is even and again[1] is odd
    assert not even.flags.writeable and not odd.flags.writeable


def test_expansion_cache_is_bounded_and_holds_sixteen_antennas():
    az, el, beta = _random_links(128, P=5)
    ch._expansion.cache_clear()
    ch.spatial_correlation_batch(az, el, 0.1, 0.1, 16, beta)
    misses = ch._expansion.cache_info().misses
    ch.spatial_correlation_batch(az, el, 0.1, 0.1, 16, beta)
    assert ch._expansion.cache_info().misses == misses  # every offset cached

    R = ch.spatial_correlation_batch(az, el, 0.0, 0.0, 128, beta)
    info = ch._expansion.cache_info()
    assert info.currsize <= info.maxsize < 127
    np.testing.assert_array_equal(ch.spatial_correlation_batch(az, el, 0.0, 0.0, 128, beta), R)


def test_expansion_cache_keeps_offsets_1_to_32_past_33_antennas():
    # offsets above the bound bypass the cache, so a second 40-antenna call
    # finds offsets 1-32 there instead of having scanned them out
    az, el, beta = _random_links(129, P=5)
    ch._expansion.cache_clear()
    R = ch.spatial_correlation_batch(az, el, 0.1, 0.1, 40, beta)
    hits = ch._expansion.cache_info().hits
    again = ch.spatial_correlation_batch(az, el, 0.1, 0.1, 40, beta)
    assert ch._expansion.cache_info().hits == hits + 32
    np.testing.assert_array_equal(again, R)


def test_correlation_rejects_nonfinite():
    with pytest.raises(ValueError):
        spatial_correlation(np.nan, 0.0, 0.1, 0.1, 2, 1.0)


# ---------------------------------------------------------------------------
# channel sampling
# ---------------------------------------------------------------------------
def test_sample_channel_identity_covariance():
    rng = np.random.default_rng(7)
    h = ch.sample_channel(np.eye(4, dtype=complex), rng, size=100_000)
    var = np.var(h, axis=0).real
    assert np.all((0.98 <= var) & (var <= 1.02))


def test_sample_channel_rank_one():
    u = np.array([1.0, 1.0j]) / np.sqrt(2)
    R = np.outer(u, u.conj())
    sq = ch.correlation_factor(R)
    rng = np.random.default_rng(1)
    h = ch.sample_channel(sq, rng, size=200)
    # every draw proportional to the eigenvector
    proj = h - (h @ u.conj())[:, None] * u
    assert np.abs(proj).max() < 1e-12


def test_sample_channel_covariance_converges():
    rng = np.random.default_rng(5)
    R = spatial_correlation(0.4, -0.1, np.deg2rad(15), np.deg2rad(15), 4, 1.0)
    sq = ch.correlation_factor(R)
    h = ch.sample_channel(sq, rng, size=100_000)
    Cs = np.einsum("tn,tm->nm", h, h.conj()) / h.shape[0]
    tol = 0.03 * np.trace(R).real / R.shape[0]
    assert np.abs(Cs - R).max() <= tol


# ---------------------------------------------------------------------------
# MMSE estimation
# ---------------------------------------------------------------------------
def test_mmse_noiseless_limit():
    R = spatial_correlation(0.4, -0.1, 0.2, 0.2, 3, 2.0)
    W, Phi, C = ch.mmse_filters(R, 200.0, 24, 1e-15)
    rng = np.random.default_rng(3)
    h = ch.sample_channel(ch.correlation_factor(R), rng, size=1)[0]
    hhat = W @ (np.sqrt(200.0 * 24) * h)
    assert np.abs(hhat - h).max() / np.abs(h).max() < 1e-8
    assert np.abs(C).max() < 1e-8 * np.abs(R).max()


def test_mmse_scalar_closed_form():
    beta, p, tau, s2 = 2.0, 3.0, 5.0, 0.7
    R = beta * np.eye(2, dtype=complex)
    W, _, _ = ch.mmse_filters(R, p, tau, s2)
    y = np.array([1.0 + 2.0j, -0.5 + 0.1j])
    expect = (p * tau * beta / (p * tau * beta + s2)) * y / np.sqrt(p * tau)
    np.testing.assert_allclose(W @ y, expect, rtol=1e-12)


def test_mmse_error_covariance_monte_carlo():
    # mid-SNR, strongly correlated so every C entry is sizable
    N, beta = 2, 1.0
    R = beta * np.array([[1.0, 0.7], [0.7, 1.0]], dtype=complex)
    p = tau = 1.0
    s2 = beta
    W, Phi, C = ch.mmse_filters(R, p, tau, s2)
    sq = ch.correlation_factor(R)
    rng = np.random.default_rng(6)
    T = 10_000
    h = ch.sample_channel(sq, rng, size=T)
    noise = (rng.standard_normal((T, N)) + 1j * rng.standard_normal((T, N))) * np.sqrt(
        s2 / 2
    )
    hhat = np.einsum("nm,tm->tn", W, np.sqrt(p * tau) * h + noise)
    err = h - hhat
    Cs = np.einsum("tn,tm->nm", err, err.conj()) / T
    assert (np.abs(Cs - C) / np.abs(C)).max() < 0.05
    # orthogonality: cross-covariance of estimate and error within 3 MC sigma
    prod = hhat[:, :, None] * err[:, None, :].conj()
    X = prod.mean(axis=0)
    se = prod.std(axis=0) / np.sqrt(T)
    assert np.linalg.norm(X) <= 3 * np.linalg.norm(se)


def test_estimate_channels_shapes_and_quality():
    rng = np.random.default_rng(9)
    R = ch.spatial_correlation_batch(
        np.array([0.3, -1.0]), np.array([-0.1, -0.2]), 0.2, 0.2, 2, np.array([1.0, 2.0])
    ).reshape(1, 2, 2, 2)
    sq = ch.correlation_factor(R)
    W, Phi, C = ch.mmse_filters(R, 10.0, 4, 0.5)
    h = ch.sample_channel(sq, rng, size=2000)
    hhat = ch.estimate_channels(h, W, 10.0, 4, 0.5, rng)
    assert hhat.shape == h.shape
    mse = np.mean(np.abs(h - hhat) ** 2, axis=(0, 3))
    expect = np.trace(C, axis1=-2, axis2=-1).real / 2
    np.testing.assert_allclose(mse[0], expect[0], rtol=0.15)


def test_in_place_sampling_matches_frozen_expressions():
    # the draws fill one complex array in place, real parts first; the
    # expressions they replaced are kept here as the reference
    rng = np.random.default_rng(12)
    K, L, N, T = 3, 4, 2, 9
    R = ch.spatial_correlation_batch(
        rng.uniform(-np.pi, np.pi, K * L), rng.uniform(-1.0, 0.0, K * L),
        0.2, 0.2, N, rng.uniform(0.1, 2.0, K * L),
    ).reshape(K, L, N, N)
    sq = ch.correlation_factor(R)
    W, _, _ = ch.mmse_filters(R, 10.0, 4, 0.5)
    new, old = np.random.default_rng(3), np.random.default_rng(3)
    h = ch.sample_channel(sq, new, size=T)
    hhat = ch.estimate_channels(h, W, 10.0, 4, 0.5, new)

    shape = (T, K, L, N)
    g = (old.standard_normal(shape) + 1j * old.standard_normal(shape)) / np.sqrt(2.0)
    h_ref = np.einsum("...nm,t...m->t...n", sq, g)
    noise = (
        old.standard_normal(shape) + 1j * old.standard_normal(shape)
    ) * np.sqrt(0.5 / 2.0)
    y = np.sqrt(10.0 * 4) * h_ref + noise
    hhat_ref = np.einsum("klnm,tklm->tkln", W, y)
    assert np.array_equal(h, h_ref)
    assert np.array_equal(hhat, hhat_ref)
    assert new.standard_normal() == old.standard_normal()  # same draws used


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8])
def test_per_link_products_bit_identical_for_any_link_chunks(monkeypatch, N):
    # whole, in chunks of 4 links with a ragged last chunk of 1, and one link
    # per chunk; with contiguous matrices and with matrices stored transposed
    rng = np.random.default_rng(N)
    K, L, T = 3, 3, 5
    A = rng.standard_normal((K, L, N, N)) + 1j * rng.standard_normal((K, L, N, N))
    x = rng.standard_normal((T, K, L, N)) + 1j * rng.standard_normal((T, K, L, N))
    chunk_bytes = 32 * N * T
    for matrices in (A, np.swapaxes(A, -1, -2)):
        ref = np.einsum("klnm,tklm->tkln", matrices, x)
        for links in (K * L, 4, 1):
            monkeypatch.setattr(ch, "_BLOCK_BYTES", links * chunk_bytes)
            assert len(ch._blocks(K * L, chunk_bytes)) == -(-K * L // links)
            np.testing.assert_array_equal(ch._per_link(matrices, x.copy()), ref)


@pytest.mark.parametrize(
    "budget, block",
    [
        pytest.param(budget, block, id=f"{budget}" + (f"-block{block}" if block else ""))
        for budget in (None, 12288, 5000)
        for block in (None, 1, 3, 5, 13)
    ],
)
def test_drop_channels_bit_identical_to_frozen_sampling(
    monkeypatch, desk_config, budget, block
):
    # h and hhat of a drop, drawn and filtered in place, against the frozen
    # whole-batch draws and second output array. The budgets split the draws
    # and the link chunks into blocks with ragged last blocks: 3328 draws
    # per part by 1536 and by 625, 128 links by 14 and by 6. A block size
    # draws the 13 realizations through the drop's stream cursors in
    # realization blocks (5 leaves a ragged last block of 3); None is the
    # whole batch without cursors.
    cfg = ScenarioConfig(**{**desk_config.to_dict(), "mc_realizations": 13})
    stats = ch.build_statistics(cfg, build_topology(cfg, 1), 1)
    h_ref, hhat_ref = reference_sampling.sample_drop_channels(stats, 13, cfg, 1)
    if budget is not None:
        monkeypatch.setattr(ch, "_BLOCK_BYTES", budget)
    if block is None:
        h, hhat = ch.sample_drop_channels(stats, 13, cfg, 1)
    else:
        streams = ch.drop_streams(cfg, 1, 13)
        sizes = [min(block, 13 - t) for t in range(0, 13, block)]
        h, hhat = (
            np.concatenate(parts)
            for parts in zip(
                *(ch.sample_drop_channels(stats, n, cfg, 1, streams) for n in sizes)
            )
        )
        with pytest.raises(ValueError, match="256 draws asked for, 0 left"):
            ch.sample_drop_channels(stats, 1, cfg, 1, streams)  # past the batch
    np.testing.assert_array_equal(h, h_ref)
    np.testing.assert_array_equal(hhat, hhat_ref)


# ---------------------------------------------------------------------------
# phase drift
# ---------------------------------------------------------------------------
def test_phase_drift_zero_is_identity():
    rng = np.random.default_rng(0)
    h = (rng.standard_normal((2, 3, 4, 2)) + 1j * rng.standard_normal((2, 3, 4, 2)))
    rot = ch.phase_drift(2, 4, 0.0, rng)
    np.testing.assert_array_equal(h * rot[:, None, :, None], h)
    assert np.all(rot == 1)


def test_phase_drift_preserves_magnitudes():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((5, 3, 6, 2)) + 1j * rng.standard_normal((5, 3, 6, 2))
    rot = ch.phase_drift(5, 6, 73.0, rng)
    assert rot.shape == (5, 6)
    out = h * rot[:, None, :, None]
    np.testing.assert_allclose(np.abs(out), np.abs(h), rtol=1e-12)


def test_phase_drift_uniform_distribution():
    rng = np.random.default_rng(4)
    theta = np.angle(ch.phase_drift(1, 10_000, 30.0, rng))[0]
    lim = np.deg2rad(30.0)
    stat, pvalue = sps.kstest(theta, sps.uniform(loc=-lim, scale=2 * lim).cdf)
    assert pvalue > 0.01
    assert np.abs(theta).max() <= lim


def test_phase_drift_rejects_negative():
    with pytest.raises(ValueError):
        ch.phase_drift(1, 1, -1.0, np.random.default_rng(0))
