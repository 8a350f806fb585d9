"""Agreement of the batched combiner kernel with the per-realization loop.

``reference_combiner`` keeps the loop the kernel replaced. The kernel solves
the same regularized systems in another order (antenna domain or K x K
Woodbury form, batched over realizations), so combiners and SINRs must agree
to 1e-8 relative, not bit for bit. Splitting the batch into realization
blocks, on the other hand, must not change a bit.
"""

import warnings

import numpy as np
import pytest

from cfmimo import channel, transceiver
from cfmimo.deployment import _one_hot, unit_labels
from cfmimo.transceiver import (
    SCHEMES,
    Association,
    CombinerWorkspace,
    _solve_regularized,
)

from conftest import edu_consistent, random_channels, random_error_covs
from reference_combiner import (
    ReferenceWorkspace,
    _unit_coefficients,
    normalize_precoders,
    quantize,
    reference_downlink_gamma,
    reference_uplink_gamma,
)
from reference_woodbury import full_inverse_combiners
from whole_batch import downlink_sinr, uplink_sinr

RTOL = 1e-8

# (K, L, N, genome). "mixed": the joint unit and the 3-O-RU EDU go through
# the Woodbury form, single-O-RU units through the antenna domain. "wide":
# N > K, so single O-RUs go through the Woodbury form as well.
INSTANCES = {
    "mixed": (5, 5, 2, [0, 0, 0, 1, 2]),
    "wide": (3, 4, 4, [0, 0, 1, 2]),
}
MASKS = ("all-serve", "edu-dcc", "random-dcc")


def _instance(name, mask):
    K, L, N, genome = INSTANCES[name]
    genome = np.array(genome)
    M = genome.max() + 1
    rng = np.random.default_rng([sum(map(ord, name)), MASKS.index(mask)])
    T = 6
    hhat = random_channels(rng, (T, K, L, N))
    h = hhat + 0.3 * random_channels(rng, (T, K, L, N))
    C = random_error_covs(rng, K, L, N)
    beta = rng.uniform(0.1, 2.0, (K, L))
    if mask == "all-serve":
        assoc = Association.all_serve(K, L)
    elif mask == "edu-dcc":
        delta_km = rng.random((K, M)) < 0.5
        delta_km[np.arange(K), rng.integers(0, M, K)] = True
        delta_km[-1] = False  # served by nobody
        assoc = Association.from_edu(delta_km, genome)
        assert edu_consistent(assoc.delta, genome)
    else:
        delta = rng.random((K, L)) < 0.5
        delta[np.arange(K), rng.integers(0, L, K)] = True
        delta[0, :2] = [True, False]  # splits EDU 0 for UE 0
        delta[-1] = False
        assoc = Association(delta)
        assert not edu_consistent(assoc.delta, genome)
    return h, hhat, C, beta, assoc, genome


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_kernel_matches_per_realization_loop(name, mask, scheme):
    h, hhat, C, beta, assoc, genome = _instance(name, mask)
    K = h.shape[1]
    spec = SCHEMES[scheme]
    noise = 0.4
    p_all = np.linspace(0.5, 2.0, K)
    p_zero = p_all.copy()
    p_zero[1] = 0.0  # a UE that transmits nothing
    for p in (p_all, p_zero):
        ws = CombinerWorkspace(spec, assoc, genome, C, p, noise)
        v = ws.combiners(hhat)
        ref_ws = ReferenceWorkspace(spec, assoc, genome, C, p, noise)
        v_ref = np.stack([ref_ws.combiners(x) for x in hhat])
        assert _rel(v, v_ref) <= RTOL
        assert np.all(v[:, ~assoc.delta] == 0)
        # every moment set of the links below, as run_drop requests them
        rot = channel.phase_drift(h.shape[0], h.shape[2], 10.0, np.random.default_rng(7))
        plain = transceiver._link_moments(ws, hhat, h, {"ul": "infinite"})["ul"]
        links = transceiver._link_moments(ws, hhat, h, {"ul": 4, "dl": rot})
        quantized, drifted = links["ul"], links["dl"]

        for bits in ("infinite", 4):
            args = (scheme, h, hhat, C, assoc, genome, p, noise)
            try:
                g_ref = reference_uplink_gamma(*args, quantizer_bits=bits)
            except AssertionError:
                # the reference rejects a served zero-power UE, whose MMSE
                # combiner is zero; the kernel rates it 0 like an unserved UE
                silent = assoc.delta & (p == 0)[:, None]
                ref_args = (*args[:4], Association(assoc.delta & ~silent), *args[5:])
                g_ref = reference_uplink_gamma(*ref_args, quantizer_bits=bits)
                assert np.all(g_ref[p == 0] == 0)
            gamma = uplink_sinr(*args, quantizer_bits=bits).gamma
            np.testing.assert_allclose(gamma, g_ref, rtol=RTOL, atol=0)
            given = plain if bits == "infinite" else quantized
            shared = uplink_sinr(*args, quantizer_bits=bits, moments=given).gamma
            np.testing.assert_array_equal(shared, gamma)

        dl_args = (scheme, h, hhat, C, assoc, genome, beta, p, noise, 0.7, 4.0)
        for drift in (0.0, 10.0):  # equal drift streams on both sides
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # zero-norm precoders
                g_ref, p_ref = reference_downlink_gamma(
                    *dl_args, drift, np.random.default_rng(7)
                )
                dl = downlink_sinr(*dl_args, drift, np.random.default_rng(7))
                shared = downlink_sinr(
                    *dl_args, drift, moments=drifted if drift else plain
                )
            np.testing.assert_allclose(dl.report.gamma, g_ref, rtol=RTOL, atol=0)
            np.testing.assert_allclose(dl.dl_power_mw, p_ref, rtol=RTOL, atol=0)
            np.testing.assert_array_equal(shared.report.gamma, dl.report.gamma)


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("scheme", [s for s in sorted(SCHEMES) if SCHEMES[s].rule != "mrc"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_realization_blocks_bit_identical_to_one_block(monkeypatch, name, mask, scheme):
    # MRC has no blocks; the MMSE kernel must not change a bit with them
    h, hhat, C, beta, assoc, genome = _instance(name, mask)
    T, K = hhat.shape[:2]
    p = np.linspace(0.5, 2.0, K)
    p[1] = 0.0
    ws = CombinerWorkspace(SCHEMES[scheme], assoc, genome, C, p, 0.4)
    monkeypatch.setattr(channel, "_BLOCK_BYTES", T * ws.item_bytes)
    assert len(channel._blocks(T, ws.item_bytes)) == 1
    whole = ws.combiners(hhat)
    # one realization per block, and blocks of 4 with a ragged last block
    for per_block in (1, 4):
        monkeypatch.setattr(channel, "_BLOCK_BYTES", per_block * ws.item_bytes)
        assert len(channel._blocks(T, ws.item_bytes)) == -(-T // per_block)
        np.testing.assert_array_equal(ws.combiners(hhat), whole)


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_link_products_bit_identical_for_any_block_size(monkeypatch, name, mask, scheme):
    # UL (plain and quantized) and drifted DL reports must not change a bit
    # with the realization blocks of their combiners and link products
    h, hhat, C, beta, assoc, genome = _instance(name, mask)
    T, K, L, N = h.shape
    p = np.linspace(0.5, 2.0, K)

    def reports():
        args = (scheme, h, hhat, C, assoc, genome)
        out = [
            uplink_sinr(*args, p, 0.4, quantizer_bits=bits)
            for bits in ("infinite", 4)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # zero-norm precoders
            dl = downlink_sinr(
                *args, beta, p, 0.4, 0.7, 4.0, 10.0, np.random.default_rng(5)
            )
        return out + [dl.report, dl.per_oru_radiated_mw]

    monkeypatch.setattr(channel, "_BLOCK_BYTES", 1 << 40)
    whole = reports()
    # one realization per block everywhere, then blocks of 4 (a ragged last
    # block of 2) for the plain products, then for the per-O-RU quantizer
    # coefficients
    for budget in (1, 4 * 16 * K * L * N, 4 * 16 * K * L * max(K, N)):
        monkeypatch.setattr(channel, "_BLOCK_BYTES", budget)
        for got, ref in zip(reports(), whole):
            if isinstance(ref, np.ndarray):
                np.testing.assert_array_equal(got, ref)
                continue
            for field in ("signal", "interference", "noise", "gamma", "se", "uncertainty"):
                np.testing.assert_array_equal(getattr(got, field), getattr(ref, field))


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_uplink_noise_agrees_with_one_sum_over_all_antennas(name, mask, scheme):
    # The uplink sums its noise energy per O-RU before the realization mean,
    # where it used to sum over all L*N antennas of a realization at once.
    # Only that order may move: noise and gamma agree to 1e-14 relative with
    # the former expressions, written out here; the other moments are equal.
    h, hhat, C, beta, assoc, genome = _instance(name, mask)
    T, K, L, _ = h.shape
    p = np.linspace(0.5, 2.0, K)
    spec = SCHEMES[scheme]
    v = CombinerWorkspace(spec, assoc, genome, C, p, 0.4).combiners(hhat)
    units = unit_labels(spec.granularity, genome, L)
    for bits in ("infinite", 4):
        if bits == "infinite":
            s = np.conj(v.reshape(T, K, -1)) @ np.swapaxes(h.reshape(T, K, -1), 1, 2)
        else:
            E = _one_hot(units, units.max() + 1)
            g = np.einsum("tkln,tiln->tkil", np.conj(v), h) @ E
            s = transceiver.quantize(g, bits, axis=(1, 2, 3)).sum(axis=-1)
        num = np.diagonal(s, axis1=1, axis2=2).mean(axis=0)
        isq = (np.abs(s) ** 2).mean(axis=0)
        signal = p * np.abs(num) ** 2
        interference = (isq * p[None, :]).sum(axis=1) - p * isq[np.arange(K), np.arange(K)]
        noise = 0.4 * (np.abs(v) ** 2).sum(axis=(2, 3)).mean(axis=0)
        active = assoc.delta.any(axis=1)
        gamma = np.where(active, signal / np.where(active, interference + noise, 1.0), 0.0)

        rep = uplink_sinr(scheme, h, hhat, C, assoc, genome, p, 0.4, bits)
        np.testing.assert_array_equal(rep.signal, signal)
        np.testing.assert_array_equal(rep.interference, interference)
        np.testing.assert_array_equal(
            rep.uncertainty, p * (isq[np.arange(K), np.arange(K)] - np.abs(num) ** 2)
        )
        np.testing.assert_allclose(rep.noise, noise, rtol=1e-14, atol=0)
        np.testing.assert_allclose(rep.gamma, gamma, rtol=1e-14, atol=0)


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_uncertainty_matches_per_realization_loop(mask, scheme):
    # p_k Var(v_k^H h_k) on the uplink (quantized or not) and Var(h_k^H w_k)
    # on the downlink, from the same combiners one realization at a time
    h, hhat, C, beta, assoc, genome = _instance("mixed", mask)
    T, K = h.shape[:2]
    p = np.linspace(0.5, 2.0, K)
    spec = SCHEMES[scheme]
    v = CombinerWorkspace(spec, assoc, genome, C, p, 0.4).combiners(hhat)
    Emat = ReferenceWorkspace(spec, assoc, genome, C, p, 0.4).Emat

    def variance(x):  # over realizations, per UE
        return (np.abs(x) ** 2).mean(axis=0) - np.abs(x.mean(axis=0)) ** 2

    for bits in ("infinite", 4):
        rep = uplink_sinr(scheme, h, hhat, C, assoc, genome, p, 0.4, bits)
        d = np.empty((T, K), dtype=complex)
        for t in range(T):
            g = quantize(_unit_coefficients(v[t], h[t], Emat), bits)
            d[t] = np.diagonal(g.sum(axis=-1))
        np.testing.assert_allclose(rep.uncertainty, p * variance(d), rtol=RTOL, atol=0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # zero-norm precoders
        dl = downlink_sinr(scheme, h, hhat, C, assoc, genome, beta, p, 0.4, 0.7, 4.0)
        w_bar, _, _ = normalize_precoders(v, assoc)
    w = w_bar * np.sqrt(dl.dl_power_mw)[:, None, None]
    d = np.stack([np.einsum("kln,kln->k", np.conj(h[t]), w[t]) for t in range(T)])
    np.testing.assert_allclose(dl.report.uncertainty, variance(d), rtol=RTOL, atol=0)


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_column_solves_bit_identical_to_full_inverse(name, mask, scheme):
    # each serving set solved only for the columns its UEs read gives the
    # combiners of the full-inverse kernel, bit for bit
    h, hhat, C, beta, assoc, genome = _instance(name, mask)
    K = hhat.shape[1]
    p = np.linspace(0.5, 2.0, K)
    p[1] = 0.0
    args = (SCHEMES[scheme], assoc, genome, C, p, 0.4)
    np.testing.assert_array_equal(
        CombinerWorkspace(*args).combiners(hhat), full_inverse_combiners(*args, hhat)
    )


@pytest.mark.parametrize("scheme", ["p-mmse", "edu-pmmse", "lp-mmse"])
@pytest.mark.parametrize("served", [0.0, 0.15, 0.5, 1.0])
def test_column_solves_bit_identical_on_larger_masks(scheme, served):
    # 16 UEs on 12 O-RUs of four EDUs: from no UE served (nothing to
    # solve) through one-UE sets to the all-serve set, which reads all K
    K, L, N = 16, 12, 2
    rng = np.random.default_rng(int(100 * served))
    genome = np.arange(L) % 4
    hhat = random_channels(rng, (5, K, L, N))
    C = random_error_covs(rng, K, L, N)
    assoc = Association(rng.random((K, L)) < served)
    args = (SCHEMES[scheme], assoc, genome, C, rng.uniform(0.5, 2.0, K), 0.4)
    v = CombinerWorkspace(*args).combiners(hhat)
    np.testing.assert_array_equal(v, full_inverse_combiners(*args, hhat))
    assert v.any() == assoc.delta.any()


def test_block_size_counts_the_per_set_systems():
    # more serving sets than O-RUs: the (S, K, K) systems are
    # the largest per-realization arrays and must set the block size
    K, L, N = 6, 2, 1
    rng = np.random.default_rng(3)
    delta = np.array([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1], [1, 1]], dtype=bool)
    C = random_error_covs(rng, K, L, N)
    ws = CombinerWorkspace(
        SCHEMES["p-mmse"], Association(delta), np.zeros(L, int), C, np.ones(K), 0.4
    )
    assert len(ws.sets) == 3  # {0}, {1} and {0, 1}
    assert ws.item_bytes == 16 * len(ws.sets) * K * K > 16 * L * K * K


def test_quantizer_step_per_realization():
    # realizations of very different scale each keep their own step
    h, hhat, C, beta, assoc, genome = _instance("mixed", "all-serve")
    scale = np.geomspace(1e-3, 1e3, h.shape[0])[:, None, None, None]
    h, hhat = h * scale, hhat * scale
    p = np.ones(h.shape[1])
    args = ("joint-mrc", h, hhat, C, assoc, genome, p, 0.4)
    gamma = uplink_sinr(*args, quantizer_bits=4).gamma
    np.testing.assert_allclose(
        gamma, reference_uplink_gamma(*args, quantizer_bits=4), rtol=RTOL, atol=0
    )


def test_jitter_fallback_resolves_only_failing_matrices():
    rng = np.random.default_rng(31)
    A = random_channels(rng, (3, 2, 2)) + 3.0 * np.eye(2)
    A[1] = [[1.0, 1.0], [1.0, 1.0]]  # exactly singular
    B = random_channels(rng, (3, 2, 2))
    with pytest.warns(UserWarning, match="jitter") as record:
        X = _solve_regularized(A, B)
    assert len(record) == 1
    for i in (0, 2):
        np.testing.assert_array_equal(X[i], np.linalg.solve(A[i], B[i]))
    jitter = 1e-12 * np.trace(A[1]).real / 2
    np.testing.assert_array_equal(X[1], np.linalg.solve(A[1] + jitter * np.eye(2), B[1]))


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cached_plan_serves_another_drop_bit_for_bit(name, mask, scheme):
    # a second drop with the same mask, units and N reuses the first drop's
    # plan with its own C, p and estimates, and builds the combiners that a
    # workspace planned anew builds
    h, hhat, C, beta, assoc, genome = _instance(name, mask)
    T, K, L, N = hhat.shape
    rng = np.random.default_rng([len(name), MASKS.index(mask), len(scheme)])
    C2 = random_error_covs(rng, K, L, N)
    hhat2 = random_channels(rng, hhat.shape)
    p2 = rng.uniform(0.5, 2.0, K)
    spec = SCHEMES[scheme]
    transceiver._combiner_plan.cache_clear()
    CombinerWorkspace(spec, assoc, genome, C, np.ones(K), 0.4).combiners(hhat)
    reused = CombinerWorkspace(spec, assoc, genome, C2, p2, 0.7)
    if spec.rule == "mmse":
        assert transceiver._combiner_plan.cache_info().hits == 1
    v = reused.combiners(hhat2)
    transceiver._combiner_plan.cache_clear()
    np.testing.assert_array_equal(
        v, CombinerWorkspace(spec, assoc, genome, C2, p2, 0.7).combiners(hhat2)
    )


def test_each_mask_unit_map_and_antenna_count_gets_its_own_read_only_plan():
    K, L, N, genome = INSTANCES["mixed"]
    genome = np.array(genome)
    rng = np.random.default_rng(41)
    delta = rng.random((K, L)) < 0.5
    other = delta.copy()
    other[0, 0] = ~other[0, 0]
    p = np.ones(K)
    plan = transceiver._combiner_plan
    plan.cache_clear()

    def misses(scheme, mask, genome, n):
        before = plan.cache_info().misses
        ws = CombinerWorkspace(
            SCHEMES[scheme], Association(mask), genome, random_error_covs(rng, K, L, n), p, 0.4
        )
        for array in (ws.local, ws.wide, ws.sets, ws.cols, ws.read):
            assert not array.flags.writeable
        return plan.cache_info().misses - before

    assert misses("edu-pmmse", delta, genome, N) == 1
    assert misses("edu-pmmse", delta, genome, N) == 0  # same inputs: cached
    assert misses("edu-pmmse", other, genome, N) == 1  # another mask
    assert misses("edu-pmmse", delta, genome[::-1], N) == 1  # another partition
    assert misses("edu-pmmse", delta, genome, N + 1) == 1  # another N
    # the joint unit map does not read the partition, so neither does its plan
    assert misses("p-mmse", delta, genome, N) == 1
    assert misses("p-mmse", delta, genome[::-1], N) == 0

    size = plan.cache_info().maxsize
    for i in range(size + 3):
        mask = np.zeros((K, L), dtype=bool)
        mask.flat[:] = [(i >> j) & 1 for j in range(K * L)]
        assert misses("p-mmse", mask, genome, N) == 1
    assert plan.cache_info().currsize == size
