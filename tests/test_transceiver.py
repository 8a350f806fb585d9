import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import block_diag

from cfmimo import ScenarioConfig
from cfmimo import channel as ch
from cfmimo.deployment import _one_hot, unit_labels
from cfmimo.power import downlink_power, uplink_power
from cfmimo.scenario import build_topology, rng_stream
from cfmimo.transceiver import (
    SCHEMES,
    Association,
    CombinerWorkspace,
    SchemeSpec,
    _link_moments,
    normalize_precoders,
    quantize,
    se_from_sinr,
)

import reference_moments
from conftest import (
    edu_consistent,
    random_channels,
    random_error_covs,
    spatial_correlation,
)
from whole_batch import downlink_sinr, uplink_sinr


# ---------------------------------------------------------------------------
# direct-form oracles used throughout this module
# ---------------------------------------------------------------------------
def stacked_uplink_sinr(v, h, p, s2):
    """Centralized-form SINR from stacked (T, K, LN) combiners/channels."""
    T, K, _ = h.shape
    num = np.zeros(K, dtype=complex)
    isq = np.zeros((K, K))
    nrm = np.zeros(K)
    for t in range(T):
        s = np.einsum("ka,ia->ki", np.conj(v[t]), h[t])
        num += np.diag(s)
        isq += np.abs(s) ** 2
        nrm += np.einsum("ka,ka->k", np.conj(v[t]), v[t]).real
    num, isq, nrm = num / T, isq / T, nrm / T
    signal = p * np.abs(num) ** 2
    interference = (isq * p[None, :]).sum(1) - p * np.diag(isq)
    return signal / (interference + s2 * nrm)


def stacked_downlink_sinr(w, h, s2_dl):
    """Centralized-form downlink SINR from stacked (T, K, LN) arrays."""
    T, K, _ = h.shape
    num = np.zeros(K, dtype=complex)
    isq = np.zeros((K, K))
    for t in range(T):
        s = np.einsum("ka,ia->ki", np.conj(h[t]), w[t])
        num += np.diag(s)
        isq += np.abs(s) ** 2
    num, isq = num / T, isq / T
    signal = np.abs(num) ** 2
    return signal / (isq.sum(1) - signal + s2_dl)


def _slice_energy(w_prime):
    """(K, L) mean energy of each UE's raw precoder on each O-RU."""
    return np.einsum("tkln->kl", np.abs(w_prime) ** 2) / w_prime.shape[0]


def _combiners(hhat_t, C, assoc, genome, p, s2, granularity, rule="mmse"):
    """One realization's (K, L, N) combiners through the batched kernel."""
    ws = CombinerWorkspace(SchemeSpec(granularity, rule, False), assoc, genome, C, p, s2)
    return ws.combiners(hhat_t[None])[0]


def _mrc(hhat_t, assoc):
    K, L, N = hhat_t.shape
    C0 = np.zeros((K, L, N, N), dtype=complex)
    genome = np.zeros(L, dtype=int)
    return _combiners(hhat_t, C0, assoc, genome, np.ones(K), 1.0, "joint", "mrc")


def _setup(rng, K=3, L=4, N=2, T=8):
    hhat = random_channels(rng, (T, K, L, N))
    h = hhat + 0.2 * random_channels(rng, (T, K, L, N))
    C = random_error_covs(rng, K, L, N)
    p = rng.uniform(0.5, 2.0, K)
    return h, hhat, C, p


# ---------------------------------------------------------------------------
# combiners
# ---------------------------------------------------------------------------
def test_mrc_single_oru_is_estimate():
    rng = np.random.default_rng(0)
    hhat = random_channels(rng, (2, 1, 4))
    v = _mrc(hhat, Association.all_serve(2, 1))
    np.testing.assert_array_equal(v, hhat)


def test_mrc_masking_zeroes_entries():
    rng = np.random.default_rng(1)
    hhat = random_channels(rng, (2, 3, 4))
    delta = np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)
    v = _mrc(hhat, Association(delta))
    assert np.all(v[0, 1] == 0)
    assert np.all(v[1, 0] == 0)
    assert np.all(v[1, 2] == 0)
    np.testing.assert_array_equal(v[0, 0], hhat[0, 0])


def test_mmse_single_unit_matches_direct_joint_solve():
    rng = np.random.default_rng(3)
    h, hhat, C, p = _setup(rng)
    K, L, N = 3, 4, 2
    s2 = 0.3
    v = _combiners(
        hhat[0], C, Association.all_serve(K, L), np.zeros(L, dtype=int), p, s2, "joint"
    )
    Hs = hhat[0].reshape(K, L * N).T
    G = np.zeros((L * N, L * N), dtype=complex)
    for i in range(K):
        G += p[i] * np.outer(Hs[:, i], Hs[:, i].conj())
        G += p[i] * block_diag(*[C[i, l] for l in range(L)])
    G += s2 * np.eye(L * N)
    for k in range(K):
        ref = p[k] * np.linalg.solve(G, Hs[:, k])
        np.testing.assert_allclose(v[k].reshape(L * N), ref, rtol=1e-10)


def test_mmse_per_oru_matches_direct_local_solves():
    rng = np.random.default_rng(4)
    h, hhat, C, p = _setup(rng)
    K, L, N = 3, 4, 2
    s2 = 0.3
    v = _combiners(hhat[0], C, Association.all_serve(K, L), np.arange(L), p, s2, "oru")
    for l in range(L):
        G = s2 * np.eye(N, dtype=complex)
        for i in range(K):
            G += p[i] * (np.outer(hhat[0, i, l], hhat[0, i, l].conj()) + C[i, l])
        for k in range(K):
            ref = p[k] * np.linalg.solve(G, hhat[0, k, l])
            np.testing.assert_allclose(v[k, l], ref, rtol=1e-10)


def test_mmse_single_ue_reduces_to_matched_filter():
    # K=1, C=0: (p hh^H + s2 I)^{-1} h is proportional to h, so the
    # per-realization post-combining SINR equals MRC's exactly.
    rng = np.random.default_rng(5)
    K, L, N = 1, 3, 2
    hhat = random_channels(rng, (4, K, L, N))
    C = np.zeros((K, L, N, N), dtype=complex)
    p = np.array([2.0])
    s2 = 0.7
    assoc = Association.all_serve(K, L)
    genome = np.zeros(L, dtype=int)
    for t in range(4):
        vm = _combiners(hhat[t], C, assoc, genome, p, s2, "joint")[0].ravel()
        vr = hhat[t, 0].ravel()
        cos = abs(vm.conj() @ vr) / (np.linalg.norm(vm) * np.linalg.norm(vr))
        assert cos == pytest.approx(1.0, abs=1e-12)
        sinr_m = p[0] * abs(vm.conj() @ vr) ** 2 / (s2 * np.linalg.norm(vm) ** 2)
        sinr_r = p[0] * np.linalg.norm(vr) ** 2 / s2
        assert sinr_m == pytest.approx(sinr_r, rel=1e-10)


def test_mmse_dcc_masked_entries_zero():
    rng = np.random.default_rng(6)
    h, hhat, C, p = _setup(rng, K=4, L=5)
    delta = np.array(
        [[1, 1, 0, 0, 1], [0, 1, 1, 0, 0], [1, 0, 1, 1, 0], [0, 0, 0, 1, 1]],
        dtype=bool,
    )
    v = _combiners(hhat[0], C, Association(delta), np.zeros(5, dtype=int), p, 0.4, "joint")
    for k in range(4):
        assert np.abs(v[k, ~delta[k]]).max() == 0.0
        assert np.abs(v[k, delta[k]]).max() > 0.0


def test_mmse_beats_mrc_in_model_sinr():
    # the regularized solve maximizes the per-realization SINR computed on
    # that realization's estimates and error statistics
    rng = np.random.default_rng(7)
    h, hhat, C, p = _setup(rng, K=4, L=4, T=3)
    K, L, N = 4, 4, 2
    s2 = 0.5
    assoc = Association.all_serve(K, L)
    genome = np.array([0, 0, 1, 1])
    units = {
        "joint": [np.arange(L)],
        "edu": [np.array([0, 1]), np.array([2, 3])],
        "oru": [np.array([l]) for l in range(L)],
    }
    for t in range(3):
        for gran in ("joint", "edu", "oru"):
            vm = _combiners(hhat[t], C, assoc, genome, p, s2, gran)
            vr = _mrc(hhat[t], assoc)
            for k in range(K):
                for block in units[gran]:
                    svm = vm[k, block].ravel()
                    svr = vr[k, block].ravel()
                    Hb = hhat[t][:, block, :].reshape(K, block.size * N).T
                    B = s2 * np.eye(block.size * N, dtype=complex)
                    for i in range(K):
                        B += p[i] * np.outer(Hb[:, i], Hb[:, i].conj())
                        B += p[i] * block_diag(*[C[i, l] for l in block])
                    B -= p[k] * np.outer(Hb[:, k], Hb[:, k].conj())

                    def model_sinr(v):
                        sig = p[k] * abs(v.conj() @ Hb[:, k]) ** 2
                        return sig / (v.conj() @ B @ v).real

                    assert model_sinr(svm) >= model_sinr(svr) - 1e-9


# ---------------------------------------------------------------------------
# uplink SINR
# ---------------------------------------------------------------------------
def test_uplink_k1_perfect_csi_mrc_closed_form():
    rng = np.random.default_rng(5)
    K, L, N, T = 1, 4, 2, 1000
    angles = [0.3, 1.0, -0.7, 2.0]
    betas = [1.0, 0.5, 2.0, 0.25]
    R = np.stack(
        [[spatial_correlation(a, -0.1, 0.2, 0.2, N, b) for a, b in zip(angles, betas)]]
    )
    h = ch.sample_channel(ch.correlation_factor(R), rng, size=T)
    C0 = np.zeros((K, L, N, N), dtype=complex)
    p = np.array([2.0])
    s2 = 0.7
    rep = uplink_sinr(
        "joint-mrc", h, h, C0, Association.all_serve(K, L), np.zeros(L, dtype=int), p, s2
    )
    closed = p[0] * np.trace(R.sum(axis=1)[0]).real / s2
    assert rep.gamma[0] == pytest.approx(closed, rel=0.02)


def test_uplink_interference_free_power_raises_sinr():
    rng = np.random.default_rng(8)
    h, hhat, C, _ = _setup(rng, K=3, L=4, T=30)
    assoc = Association.all_serve(3, 4)
    genome = np.zeros(4, dtype=int)
    p_eq = np.array([1.0, 1.0, 1.0])
    p_solo = np.array([1.0, 0.0, 0.0])
    g_eq = uplink_sinr("joint-mrc", h, hhat, C, assoc, genome, p_eq, 0.5).gamma[0]
    g_solo = uplink_sinr("joint-mrc", h, hhat, C, assoc, genome, p_solo, 0.5).gamma[0]
    assert g_solo > g_eq


def test_uplink_edu_sum_equals_centralized_form():
    # the per-unit sum with a single unit must equal the stacked evaluation
    rng = np.random.default_rng(9)
    h, hhat, C, p = _setup(rng, K=3, L=4, T=12)
    K, L, N = 3, 4, 2
    s2 = 0.3
    assoc = Association.all_serve(K, L)
    genome = np.zeros(L, dtype=int)
    rep = uplink_sinr("edu-mmse", h, hhat, C, assoc, genome, p, s2)
    ws = CombinerWorkspace(SCHEMES["edu-mmse"], assoc, genome, C, p, s2)
    v = ws.combiners(hhat)
    ref = stacked_uplink_sinr(
        v.reshape(-1, K, L * N), h.reshape(-1, K, L * N), p, s2
    )
    np.testing.assert_allclose(rep.gamma, ref, rtol=1e-12)


def test_uplink_unserved_ue_gets_zero_sinr():
    # a UE left out of the association has a zero combiner; its SINR is 0,
    # not a division error
    rng = np.random.default_rng(21)
    h, hhat, C, p = _setup(rng, K=3, L=4, T=6)
    delta = np.ones((3, 4), dtype=bool)
    delta[1] = False
    rep = uplink_sinr(
        "edu-pmmse", h, hhat, C, Association(delta), np.array([0, 0, 1, 1]), p, 0.5
    )
    assert rep.gamma[1] == 0.0
    assert rep.se[1] == 0.0
    assert rep.gamma[0] > 0 and rep.gamma[2] > 0


@pytest.mark.parametrize(
    "scheme", sorted(name for name, spec in SCHEMES.items() if spec.rule == "mmse")
)
@pytest.mark.parametrize("bits", ["infinite", 4])
def test_uplink_zero_power_served_ue_gets_zero_sinr(scheme, bits):
    # a served UE that transmits nothing has a zero MMSE combiner; like an
    # unserved UE it gets SINR 0, and the others are rated as if it were
    # not served at all
    rng = np.random.default_rng(22)
    h, hhat, C, p = _setup(rng, K=3, L=4, T=6)
    p[1] = 0.0
    genome = np.array([0, 0, 1, 1])
    served = Association(np.ones((3, 4), dtype=bool))
    rep = uplink_sinr(scheme, h, hhat, C, served, genome, p, 0.5, bits)
    assert rep.gamma[1] == 0.0
    assert rep.se[1] == 0.0
    delta = np.ones((3, 4), dtype=bool)
    delta[1] = False
    ref = uplink_sinr(scheme, h, hhat, C, Association(delta), genome, p, 0.5, bits)
    np.testing.assert_allclose(rep.gamma, ref.gamma, rtol=1e-12, atol=0)
    assert rep.gamma[0] > 0 and rep.gamma[2] > 0


def test_uplink_requires_two_realizations():
    rng = np.random.default_rng(10)
    h, hhat, C, p = _setup(rng, T=1)
    with pytest.raises(ValueError):
        uplink_sinr(
            "joint-mrc", h, hhat, C, Association.all_serve(3, 4),
            np.zeros(4, dtype=int), p, 0.5,
        )


def test_downlink_requires_two_realizations():
    rng = np.random.default_rng(10)
    h, hhat, C, p = _setup(rng, T=1)
    with pytest.raises(ValueError, match="2 realizations"):
        downlink_sinr(
            "joint-mrc", h, hhat, C, Association.all_serve(3, 4),
            np.zeros(4, dtype=int), np.ones((3, 4)), p, 0.5, 0.5, 4.0,
        )


@pytest.mark.parametrize("N", range(1, 8))
def test_link_energies_keep_the_bits_of_one_antenna_sum(N):
    # the per-(UE, O-RU) energies add the antennas in order, which for fewer
    # than 8 antennas is what (|v|^2).sum(axis=-1) computed before; all-serve
    # MRC combiners are the estimates themselves
    rng = np.random.default_rng(N)
    v = random_channels(rng, (6, 3, 5, N))
    ws = CombinerWorkspace(
        SCHEMES["joint-mrc"], Association.all_serve(3, 5), np.zeros(5, dtype=int),
        np.zeros((3, 5, N, N)), np.ones(3), 1.0,
    )
    h = random_channels(rng, v.shape)
    energy = _link_moments(ws, v, h, {"ul": "infinite"})["ul"].energy
    np.testing.assert_array_equal(energy, (np.abs(v) ** 2).sum(axis=-1).mean(axis=0))


@pytest.mark.parametrize("K", [1, 8])
@pytest.mark.parametrize("per_block", [13, 3, 1])
@pytest.mark.parametrize("scheme", ["joint-mmse", "joint-mrc", "l-mmse", "edu-mmse", "p-mmse"])
def test_one_pass_moments_bit_identical_to_frozen_whole_batch(
    monkeypatch, desk_config, scheme, per_block, K
):
    # the plain, 3-bit and 10-degree drift moment sets of one pass, built
    # block by block, against the frozen whole-batch combiners and one pass
    # per set; T = 13 realizations in one block, in blocks of 3 with a
    # ragged last block, and one per block
    cfg = ScenarioConfig(**{**desk_config.to_dict(), "num_ue": K, "mc_realizations": 13})
    T, L = cfg.mc_realizations, cfg.num_oru
    stats = ch.build_statistics(cfg, build_topology(cfg, 1), 1)
    h, hhat = ch.sample_drop_channels(stats, T, cfg, 1)
    genome = np.arange(L) % cfg.num_edu
    spec = SCHEMES[scheme]
    mask = np.random.default_rng(K).random((K, L)) < 0.5
    assoc = Association(mask) if spec.dcc else Association.all_serve(K, L)
    ws = CombinerWorkspace(
        spec, assoc, genome, stats.C, uplink_power(K, cfg.ul_power_mw), stats.noise_mw
    )
    units = unit_labels(spec.granularity, genome, L)
    rot = ch.phase_drift(T, L, 10.0, rng_stream(cfg.master_seed, 1, "phase-drift"))
    v = ws.combiners(hhat)  # the whole batch's combiners in one array
    ref = [
        reference_moments.link_moments(v, h),
        reference_moments.link_moments(v, h, bits=3, E=_one_hot(units, units.max() + 1)),
        reference_moments.link_moments(v, h, rot=rot),
    ]
    N = cfg.antennas_per_oru
    monkeypatch.setattr(ch, "_BLOCK_BYTES", per_block * 16 * K * L * max(K, N))
    got = _link_moments(ws, hhat, h, {"ul": 3, "dl": rot})
    got = [_link_moments(ws, hhat, h, {"ul": "infinite"})["ul"], got["ul"], got["dl"]]
    for moments, (num, isq, energy) in zip(got, ref):
        np.testing.assert_array_equal(moments.num, num)
        np.testing.assert_array_equal(moments.isq, isq)
        np.testing.assert_array_equal(moments.energy, energy)


def _moment_pass_case(T, scheme="edu-mmse"):
    rng = np.random.default_rng(T)
    K, L, N = 8, 16, 2
    h, hhat = (random_channels(rng, (T, K, L, N)) for _ in range(2))
    ws = CombinerWorkspace(
        SCHEMES[scheme], Association.all_serve(K, L), np.arange(L) % 4,
        random_error_covs(rng, K, L, N), np.linspace(0.5, 2.0, K), 0.4,
    )
    return ws, hhat, h


def test_plain_links_share_one_moment_set_and_one_combiner_build(monkeypatch):
    # an unquantized uplink and an undrifted downlink read the same moments,
    # so one request for both answers both with one object and builds each
    # realization's combiners once
    ws, hhat, h = _moment_pass_case(13)
    built = []
    combiners = CombinerWorkspace.combiners

    def counted(self, hhat):
        built.append(hhat.shape[0])
        return combiners(self, hhat)

    monkeypatch.setattr(CombinerWorkspace, "combiners", counted)
    monkeypatch.setattr(ch, "_BLOCK_BYTES", 3 * 16 * 8 * 16 * 2)  # blocks of 3
    both = _link_moments(ws, hhat, h, {"ul": "infinite", "dl": None})
    assert both["ul"] is both["dl"]
    assert built == [3, 3, 3, 3, 1]
    alone = _link_moments(ws, hhat, h, {"dl": None})
    assert list(alone) == ["dl"]
    for name in ("num", "isq", "energy"):
        np.testing.assert_array_equal(getattr(alone["dl"], name), getattr(both["ul"], name))


def _moment_pass_peak(T):
    """Peak bytes one quantized and drifted moment pass allocates, its
    inputs excluded."""
    ws, hhat, h = _moment_pass_case(T)
    rot = ch.phase_drift(T, h.shape[2], 10.0, np.random.default_rng(0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _link_moments(ws, hhat, h, {"ul": 3, "dl": rot})
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_moment_pass_memory_does_not_grow_with_the_realizations():
    # running sums: the pass holds one block's combiners, products and terms,
    # so four times the realizations (8 blocks -> 32) leave its peak as it was
    assert _moment_pass_peak(2000) <= 1.1 * _moment_pass_peak(500)


def test_uplink_report_invariants(desk_config):
    from cfmimo.harness import resolve_partition, run_drop

    res = run_drop(desk_config, 0, resolve_partition(desk_config, "clustered")[0])
    for scheme, per_link in res.reports.items():
        rep = per_link["ul"]
        assert np.all(rep.signal >= 0)
        assert np.all(rep.interference >= 0)
        assert np.all(rep.noise > 0)
        assert np.all(np.isfinite(rep.gamma))
        np.testing.assert_allclose(rep.se, np.log2(1 + rep.gamma))


# ---------------------------------------------------------------------------
# downlink
# ---------------------------------------------------------------------------
def test_downlink_k1_mrt_matches_brute_force():
    rng = np.random.default_rng(11)
    K, L, N, T = 1, 3, 2, 10_000
    R = np.stack(
        [[spatial_correlation(a, -0.2, 0.25, 0.25, N, b)
          for a, b in zip([0.4, -1.2, 2.2], [1.0, 2.0, 0.5])]]
    )
    h = ch.sample_channel(ch.correlation_factor(R), rng, size=T)
    hhat = h + 0.3 * random_channels(rng, h.shape)
    C0 = np.zeros((K, L, N, N), dtype=complex)
    assoc = Association.all_serve(K, L)
    genome = np.zeros(L, dtype=int)
    beta = np.trace(R, axis1=-2, axis2=-1).real / N
    p_ul = np.array([1.0])
    s2_dl = 0.9
    res = downlink_sinr(
        "joint-mrc", h, hhat, C0, assoc, genome, beta, p_ul, 0.5, s2_dl, 4.0
    )
    # brute force: normalize the conjugate beams over the batch, single UE
    # gets the full cap, and gamma = p|E x|^2 / (Var x + s2)
    wbar = hhat / np.sqrt(np.mean(np.sum(np.abs(hhat) ** 2, axis=(2, 3))))
    x = np.einsum("tkln,tkln->t", np.conj(h), wbar)
    p_dl = res.dl_power_mw[0]
    gamma_ref = p_dl * abs(x.mean()) ** 2 / (p_dl * x.var() + s2_dl)
    assert res.report.gamma[0] == pytest.approx(gamma_ref, rel=1e-10)
    # single UE served by every O-RU: omega is the dominant slice share
    assert res.omega[0] == pytest.approx(
        np.max(np.mean(np.sum(np.abs(wbar) ** 2, axis=3), axis=0)), rel=1e-12
    )


def test_downlink_noise_domination():
    rng = np.random.default_rng(12)
    h, hhat, C, p = _setup(rng, T=10)
    assoc = Association.all_serve(3, 4)
    genome = np.zeros(4, dtype=int)
    beta = np.ones((3, 4))
    res = downlink_sinr(
        "joint-mmse", h, hhat, C, assoc, genome, beta, p, 0.5, 1e12, 4.0
    )
    assert np.all(res.report.gamma < 1e-6)


@pytest.mark.parametrize("cause", ["unserved", "silent"])
def test_downlink_warns_once_per_excluded_ue(cause):
    # A UE without a precoder, because nobody serves it or because its zero
    # uplink power zeroes its MMSE combiner, is reported in one warning and
    # gets no downlink power.
    rng = np.random.default_rng(23)
    h, hhat, C, p = _setup(rng, K=3, L=4, T=6)
    delta = np.ones((3, 4), dtype=bool)
    if cause == "unserved":
        delta[2] = False
    else:
        p[2] = 0.0
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        res = downlink_sinr(
            "p-mmse", h, hhat, C, Association(delta), np.array([0, 0, 1, 1]),
            np.ones((3, 4)), p, 0.5, 0.5, 4.0,
        )
    assert [str(w.message) for w in record] == [
        "1 UE(s) have zero-norm precoders and are excluded from the downlink"
    ]
    assert res.dl_power_mw[2] == 0.0 and res.report.gamma[2] == 0.0
    assert np.all(res.dl_power_mw[:2] > 0)


def test_downlink_edu_sum_equals_centralized_form():
    rng = np.random.default_rng(13)
    h, hhat, C, p = _setup(rng, K=3, L=4, T=10)
    K, L, N = 3, 4, 2
    assoc = Association.all_serve(K, L)
    genome = np.zeros(L, dtype=int)
    res = downlink_sinr(
        "edu-mmse", h, hhat, C, assoc, genome, np.ones((K, L)), p, 0.5, 0.7, 4.0
    )
    ws = CombinerWorkspace(SCHEMES["edu-mmse"], assoc, genome, C, p, 0.5)
    w_prime = ws.combiners(hhat)
    amp, omega, _ = normalize_precoders(_slice_energy(w_prime), assoc)
    w = w_prime * (amp * np.sqrt(res.dl_power_mw))[None, :, None, None]
    ref = stacked_downlink_sinr(
        w.reshape(-1, K, L * N), h.reshape(-1, K, L * N), 0.7
    )
    np.testing.assert_allclose(res.report.gamma, ref, rtol=1e-12)


def test_precoder_normalization_contract():
    rng = np.random.default_rng(14)
    w_prime = random_channels(rng, (50, 3, 4, 2))
    assoc = Association.all_serve(3, 4)
    amp, omega, excluded = normalize_precoders(_slice_energy(w_prime), assoc)
    w_bar = w_prime * amp[None, :, None, None]
    energy = np.einsum("tkln->k", np.abs(w_bar) ** 2) / 50
    np.testing.assert_allclose(energy, 1.0, atol=1e-3)
    assert not excluded.any()
    assert np.all(omega > 0)


def test_precoder_single_ue_single_oru():
    rng = np.random.default_rng(15)
    w_prime = random_channels(rng, (40, 1, 1, 4))
    assoc = Association.all_serve(1, 1)
    amp, omega, _ = normalize_precoders(_slice_energy(w_prime), assoc)
    scale = np.sqrt(np.mean(np.sum(np.abs(w_prime) ** 2, axis=(2, 3))))
    np.testing.assert_allclose(w_prime * amp[0], w_prime / scale, rtol=1e-12)
    assert omega[0] == pytest.approx(1.0, rel=1e-12)


def test_zero_norm_precoder_excluded():
    rng = np.random.default_rng(16)
    w_prime = random_channels(rng, (10, 2, 3, 2))
    w_prime[:, 1] = 0.0  # UE 1 served by nobody
    assoc = Association(np.array([[1, 1, 1], [0, 0, 0]], dtype=bool))
    with pytest.warns(UserWarning, match="zero-norm"):
        amp, omega, excluded = normalize_precoders(_slice_energy(w_prime), assoc)
    assert excluded[1] and not excluded[0]
    assert amp[1] == 0 and amp[0] > 0


def test_omega_and_downlink_power_match_per_ue_loop():
    # the masked maxima over each UE's serving set, held to a plain loop
    rng = np.random.default_rng(21)
    for _ in range(200):
        T, K, L, N = 4, int(rng.integers(1, 7)), int(rng.integers(1, 6)), 2
        w_prime = random_channels(rng, (T, K, L, N))
        w_prime[:, rng.random(K) < 0.2] = 0.0  # zero-norm UEs
        delta = rng.random((K, L)) < 0.6
        delta[rng.random(K) < 0.2] = False  # unserved UEs
        lam = rng.uniform(0.1, 2.0, size=(K, L))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, omega, excluded = normalize_precoders(
                _slice_energy(w_prime), Association(delta)
            )
            counted = delta & ~excluded[:, None]
            p, _ = downlink_power(lam, omega, counted, 3.0)

        slice_energy = np.einsum("tkln->kl", np.abs(w_prime) ** 2) / T
        total = slice_energy.sum(axis=1)
        bar_energy = slice_energy / np.where(total <= 0, 1.0, total)[:, None]
        omega_ref = np.zeros(K)
        for k in range(K):
            serving = np.flatnonzero(delta[k])
            if serving.size and not excluded[k]:
                omega_ref[k] = bar_energy[k, serving].max()
        assert np.array_equal(omega, omega_ref)

        served = counted.any(axis=1)
        agg = (lam * counted).sum(axis=1)
        s = np.zeros(K)
        s[served] = 1.0 / np.sqrt(agg[served])
        t = np.zeros(K)
        t[served] = s[served] * np.sqrt(omega[served])
        col_sum = t @ counted
        p_ref = np.zeros(K)
        for k in np.flatnonzero(served):
            denom = col_sum[counted[k]].max()
            p_ref[k] = 3.0 * (s[k] / np.sqrt(omega[k])) / denom
        assert np.array_equal(p, p_ref)


@settings(max_examples=100, deadline=None)
@given(
    K=st.integers(1, 6),
    M=st.integers(1, 5),
    extra=st.integers(0, 7),
    data=st.data(),
)
def test_association_from_edu_expands_each_edu_column(K, M, extra, data):
    L = M + extra
    genome = np.array(data.draw(st.permutations(np.arange(L) % M), label="genome"))
    delta_km = data.draw(hnp.arrays(bool, (K, M)), label="delta_km")
    assoc = Association.from_edu(delta_km, genome)
    assert assoc.delta.shape == (K, L)
    for k in range(K):
        for l in range(L):
            assert assoc.delta[k, l] == delta_km[k, genome[l]]
    assert edu_consistent(assoc.delta, genome)


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(sorted(SCHEMES)),
    K=st.integers(1, 5),
    M=st.integers(1, 3),
    extra=st.integers(0, 3),
    N=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sinr_permutes_with_the_ues(scheme, K, M, extra, N, seed, data):
    # relabelling the UEs relabels every gamma and changes nothing else
    L = M + extra
    genome = np.array(data.draw(st.permutations(np.arange(L) % M), label="genome"))
    perm = np.array(data.draw(st.permutations(range(K)), label="perm"))
    rng = np.random.default_rng(seed)
    h, hhat, C, p = _setup(rng, K=K, L=L, N=N, T=4)
    beta = rng.uniform(0.1, 2.0, (K, L))
    delta = rng.random((K, L)) < 0.6
    delta[np.arange(K), rng.integers(0, L, K)] = True
    assoc = Association(delta) if SCHEMES[scheme].dcc else Association.all_serve(K, L)
    assoc_perm = Association(assoc.delta[perm])

    def gammas(h, hhat, C, assoc, beta, p):
        ul = uplink_sinr(scheme, h, hhat, C, assoc, genome, p, 0.4).gamma
        dl = downlink_sinr(scheme, h, hhat, C, assoc, genome, beta, p, 0.4, 0.7, 3.0)
        return ul, dl.report.gamma

    ul, dl = gammas(h, hhat, C, assoc, beta, p)
    ul_p, dl_p = gammas(
        h[:, perm], hhat[:, perm], C[perm], assoc_perm, beta[perm], p[perm]
    )
    np.testing.assert_allclose(ul_p, ul[perm], rtol=1e-12, atol=0)
    np.testing.assert_allclose(dl_p, dl[perm], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# quantizer and SE map
# ---------------------------------------------------------------------------
def test_quantize_infinite_identity():
    x = np.array([1.0 + 2.0j, -0.5])
    assert quantize(x, "infinite") is x


def test_quantize_constant_within_half_step():
    x = np.full(50, 0.37 + 0.21j)
    np.testing.assert_array_equal(quantize(x, 8), x)


def test_quantize_error_bound():
    rng = np.random.default_rng(17)
    y = rng.normal(size=2000)
    step = 8 * y.std() / 2**6
    assert np.abs(quantize(y, 6) - y).max() <= step / 2 + 1e-12


# Rounding slack of the half-step bound, in units of the batch's largest
# magnitude: v/step and (floor + 1/2)*step each round once, so the error can
# pass step/2 by a few ulps of the largest value, not by more.
QUANT_SLACK_ULPS = 8.0


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(1, 16),
    is_complex=st.booleans(),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 6)),
    data=st.data(),
)
def test_quantize_error_within_half_step_of_each_batch(bits, is_complex, shape, data):
    # axis (1, 2) makes every slice along axis 0 its own batch
    floats = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    x = data.draw(hnp.arrays(float, shape, elements=floats), label="real")
    if is_complex:
        x = x + 1j * data.draw(hnp.arrays(float, shape, elements=floats), label="imag")
    q = quantize(x, bits, axis=(1, 2))
    parts = [(x.real, q.real), (x.imag, q.imag)] if is_complex else [(x, q)]
    for v, qv in parts:
        step = 8.0 * v.std(axis=(1, 2), keepdims=True) / 2**bits
        peak = np.abs(v).max(axis=(1, 2), keepdims=True)
        slack = QUANT_SLACK_ULPS * np.finfo(float).eps * peak
        assert np.all(np.abs(qv - v) <= step / 2 + slack)


def test_quantize_rejects_zero_bits():
    with pytest.raises(ValueError):
        quantize(np.ones(3), 0)


def test_quantized_uplink_close_to_infinite(desk_config):
    from cfmimo.harness import DropOptions, resolve_partition, run_drop

    cfg = desk_config
    genome = resolve_partition(cfg, "clustered")[0]
    a = run_drop(cfg, 0, genome, options=DropOptions(links=("ul",)))
    b = run_drop(
        dataclasses.replace(cfg, quantizer_bits=16),
        0,
        genome,
        options=DropOptions(links=("ul",)),
    )
    for scheme in cfg.schemes:
        se_a = a.reports[scheme]["ul"].sum_se
        se_b = b.reports[scheme]["ul"].sum_se
        assert abs(se_a - se_b) / se_a < 0.005


def test_se_from_sinr_values():
    assert se_from_sinr(0.0) == 0.0
    assert se_from_sinr(1.0) == 1.0
    assert se_from_sinr(3.0) == 2.0
    with pytest.raises(ValueError):
        se_from_sinr(-0.5)
