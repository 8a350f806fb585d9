"""Closed-form oracle for the MR link moments of one moment pass.

With MR combining, UE k's combiner on O-RU l is its own MMSE estimate on
the links that serve it: v_kl = hhat_kl = W_kl y_kl with the pilot
observation y_kl = sqrt(p tau) h_kl + n_kl, h_kl ~ CN(0, R_kl),
n_kl ~ CN(0, sigma^2 I), independent over UEs and O-RUs. Then
Phi_kl = p tau R_kl (p tau R_kl + sigma^2 I)^-1 R_kl is both Cov(hhat_kl)
and E[hhat_kl h_kl^H], and with x_kil = hhat_kl^H h_il (Demir, Bjornson
and Sanguinetti, "Foundations of User-Centric Cell-Free Massive MIMO",
2021, ch. 5):

- E[x_kkl] = tr(Phi_kl) and E||v_kl||^2 = tr(Phi_kl);
- E|x_kil|^2 = tr(Phi_kl R_il) + |E[x_kil]|^2, with E[x_kil] = 0 for
  i != k.

s_ki = sum over the O-RUs that serve k of x_kil, whose terms are
independent. Per-O-RU phase drift multiplies x_kil by exp(j theta_l),
theta_l ~ U[-a, a] independent of everything, whose mean is sin(a)/a.

Each moment of the program's pass is judged by its z-score: its distance
from the oracle over the standard error of the mean, taken from the
sample variance of the same realizations. 20,000 realizations of the desk
drop run in about a second per pass.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from cfmimo import ScenarioConfig, transceiver
from cfmimo import channel as ch
from cfmimo.power import uplink_power
from cfmimo.scenario import build_topology, rng_stream
from cfmimo.transceiver import SCHEMES, Association, CombinerWorkspace

T = 20_000
# A correct pass stays within 5 standard errors on each of the 200 entries
# of a moment set (|z| > 5 has probability 6e-7 per entry).
Z_BOUND = 5.0
DRIFT_DEG = 60.0


@pytest.fixture(scope="module")
def drop():
    """Drop 0 of the desk geometry: 16 O-RUs of 2 antennas, 8 UEs, seed 3."""
    cfg = ScenarioConfig(
        num_oru=16, antennas_per_oru=2, num_ue=8, num_edu=4, pilot_count=8,
        fronthaul_ue_cap=8, mc_drops=1, mc_realizations=T, master_seed=3,
    )
    stats = ch.build_statistics(cfg, build_topology(cfg, 0), 0)
    return cfg, stats


def mr_oracle(R, ptau, noise_mw, delta, drift_deg=0.0):
    """E[s_kk] (K,), E|s_ki|^2 (K, K) and E||v_kl||^2 (K, L) of MR combiners
    on the (K, L) served links ``delta``, for (K, L, N, N) correlations R."""
    N = R.shape[-1]
    Phi = ptau * R @ np.linalg.solve(ptau * R + noise_mw * np.eye(N), R)
    m = np.trace(Phi, axis1=-2, axis2=-1).real * delta  # E[x_kkl], E||v_kl||^2
    var = np.einsum("klnm,ilmn->kil", Phi, R).real * delta[:, None, :]  # tr(Phi_kl R_il)
    a = np.deg2rad(drift_deg)
    c = np.sin(a) / a if a else 1.0  # E[exp(j theta_l)]
    isq = var.sum(axis=-1)
    # sum_l |E x_l|^2 + sum_{l != l'} c^2 E[x_l] E[x_l']^*
    isq[np.diag_indices_from(isq)] += c**2 * m.sum(axis=1) ** 2 + (1 - c**2) * (m**2).sum(axis=1)
    return c * m.sum(axis=1), isq, m


def mr_pass(cfg, stats, scheme, delta, drift_deg=0.0):
    """The program's moments of an MR scheme on ``delta`` over the drop's
    T realizations (the downlink's with drift, else the uplink's), and the
    per-realization sample variance of each entry."""
    K, L = delta.shape
    ws = CombinerWorkspace(
        SCHEMES[scheme], Association(delta), np.arange(L) % cfg.num_edu, stats.C,
        uplink_power(K, cfg.ul_power_mw), stats.noise_mw,
    )
    rot = None
    if drift_deg:
        rot = ch.phase_drift(T, L, drift_deg, rng_stream(cfg.master_seed, 0, "phase-drift"))
    streams = ch.drop_streams(cfg, 0, T)
    sums = [0.0, 0.0]  # of each entry's per-realization values and their squares

    def draw(b):
        h, hhat = ch.sample_drop_channels(stats, b.stop - b.start, cfg, 0, streams)
        v = np.where(delta[:, :, None], hhat, 0.0)
        hb = h if rot is None else h * rot[b, None, :, None]
        s = np.einsum("tkln,tiln->tki", np.conj(v), hb)
        d = np.diagonal(s, axis1=1, axis2=2)
        x = np.concatenate(
            [d.real, d.imag, (np.abs(s) ** 2).reshape(len(s), -1),
             (np.abs(v) ** 2).sum(axis=-1).reshape(len(s), -1)],
            axis=1,
        )
        sums[0] = sums[0] + x.sum(axis=0)
        sums[1] = sums[1] + (x**2).sum(axis=0)
        return h, hhat

    link = "dl" if drift_deg else "ul"
    links = {"dl": rot} if drift_deg else {"ul": "infinite"}
    moments = transceiver.moment_pass([ws], links, T, draw)[0][link]
    variance = (sums[1] - sums[0] ** 2 / T) / (T - 1)
    return moments, variance


def max_z(moments, variance, oracle):
    """The largest |z| over the entries of a moment set."""
    num, isq, energy = oracle
    got = np.concatenate(
        [moments.num.real, moments.num.imag, moments.isq.ravel(), moments.energy.ravel()]
    )
    want = np.concatenate([num, np.zeros_like(num), isq.ravel(), energy.ravel()])
    err = got - want
    se = np.sqrt(variance / T)
    z = np.divide(np.abs(err), se, out=np.where(err == 0, 0.0, np.inf), where=se > 0)
    return float(z.max())


def _ptau(cfg):
    return cfg.ul_power_mw * cfg.pilot_count


@pytest.mark.parametrize("scheme, served, drift_deg", [
    ("joint-mrc", 1.0, 0.0),
    ("lp-mrc", 0.4, 0.0),
    ("joint-mrc", 1.0, DRIFT_DEG),
])
def test_mr_moments_match_the_closed_form(drop, scheme, served, drift_deg):
    cfg, stats = drop
    K, L = cfg.num_ue, cfg.num_oru
    delta = np.random.default_rng(40).random((K, L)) < served
    moments, variance = mr_pass(cfg, stats, scheme, delta, drift_deg)
    oracle = mr_oracle(stats.R, _ptau(cfg), stats.noise_mw, delta, drift_deg)
    assert max_z(moments, variance, oracle) < Z_BOUND
    if drift_deg:  # the drift's sin(a)/a factors are needed to pass
        undrifted = mr_oracle(stats.R, _ptau(cfg), stats.noise_mw, delta)
        assert max_z(moments, variance, undrifted) > Z_BOUND


def _double_pilot_noise(monkeypatch, cfg, stats):
    estimate = ch.estimate_channels

    def noisier(h, W, p, tau, noise_mw, rng):
        return estimate(h, W, p, tau, 4.0 * noise_mw, rng)  # noise scale x2

    monkeypatch.setattr(ch, "estimate_channels", noisier)
    return stats


def _wrong_filter(monkeypatch, cfg, stats):
    # each UE's links filtered with the next UE's W
    W = np.roll(stats.W, 1, axis=0)
    return SimpleNamespace(sqrt_R=stats.sqrt_R, W=W, noise_mw=stats.noise_mw, C=stats.C)


def _dropped_block(monkeypatch, cfg, stats):
    # the pass runs in 20 blocks of 1,000 realizations, and the sums miss
    # the first
    K, L, N = cfg.num_ue, cfg.num_oru, cfg.antennas_per_oru
    monkeypatch.setattr(ch, "_BLOCK_BYTES", 1000 * 16 * K * L * N)
    add = transceiver._MomentSums.add

    def skip_first(self, b, hhat, h):
        if b.start:
            add(self, b, hhat, h)

    monkeypatch.setattr(transceiver._MomentSums, "add", skip_first)
    return stats


@pytest.mark.parametrize("plant", [_double_pilot_noise, _wrong_filter, _dropped_block])
def test_planted_errors_fail_the_oracle(drop, monkeypatch, plant):
    cfg, stats = drop
    delta = np.ones((cfg.num_ue, cfg.num_oru), dtype=bool)
    moments, variance = mr_pass(cfg, plant(monkeypatch, cfg, stats), "joint-mrc", delta)
    oracle = mr_oracle(stats.R, _ptau(cfg), stats.noise_mw, delta)
    assert max_z(moments, variance, oracle) > Z_BOUND
