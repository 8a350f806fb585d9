"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line. Run with ``pytest tests/test_acceptance.py -v -s``.

The statistical criteria use fixed seeds; tolerances are stated next to each
assertion and were chosen once, not calibrated after the fact.
"""

import itertools
import math

import numpy as np
import pytest

from cfmimo import ScenarioConfig
from cfmimo import channel as ch
from cfmimo.association import EduSinrTable, QlConfig, ql_associate
from cfmimo.channel import build_statistics
from cfmimo.deployment import GaConfig, fitness, ga_optimize, is_balanced
from cfmimo.harness import DropOptions, resolve_partition, run_drop
from cfmimo.power import uplink_power
from cfmimo.scenario import build_topology
from cfmimo.transceiver import Association

from conftest import random_channels, random_error_covs, spatial_correlation
from reference_association import exhaustive_oracle
from whole_batch import downlink_sinr, uplink_sinr


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _desk(num_edu, **kw):
    base = dict(
        num_oru=16,
        antennas_per_oru=2,
        num_ue=8,
        num_edu=num_edu,
        pilot_count=8,
        fronthaul_ue_cap=8,
        mc_drops=1,
        mc_realizations=50,
        master_seed=1,
        schemes=("edu-mmse",),
    )
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# 1. special-case equivalence: M=1 vs centralized, M=L vs fully distributed
# ---------------------------------------------------------------------------
def test_criterion_1_special_case_equivalence():
    tol = 1e-10
    worst = 0.0
    configs = [
        _desk(1, mc_realizations=12, schemes=("joint-mmse", "edu-mmse")),
        ScenarioConfig(
            num_oru=9,
            antennas_per_oru=3,
            num_ue=5,
            num_edu=1,
            pilot_count=5,
            fronthaul_ue_cap=5,
            mc_drops=1,
            mc_realizations=10,
            master_seed=4,
            schemes=("joint-mmse", "edu-mmse"),
        ),
    ]
    for cfg in configs:
        res = run_drop(cfg, 0, genome=np.zeros(cfg.num_oru, dtype=int))
        for link in ("ul", "dl"):
            a = res.reports["joint-mmse"][link].gamma
            b = res.reports["edu-mmse"][link].gamma
            worst = max(worst, float(np.abs(a - b).max() / np.abs(a).max()))
        # M = L, including a permuted EDU labeling
        cfg_l = ScenarioConfig(
            **{**cfg.to_dict(), "num_edu": cfg.num_oru, "schemes": ("l-mmse", "edu-mmse")}
        )
        for genome in (np.arange(cfg.num_oru), np.arange(cfg.num_oru)[::-1].copy()):
            res_l = run_drop(cfg_l, 0, genome=genome)
            for link in ("ul", "dl"):
                a = res_l.reports["l-mmse"][link].gamma
                b = res_l.reports["edu-mmse"][link].gamma
                worst = max(worst, float(np.abs(a - b).max() / np.abs(a).max()))
    _report(1, worst <= tol, f"max relative SINR deviation {worst:.3e} (tol {tol})")


# ---------------------------------------------------------------------------
# 2. monotonicity in the number of EDUs
# ---------------------------------------------------------------------------
def test_criterion_2_monotone_in_edu_count():
    drops, realizations = 200, 100
    medians = {}
    for m in (1, 2, 4, 16):
        cfg = _desk(m, mc_drops=drops, mc_realizations=realizations)
        genome, _ = resolve_partition(cfg, "ga" if m not in (1, 16) else "clustered")
        sums = []
        opts = DropOptions(links=("ul",))
        for d in range(drops):
            rep = run_drop(cfg, d, genome=genome, options=opts)
            sums.append(rep.reports["edu-mmse"]["ul"].sum_se)
        medians[m] = float(np.median(sums))
    ok = all(
        medians[b] <= medians[a] * 1.02 for a, b in zip((1, 2, 4), (2, 4, 16))
    )
    detail = ", ".join(f"M={m}: {v:.2f}" for m, v in medians.items())
    _report(2, ok, f"uplink median sum SE {detail} (2% slack)")


# ---------------------------------------------------------------------------
# 3. EDU-based processing approaches the centralized benchmark
# ---------------------------------------------------------------------------
def test_criterion_3_edu_to_joint_ratio_full_scale():
    cfg = ScenarioConfig(
        mc_drops=50,
        mc_realizations=50,
        master_seed=1,
        schemes=("joint-mmse", "edu-mmse"),
    )
    genome, _ = resolve_partition(cfg, "ga")
    sums = {"joint-mmse": [], "edu-mmse": []}
    opts = DropOptions(links=("ul",))
    for d in range(cfg.mc_drops):
        rep = run_drop(cfg, d, genome=genome, options=opts)
        for s in sums:
            sums[s].append(rep.reports[s]["ul"].sum_se)
    ratio = float(np.median(sums["edu-mmse"]) / np.median(sums["joint-mmse"]))
    _report(3, 0.65 <= ratio <= 0.90, f"median ratio edu/joint = {ratio:.3f} in [0.65, 0.90]")


# ---------------------------------------------------------------------------
# 4. interleaved (GA) deployment beats clustered deployment
# ---------------------------------------------------------------------------
def test_criterion_4_ga_beats_clustered():
    drops = 40
    ok = True
    details = []
    for m in (2, 4):
        cfg = _desk(m, mc_drops=drops)
        med = {}
        for mode in ("ga", "clustered"):
            genome, _ = resolve_partition(cfg, mode)
            ul, dl = [], []
            for d in range(drops):
                rep = run_drop(cfg, d, genome=genome)
                ul.append(rep.reports["edu-mmse"]["ul"].sum_se)
                dl.append(rep.reports["edu-mmse"]["dl"].sum_se)
            med[mode] = (float(np.median(ul)), float(np.median(dl)))
        ok &= med["ga"][0] >= med["clustered"][0] and med["ga"][1] >= med["clustered"][1]
        details.append(
            f"M={m} ga ul/dl {med['ga'][0]:.1f}/{med['ga'][1]:.1f} vs "
            f"clustered {med['clustered'][0]:.1f}/{med['clustered'][1]:.1f}"
        )
    _report(4, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. GA finds exhaustive optima on small line topologies
# ---------------------------------------------------------------------------
def test_criterion_5_ga_line_optima():
    hits = total = 0
    all_balanced = True
    for L in range(4, 9):
        pos = np.arange(L, dtype=float)[:, None]
        dist = np.abs(pos - pos.T)
        best = -math.inf
        for comb in itertools.combinations(range(L), L // 2):
            g = np.ones(L, dtype=int)
            g[list(comb)] = 0
            if is_balanced(g, 2):
                best = max(best, fitness(g, dist, 2, "exact"))
        for seed in range(10):
            res = ga_optimize(
                dist,
                2,
                GaConfig(generations=100, fitness_mode="exact"),
                np.random.default_rng(seed),
            )
            total += 1
            hits += math.isclose(res.partition.fitness, best, rel_tol=1e-12)
            all_balanced &= is_balanced(res.partition.genome, 2)
    ok = hits >= 0.9 * total and all_balanced
    _report(5, ok, f"optimum found in {hits}/{total} runs; all partitions balanced: {all_balanced}")


# ---------------------------------------------------------------------------
# 6. Q-learning reaches the exhaustive oracle on the toy instance
# ---------------------------------------------------------------------------
def test_criterion_6_ql_vs_oracle():
    cfg = ScenarioConfig(
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
        schemes=("edu-pmmse",),
    )
    topo = build_topology(cfg, 0)
    stats = build_statistics(cfg, topo, 0)
    table = EduSinrTable.from_statistics(
        stats,
        resolve_partition(cfg, "clustered")[0],
        uplink_power(4, cfg.ul_power_mw),
        stats.noise_mw,
    )
    _, r_opt = exhaustive_oracle(table.r_sum, 4, 2, 2)
    wins = 0
    worst = 1.0
    for seed in range(10):
        res = ql_associate(
            table,
            4,
            2,
            QlConfig(episodes=500, fronthaul_ue_cap=2),
            np.random.default_rng(seed),
        )
        ratio = res.best_r_sum / r_opt
        worst = min(worst, ratio)
        wins += ratio >= 0.95
    _report(6, wins >= 9, f"{wins}/10 seeds reached 95% of oracle (worst ratio {worst:.3f})")


# ---------------------------------------------------------------------------
# 7. closed-form single-UE MRC oracle
# ---------------------------------------------------------------------------
def test_criterion_7_closed_form_sinr():
    rng = np.random.default_rng(2)
    K, L, N, T = 1, 4, 2, 1000
    R = np.stack(
        [[spatial_correlation(a, -0.1, 0.2, 0.2, N, b)
          for a, b in zip([0.3, 1.0, -0.7, 2.0], [1.0, 0.5, 2.0, 0.25])]]
    )
    h = ch.sample_channel(ch.correlation_factor(R), rng, size=T)
    C0 = np.zeros((K, L, N, N), dtype=complex)
    rep = uplink_sinr(
        "joint-mrc", h, h, C0, Association.all_serve(K, L), np.zeros(L, dtype=int),
        np.array([2.0]), 0.7,
    )
    closed = 2.0 * np.trace(R.sum(axis=1)[0]).real / 0.7
    err = abs(rep.gamma[0] - closed) / closed
    _report(7, err < 0.02, f"MC vs closed form relative error {err:.4f} (tol 0.02)")


# ---------------------------------------------------------------------------
# 8. per-O-RU radiated power audit under the heuristic allocation
# ---------------------------------------------------------------------------
def test_criterion_8_power_audit():
    p_max = 4.0
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        K, L, N, T = 4, 4, 2, 50
        hhat = random_channels(rng, (T, K, L, N))
        h = hhat + 0.2 * random_channels(rng, (T, K, L, N))
        C = random_error_covs(rng, K, L, N)
        beta = rng.uniform(0.05, 2.0, (K, L))
        delta = rng.random((K, L)) < 0.7
        delta[np.arange(K), rng.integers(0, L, K)] = True
        res = downlink_sinr(
            "edu-mmse", h, hhat, C, Association(delta), np.array([0, 0, 1, 1]),
            beta, np.full(K, 1.0), 0.5, 0.5, p_max,
        )
        worst = max(worst, float(res.per_oru_radiated_mw.max()))
    _report(8, worst <= p_max * 1.01, f"max radiated {worst:.4f} mW vs cap {p_max} mW x 1.01")


# ---------------------------------------------------------------------------
# 9. channel-layer statistics
# ---------------------------------------------------------------------------
def test_criterion_9_channel_statistics():
    rng = np.random.default_rng(7)
    P, N = 1000, 4
    az = rng.uniform(-np.pi, np.pi, P)
    el = rng.uniform(-np.pi / 3, 0.0, P)
    beta = rng.uniform(0.01, 10.0, P)
    R = ch.spatial_correlation_batch(az, el, np.deg2rad(15), np.deg2rad(15), N, beta)
    herm_ok = np.abs(R - np.conj(np.swapaxes(R, -1, -2))).max() < 1e-12
    traces = np.trace(R, axis1=-2, axis2=-1).real
    trace_ok = np.allclose(traces, N * beta, rtol=1e-6)
    psd_ok = bool(np.all(np.linalg.eigvalsh(R).min(axis=-1) >= -1e-10 * traces))

    # estimator orthogonality at 3 sigma
    Rkl = spatial_correlation(0.4, -0.1, 0.2, 0.2, 2, 1.0)
    W, Phi, C = ch.mmse_filters(Rkl, 1.0, 1.0, 1.0)
    T = 10_000
    h = ch.sample_channel(ch.correlation_factor(Rkl), rng, size=T)
    noise = (rng.standard_normal((T, 2)) + 1j * rng.standard_normal((T, 2))) * np.sqrt(0.5)
    hhat = np.einsum("nm,tm->tn", W, h + noise)
    err = h - hhat
    prod = hhat[:, :, None] * err[:, None, :].conj()
    orth_ok = np.linalg.norm(prod.mean(axis=0)) <= 3 * np.linalg.norm(
        prod.std(axis=0) / np.sqrt(T)
    )

    shadow = ch.sample_shadowing((100_000,), 4.0, np.random.default_rng(2))
    shadow_ok = 3.9 <= shadow.std() <= 4.1 and abs(shadow.mean()) <= 0.05

    ok = herm_ok and trace_ok and psd_ok and orth_ok and shadow_ok
    _report(
        9,
        ok,
        f"hermitian {herm_ok}, trace {trace_ok}, psd {psd_ok}, "
        f"orthogonality {orth_ok}, shadowing {shadow_ok}",
    )


# ---------------------------------------------------------------------------
# 10. per-O-RU phase drift degrades coherent downlink transmission
# ---------------------------------------------------------------------------
def test_criterion_10_phase_drift_degrades_downlink():
    drops = 30
    schemes = ("joint-mmse", "joint-mrc", "edu-mmse", "l-mmse")
    cfg = _desk(4, mc_drops=drops, schemes=schemes)
    genome, _ = resolve_partition(cfg, "ga")
    base = {s: [] for s in schemes}
    drift = {s: [] for s in schemes}
    for d in range(drops):
        r0 = run_drop(cfg, d, genome=genome, options=DropOptions(links=("dl",)))
        r1 = run_drop(
            cfg, d, genome=genome,
            options=DropOptions(links=("dl",), phase_drift_deg=30.0),
        )
        for s in schemes:
            base[s].append(r0.reports[s]["dl"].sum_se)
            drift[s].append(r1.reports[s]["dl"].sum_se)
    ok = all(np.median(drift[s]) < np.median(base[s]) for s in schemes)
    detail = ", ".join(
        f"{s} loss {(1.0 - np.median(drift[s]) / np.median(base[s])) * 100:.1f}%"
        for s in schemes
    )
    # the reported ~10% loss for EDU-based processing is a reference number
    # from hardware measurements, recorded here without assertion
    _report(10, ok, detail + " (strict decrease required; 10% is non-binding reference)")
