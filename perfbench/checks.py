"""Correctness checks of the benchmark workloads.

Each workload's check has two halves. ``gather_*`` collects what the program
produced (output files, campaign results, one drop's channels) into a dict;
``evaluate_*`` recomputes the expected values with plain numpy from the
documented formulas, without calling cfmimo, and returns a list of failure
messages (empty when every check passes). ``selftest.py`` plants wrong
answers into gathered dicts to show that each check fails on them.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

SINR_RTOL = 1e-8  # reference SINR against the program's
EXACT_RTOL = 1e-9  # closed forms evaluated in another order
CSV_ULP = 5e-7  # half a unit of the 6th decimal written to raw_samples.csv
COLUMNS = ["drop", "scheme", "ue", "link", "sinr_db", "se_bpshz"]


def _rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    if a.size == 0:
        return 0.0
    diff = np.abs(a - b)
    diff = np.where(diff == 0.0, 0.0, diff / np.maximum(np.abs(b), 1e-300))
    return float(np.max(diff))


def _close(errors: list, what: str, got, want, rtol: float) -> None:
    err = _rel_err(got, want)
    if not err <= rtol:
        errors.append(f"{what}: relative error {err:.3e} > {rtol:.0e}")


# ---------------------------------------------------------------------------
# output files, all workloads
# ---------------------------------------------------------------------------
def read_outputs(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "raw_samples.csv"), encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    return {
        "comments": [l for l in lines if l.startswith("#")],
        "header": rows[0] if rows else [],
        "rows": rows[1:],
        "summary": summary,
    }


def evaluate_outputs(files: dict, schemes, links, num_ue: int, drops: int):
    """Row structure, finite SE >= 0, sum rows, and summary medians.

    Returns ``(errors, fingerprint)``; the fingerprint maps "scheme/link" to
    the median per-drop sum SE read from the CSV.
    """
    errors: list[str] = []
    if files["header"] != COLUMNS:
        errors.append(f"raw_samples.csv columns {files['header']} != {COLUMNS}")
        return errors, {}
    ue_rows: dict[tuple, dict[int, float]] = {}
    sums: dict[tuple, float] = {}
    for row in files["rows"]:
        drop, scheme, ue, link, sinr_db, se = row
        key = (int(drop), scheme, link)
        se = float(se)
        if not (math.isfinite(se) and se >= 0.0):
            errors.append(f"row {row}: SE not finite and >= 0")
        if sinr_db and not math.isfinite(float(sinr_db)):
            errors.append(f"row {row}: SINR not finite")
        if ue == "sum":
            sums[key] = se
        else:
            ue_rows.setdefault(key, {})[int(ue)] = se
    want = {(d, s, l) for d in range(drops) for s in schemes for l in links}
    if set(sums) != want or set(ue_rows) != want:
        errors.append("raw_samples.csv does not hold every drop x scheme x link once")
        return errors, {}
    for key in sorted(want):
        per_ue = ue_rows[key]
        if sorted(per_ue) != list(range(num_ue)):
            errors.append(f"{key}: UE rows {sorted(per_ue)}")
            continue
        total = sum(per_ue.values())
        if abs(total - sums[key]) > CSV_ULP * (num_ue + 1) + 1e-12:
            errors.append(f"{key}: sum row {sums[key]} != sum of UE rows {total}")

    summary = files["summary"]
    if summary.get("drops_completed") != drops or summary.get("failures"):
        errors.append(
            f"summary: {summary.get('drops_completed')} drops completed, "
            f"failures {summary.get('failures')}"
        )
    fingerprint = {}
    for scheme in schemes:
        for link in links:
            per_drop = [sums[(d, scheme, link)] for d in range(drops)]
            median = float(np.median(per_drop))
            fingerprint[f"{scheme}/{link}"] = median
            entry = summary.get("schemes", {}).get(scheme, {}).get(link)
            if entry is None:
                errors.append(f"summary.json lacks {scheme}/{link}")
                continue
            if abs(entry["median_sum_se"] - median) > CSV_ULP + 1e-12:
                errors.append(
                    f"summary median {scheme}/{link} {entry['median_sum_se']} != "
                    f"CSV median {median}"
                )
    return errors, fingerprint


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------
def grid_positions(num_oru: int, side: float) -> np.ndarray:
    """O-RU (x, y) on the most-square grid of cell centres, row-major."""
    rows = max(r for r in range(1, math.isqrt(num_oru) + 1) if num_oru % r == 0)
    cols = num_oru // rows
    r, c = np.divmod(np.arange(num_oru), cols)
    return np.column_stack([(c + 0.5) * side / cols, (r + 0.5) * side / rows])


def cross_edu_fitness(genome: np.ndarray, xy: np.ndarray) -> float:
    """1 / (sum of distances between O-RUs of different EDUs)."""
    d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(-1))
    cross = genome[:, None] != genome[None, :]
    return 1.0 / (d[cross].sum() / 2.0)


def balanced(genome: np.ndarray, num_edu: int) -> bool:
    if genome.min() < 0 or genome.max() >= num_edu:
        return False
    sizes = np.bincount(genome, minlength=num_edu)
    return sizes.min() >= 1 and sizes.max() - sizes.min() <= 1


def uplink_gamma(v: np.ndarray, h: np.ndarray, p: np.ndarray, noise: float) -> np.ndarray:
    """Uplink SINR in the program's documented form, from stacked (T, K, A)
    combiners and channels: p_k |E[v_k^H h_k]|^2 over
    sum_{i != k} p_i E[|v_k^H h_i|^2] + noise E[||v_k||^2]; 0 for a UE with
    no combiner."""
    g = v.conj() @ np.swapaxes(h, 1, 2)  # g[t, k, i] = v_k^H h_i
    num = np.einsum("tkk->k", g) / len(g)
    isq = (np.abs(g) ** 2).mean(axis=0)
    nrm = (np.abs(v) ** 2).sum(axis=-1).mean(axis=0)
    signal = p * np.abs(num) ** 2
    interference = isq @ p - p * np.diag(isq)
    served = nrm > 0
    gamma = np.zeros(len(p))
    gamma[served] = signal[served] / (interference[served] + noise * nrm[served])
    return gamma


def _stack(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], x.shape[1], -1)


def _error_cov_sum(C: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_i p_i C_i as an (L*N, L*N) block-diagonal matrix."""
    K, L, N, _ = C.shape
    blocks = np.einsum("i,ilnm->lnm", p, C)
    D = np.zeros((L * N, L * N), dtype=complex)
    for l in range(L):
        D[l * N:(l + 1) * N, l * N:(l + 1) * N] = blocks[l]
    return D


def joint_mmse(hhat: np.ndarray, C: np.ndarray, p: np.ndarray, noise: float) -> np.ndarray:
    """Centralized MMSE v_k = p_k (sum_i p_i (hh_i hh_i^H + C_i) + noise I)^-1 hh_k."""
    H = _stack(hhat)  # (T, K, A)
    D = _error_cov_sum(C, p) + noise * np.eye(H.shape[-1])
    v = np.empty_like(H)
    for t in range(H.shape[0]):
        Ht = H[t].T  # (A, K)
        G = (Ht * p) @ Ht.conj().T + D
        v[t] = np.linalg.solve(G, Ht * p).T
    return v


def local_mmse(hhat: np.ndarray, C: np.ndarray, p: np.ndarray, noise: float) -> np.ndarray:
    """Per-O-RU MMSE from each O-RU's own estimates, stacked over O-RUs."""
    T, K, L, N = hhat.shape
    G = np.einsum("i,tiln,tilm->tlnm", p, hhat, hhat.conj())
    G += np.einsum("i,ilnm->lnm", p, C)[None] + noise * np.eye(N)
    rhs = np.einsum("k,tkln->tlnk", p, hhat)
    v = np.linalg.solve(G, rhs)  # (T, L, N, K)
    return _stack(np.einsum("tlnk->tkln", v))


def masked_mmse(hhat, C, p, noise, delta) -> np.ndarray:
    """Centralized MMSE of each UE over its own serving O-RUs only (P-MMSE
    with the association mask); zero outside the mask."""
    T, K, L, N = hhat.shape
    H = _stack(hhat)
    D = _error_cov_sum(C, p) + noise * np.eye(L * N)
    v = np.zeros_like(H)
    for k in range(K):
        ant = np.flatnonzero(np.repeat(delta[k], N))
        if ant.size == 0:
            continue
        Hs = H[:, :, ant]  # (T, K, S)
        G = (np.swapaxes(Hs, 1, 2) * p) @ Hs.conj() + D[np.ix_(ant, ant)]
        v[:, k, ant] = p[k] * np.linalg.solve(G, Hs[:, k, :, None])[..., 0]
    return v


def downlink_reference(w_raw, h, beta, p_max, noise):
    """Heuristic DL powers, SINR and per-O-RU radiated power for all-serve
    precoders w_raw (T, K, L, N), following the documented rule:
    unit-energy precoders, omega_k the largest per-O-RU energy share,
    p_k = p_max (s_k / sqrt(omega_k)) / max_l sum_i s_i sqrt(omega_i),
    s_k = (sum_l beta_kl)^-1/2."""
    T = w_raw.shape[0]
    share = (np.abs(w_raw) ** 2).sum(-1).mean(0)  # (K, L)
    w_bar = w_raw / np.sqrt(share.sum(1))[None, :, None, None]
    share = share / share.sum(1, keepdims=True)
    omega = share.max(1)
    s = 1.0 / np.sqrt(beta.sum(1))
    p_dl = p_max * (s / np.sqrt(omega)) / (s * np.sqrt(omega)).sum()
    w = _stack(w_bar * np.sqrt(p_dl)[None, :, None, None])
    g = _stack(h).conj() @ np.swapaxes(w, 1, 2)  # g[t, k, i] = h_k^H w_i
    signal = np.abs(np.einsum("tkk->k", g) / T) ** 2
    interference = (np.abs(g) ** 2).mean(0).sum(1) - signal
    gamma = signal / (np.maximum(interference, 0.0) + noise)
    radiated = (p_dl[:, None] * share).sum(0)
    return p_dl, gamma, radiated


def statistical_gamma(R, Phi, genome, p, noise) -> np.ndarray:
    """gamma[k, m] = p_k tr(Sigma_km^-1 Phi_km) with
    Sigma_km = sum_i p_i R_i - p_k Phi_k + noise I over EDU m's antennas.
    All three are block diagonal over O-RUs, so the trace is summed from
    N x N blocks."""
    K, L, N, _ = R.shape
    G = np.einsum("i,ilnm->lnm", p, R)
    Sigma = G[None] - p[:, None, None, None] * Phi + noise * np.eye(N)
    per_oru = p[:, None] * np.trace(np.linalg.solve(Sigma, Phi), axis1=-2, axis2=-1).real
    M = int(genome.max()) + 1
    return np.stack([per_oru[:, genome == m].sum(1) for m in range(M)], axis=1)


def edu_association(delta: np.ndarray, genome: np.ndarray) -> np.ndarray:
    M = int(genome.max()) + 1
    return np.stack([delta[:, genome == m].any(1) for m in range(M)], axis=1)


# ---------------------------------------------------------------------------
# full-uldl-allserve
# ---------------------------------------------------------------------------
def _drop_channels(cfg, genome, drop: int) -> dict:
    from cfmimo.channel import build_statistics, sample_drop_channels
    from cfmimo.scenario import build_topology

    topo = build_topology(cfg, drop).with_partition(genome)
    stats = build_statistics(cfg, topo, drop)
    h, hhat = sample_drop_channels(stats, cfg.mc_realizations, cfg, drop)
    return {
        "cfg": cfg.to_dict(),
        "genome": np.asarray(genome),
        "ue_pos": topo.ue_positions,
        "oru_pos": topo.oru_positions,
        "shadow_db": stats.shadow_db,
        "beta": stats.beta,
        "R": stats.R,
        "Phi": stats.Phi,
        "C": stats.C,
        "h": h,
        "hhat": hhat,
        "p": np.full(cfg.num_ue, float(cfg.ul_power_mw)),
        "noise": stats.noise_mw,
    }


def gather_uldl(cfg, campaign) -> dict:
    """Drop 0 of the campaign: its channels, the program's UL/DL SINRs, and
    the program's DL power and radiated power for joint-mmse."""
    from cfmimo.transceiver import Association, downlink_sinr

    data = _drop_channels(cfg, campaign.genome, 0)
    reports = campaign.drops[0].reports
    data["ul_gamma"] = {s: reports[s]["ul"].gamma for s in ("joint-mmse", "l-mmse", "joint-mrc")}
    data["dl_gamma"] = reports["joint-mmse"]["dl"].gamma
    dl = downlink_sinr(
        "joint-mmse", data["h"], data["hhat"], data["C"],
        Association.all_serve(cfg.num_ue, cfg.num_oru), campaign.genome,
        data["beta"], data["p"], data["noise"], data["noise"], cfg.dl_pmax_mw,
    )
    data["dl_power"] = dl.dl_power_mw
    data["radiated"] = dl.per_oru_radiated_mw
    return data


def evaluate_uldl(d: dict) -> list[str]:
    errors: list[str] = []
    cfg = d["cfg"]
    R, C = d["R"], d["C"]
    N = R.shape[-1]
    dist = np.sqrt(((d["ue_pos"][:, None, :] - d["oru_pos"][None, :, :]) ** 2).sum(-1))
    beta = 10.0 ** ((cfg["pathloss_intercept_db"] - 10.0 * cfg["pathloss_exponent"]
                     * np.log10(dist) + d["shadow_db"]) / 10.0)
    _close(errors, "beta from geometry", d["beta"], beta, EXACT_RTOL)
    _close(errors, "trace(R) = N beta", np.trace(R, axis1=-2, axis2=-1).real, N * beta, EXACT_RTOL)
    for name, X in (("R", R), ("C", C)):
        scale = np.abs(X).max(axis=(-2, -1))
        asym = np.abs(X - np.conj(np.swapaxes(X, -1, -2))).max(axis=(-2, -1))
        if np.any(asym > 1e-12 * scale):
            errors.append(f"{name} not Hermitian: {float((asym / scale).max()):.3e}")
        lo = np.linalg.eigvalsh(X).min(axis=-1)
        tr = np.trace(X, axis1=-2, axis2=-1).real
        if np.any(lo < -1e-10 * tr):
            errors.append(f"{name} not PSD: min eigenvalue {float(lo.min()):.3e}")

    h, hhat, p, noise = d["h"], d["hhat"], d["p"], d["noise"]
    v_joint = joint_mmse(hhat, C, p, noise)
    combiners = {
        "joint-mmse": v_joint,
        "l-mmse": local_mmse(hhat, C, p, noise),
        "joint-mrc": _stack(hhat),
    }
    for scheme, v in combiners.items():
        _close(errors, f"{scheme} UL SINR", d["ul_gamma"][scheme],
               uplink_gamma(v, _stack(h), p, noise), SINR_RTOL)

    K, L = d["beta"].shape
    p_dl, gamma_dl, radiated = downlink_reference(
        v_joint.reshape(h.shape), h, d["beta"], cfg["dl_pmax_mw"], noise)
    _close(errors, "joint-mmse DL power", d["dl_power"], p_dl, SINR_RTOL)
    _close(errors, "joint-mmse DL SINR", d["dl_gamma"], gamma_dl, SINR_RTOL)
    cap = 1.01 * cfg["dl_pmax_mw"]
    for what, per_oru in (("program", d["radiated"]), ("reference", radiated)):
        if np.max(per_oru) > cap:
            errors.append(f"{what} radiated DL power {np.max(per_oru):.4f} mW > {cap} mW")
    return errors


# ---------------------------------------------------------------------------
# full-dcc-ga-ql
# ---------------------------------------------------------------------------
def gather_dcc(cfg, campaign) -> dict:
    """The GA genome and fitness, the clustered genome, each drop's QL
    association and rates, and drop 0's channels and p-mmse SINR."""
    from cfmimo.harness import resolve_partition

    data = _drop_channels(cfg, campaign.genome, 0)
    data["fitness"] = campaign.summary["deployment"]["fitness"]
    data["clustered_genome"] = resolve_partition(cfg, "clustered")[0]
    data["deltas"] = [drop.association_delta for drop in campaign.drops]
    data["ql"] = [
        (drop.metadata["ql_best_r_sum"], drop.metadata["ql_r_sum_all"])
        for drop in campaign.drops
    ]
    data["pmmse_gamma"] = campaign.drops[0].reports["p-mmse"]["ul"].gamma
    return data


def evaluate_dcc(d: dict) -> list[str]:
    errors: list[str] = []
    cfg = d["cfg"]
    M, cap = cfg["num_edu"], cfg["fronthaul_ue_cap"]
    genome = np.asarray(d["genome"])
    if not balanced(genome, M):
        errors.append(f"GA genome unbalanced: sizes {np.bincount(genome).tolist()}")
        return errors
    xy = grid_positions(cfg["num_oru"], cfg["area_side_m"])
    fit = cross_edu_fitness(genome, xy)
    _close(errors, "GA fitness", d["fitness"], fit, EXACT_RTOL)
    clustered = cross_edu_fitness(np.asarray(d["clustered_genome"]), xy)
    if not fit > clustered:
        errors.append(f"GA fitness {fit:.6e} not above clustered {clustered:.6e}")

    for i, delta in enumerate(d["deltas"]):
        delta_km = edu_association(delta, genome)
        if not np.array_equal(delta, delta_km[:, genome]):
            errors.append(f"drop {i}: QL association not EDU-consistent")
        load = delta_km.sum(0)
        if load.max() > cap:
            errors.append(f"drop {i}: EDU load {load.tolist()} over cap {cap}")
        best, every = d["ql"][i]
        if not best <= every:
            errors.append(f"drop {i}: ql_best_r_sum {best} > ql_r_sum_all {every}")

    gamma = statistical_gamma(d["R"], d["Phi"], genome, d["p"], d["noise"])
    delta_km = edu_association(d["deltas"][0], genome)
    best, every = d["ql"][0]
    _close(errors, "ql_best_r_sum", best, np.log2(1.0 + (gamma * delta_km).sum(1)).sum(), EXACT_RTOL)
    _close(errors, "ql_r_sum_all", every, np.log2(1.0 + gamma.sum(1)).sum(), EXACT_RTOL)

    v = masked_mmse(d["hhat"], d["C"], d["p"], d["noise"], d["deltas"][0])
    _close(errors, "p-mmse UL SINR", d["pmmse_gamma"],
           uplink_gamma(v, _stack(d["h"]), d["p"], d["noise"]), SINR_RTOL)
    return errors


# ---------------------------------------------------------------------------
# desk-cli-campaign
# ---------------------------------------------------------------------------
def format_rows(drop_result) -> list[list[str]]:
    """raw_samples.csv rows of one drop, as the README documents them."""
    rows = []
    d = str(drop_result.drop_index)
    for scheme, per_link in drop_result.reports.items():
        for link, rep in per_link.items():
            for k, (g, se) in enumerate(zip(rep.gamma, rep.se)):
                db = f"{10.0 * math.log10(g):.6f}" if g > 0 else ""
                rows.append([d, scheme, str(k), link, db, f"{se:.6f}"])
            rows.append([d, scheme, "sum", link, "", f"{float(np.sum(rep.se)):.6f}"])
    return rows


def gather_desk(cfg, out_dir: str, input_config: dict, exit_code: int, drop: int) -> dict:
    """The CLI's exit code and config echo, and one drop re-run through
    ``harness.run_drop`` on the partition the CLI wrote."""
    from cfmimo.harness import DropOptions, run_drop

    with open(os.path.join(out_dir, "partition.json"), encoding="utf-8") as fh:
        mapping = json.load(fh)
    genome = np.array([mapping[str(i)] for i in range(cfg.num_oru)])
    files = read_outputs(out_dir)
    return {
        "exit_code": exit_code,
        "input_config": input_config,
        "comments": files["comments"],
        "csv_rows": [r for r in files["rows"] if r[0] == str(drop)],
        "rerun_rows": format_rows(run_drop(cfg, drop, genome, DropOptions())),
    }


def evaluate_desk(d: dict) -> list[str]:
    errors: list[str] = []
    if d["exit_code"] != 0:
        errors.append(f"cfmimo simulate exited {d['exit_code']}")
    echo = [l for l in d["comments"] if l.startswith("# config: ")]
    if len(echo) != 1 or json.loads(echo[0][len("# config: "):]) != d["input_config"]:
        errors.append("raw_samples.csv config echo differs from the input config")
    if d["csv_rows"] != d["rerun_rows"]:
        errors.append("re-run of the drop does not reproduce its raw_samples.csv rows")
    return errors
