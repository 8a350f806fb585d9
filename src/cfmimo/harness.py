"""Campaign orchestration: drops, scheme sweeps, CDF aggregation, file output.

A drop is one UE placement plus its shadowing; within a drop the SINR
expectations are estimated over ``mc_realizations`` small-scale channel
draws. Campaigns aggregate per-drop sum SE into CDFs and summary statistics.
Everything is a pure function of (master_seed, drop_index, stream tag), so
drops can run in any order or in parallel without changing results.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import __version__
from .association import EduSinrTable, QlConfig, QlResult, ql_associate
from .channel import build_statistics, drop_streams, phase_drift, sample_drop_channels
from .deployment import GaConfig, Partition, clustered_baseline, ga_optimize
from .power import uplink_power
from .scenario import ScenarioConfig, build_topology, rng_stream
from .transceiver import (
    SCHEMES,
    Association,
    CombinerWorkspace,
    SinrReport,
    downlink_sinr,
    moment_pass,
    uplink_sinr,
)

LINKS = ("ul", "dl")


@dataclass(frozen=True)
class DropOptions:
    """Per-drop behavior switches shared by the CLI and campaign loop. A bad
    field raises ``ValueError`` when it is made; each drop checks the shape
    of ``association_delta`` against its config."""

    links: tuple[str, ...] = LINKS
    association_mode: str = "all"  # "all" | "ql" | "file"
    association_delta: np.ndarray | None = None  # (K, M) EDU-level, for "file"
    phase_drift_deg: float = 0.0
    ql_config: QlConfig | None = None

    def __post_init__(self):
        links = tuple(self.links)
        object.__setattr__(self, "links", links)
        if not links or not set(links) <= set(LINKS) or len(set(links)) < len(links):
            raise ValueError(f"links must be ul, dl or both, once each: {links}")
        if self.association_mode not in ("all", "ql", "file"):
            raise ValueError(f"unknown association mode {self.association_mode!r}")
        if (self.association_mode == "file") != (self.association_delta is not None):
            msg = "'file' association needs association_delta; only 'file' takes one"
            raise ValueError(msg)
        delta = self.association_delta
        if delta is not None and not np.isin(delta, (0, 1)).all():
            raise ValueError("association_delta entries must be 0 or 1")
        if not 0.0 <= self.phase_drift_deg < np.inf:
            raise ValueError("phase_drift_deg must be a finite angle >= 0")
        if self.phase_drift_deg > 0 and "dl" not in links:
            raise ValueError("phase_drift_deg rotates only the downlink; links need dl")


@dataclass
class DropResult:
    drop_index: int
    reports: dict[str, dict[str, SinrReport]]  # scheme -> link -> report
    association_delta: np.ndarray  # (K, L) DCC association used
    metadata: dict = field(default_factory=dict)


def edu_sinr_table(
    config: ScenarioConfig, stats, genome: np.ndarray
) -> EduSinrTable:
    """The drop's statistical EDU SINR table under ``genome`` at the
    configured uplink power, for :func:`ql_association`. It is the last
    reader of the statistics' R and Phi."""
    p_ul = uplink_power(config.num_ue, config.ul_power_mw)
    return EduSinrTable.from_statistics(stats, genome, p_ul, stats.noise_mw)


def ql_association(
    config: ScenarioConfig,
    table: EduSinrTable,
    drop_index: int,
    ql_config: QlConfig | None = None,
) -> QlResult:
    """Q-learning EDU association of one drop.

    Learns on the drop's EDU SINR ``table`` (:func:`edu_sinr_table`), with
    ``ql_config`` (default: ``QlConfig`` capped at
    ``config.fronthaul_ue_cap``) and the drop's ``"ql"`` RNG stream. It
    takes the table, not the statistics, so a caller can let the
    statistics go before learning starts. A ``ql_config`` with another cap
    than the config's raises ``ValueError``.
    """
    cap = config.fronthaul_ue_cap
    qcfg = ql_config or QlConfig(fronthaul_ue_cap=cap)
    if qcfg.fronthaul_ue_cap != cap:
        raise ValueError(
            f"ql_config has fronthaul_ue_cap {qcfg.fronthaul_ue_cap} but the config "
            f"has fronthaul_ue_cap {cap}"
        )
    return ql_associate(
        table,
        config.num_ue,
        config.num_edu,
        qcfg,
        rng_stream(config.master_seed, drop_index, "ql"),
    )


def _dcc_association(
    config: ScenarioConfig,
    genome: np.ndarray,
    table: EduSinrTable | None,
    options: DropOptions,
    drop_index: int,
) -> tuple[Association, dict]:
    """The drop's DCC association: from ``options``' file, learned on
    ``table`` when there is one, or all-serve."""
    K, L, M = config.num_ue, config.num_oru, config.num_edu
    if options.association_mode == "file":
        delta_km = options.association_delta
        if np.shape(delta_km) != (K, M):
            raise ValueError(
                f"association is {np.shape(delta_km)}, expected (num_ue, num_edu) = "
                f"{(K, M)}"
            )
        return Association.from_edu(delta_km, genome), {}
    if table is None:
        return Association.all_serve(K, L), {}
    result = ql_association(config, table, drop_index, options.ql_config)
    meta = {"ql_best_r_sum": result.best_r_sum, "ql_r_sum_all": result.r_sum_all}
    return Association.from_edu(result.best_delta, genome), meta


def run_drop(
    config: ScenarioConfig,
    drop_index: int,
    genome: np.ndarray,
    options: DropOptions | None = None,
) -> DropResult:
    """Simulate one drop for every enabled scheme.

    Checks the campaign's O-RU to EDU ``genome`` (from
    :func:`resolve_partition`) against the config once, builds topology and
    channel statistics, resolves the dynamic-cluster association under the
    genome (Q-learning runs only when an enabled scheme uses it), and
    evaluates uplink and/or downlink SINR per scheme from link moments.

    Every scheme's moments come from one ``transceiver.moment_pass`` over
    the drop's realizations, which streams them block by block: each block's
    channels and estimates are drawn once (``sample_drop_channels`` with the
    drop's stream cursors), every scheme adds them to its running moment
    sums (its combiners for the block, answering each link by name, the
    uplink with its quantizer bits, the downlink with its drift phasors, if
    any), and the block is dropped.

    The drop holds each statistic only until its last reader is done: R
    and Phi until the EDU SINR table is made (before Q-learning starts),
    C until the combiner workspaces have formed their covariances from it.
    So in its moment pass a drop holds at most R^(1/2) and W (which
    sampling reads), one block's channels, estimates, combiners and
    products, and each scheme's sums; no channel-sized array.
    A report with a non-finite SINR or SE fails the drop. Deterministic in
    (master_seed, drop_index, genome), and the same bits as one pass over
    the whole batch.
    """
    options = options or DropOptions()
    try:
        if np.shape(genome) != (config.num_oru,):
            raise ValueError("partition genome length must equal the number of O-RUs")
        genome = Partition(genome, config.num_edu).genome  # integer, in range, balanced
        topology = build_topology(config, drop_index)
        stats = build_statistics(config, topology, drop_index)
        dcc_used = any(SCHEMES[s].dcc for s in config.schemes)
        learns = options.association_mode == "ql" and dcc_used  # QL only if used
        table = edu_sinr_table(config, stats, genome) if learns else None
        C, beta, noise_mw = stats.C, stats.beta, stats.noise_mw
        drawn = SimpleNamespace(sqrt_R=stats.sqrt_R, W=stats.W, noise_mw=noise_mw)
        del stats  # R and Phi: their one reader, the SINR table, is done
        all_serve = Association.all_serve(config.num_ue, config.num_oru)
        dcc, meta = _dcc_association(config, genome, table, options, drop_index)
        del table  # and its memo of UE rates

        p_ul = uplink_power(config.num_ue, config.ul_power_mw)
        T = config.mc_realizations
        rot = None
        if options.phase_drift_deg > 0:  # only with the downlink
            rng = rng_stream(config.master_seed, drop_index, "phase-drift")
            rot = phase_drift(T, config.num_oru, options.phase_drift_deg, rng)
        links = {"ul": config.quantizer_bits, "dl": rot}
        links = {link: links[link] for link in LINKS if link in options.links}
        assocs = {s: dcc if SCHEMES[s].dcc else all_serve for s in config.schemes}
        workspaces = [
            CombinerWorkspace(SCHEMES[s], assoc, genome, C, p_ul, noise_mw)
            for s, assoc in assocs.items()
        ]
        del C  # the workspaces formed their covariances from it
        streams = drop_streams(config, drop_index, T)
        # sample_drop_channels is looked up per block, so a wrapper set on
        # this module's name (perfbench's tracer) sees every block
        passes = moment_pass(workspaces, links, T, lambda b: sample_drop_channels(
            drawn, b.stop - b.start, config, drop_index, streams
        ))

        reports: dict[str, dict[str, SinrReport]] = {}
        for (scheme, assoc), moments in zip(assocs.items(), passes):
            per_link: dict[str, SinrReport] = {}
            if "ul" in moments:
                per_link["ul"] = uplink_sinr(
                    scheme,
                    None,
                    None,
                    None,
                    assoc,
                    genome,
                    p_ul,
                    noise_mw,
                    quantizer_bits=config.quantizer_bits,
                    moments=moments["ul"],
                )
            if "dl" in moments:
                per_link["dl"] = downlink_sinr(
                    scheme,
                    None,
                    None,
                    None,
                    assoc,
                    genome,
                    beta,
                    p_ul,
                    noise_mw,
                    noise_mw,
                    config.dl_pmax_mw,
                    phase_drift_deg=options.phase_drift_deg,
                    moments=moments["dl"],
                ).report
            for link, report in per_link.items():
                if not np.isfinite([report.gamma, report.se]).all():
                    raise ValueError(f"{scheme} {link}: non-finite SINR or SE")
            reports[scheme] = per_link

        meta["placement"] = topology.placement
        return DropResult(
            drop_index=drop_index,
            reports=reports,
            association_delta=dcc.delta.copy(),
            metadata=meta,
        )
    except Exception as exc:
        raise RuntimeError(f"drop {drop_index} failed: {exc}") from exc


def resolve_partition(
    config: ScenarioConfig,
    deployment_mode: str = "clustered",
    ga_config: GaConfig | None = None,
    genome_file: str | None = None,
) -> tuple[np.ndarray, dict]:
    """The campaign's O-RU to EDU partition genome and its metadata.

    This is the only producer of a partition: ``run_drop`` and the CLI take
    the genome it returns. The O-RU layout does not depend on the drop index,
    so one partition serves every drop. Every genome is a balanced
    :class:`Partition` over ``config.num_edu`` EDUs; a partition file that
    is not, or one given with another mode than ``"file"``, raises
    ``ValueError``.
    """
    if genome_file is not None and deployment_mode != "file":
        raise ValueError(
            f"partition file {genome_file} needs deployment 'file', "
            f"not {deployment_mode!r}"
        )
    topology = build_topology(config, 0)
    if deployment_mode == "clustered":
        part = clustered_baseline(
            topology.oru_positions[:, :2],
            config.num_edu,
            rng_stream(config.master_seed, 0, "clustering"),
        )
        return part.genome, {"deployment": "clustered"}
    if deployment_mode == "ga":
        result = ga_optimize(
            topology.oru_pairwise,
            config.num_edu,
            ga_config or GaConfig(),
            rng_stream(config.master_seed, 0, "ga"),
        )
        return result.partition.genome, {
            "deployment": "ga",
            "fitness": result.partition.fitness,
            "history": result.history.tolist(),
        }
    if deployment_mode == "file":
        if genome_file is None:
            raise ValueError("deployment 'file' needs a partition file")
        genome = _load_partition_file(genome_file, config.num_oru)
        try:
            part = Partition(genome, config.num_edu)
        except ValueError as exc:
            msg = f"{genome_file}: {exc} (num_edu={config.num_edu})"
            raise ValueError(msg) from None
        return part.genome, {"deployment": "file", "path": genome_file}
    raise ValueError(f"unknown deployment mode {deployment_mode!r}")


def _load_partition_file(path: str, num_oru: int) -> np.ndarray:
    """Genome from ``oru_index,edu_index`` CSV rows or a JSON mapping.

    Each O-RU index in [0, num_oru) must appear exactly once.
    """
    if not os.path.isfile(path):
        raise ValueError(f"partition file not found: {path}")
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            mapping = json.load(fh)
        if not isinstance(mapping, dict):
            raise ValueError(f"{path}: partition JSON must map O-RU to EDU index")
        pairs = []
        for oru, edu in mapping.items():
            if type(edu) is not int:  # not a float, bool, null or string
                raise ValueError(
                    f"{path}: O-RU {oru} maps to {json.dumps(edu)}, "
                    "not to an integer EDU index"
                )
            try:
                pairs.append((int(oru), edu))
            except ValueError:
                raise ValueError(
                    f"{path}: key {json.dumps(oru)} is not an integer O-RU index"
                ) from None
    else:
        pairs = list(read_csv_rows(path, ["oru_index", "edu_index"]).values())
    orus = [oru for oru, _ in pairs]
    if sorted(orus) != list(range(num_oru)):
        raise ValueError(
            f"{path}: partition must list every O-RU index 0..{num_oru - 1} "
            f"exactly once, got {len(orus)} rows"
        )
    genome = np.empty(num_oru, dtype=int)
    genome[orus] = [edu for _, edu in pairs]
    return genome


@dataclass
class CampaignResult:
    config: ScenarioConfig
    genome: np.ndarray
    drops: list[DropResult]
    failures: list[tuple[int, str]]
    summary: dict


def _percentile(xs: np.ndarray, q: float) -> float:
    """``np.percentile`` of sorted ``xs`` by its linear rule, without the
    ``numpy.ma`` import that ``np.percentile`` makes on its first call: with
    v = q/100 (n - 1), t its fractional part and a, b the values at floor(v)
    and the next index, a + (b - a) t, or b - (b - a)(1 - t) for t >= 0.5."""
    v = (xs.size - 1) * (q / 100)
    i = int(v)
    t = v - i
    a, b = xs[i], xs[min(i + 1, xs.size - 1)]
    return float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))


def summarize(
    config: ScenarioConfig, drops: list[DropResult], failures
) -> dict:
    """Per-scheme/link summary of per-drop sum SE distributions."""
    schemes = list(config.schemes)
    links = sorted({link for d in drops for r in d.reports.values() for link in r})
    out: dict = {
        "config": config.to_dict(),
        "code_version": __version__,
        "drops_completed": len(drops),
        "failures": [{"drop": i, "error": msg} for i, msg in failures],
        "schemes": {},
    }
    medians: dict[tuple[str, str], float] = {}
    for scheme in schemes:
        out["schemes"][scheme] = {}
        for link in links:
            sums = np.array(
                [d.reports[scheme][link].sum_se for d in drops if scheme in d.reports]
            )
            if sums.size == 0:
                continue
            xs, n = np.sort(sums), sums.size
            # np.median's rule: the mean of the two middle values for even n
            mid = xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2
            medians[(scheme, link)] = float(mid)
            out["schemes"][scheme][link] = {
                "sum_se_per_drop": sums.tolist(),
                "median_sum_se": medians[(scheme, link)],
                "mean_sum_se": float(np.mean(sums)),
                "p5_sum_se": _percentile(xs, 5),
                "p95_sum_se": _percentile(xs, 95),
                "cdf": {"x": xs.tolist(), "p": (np.arange(1, n + 1) / n).tolist()},
            }
    for (scheme, link), med in medians.items():
        ref = medians.get(("joint-mmse", link))
        if ref:
            out["schemes"][scheme][link]["ratio_to_joint_mmse_median"] = med / ref
    return out


def _run_drop_task(args):
    config, drop_index, genome, options = args
    try:
        return run_drop(config, drop_index, genome, options)
    except Exception as exc:
        return (drop_index, str(exc))


def _json_deployment(meta: dict) -> dict:
    """Partition metadata for ``summary.json``. One EDU leaves no cross-EDU
    spread, so the GA scores it +inf, which JSON cannot hold: null here."""
    if meta["deployment"] != "ga":
        return meta
    fitness = meta["fitness"]
    return {
        **meta,
        "fitness": fitness if np.isfinite(fitness) else None,
        "history": [f if np.isfinite(f) else None for f in meta["history"]],
    }


def run_campaign(
    config: ScenarioConfig,
    out_dir: str | None = None,
    deployment_mode: str = "ga",
    options: DropOptions | None = None,
    ga_config: GaConfig | None = None,
    genome_file: str | None = None,
    workers: int = 1,
) -> CampaignResult:
    """Execute all drops, aggregate CDFs, and optionally write result files.

    Drops run in index order, in this process or on up to ``workers``
    processes (never more than there are drops), with the same results
    either way. Individual drop failures are recorded and the campaign
    continues.
    """
    options = options or DropOptions()
    genome, deploy_meta = resolve_partition(
        config, deployment_mode, ga_config, genome_file
    )

    tasks = [(config, i, genome, options) for i in range(config.mc_drops)]
    workers = min(workers, len(tasks))  # the pool starts every worker at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_drop_task, tasks))
    else:
        outcomes = map(_run_drop_task, tasks)
    results: list[DropResult] = []
    failures: list[tuple[int, str]] = []
    for outcome in outcomes:
        if isinstance(outcome, DropResult):
            results.append(outcome)
        else:
            failures.append(outcome)

    summary = summarize(config, results, failures)
    summary["deployment"] = _json_deployment(deploy_meta)
    campaign = CampaignResult(
        config=config,
        genome=genome,
        drops=results,
        failures=failures,
        summary=summary,
    )
    if out_dir is not None:
        write_outputs(campaign, out_dir)
    return campaign


@contextmanager
def _replacing(path: str, newline: str | None = None):
    """A text file to write in place of ``path``: it is written under a
    temporary name in the same directory and renamed to ``path`` once
    complete, so a write that raises leaves ``path`` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path: str, config: ScenarioConfig, header: list[str], rows) -> None:
    """CSV file: the config echo as ``#`` lines, a header row, then ``rows``.

    The echo holds the code version, the config after the CLI overrides and
    the seed, but not the links, association, phase drift or deployment mode.
    """
    with _replacing(path, newline="") as fh:
        fh.write(
            f"# cfmimo {__version__}\n"
            f"# config: {json.dumps(config.to_dict(), sort_keys=True)}\n"
            f"# master_seed: {config.master_seed}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_rows(path: str, header: list[str]) -> dict[int, list[int]]:
    """Integer rows of a CSV input in :func:`write_csv`'s layout by line, not
    the ``#`` echo, blank lines and the ``header`` row; a row that is not one
    integer per column raises ``ValueError`` naming the file and the row."""
    rows = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for n, line in enumerate(fh, 1):
            row = next(csv.reader([line]), [])
            if line.startswith("#") or not row or row[0] == header[0]:
                continue
            try:
                rows[n] = [int(cell) for _, cell in zip(header, row, strict=True)]
            except ValueError:
                raise ValueError(
                    f"{path}, line {n}: row {line.strip()!r} is not one integer "
                    f"per column of {','.join(header)}"
                ) from None
    return rows


def write_json(path: str, obj) -> None:
    """Strict JSON: a NaN or infinite value raises ``ValueError``."""
    with _replacing(path) as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_partition(out_dir: str, config: ScenarioConfig, genome) -> dict[str, str]:
    """Write ``partition.csv`` and ``partition.json``; either one loads back
    with ``--deployment file``."""
    paths = {
        "partition_csv": os.path.join(out_dir, "partition.csv"),
        "partition_json": os.path.join(out_dir, "partition.json"),
    }
    write_csv(
        paths["partition_csv"],
        config,
        ["oru_index", "edu_index"],
        ([i, int(m)] for i, m in enumerate(genome)),
    )
    mapping = {str(i): int(m) for i, m in enumerate(genome)}
    write_json(paths["partition_json"], mapping)
    return paths


def _raw_rows(drops: list[DropResult]):
    for drop in drops:
        for scheme, per_link in drop.reports.items():
            for link, report in per_link.items():
                for k in range(report.se.size):
                    g = report.gamma[k]
                    sinr_db = f"{10.0 * np.log10(g):.6f}" if g > 0 else ""
                    se = f"{report.se[k]:.6f}"
                    yield [drop.drop_index, scheme, k, link, sinr_db, se]
                yield [drop.drop_index, scheme, "sum", link, "", f"{report.sum_se:.6f}"]


def write_outputs(campaign: CampaignResult, out_dir: str) -> None:
    """Write raw samples CSV, summary JSON, and the partition files."""
    os.makedirs(out_dir, exist_ok=True)
    write_csv(
        os.path.join(out_dir, "raw_samples.csv"),
        campaign.config,
        ["drop", "scheme", "ue", "link", "sinr_db", "se_bpshz"],
        _raw_rows(campaign.drops),
    )
    write_json(os.path.join(out_dir, "summary.json"), campaign.summary)
    write_partition(out_dir, campaign.config, campaign.genome)
