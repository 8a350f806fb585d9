"""Command-line interface.

Subcommands: ``simulate`` (Monte Carlo campaign), ``deploy-ga`` (partition
optimization), ``associate-ql`` (association learning for one drop), and
``sweep`` (vary the EDU count or the deployment mode). Errors exit nonzero
with a machine-readable JSON record on stderr: 2 for bad usage or input
(config, partition or association file), 1 for a runtime failure or a
campaign with failed drops (its summary is still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .association import QlConfig
from .channel import build_statistics
from .deployment import GaConfig
from .harness import (
    DropOptions,
    ql_association,
    read_csv_rows,
    resolve_partition,
    run_campaign,
    write_csv,
    write_json,
    write_partition,
)
from .scenario import ScenarioConfig, build_topology, load_config

USAGE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail(message, self.format_usage())


def _fail(message: str, usage: str | None = None) -> None:
    record = {"error": "usage", "detail": message}
    if usage:
        sys.stderr.write(usage)
    sys.stderr.write(json.dumps(record) + "\n")
    raise SystemExit(USAGE_EXIT)


def _tags(text: str) -> tuple[str, ...]:
    """A comma list's non-empty entries, stripped."""
    return tuple(t.strip() for t in text.split(",") if t.strip())


def int_or_infinite(text: str) -> int | str:
    """A ``--quant-bits`` value; argparse names this function when it fails."""
    return text if text == "infinite" else int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON scenario config file")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--out", default="out", help="output directory")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--drops", type=int, help="override mc_drops")
    p.add_argument("--schemes", type=_tags, help="comma-separated scheme tags")
    p.add_argument(
        "--deployment",
        choices=("ga", "clustered", "file"),
        help="how O-RUs are grouped into EDUs (default: ga)",
    )
    p.add_argument("--partition-file", help="partition CSV/JSON for --deployment file")
    p.add_argument(
        "--association",
        choices=("all", "ql", "file"),
        default="all",
        help="dynamic-cluster association source",
    )
    p.add_argument("--association-file", help="CSV for --association file")
    p.add_argument("--phase-drift-deg", type=float, default=0.0)
    p.add_argument("--quant-bits", type=int_or_infinite, help='integer or "infinite"')
    p.add_argument("--links", type=_tags, default="ul,dl", help="subset of ul,dl")
    p.add_argument("--workers", type=int, default=1)


def build_parser() -> _Parser:
    parser = _Parser(prog="cfmimo", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    p_sim.set_defaults(run=cmd_simulate)
    _add_common(p_sim)
    _add_sim_flags(p_sim)

    p_ga = sub.add_parser("deploy-ga", help="optimize the O-RU to EDU partition")
    p_ga.set_defaults(run=cmd_deploy_ga)
    _add_common(p_ga)
    p_ga.add_argument("--generations", type=int)
    p_ga.add_argument("--population", type=int)

    p_ql = sub.add_parser("associate-ql", help="learn the UE-EDU association")
    p_ql.set_defaults(run=cmd_associate_ql)
    _add_common(p_ql)
    p_ql.add_argument("--drop", type=int, default=0)
    p_ql.add_argument("--episodes", type=int)
    p_ql.add_argument(
        "--deployment", choices=("ga", "clustered", "file"), default="clustered"
    )
    p_ql.add_argument("--partition-file")

    p_sweep = sub.add_parser("sweep", help="run campaigns over a parameter range")
    p_sweep.set_defaults(run=cmd_sweep)
    _add_common(p_sweep)
    _add_sim_flags(p_sweep)
    p_sweep.add_argument(
        "--param", choices=("num_edu", "deployment"), default="num_edu"
    )
    p_sweep.add_argument("--values", help="comma list, e.g. 1,2,4,8")
    return parser


def _checked(make, *args, **fields):
    """``make(*args, **fields)`` without the fields that are None (flags not
    given); a ``ValueError`` from its checks exits 2."""
    try:
        return make(*args, **{k: v for k, v in fields.items() if v is not None})
    except ValueError as exc:  # a ConfigError or json.JSONDecodeError among them
        _fail(str(exc))


def _load(args, **overrides) -> ScenarioConfig:
    """The config file with the config-field flags and then ``overrides`` in
    place of its fields, built and validated once."""
    if not os.path.isfile(args.config):
        problem = "is a directory" if os.path.isdir(args.config) else "not found"
        _fail(f"config file {problem}: {args.config}")
    flags = vars(args)
    return _checked(
        load_config,
        args.config,
        master_seed=args.seed,
        mc_drops=flags.get("drops"),
        schemes=flags.get("schemes") or None,  # an empty --schemes is ignored
        quantizer_bits=flags.get("quant_bits"),
        **overrides,
    )


def _drop_options(cfg: ScenarioConfig, args) -> DropOptions:
    """The per-drop options of the flags that are not config fields."""
    if args.workers < 1:
        _fail("--workers must be >= 1")
    if args.association_file and args.association != "file":
        _fail("--association-file needs --association file")
    delta = None
    if args.association_file:
        delta = _read_association_csv(args.association_file, cfg.num_ue, cfg.num_edu)
    return _checked(
        DropOptions,
        links=args.links,
        association_mode=args.association,
        association_delta=delta,
        phase_drift_deg=args.phase_drift_deg,
    )


def _read_association_csv(path: str, K: int, M: int) -> np.ndarray:
    """(K, M) EDU-level association from ``ue_index,edu_index,served`` rows.

    Each drop expands it to (K, L) through the campaign's partition.
    """
    try:
        rows = read_csv_rows(path, ["ue_index", "edu_index", "served"])
    except (OSError, ValueError) as exc:  # a missing file or a malformed row
        _fail(str(exc))
    delta_km = np.zeros((K, M), dtype=bool)
    seen = set()
    for n, (k, m, served) in rows.items():
        if not (0 <= k < K and 0 <= m < M and served in (0, 1)):
            _fail(
                f"{path}, line {n}: association row {k},{m},{served} needs "
                f"0 <= ue_index < {K}, 0 <= edu_index < {M} and served in {{0, 1}}"
            )
        if (k, m) in seen:
            _fail(f"{path}, line {n}: repeats ue_index {k}, edu_index {m}")
        seen.add((k, m))
        delta_km[k, m] = bool(served)
    return delta_km


def cmd_simulate(args) -> int:
    cfg = _load(args)
    options = _drop_options(cfg, args)
    campaign = run_campaign(
        cfg,
        out_dir=args.out,
        deployment_mode=args.deployment or "ga",
        options=options,
        genome_file=args.partition_file,
        workers=args.workers,
    )
    print(f"wrote {args.out}/summary.json ({len(campaign.drops)} drops)")
    return _failed_drops_exit(campaign.failures)


def _failed_drops_exit(failures) -> int:
    if failures:
        print(f"{len(failures)} drop(s) failed; see summary.json")
        return 1
    return 0


def cmd_deploy_ga(args) -> int:
    cfg = _load(args)
    ga_cfg = _checked(
        GaConfig, generations=args.generations, population_size=args.population
    )
    genome, meta = resolve_partition(cfg, "ga", ga_cfg)
    os.makedirs(args.out, exist_ok=True)
    write_partition(args.out, cfg, genome)
    write_csv(
        os.path.join(args.out, "fitness_trajectory.csv"),
        cfg,
        ["generation", "best_fitness"],
        ([g, f"{f:.10e}"] for g, f in enumerate(meta["history"])),
    )
    print(f"partition fitness {meta['fitness']:.6e}; wrote {args.out}/partition.json")
    return 0


def cmd_associate_ql(args) -> int:
    cfg = _load(args)
    if args.drop < 0:
        _fail("--drop must be >= 0")
    qcfg = _checked(
        QlConfig, episodes=args.episodes, fronthaul_ue_cap=cfg.fronthaul_ue_cap
    )
    genome, _ = resolve_partition(
        cfg, args.deployment, genome_file=args.partition_file
    )
    stats = build_statistics(cfg, build_topology(cfg, args.drop), args.drop)
    result = ql_association(cfg, stats, genome, args.drop, qcfg)
    os.makedirs(args.out, exist_ok=True)
    write_csv(
        os.path.join(args.out, "association.csv"),
        cfg,
        ["ue_index", "edu_index", "served"],
        ([k, m, int(served)] for (k, m), served in np.ndenumerate(result.best_delta)),
    )
    write_csv(
        os.path.join(args.out, "reward_trajectory.csv"),
        cfg,
        ["episode", "mean_reward", "best_r_sum"],
        (
            [e, f"{r:.6e}", f"{b:.6f}"]
            for e, (r, b) in enumerate(zip(result.episode_rewards, result.episode_best))
        ),
    )
    qstats = {
        "config": cfg.to_dict(),
        "q_table_sizes": result.q_table_sizes,
        "best_r_sum": result.best_r_sum,
        "r_sum_all": result.r_sum_all,
    }
    write_json(os.path.join(args.out, "qtable_summary.json"), qstats)
    print(
        f"best R_sum {result.best_r_sum:.4f} of all-serve {result.r_sum_all:.4f}; "
        f"wrote {args.out}/association.csv"
    )
    return 0


def cmd_sweep(args) -> int:
    if args.param == "num_edu":
        if not args.values:
            _fail("--param num_edu requires --values")
        try:
            values = [int(v) for v in args.values.split(",")]
        except ValueError:
            _fail("--values must be a comma list of integers")
        if len(set(values)) < len(values):
            _fail(f"--values repeats a value: {args.values}")
        mode = args.deployment or "ga"
        runs = [(f"num_edu={m}", mode, {"num_edu": m}) for m in values]
    else:
        flags = {"--values": args.values, "--deployment": args.deployment,
                 "--partition-file": args.partition_file}
        for flag, value in flags.items():
            if value is not None:
                _fail(f"--param deployment runs ga and clustered; it takes no {flag}")
        runs = [(f"deployment={m}", m, {}) for m in ("ga", "clustered")]
    # Every run's config, partition file and options are checked first.
    plans = []
    for label, mode, overrides in runs:
        run_cfg = _load(args, **overrides)
        if mode == "file":
            resolve_partition(run_cfg, mode, genome_file=args.partition_file)
        plans.append((label, run_cfg, mode, _drop_options(run_cfg, args)))
    summaries = {}
    failures = []
    for label, run_cfg, mode, options in plans:
        campaign = run_campaign(
            run_cfg,
            out_dir=os.path.join(args.out, label),
            deployment_mode=mode,
            options=options,
            genome_file=args.partition_file,
            workers=args.workers,
        )
        summaries[label] = campaign.summary
        failures += campaign.failures
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "sweep_summary.json"), summaries)
    print(f"wrote {args.out}/sweep_summary.json")
    return _failed_drops_exit(failures)


def _check_out(out: str) -> None:
    """Exit 2 unless ``out``, or else its nearest existing ancestor, is a
    directory, so that the outputs can be written there; makes nothing."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        _fail(f"--out {out}: {path} is not a directory")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_out(args.out)
    try:
        return args.run(args)
    except ValueError as exc:  # a ConfigError among them
        sys.stderr.write(json.dumps({"error": "config", "detail": str(exc)}) + "\n")
        return USAGE_EXIT
    except Exception as exc:  # operational failure, not usage
        sys.stderr.write(json.dumps({"error": "runtime", "detail": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
