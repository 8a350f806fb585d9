"""The three benchmark workloads: their inputs and the timed call into cfmimo.

Each workload is one campaign. ``config(name, seed)`` gives the scenario the
child process loads during set-up; ``run`` makes the timed call through the
program's public entry points (``cfmimo.harness.run_campaign`` or
``cfmimo.cli.main``). The seed becomes ``master_seed``, so it moves the UE
drops, shadowing, fading, GA and QL streams and nothing else.
"""

from __future__ import annotations

# Every ScenarioConfig field, written out so the CSV config echo can be
# compared with the input file field by field.
_BASE = {
    "area_side_m": 200.0,
    "num_oru": 100,
    "antennas_per_oru": 4,
    "num_ue": 24,
    "num_edu": 8,
    "carrier_hz": 2.0e9,
    "bandwidth_hz": 2.0e7,
    "noise_psd_dbm_hz": -174.0,
    "ul_power_mw": 200.0,
    "dl_pmax_mw": 200.0,
    "pathloss_model": "log-distance",
    "pathloss_exponent": 3.67,
    "pathloss_intercept_db": -30.5,
    "shadow_sigma_db": 4.0,
    "asd_azimuth_deg": 15.0,
    "asd_elevation_deg": 15.0,
    "antenna_height_m": 10.0,
    "pilot_count": 24,
    "quantizer_bits": "infinite",
    "fronthaul_ue_cap": 24,
    "mc_drops": 1,
    "mc_realizations": 50,
    "master_seed": 1,
    "schemes": ["joint-mmse", "joint-mrc", "l-mmse", "edu-mmse"],
}

ALL_SERVE = ["joint-mmse", "joint-mrc", "l-mmse", "edu-mmse"]
DCC = ["p-mmse", "edu-pmmse", "lp-mmse"]

# GA generations and QL episodes of full-dcc-ga-ql, cut from the defaults
# (200 and 300) so that a campaign fits several times into one run.
GA_GENERATIONS = 40
QL_EPISODES = 40

WORKLOADS = {
    "full-uldl-allserve": {
        "config": {"mc_drops": 2, "schemes": ALL_SERVE},
        "links": ["ul", "dl"],
    },
    "full-dcc-ga-ql": {
        "config": {"mc_drops": 1, "fronthaul_ue_cap": 12, "schemes": DCC},
        "links": ["ul"],
    },
    "desk-cli-campaign": {
        "config": {
            "num_oru": 16,
            "antennas_per_oru": 2,
            "num_ue": 8,
            "num_edu": 4,
            "pilot_count": 8,
            "fronthaul_ue_cap": 8,
            "mc_drops": 40,
            "schemes": ALL_SERVE,
        },
        "links": ["ul", "dl"],
    },
}


def config(name: str, seed: int) -> dict:
    """The full scenario config of a workload for one seed."""
    return {**_BASE, **WORKLOADS[name]["config"], "master_seed": int(seed)}


def run(name: str, cfg, config_path: str, out_dir: str):
    """Make the workload's call into the program.

    Returns ``(campaign, exit_code)``; ``campaign`` is the CampaignResult for
    the library workloads and None for the CLI one. Functions are looked up
    on their modules at call time so that the traced run sees its wrappers.
    """
    import cfmimo.cli
    import cfmimo.harness
    from cfmimo.association import QlConfig
    from cfmimo.deployment import GaConfig
    from cfmimo.harness import DropOptions

    links = tuple(WORKLOADS[name]["links"])
    if name == "full-uldl-allserve":
        campaign = cfmimo.harness.run_campaign(
            cfg,
            out_dir=out_dir,
            deployment_mode="clustered",
            options=DropOptions(links=links, association_mode="all"),
        )
        return campaign, 0
    if name == "full-dcc-ga-ql":
        campaign = cfmimo.harness.run_campaign(
            cfg,
            out_dir=out_dir,
            deployment_mode="ga",
            options=DropOptions(
                links=links,
                association_mode="ql",
                ql_config=QlConfig(
                    episodes=QL_EPISODES, fronthaul_ue_cap=cfg.fronthaul_ue_cap
                ),
            ),
            ga_config=GaConfig(generations=GA_GENERATIONS),
        )
        return campaign, 0
    if name == "desk-cli-campaign":
        argv = [
            "simulate",
            "--config", config_path,
            "--out", out_dir,
            "--deployment", "clustered",
            "--association", "all",
            "--links", ",".join(links),
        ]
        return None, cfmimo.cli.main(argv)
    raise KeyError(name)
