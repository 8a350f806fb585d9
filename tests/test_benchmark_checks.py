"""The benchmark's full-scale UL/DL check against the program's names.

``perfbench/checks.py`` gathers one drop of a ``full-uldl-allserve``
campaign and rates its joint-mmse downlink again through the whole-batch
``transceiver.downlink_sinr``, so a renamed or broken call breaks the
benchmark's correctness check. This test runs that gathering on a one-drop
desk campaign and checks what it gathered. The benchmark's file is only
read, the way ``test_tracer`` reads ``tracer.py``.
"""

import importlib.util
from pathlib import Path

import numpy as np

from cfmimo import ScenarioConfig
from cfmimo.harness import run_campaign
from cfmimo.transceiver import Association, downlink_sinr

CHECKS = Path(__file__).parents[1] / "perfbench" / "checks.py"


def _load_checks():
    spec = importlib.util.spec_from_file_location("checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_uldl_check_passes_on_a_desk_drop_and_its_downlink_equals_the_drop(desk_config):
    checks = _load_checks()
    cfg = ScenarioConfig(
        **{**desk_config.to_dict(), "mc_drops": 1,
           "schemes": ("joint-mmse", "l-mmse", "joint-mrc")}
    )
    campaign = run_campaign(cfg, deployment_mode="clustered")
    data = checks.gather_uldl(cfg, campaign)
    assert checks.evaluate_uldl(data) == []

    dl = downlink_sinr(
        "joint-mmse", data["h"], data["hhat"], data["C"],
        Association.all_serve(cfg.num_ue, cfg.num_oru), campaign.genome,
        data["beta"], data["p"], data["noise"], data["noise"], cfg.dl_pmax_mw,
    )
    drop = campaign.drops[0].reports["joint-mmse"]["dl"]
    np.testing.assert_array_equal(dl.report.gamma, drop.gamma)
