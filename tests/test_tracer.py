"""The benchmark tracer's patch list against the program's names.

``perfbench/tracer.py`` wraps program functions that it names by module and
attribute, so a renamed or deleted function breaks the traced benchmark run
(``perfbench/run.py --trace 1``). This test installs the tracer, runs a small
traced campaign through every traced layer and uninstalls it again. The
benchmark's files are only read, the way ``test_assignment`` reads
``workloads.py``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from cfmimo import ScenarioConfig
from cfmimo.association import QlConfig
from cfmimo.deployment import GaConfig
from cfmimo.harness import DropOptions, run_campaign

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # tracer imports workloads
    spec.loader.exec_module(module)
    return module


def _attributes(targets):
    """The raw attribute behind each (module, [Class.]attribute) target."""
    found = []
    for module, dotted, _ in targets:
        owner = importlib.import_module(module)
        *classes, attr = dotted.split(".")
        for name in classes:
            owner = getattr(owner, name)
        found.append(owner.__dict__[attr] if classes else getattr(owner, attr))
    return found


def test_tracer_patches_and_restores_every_traced_name(desk_config, monkeypatch):
    _load("workloads", monkeypatch)
    tracer_module = _load("tracer", monkeypatch)
    targets = tracer_module.SPANS + tracer_module.COUNTS
    originals = _attributes(targets)

    cfg = ScenarioConfig(
        **{**desk_config.to_dict(), "mc_drops": 1, "schemes": ("joint-mmse", "edu-pmmse")}
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = _attributes(targets)
        run_campaign(
            cfg,
            deployment_mode="ga",
            options=DropOptions(
                association_mode="ql",
                ql_config=QlConfig(episodes=2, fronthaul_ue_cap=cfg.fronthaul_ue_cap),
            ),
            ga_config=GaConfig(generations=2),
        )
    finally:
        tracer.uninstall()

    assert all(p is not o for p, o in zip(patched, originals))
    assert all(r is o for r, o in zip(_attributes(targets), originals))
    metrics = tracer.metrics(output_bytes=0)
    assert metrics["transceiver.combiners.calls"] == 2  # one per scheme
    assert metrics["association.r_sum.calls"] > 0
    for name in (
        "harness.resolve_partition.s",
        "deployment.ga_optimize.s",
        "channel.spatial_correlation_batch.s",
        "channel.sample_drop_channels.s",
        "association.sinr_table.s",
        "association.ql_associate.s",
        "transceiver.uplink_sinr.edu-pmmse.s",
        "transceiver.downlink_sinr.joint-mmse.s",
        "transceiver.normalize_precoders.s",
        "power.downlink_power.s",
        "harness.run_drop.p50_s",
    ):
        assert metrics[name] > 0, name
