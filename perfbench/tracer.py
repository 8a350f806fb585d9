"""Spans and counts around the calls into each cfmimo layer.

The tracer replaces the module and class attributes through which the
program calls its own public functions (``cfmimo.harness.build_statistics``,
``cfmimo.channel.spatial_correlation_batch``, ``CombinerWorkspace.combiners``
and so on) with wrappers that record a span: name, parent span id, start and
end. Functions called tens of thousands of times per campaign (GA fitness
and balance checks, the QL rate evaluator) only bump a counter. Spans and
counts stay in memory until ``dump`` writes them out. Nothing in ``src/``
changes; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

from workloads import ALL_SERVE, DCC

# (module, attribute or Class.attribute, span name); the name may hold "{0}"
# for the first positional argument, which is the scheme tag of the SINR
# functions.
SPANS = [
    ("cfmimo.harness", "build_topology", "scenario.build_topology"),
    ("cfmimo.deployment", "clustered_baseline", "deployment.clustered_baseline"),
    ("cfmimo.harness", "clustered_baseline", "deployment.clustered_baseline"),
    ("cfmimo.harness", "ga_optimize", "deployment.ga_optimize"),
    ("cfmimo.harness", "build_statistics", "channel.build_statistics"),
    ("cfmimo.channel", "spatial_correlation_batch", "channel.spatial_correlation_batch"),
    ("cfmimo.channel", "correlation_factor", "channel.correlation_factor"),
    ("cfmimo.channel", "mmse_filters", "channel.mmse_filters"),
    ("cfmimo.harness", "sample_drop_channels", "channel.sample_drop_channels"),
    ("cfmimo.harness", "uplink_sinr", "transceiver.uplink_sinr.{0}"),
    ("cfmimo.harness", "downlink_sinr", "transceiver.downlink_sinr.{0}"),
    ("cfmimo.transceiver", "CombinerWorkspace.combiners", "transceiver.combiners"),
    ("cfmimo.transceiver", "normalize_precoders", "transceiver.normalize_precoders"),
    ("cfmimo.transceiver", "downlink_power", "power.downlink_power"),
    ("cfmimo.association", "EduSinrTable.from_statistics", "association.sinr_table"),
    ("cfmimo.harness", "ql_associate", "association.ql_associate"),
    ("cfmimo.harness", "resolve_partition", "harness.resolve_partition"),
    ("cfmimo.cli", "resolve_partition", "harness.resolve_partition"),
    ("cfmimo.harness", "run_drop", "harness.run_drop"),
    ("cfmimo.harness", "summarize", "harness.summarize"),
    ("cfmimo.harness", "write_outputs", "harness.write_outputs"),
    ("cfmimo.harness", "run_campaign", "harness.run_campaign"),
    ("cfmimo.cli", "run_campaign", "harness.run_campaign"),
    ("cfmimo.cli", "main", "cli.main"),
]

COUNTS = [
    ("cfmimo.deployment", "fitness", "deployment.fitness"),
    ("cfmimo.deployment", "is_balanced", "deployment.is_balanced"),
    ("cfmimo.association", "EduSinrTable.r_sum", "association.r_sum"),
]


# Tail percentile of run_drop: the highest one with ten samples beyond it
# once a campaign has 40 drops.
TAIL_PCT = 75
TAIL_MIN_SAMPLES = 40


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, fn, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        by_arg = "{0}" in name

        def wrapper(*args, **kwargs):
            if name == "association.ql_associate":
                qcfg, K, M = args[3], args[1], args[2]
                counts["association.ql_steps"] += qcfg.episodes * (
                    qcfg.steps_per_episode or 4 * K * M
                )
            span = [len(spans), stack[-1] if stack else -1,
                    name.format(args[0]) if by_arg else name, time.perf_counter(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module: str, dotted: str, make):
        owner = importlib.import_module(module)
        *classes, attr = dotted.split(".")
        for name in classes:
            owner = getattr(owner, name)
        raw = owner.__dict__[attr] if classes else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, n=name: self._span_wrapper(fn, n))
        for module, attr, name in COUNTS:
            self._patch(module, attr, lambda fn, n=name: self._count_wrapper(fn, n))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    def metrics(self, output_bytes: int) -> dict[str, float]:
        """Per-layer figures of one traced campaign.

        ``.s`` is the summed span time, ``.self_s`` that time less the child
        spans it covers, ``.calls`` the number of calls.
        """
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter(self.counts)
        children = defaultdict(float)
        drops = []
        for sid, parent, name, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for sid, parent, name, start, end in self.spans:
            total[name] += end - start
            own[name] += end - start - children[sid]
            calls[name] += 1
            if name == "harness.run_drop":
                drops.append(end - start)

        m = {
            "scenario.build_topology.s": total["scenario.build_topology"],
            "scenario.build_topology.calls": calls["scenario.build_topology"],
            "deployment.clustered_baseline.calls": calls["deployment.clustered_baseline"],
            "deployment.clustered_baseline.s": total["deployment.clustered_baseline"],
            "deployment.ga_optimize.s": total["deployment.ga_optimize"],
            "deployment.fitness.calls": calls["deployment.fitness"],
            "deployment.is_balanced.calls": calls["deployment.is_balanced"],
            "deployment.ga.useful_ratio": (
                calls["deployment.fitness"] / calls["deployment.is_balanced"]
                if calls["deployment.is_balanced"] else 0.0
            ),
            "channel.build_statistics.self_s": own["channel.build_statistics"],
        }
        for name in ("spatial_correlation_batch", "correlation_factor",
                     "mmse_filters", "sample_drop_channels"):
            m[f"channel.{name}.s"] = total[f"channel.{name}"]
        for scheme in ALL_SERVE + DCC:
            m[f"transceiver.uplink_sinr.{scheme}.s"] = total[f"transceiver.uplink_sinr.{scheme}"]
        for scheme in ALL_SERVE:
            m[f"transceiver.downlink_sinr.{scheme}.s"] = total[f"transceiver.downlink_sinr.{scheme}"]
        steps = calls["association.ql_steps"]
        m.update({
            "transceiver.combiners.calls": calls["transceiver.combiners"],
            "transceiver.combiners.s": total["transceiver.combiners"],
            "transceiver.normalize_precoders.s": total["transceiver.normalize_precoders"],
            "power.downlink_power.s": total["power.downlink_power"],
            "association.sinr_table.s": total["association.sinr_table"],
            "association.ql_associate.s": total["association.ql_associate"],
            "association.r_sum.calls": calls["association.r_sum"],
            "association.ql_step_us": (
                1e6 * total["association.ql_associate"] / steps if steps else 0.0
            ),
            "harness.resolve_partition.s": total["harness.resolve_partition"],
            "harness.run_drop.p50_s": statistics.median(drops) if drops else 0.0,
            f"harness.run_drop.p{TAIL_PCT}_s": (
                statistics.quantiles(drops, n=100, method="inclusive")[TAIL_PCT - 1]
                if len(drops) >= TAIL_MIN_SAMPLES
                else (statistics.median(drops) if drops else 0.0)
            ),
            "harness.run_drop.self_s": own["harness.run_drop"],
            "harness.summarize.s": total["harness.summarize"],
            "harness.write_outputs.s": total["harness.write_outputs"],
            "harness.output_bytes": output_bytes,
            "cli.main.self_s": own["cli.main"],
        })
        return m
