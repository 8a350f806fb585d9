import itertools
import json
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo import ScenarioConfig
from cfmimo.association import QlConfig
from cfmimo.harness import (
    LINKS,
    SCHEMES,
    DropOptions,
    DropResult,
    resolve_partition,
    run_campaign,
    run_drop,
    summarize,
    write_csv,
    write_json,
    write_partition,
)
from cfmimo.channel import build_statistics, sample_drop_channels
from cfmimo.power import uplink_power
from cfmimo.scenario import build_topology, config_from_dict, rng_stream
from cfmimo.transceiver import Association, downlink_sinr, uplink_sinr

from conftest import edu_consistent, nan_uplink_reports


def _read_raw(path):
    lines = open(path).read().splitlines()
    header = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return header, body[0], body[1:]


def test_run_drop_special_case_identity(desk_config):
    cfg = ScenarioConfig(**{**desk_config.to_dict(), "num_edu": 1})
    cfg.schemes = ("joint-mmse", "edu-mmse")
    res = run_drop(cfg, 0, genome=np.zeros(cfg.num_oru, dtype=int))
    for link in ("ul", "dl"):
        a = res.reports["joint-mmse"][link].se
        b = res.reports["edu-mmse"][link].se
        np.testing.assert_array_equal(a, b)


def test_run_drop_deterministic(desk_config):
    genome = resolve_partition(desk_config, "clustered")[0]
    r1 = run_drop(desk_config, 1, genome)
    r2 = run_drop(desk_config, 1, genome)
    for scheme in desk_config.schemes:
        for link in ("ul", "dl"):
            np.testing.assert_array_equal(
                r1.reports[scheme][link].se, r2.reports[scheme][link].se
            )


def test_run_drop_ql_association_mode(tiny_config):
    cfg = ScenarioConfig(**{**tiny_config.to_dict()})
    cfg.schemes = ("edu-pmmse", "edu-mmse")
    genome = resolve_partition(cfg, "clustered")[0]
    res = run_drop(
        cfg, 0, genome, options=DropOptions(association_mode="ql", links=("ul",))
    )
    assert "ql_best_r_sum" in res.metadata
    # the DCC association respects EDU granularity and the fronthaul cap
    assert edu_consistent(res.association_delta, genome)


def test_run_drop_skips_ql_when_no_scheme_uses_dcc(desk_config, monkeypatch):
    import cfmimo.harness as hz

    calls = []
    real = hz.ql_association
    monkeypatch.setattr(
        hz, "ql_association", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    assert desk_config.schemes == ("joint-mmse", "edu-mmse")
    genome = resolve_partition(desk_config, "clustered")[0]
    ql = run_drop(desk_config, 0, genome, DropOptions(association_mode="ql"))
    assert calls == []
    ref = run_drop(desk_config, 0, genome, DropOptions(association_mode="all"))
    np.testing.assert_array_equal(ql.association_delta, ref.association_delta)
    assert ql.metadata == ref.metadata
    for scheme in desk_config.schemes:
        for link in ("ul", "dl"):
            a, b = ql.reports[scheme][link], ref.reports[scheme][link]
            for name in ("signal", "interference", "noise", "gamma", "se"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize(
    "mode, genome, match",
    [
        ("all", [0, 1, 2, 3], "every EDU"),
        ("ql", [0, 1, 2, 3], "every EDU"),
        # cast to [0, 1, 0, 1], it would run as that genome
        pytest.param("all", [0.7, 1.7, 0.7, 1.7], "integers", id="all-fractional"),
    ],
    ids=["all", "ql", None],
)
def test_run_drop_rejects_genome_beyond_num_edu(tiny_config, mode, genome, match):
    # four labels for num_edu=2 would run edu-mmse as four EDUs
    with pytest.raises(RuntimeError, match=match):
        run_drop(tiny_config, 0, genome, DropOptions(association_mode=mode))


def test_run_drop_rejects_genome_of_wrong_length(tiny_config):
    # [0, 1, 0] is balanced over two EDUs but names three of the four O-RUs
    with pytest.raises(RuntimeError, match="drop 0 failed: partition genome length"):
        run_drop(tiny_config, 0, [0, 1, 0])


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"links": ()}, "links"),
        ({"links": ("xx",)}, "links"),
        ({"links": ("ul", "ul")}, "links"),
        ({"phase_drift_deg": -30.0}, "phase_drift_deg"),
        ({"phase_drift_deg": float("nan")}, "phase_drift_deg"),
        ({"association_mode": "bogus"}, "unknown association mode 'bogus'"),
        ({"association_mode": "file"}, "association_delta"),
        ({"association_delta": np.ones((8, 4), dtype=bool)}, "association_delta"),
        ({"links": ("ul",), "phase_drift_deg": 10.0}, "phase_drift_deg .* dl"),
        # Association.from_edu would count both entries as served
        (
            {"association_mode": "file", "association_delta": np.array([[0.5, 2.0]])},
            "association_delta entries must be 0 or 1",
        ),
    ],
)
def test_drop_options_reject_a_bad_field_when_made(fields, match):
    # unchecked, each would run: with no report, with drift 0 (or an uplink-only
    # drift, which rotates nothing), or failing every drop
    with pytest.raises(ValueError, match=match):
        DropOptions(**fields)


def test_ql_config_with_another_fronthaul_cap_fails_the_drop(tiny_config):
    # the drop learned under the QlConfig cap while summary.json echoes the
    # config's; the two must agree
    cfg = ScenarioConfig(**{**tiny_config.to_dict(), "schemes": ("edu-pmmse",)})
    genome = resolve_partition(cfg, "clustered")[0]
    opts = DropOptions(
        links=("ul",), association_mode="ql",
        ql_config=QlConfig(episodes=5, fronthaul_ue_cap=1),
    )
    with pytest.raises(RuntimeError, match="fronthaul_ue_cap 1 .* fronthaul_ue_cap 2"):
        run_drop(cfg, 0, genome, opts)
    campaign = run_campaign(cfg, deployment_mode="clustered", options=opts)
    assert campaign.drops == []
    assert [i for i, _ in campaign.failures] == [0]
    same = DropOptions(
        links=("ul",), association_mode="ql",
        ql_config=QlConfig(episodes=5, fronthaul_ue_cap=2),
    )
    assert "ql_best_r_sum" in run_drop(cfg, 0, genome, same).metadata


def test_drop_options_are_frozen_and_hold_links_as_a_tuple():
    opts = DropOptions(links=["dl"])
    assert opts.links == ("dl",)
    with pytest.raises(AttributeError):
        opts.phase_drift_deg = -1.0


def test_raw_csv_row_counts(tmp_path):
    cfg = ScenarioConfig(
        num_oru=16,
        antennas_per_oru=2,
        num_ue=8,
        num_edu=4,
        pilot_count=8,
        fronthaul_ue_cap=8,
        mc_drops=2,
        mc_realizations=10,
        master_seed=6,
        schemes=("edu-mmse",),
    )
    campaign = run_campaign(
        cfg,
        out_dir=str(tmp_path),
        deployment_mode="clustered",
        options=DropOptions(links=("ul",)),
    )
    header, cols, rows = _read_raw(tmp_path / "raw_samples.csv")
    assert cols.split(",") == ["drop", "scheme", "ue", "link", "sinr_db", "se_bpshz"]
    ue_rows = [r for r in rows if ",sum," not in r]
    sum_rows = [r for r in rows if ",sum," in r]
    assert len(ue_rows) == 16  # 2 drops x 8 UEs x 1 scheme x 1 link
    assert len(sum_rows) == 2
    assert any("config:" in h for h in header)


def _summary_of(sums):
    """The summary entry of one scheme's uplink whose drops had sum SEs ``sums``."""
    drops = [
        DropResult(i, {"joint-mmse": {"ul": SimpleNamespace(sum_se=float(x))}}, None)
        for i, x in enumerate(sums)
    ]
    summary = summarize(ScenarioConfig(schemes=("joint-mmse",)), drops, [])
    return summary["schemes"]["joint-mmse"]["ul"]


def test_cdf_constant_samples_step_function():
    grid = _summary_of(np.full(5, 3.0))["cdf"]
    assert grid["x"] == [3.0] * 5
    assert grid["p"][-1] == 1.0
    assert all(a <= b for a, b in zip(grid["p"], grid["p"][1:]))


def test_summary_ratio_field(tmp_path):
    cfg = ScenarioConfig(
        num_oru=16,
        antennas_per_oru=2,
        num_ue=8,
        num_edu=4,
        pilot_count=8,
        fronthaul_ue_cap=8,
        mc_drops=2,
        mc_realizations=10,
        master_seed=6,
        schemes=("joint-mmse", "edu-mmse"),
    )
    campaign = run_campaign(
        cfg, out_dir=str(tmp_path), deployment_mode="clustered",
        options=DropOptions(links=("ul",)),
    )
    s = json.load(open(tmp_path / "summary.json"))
    ratio = s["schemes"]["edu-mmse"]["ul"]["ratio_to_joint_mmse_median"]
    assert 0 < ratio <= 1.0
    assert s["schemes"]["joint-mmse"]["ul"]["ratio_to_joint_mmse_median"] == 1.0
    cdf = s["schemes"]["edu-mmse"]["ul"]["cdf"]
    assert all(a <= b for a, b in zip(cdf["p"], cdf["p"][1:]))


def test_parallel_matches_serial(desk_config):
    cfg = ScenarioConfig(**{**desk_config.to_dict(), "mc_drops": 3})
    cfg.schemes = ("edu-mmse",)
    opts = DropOptions(links=("ul",))
    serial = run_campaign(cfg, deployment_mode="clustered", options=opts, workers=1)
    parallel = run_campaign(cfg, deployment_mode="clustered", options=opts, workers=2)
    a = [d.reports["edu-mmse"]["ul"].sum_se for d in serial.drops]
    b = [d.reports["edu-mmse"]["ul"].sum_se for d in parallel.drops]
    assert len(a) == 3
    np.testing.assert_array_equal(a, b)


@settings(max_examples=4, deadline=None)
@given(
    shape=st.sampled_from([(4, 2), (6, 3), (9, 3), (8, 4)]),
    num_ue=st.integers(1, 4),
    antennas=st.integers(1, 3),
    drops=st.integers(2, 3),
    seed=st.integers(0, 2**16),
    schemes=st.lists(st.sampled_from(sorted(SCHEMES)), min_size=1, max_size=3, unique=True),
    mode=st.sampled_from(["all", "ql"]),
)
def test_parallel_matches_serial_on_random_configs(
    shape, num_ue, antennas, drops, seed, schemes, mode
):
    num_oru, num_edu = shape
    cfg = ScenarioConfig(
        area_side_m=100.0,
        num_oru=num_oru,
        antennas_per_oru=antennas,
        num_ue=num_ue,
        num_edu=num_edu,
        pilot_count=num_ue,
        fronthaul_ue_cap=max(1, num_ue // 2),
        mc_drops=drops,
        mc_realizations=4,
        master_seed=seed,
        schemes=tuple(schemes),
    )
    opts = DropOptions(
        association_mode=mode,
        ql_config=QlConfig(episodes=5, fronthaul_ue_cap=cfg.fronthaul_ue_cap),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # zero-norm precoders
        serial = run_campaign(cfg, deployment_mode="clustered", options=opts, workers=1)
        parallel = run_campaign(cfg, deployment_mode="clustered", options=opts, workers=2)
    assert parallel.failures == serial.failures
    assert parallel.summary == serial.summary
    for a, b in zip(serial.drops, parallel.drops):
        np.testing.assert_array_equal(a.association_delta, b.association_delta)
        for scheme in cfg.schemes:
            for link in LINKS:
                np.testing.assert_array_equal(
                    a.reports[scheme][link].gamma, b.reports[scheme][link].gamma
                )


def test_parallel_matches_serial_when_drops_fail(desk_config):
    # a (K, M + 1) association fails every drop on both paths
    cfg = ScenarioConfig(**{**desk_config.to_dict(), "mc_drops": 3})
    cfg.schemes = ("edu-mmse",)
    delta = np.ones((cfg.num_ue, cfg.num_edu + 1), dtype=bool)
    opts = DropOptions(
        links=("ul",), association_mode="file", association_delta=delta
    )
    serial = run_campaign(cfg, deployment_mode="clustered", options=opts, workers=1)
    parallel = run_campaign(cfg, deployment_mode="clustered", options=opts, workers=2)
    assert [i for i, _ in serial.failures] == [0, 1, 2]
    assert parallel.failures == serial.failures
    assert parallel.summary["drops_completed"] == serial.summary["drops_completed"] == 0
    assert parallel.summary == serial.summary


def test_campaign_records_failures_and_continues(desk_config, monkeypatch):
    import cfmimo.harness as hz

    real = hz.run_drop

    def flaky(config, drop_index, genome=None, options=None):
        if drop_index == 1:
            raise RuntimeError("injected")
        return real(config, drop_index, genome, options)

    monkeypatch.setattr(hz, "run_drop", flaky)
    cfg = ScenarioConfig(**{**desk_config.to_dict(), "mc_drops": 3})
    cfg.schemes = ("edu-mmse",)
    campaign = hz.run_campaign(
        cfg, deployment_mode="clustered", options=DropOptions(links=("ul",))
    )
    assert len(campaign.drops) == 2
    assert len(campaign.failures) == 1
    assert campaign.failures[0][0] == 1
    assert campaign.summary["failures"][0]["drop"] == 1


def test_non_finite_report_fails_the_drop_naming_scheme_and_link(
    desk_config, monkeypatch
):
    nan_uplink_reports(monkeypatch, "edu-mmse")
    genome = resolve_partition(desk_config, "clustered")[0]
    with pytest.raises(RuntimeError) as exc:
        run_drop(desk_config, 0, genome, DropOptions(links=("ul",)))
    message = str(exc.value)
    assert "edu-mmse" in message and "ul" in message and "joint-mmse" not in message


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_json_rejects_non_finite_values(tmp_path, value):
    with pytest.raises(ValueError):
        write_json(str(tmp_path / "out.json"), {"se": [1.0, value]})


def test_a_write_that_raises_leaves_the_file_as_it_was(tmp_path, desk_config, monkeypatch):
    path = tmp_path / "summary.json"
    write_json(str(path), {"se": [1.0, 2.0]})
    before = path.read_bytes()

    def dump_partway(obj, fh, **kwargs):
        fh.write('{"se": [3.0')
        raise ValueError("encoder failed partway")

    monkeypatch.setattr(json, "dump", dump_partway)
    with pytest.raises(ValueError, match="partway"):
        write_json(str(path), {"se": [3.0]})
    with pytest.raises(ValueError, match="partway"):
        write_json(str(tmp_path / "new.json"), {"se": [3.0]})
    monkeypatch.undo()

    csv_path = tmp_path / "raw.csv"
    write_csv(str(csv_path), desk_config, ["a", "b"], [[1, 2]])
    csv_before = csv_path.read_bytes()

    def rows():
        yield [3, 4]
        raise RuntimeError("row source failed partway")

    with pytest.raises(RuntimeError, match="partway"):
        write_csv(str(csv_path), desk_config, ["a", "b"], rows())
    assert path.read_bytes() == before
    assert csv_path.read_bytes() == csv_before
    # no temporary file is left, and no file where there was none
    assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.csv", "summary.json"]


@pytest.mark.parametrize(
    "drops, workers, started", [(2, 64, [2]), (1, 8, []), (3, 2, [2])]
)
def test_campaign_starts_no_more_workers_than_drops(
    desk_config, monkeypatch, drops, workers, started
):
    import concurrent.futures

    import cfmimo.harness as hz

    created = []

    class RecordingPool:
        """Records ``max_workers`` and maps in this process: starts nothing."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    # run_campaign imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = ScenarioConfig(**{**desk_config.to_dict(), "mc_drops": drops})
    cfg.schemes = ("edu-mmse",)
    campaign = hz.run_campaign(
        cfg,
        deployment_mode="clustered",
        options=DropOptions(links=("ul",)),
        workers=workers,
    )
    assert created == started
    assert campaign.summary["drops_completed"] == drops


def test_partition_file_roundtrip(tmp_path, desk_config):
    genome, _ = resolve_partition(desk_config, "clustered")
    cfg = ScenarioConfig(**{**desk_config.to_dict(), "mc_drops": 1})
    cfg.schemes = ("edu-mmse",)
    campaign = run_campaign(
        cfg, out_dir=str(tmp_path), deployment_mode="clustered",
        options=DropOptions(links=("ul",)),
    )
    loaded, meta = resolve_partition(
        cfg, "file", genome_file=str(tmp_path / "partition.csv")
    )
    np.testing.assert_array_equal(loaded, campaign.genome)
    loaded_json, _ = resolve_partition(
        cfg, "file", genome_file=str(tmp_path / "partition.json")
    )
    np.testing.assert_array_equal(loaded_json, campaign.genome)


def test_output_reconstructs_run(tmp_path):
    # the echoed config alone must reproduce the raw CSV byte for byte
    cfg = ScenarioConfig(
        num_oru=16,
        antennas_per_oru=2,
        num_ue=8,
        num_edu=4,
        pilot_count=8,
        fronthaul_ue_cap=8,
        mc_drops=2,
        mc_realizations=10,
        master_seed=11,
        schemes=("edu-mmse",),
    )
    run_campaign(
        cfg, out_dir=str(tmp_path / "a"), deployment_mode="clustered",
        options=DropOptions(links=("ul",)),
    )
    header, _, _ = _read_raw(tmp_path / "a" / "raw_samples.csv")
    echo = json.loads(next(h for h in header if "config:" in h).split("config: ")[1])
    cfg2 = config_from_dict(echo)
    run_campaign(
        cfg2, out_dir=str(tmp_path / "b"), deployment_mode="clustered",
        options=DropOptions(links=("ul",)),
    )
    assert (tmp_path / "a" / "raw_samples.csv").read_bytes() == (
        tmp_path / "b" / "raw_samples.csv"
    ).read_bytes()


def test_ga_deployment_beats_clustered_fitness(desk_config):
    from cfmimo.deployment import fitness
    from cfmimo.scenario import build_topology

    topo = build_topology(desk_config, 0)
    ga_genome, meta = resolve_partition(desk_config, "ga")
    cl_genome, _ = resolve_partition(desk_config, "clustered")
    f_ga = fitness(ga_genome, topo.oru_pairwise, desk_config.num_edu)
    f_cl = fitness(cl_genome, topo.oru_pairwise, desk_config.num_edu)
    assert f_ga >= f_cl


def test_clustered_campaign_clusters_once(desk_config, monkeypatch):
    import cfmimo.deployment as dp
    import cfmimo.harness as hz

    calls = []
    real = dp.clustered_baseline

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dp, "clustered_baseline", counting)
    monkeypatch.setattr(hz, "clustered_baseline", counting)
    cfg = ScenarioConfig(**{**desk_config.to_dict(), "mc_drops": 3})
    cfg.schemes = ("edu-mmse",)
    campaign = run_campaign(
        cfg, deployment_mode="clustered", options=DropOptions(links=("ul",))
    )
    assert len(campaign.drops) == 3
    assert len(calls) == 1


def _csv(rows):
    return "oru_index,edu_index\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "name, text, match",
    [
        # the one-row file, a repeated O-RU, an O-RU and an EDU out of range
        ("p.csv", _csv(["0,7"]), "every O-RU"),
        ("p.csv", _csv([f"{i},{i % 4}" for i in range(16)] + ["3,1"]), "every O-RU"),
        ("p.csv", _csv([f"{i},{i % 4}" for i in range(15)] + ["16,3"]), "every O-RU"),
        ("p.csv", _csv([f"{i},{i % 4}" for i in range(15)] + ["15,4"]), "every EDU"),
        # EDU sizes 12 and 4 out of 4 EDUs; a JSON map missing O-RU 15
        ("p.csv", _csv([f"{i},{int(i < 4)}" for i in range(16)]), "every EDU"),
        ("p.json", json.dumps({str(i): i % 4 for i in range(15)}), "every O-RU"),
    ],
)
def test_partition_file_is_validated(tmp_path, desk_config, name, text, match):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        resolve_partition(desk_config, "file", genome_file=str(path))


@settings(max_examples=25, deadline=None)
@given(
    num_edu=st.integers(1, 6),
    num_oru=st.integers(6, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_partition_files_round_trip(tmp_path_factory, num_edu, num_oru, seed):
    from cfmimo.deployment import random_balanced_genome

    cfg = ScenarioConfig(num_oru=num_oru, num_edu=num_edu, num_ue=2, pilot_count=2)
    genome = random_balanced_genome(num_oru, num_edu, np.random.default_rng(seed))
    paths = write_partition(str(tmp_path_factory.mktemp("p")), cfg, genome)
    for path in paths.values():
        loaded, meta = resolve_partition(cfg, "file", genome_file=path)
        np.testing.assert_array_equal(loaded, genome)
        assert meta == {"deployment": "file", "path": path}


def test_plain_links_share_one_moment_pass_per_scheme(desk_config, monkeypatch):
    # each realization's combiners are built once per scheme; a pass per
    # link, or a repeated pass, would build them twice
    import cfmimo.transceiver as tr

    built = []
    combiners = tr.CombinerWorkspace.combiners

    def counted_combiners(self, hhat):
        built.append(hhat.shape[0])
        return combiners(self, hhat)

    monkeypatch.setattr(tr.CombinerWorkspace, "combiners", counted_combiners)
    genome = resolve_partition(desk_config, "clustered")[0]
    run_drop(desk_config, 0, genome)
    assert sum(built) == len(desk_config.schemes) * desk_config.mc_realizations


@pytest.mark.parametrize("drift", [0.0, 10.0])
@pytest.mark.parametrize("bits", ["infinite", 3])
def test_run_drop_reports_equal_standalone_sinr_calls(
    desk_config, drift, bits, monkeypatch
):
    # run_drop streams its 20 realizations in one block, and under a 12 KiB
    # budget in blocks of 3 (unquantized) or 1 (quantized); the standalone
    # calls draw and reduce the whole batch
    import cfmimo.channel as ch

    cfg = ScenarioConfig(
        **{**desk_config.to_dict(), "quantizer_bits": bits,
           "schemes": ("joint-mmse", "joint-mrc", "l-mmse", "edu-mmse")}
    )
    genome = resolve_partition(cfg, "clustered")[0]
    runs = [run_drop(cfg, 1, genome, DropOptions(phase_drift_deg=drift))]
    with monkeypatch.context() as m:
        m.setattr(ch, "_BLOCK_BYTES", 12288)
        runs.append(run_drop(cfg, 1, genome, DropOptions(phase_drift_deg=drift)))
    stats = build_statistics(cfg, build_topology(cfg, 1), 1)
    h, hhat = sample_drop_channels(stats, cfg.mc_realizations, cfg, 1)
    p = uplink_power(cfg.num_ue, cfg.ul_power_mw)
    assoc = Association.all_serve(cfg.num_ue, cfg.num_oru)
    for scheme in cfg.schemes:
        ul = uplink_sinr(
            scheme, h, hhat, stats.C, assoc, genome, p, stats.noise_mw,
            quantizer_bits=bits,
        )
        dl = downlink_sinr(
            scheme, h, hhat, stats.C, assoc, genome, stats.beta, p, stats.noise_mw,
            stats.noise_mw, cfg.dl_pmax_mw, phase_drift_deg=drift,
            drift_rng=rng_stream(cfg.master_seed, 1, "phase-drift"),
        ).report
        for (link, ref), res in itertools.product((("ul", ul), ("dl", dl)), runs):
            got = res.reports[scheme][link]
            for name in ("signal", "interference", "noise", "gamma", "se", "uncertainty"):
                np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


def test_quantized_drifted_drop_makes_one_moment_pass_per_scheme(desk_config, monkeypatch):
    # the quantized uplink and the drifted downlink take their moment sets
    # from the pass that builds the scheme's combiners once
    import cfmimo.transceiver as tr

    built = []
    combiners = tr.CombinerWorkspace.combiners

    def counted_combiners(self, hhat):
        built.append(hhat.shape[0])
        return combiners(self, hhat)

    monkeypatch.setattr(tr.CombinerWorkspace, "combiners", counted_combiners)
    cfg = ScenarioConfig(**{**desk_config.to_dict(), "quantizer_bits": 3})
    genome = resolve_partition(cfg, "clustered")[0]
    run_drop(cfg, 0, genome, DropOptions(phase_drift_deg=10.0))
    assert sum(built) == len(cfg.schemes) * cfg.mc_realizations


@pytest.mark.parametrize("bits, drift", [("infinite", 0.0), (3, 10.0)])
def test_a_drop_holds_one_realization_block(desk_config, bits, drift):
    # At its peak a drop holds its statistics, one realization block's
    # channels, estimates, combiners and products, and per-realization moment
    # terms far smaller than h, the channels of the whole batch. Holding h,
    # hhat or a whole-batch combiner array would each add h.nbytes.
    cfg = ScenarioConfig(
        **{**desk_config.to_dict(), "antennas_per_oru": 4, "mc_realizations": 2000,
           "quantizer_bits": bits, "schemes": ("joint-mmse", "l-mmse")}
    )
    genome = resolve_partition(cfg, "clustered")[0]
    stats = build_statistics(cfg, build_topology(cfg, 0), 0)
    stats_bytes = sum(a.nbytes for a in vars(stats).values() if isinstance(a, np.ndarray))
    h_bytes = 16 * cfg.mc_realizations * cfg.num_ue * cfg.num_oru * cfg.antennas_per_oru
    tracemalloc.start()
    try:
        run_drop(cfg, 0, genome, DropOptions(phase_drift_deg=drift))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stats_bytes + h_bytes / 4


@pytest.mark.parametrize("n", [1, 2, 3, 8, 41, 200])
def test_median_equals_numpy_median(n):
    rng = np.random.default_rng(n)
    for xs in (rng.lognormal(3.0, 0.5, n), rng.integers(0, 3, n) * 0.1):
        assert _summary_of(xs)["median_sum_se"] == float(np.median(xs))
    median = _summary_of([0.2, 0.1])["median_sum_se"]
    assert median == np.median([0.1, 0.2]) == 0.15000000000000002


def test_summary_order_statistics_equal_numpy():
    # median, p5 and p95 of one sorted array, bit for bit np.median's and
    # np.percentile's, for odd and even counts, distinct values and ties
    rng = np.random.default_rng(23)
    for n in range(1, 61):
        for xs in (rng.lognormal(3.0, 0.5, n), rng.integers(0, 4, n) * 0.1 + 1.7):
            got = _summary_of(xs)
            assert got["median_sum_se"] == float(np.median(xs))
            assert got["p5_sum_se"] == float(np.percentile(xs, 5))
            assert got["p95_sum_se"] == float(np.percentile(xs, 95))
            assert got["cdf"]["x"] == np.sort(xs).tolist()
            assert got["sum_se_per_drop"] == xs.tolist()


def test_import_loads_no_process_pool_or_masked_arrays():
    # a serial run needs neither; the pool is imported when workers > 1
    code = (
        "import sys, cfmimo\n"
        "print(sorted({'multiprocessing', 'numpy.ma'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
