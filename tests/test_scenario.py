import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from cfmimo import ScenarioConfig, build_topology, validate_config
from cfmimo.scenario import (
    ConfigError,
    _grid_dims,
    config_from_dict,
    load_config,
    rng_stream,
    save_config,
)


def test_grid_placement_100_orus():
    cfg = ScenarioConfig()
    topo = build_topology(cfg, 0)
    assert topo.placement == "grid"
    assert _grid_dims(100) == (10, 10)
    # centered-grid convention: corner O-RU at (10, 10), 20 m spacing
    corner = topo.oru_positions[0]
    assert corner[0] == pytest.approx(10.0)
    assert corner[1] == pytest.approx(10.0)
    assert corner[2] == pytest.approx(10.0)
    off_diag = topo.oru_pairwise[topo.oru_pairwise > 0]
    assert off_diag.min() == pytest.approx(200.0 / np.sqrt(100))


def test_ue_positions_deterministic():
    cfg = ScenarioConfig(num_oru=16, num_ue=8, num_edu=2, pilot_count=8)
    t1 = build_topology(cfg, 5)
    t2 = build_topology(cfg, 5)
    assert np.array_equal(t1.ue_positions, t2.ue_positions)
    t3 = build_topology(cfg, 6)
    assert not np.array_equal(t1.ue_positions, t3.ue_positions)


def test_three_d_distance_includes_height():
    cfg = ScenarioConfig(num_oru=1, num_ue=1, num_edu=1, pilot_count=1)
    topo = build_topology(cfg, 0)
    # place the UE directly under the O-RU
    topo.ue_positions[0, :2] = topo.oru_positions[0, :2]
    diff = topo.ue_positions[0] - topo.oru_positions[0]
    assert np.linalg.norm(diff) == pytest.approx(cfg.antenna_height_m)
    # and what build_topology itself produces can never be closer than that
    assert topo.distance_matrix.min() >= cfg.antenna_height_m


def test_prime_oru_count_falls_back_to_random():
    cfg = ScenarioConfig(num_oru=7, num_ue=4, num_edu=2, pilot_count=4)
    topo = build_topology(cfg, 0)
    assert topo.placement == "random"
    assert _grid_dims(cfg.num_oru) is None
    # infrastructure placement is drop-independent
    topo2 = build_topology(cfg, 3)
    assert np.array_equal(topo.oru_positions, topo2.oru_positions)


def test_validate_defaults_ok():
    assert validate_config(ScenarioConfig()) == []


def test_validate_pilot_shortage():
    errors = validate_config(ScenarioConfig(num_ue=25, pilot_count=24))
    assert any("pilot shortage" in e for e in errors)


def test_validate_zero_edus():
    errors = validate_config(ScenarioConfig(num_edu=0))
    assert errors


@pytest.mark.parametrize("T, ok", [(0, False), (1, False), (2, True)])
def test_validate_needs_two_realizations(T, ok):
    # the link moments are sample means and variances over the realizations
    errors = validate_config(ScenarioConfig(mc_realizations=T))
    assert (errors == []) == ok
    assert ok or errors == ["mc_realizations must be >= 2"]


def test_validate_rejects_repeated_schemes():
    errors = validate_config(
        ScenarioConfig(schemes=("joint-mmse", "edu-mmse", "joint-mmse"))
    )
    assert len(errors) == 1
    assert "repeated" in errors[0] and "joint-mmse" in errors[0]


def test_validate_reports_every_violation():
    errors = validate_config(
        ScenarioConfig(num_edu=0, ul_power_mw=-1.0, mc_drops=0)
    )
    assert len(errors) >= 3


_FLOAT_FIELDS = [
    f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "float"
]


@pytest.mark.parametrize(
    "name, value",
    [
        ("num_ue", True),
        ("num_edu", 4.0),
        ("mc_drops", np.float64(2.0)),
        ("master_seed", "1"),
        ("pilot_count", None),
        ("ul_power_mw", True),
        ("pathloss_exponent", "3"),
        ("pathloss_model", 1),
        ("schemes", "joint-mmse"),
        ("schemes", ("joint-mmse", 1)),
        ("quantizer_bits", True),
        ("quantizer_bits", "four"),
        ("quantizer_bits", 4.0),
    ],
)
def test_validate_rejects_mistyped_fields(name, value):
    errors = validate_config(ScenarioConfig(**{name: value}))
    assert [e for e in errors if e.startswith(f"{name} must be ")]


@pytest.mark.parametrize(
    "name, value",
    [
        ("num_ue", np.int64(4)),
        ("master_seed", np.int32(7)),
        ("ul_power_mw", 200),
        ("ul_power_mw", np.float32(2.0)),
        ("bandwidth_hz", np.int64(10**7)),
        ("schemes", ["joint-mmse", "edu-mmse"]),
        ("quantizer_bits", 4),
        ("quantizer_bits", np.int64(4)),
    ],
)
def test_validate_accepts_numpy_scalars_and_lists(name, value):
    assert validate_config(ScenarioConfig(**{name: value})) == []


def test_validate_rejects_negative_master_seed():
    assert "master_seed must be >= 0" in validate_config(ScenarioConfig(master_seed=-1))


def test_numpy_scalar_fields_echo_as_json_numbers():
    cfg = ScenarioConfig(num_ue=np.int64(4), master_seed=np.int32(7), ul_power_mw=np.float32(2.0))
    plain = ScenarioConfig(num_ue=4, master_seed=7, ul_power_mw=2.0)
    assert json.dumps(cfg.to_dict()) == json.dumps(plain.to_dict())


def test_float_fields_found():
    assert len(_FLOAT_FIELDS) == 12
    assert "ul_power_mw" in _FLOAT_FIELDS and "asd_azimuth_deg" in _FLOAT_FIELDS


@pytest.mark.parametrize("name", _FLOAT_FIELDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_validate_rejects_non_finite_floats(name, value):
    errors = validate_config(ScenarioConfig(**{name: value}))
    assert errors
    if not name.startswith("asd_"):  # the spread check reports those
        assert f"{name} must be finite, got {value}" in errors


@pytest.mark.parametrize(
    "N, az, el, ok",
    [
        (16, 40.0, 40.0, False),
        (8, 20.0, 15.0, False),
        (4, 40.0, 15.0, False),
        (4, 15.0, 31.0, False),
        (2, 41.0, 0.0, False),
        (4, float("nan"), 15.0, False),
        (4, 30.0, 30.0, True),
        (7, 15.0, 15.0, True),
        (2, 40.0, 40.0, True),
        (1, 40.0, 40.0, True),
        (64, 0.0, 0.0, True),
    ],
)
def test_validate_angular_spread_within_quadrature(N, az, el, ok):
    cfg = ScenarioConfig(antennas_per_oru=N, asd_azimuth_deg=az, asd_elevation_deg=el)
    errors = validate_config(cfg)
    if ok:
        assert errors == []
    else:
        assert len(errors) == 1
        assert "(antennas_per_oru - 1) * max(asd) <= 90 deg" in errors[0]
        assert "max(asd) <= 40 deg" in errors[0]


@pytest.mark.parametrize("az, el, ok", [(-50.0, 15.0, False), (15.0, -50.0, False), (-15.0, 15.0, True)])
def test_validate_compares_spread_magnitudes(az, el, ok):
    # the correlation depends on a spread through its magnitude only
    errors = validate_config(ScenarioConfig(asd_azimuth_deg=az, asd_elevation_deg=el))
    assert (errors == []) == ok


def test_benchmark_configs_within_quadrature():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        assert validate_config(config_from_dict(workloads.config(name, 1))) == []


def test_rng_streams_independent():
    a = rng_stream(1, 0, "ue-positions").standard_normal(4)
    b = rng_stream(1, 0, "shadowing").standard_normal(4)
    assert not np.allclose(a, b)
    again = rng_stream(1, 0, "ue-positions").standard_normal(4)
    assert np.array_equal(a, again)


def test_config_roundtrip(tmp_path):
    cfg = ScenarioConfig(num_oru=16, num_ue=8, num_edu=2, pilot_count=8)
    path = tmp_path / "cfg.json"
    save_config(cfg, str(path))
    loaded = load_config(str(path))
    assert loaded == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        config_from_dict({"num_oru": 4, "bogus": 1})


def test_config_rejects_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"num_edu": 0}))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_partition_override():
    cfg = ScenarioConfig(num_oru=4, num_ue=2, num_edu=2, pilot_count=2)
    topo = build_topology(cfg, 0)
    new = topo.with_partition([1, 0, 1, 0])
    assert np.array_equal(new.edu_partition, [1, 0, 1, 0])
    with pytest.raises(ValueError):
        topo.with_partition([0, 1])
