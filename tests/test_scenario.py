import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from cfmimo import ScenarioConfig, build_topology
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
    ScenarioConfig()  # a default that broke a check would raise ConfigError here


def test_validate_pilot_shortage():
    with pytest.raises(ConfigError, match="pilot shortage: num_ue=25 exceeds pilot_count=24"):
        ScenarioConfig(num_ue=25, pilot_count=24)


def test_validate_zero_edus():
    with pytest.raises(ConfigError, match="num_edu must be >= 1"):
        ScenarioConfig(num_edu=0)


@pytest.mark.parametrize("T, ok", [(0, False), (1, False), (2, True)])
def test_validate_needs_two_realizations(T, ok):
    # the link moments are sample means and variances over the realizations
    if ok:
        ScenarioConfig(mc_realizations=T)
        return
    with pytest.raises(ConfigError, match=r"^mc_realizations must be >= 2$"):
        ScenarioConfig(mc_realizations=T)


def test_validate_rejects_repeated_schemes():
    expected = "repeated scheme tags in ['joint-mmse', 'edu-mmse', 'joint-mmse']; name each once"
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        ScenarioConfig(schemes=("joint-mmse", "edu-mmse", "joint-mmse"))


def test_validate_reports_every_violation():
    # every message, joined in the order the checks run
    expected = "num_edu must be >= 1; ul_power_mw must be > 0; mc_drops must be >= 1"
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        ScenarioConfig(num_edu=0, ul_power_mw=-1.0, mc_drops=0)


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
    # a mistyped field is reported alone, without the range checks
    with pytest.raises(ConfigError, match=rf"^{name} must be [^;]*, got {re.escape(repr(value))}$"):
        ScenarioConfig(**{name: value})


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
    ScenarioConfig(**{name: value})


def test_validate_rejects_negative_master_seed():
    with pytest.raises(ConfigError, match="master_seed must be >= 0"):
        ScenarioConfig(master_seed=-1)


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
    if name.startswith("asd_"):  # the spread check reports those
        message = "angular spread"
    else:
        message = re.escape(f"{name} must be finite, got {value}")
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(**{name: value})


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
    fields = dict(antennas_per_oru=N, asd_azimuth_deg=az, asd_elevation_deg=el)
    if ok:
        ScenarioConfig(**fields)
        return
    # one message, naming both limits
    expected = (
        r"^angular spread [^;]* deg with antennas_per_oru=\d+ is not resolved by the "
        r"correlation quadrature: it needs max\(asd\) <= 40 deg and "
        r"\(antennas_per_oru - 1\) \* max\(asd\) <= 90 deg$"
    )
    with pytest.raises(ConfigError, match=expected):
        ScenarioConfig(**fields)


@pytest.mark.parametrize("az, el, ok", [(-50.0, 15.0, False), (15.0, -50.0, False), (-15.0, 15.0, True)])
def test_validate_compares_spread_magnitudes(az, el, ok):
    # the correlation depends on a spread through its magnitude only
    if ok:
        ScenarioConfig(asd_azimuth_deg=az, asd_elevation_deg=el)
        return
    with pytest.raises(ConfigError, match="angular spread 50 deg"):
        ScenarioConfig(asd_azimuth_deg=az, asd_elevation_deg=el)


# One value of each field that the checks reject, with a message naming it.
_BAD_FIELDS = {
    "area_side_m": 0.0,
    "num_oru": 0,
    "antennas_per_oru": 0,
    "num_ue": 0,
    "num_edu": 0,
    "carrier_hz": -1.0,
    "bandwidth_hz": 0.0,
    "noise_psd_dbm_hz": float("nan"),
    "ul_power_mw": 0.0,
    "dl_pmax_mw": -200.0,
    "pathloss_model": "free-space",
    "pathloss_exponent": float("inf"),
    "pathloss_intercept_db": "-30.5",
    "shadow_sigma_db": -4.0,
    "asd_azimuth_deg": "15",
    "asd_elevation_deg": None,
    "antenna_height_m": 0.0,
    "pilot_count": 23,
    "quantizer_bits": 0,
    "fronthaul_ue_cap": -1,
    "mc_drops": 0,
    "mc_realizations": 1,
    "master_seed": -1,
    "schemes": (),
}


def test_every_field_has_a_rejected_value():
    assert list(_BAD_FIELDS) == [f.name for f in dataclasses.fields(ScenarioConfig)]


@pytest.mark.parametrize("name, value", _BAD_FIELDS.items(), ids=list(_BAD_FIELDS))
def test_invalid_field_raises_when_made_and_when_replaced(name, value):
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig(**{name: value})
    with pytest.raises(ConfigError, match=name):
        dataclasses.replace(ScenarioConfig(), **{name: value})


def test_config_is_frozen():
    cfg = ScenarioConfig(schemes=["joint-mmse", "edu-mmse"])
    assert cfg.schemes == ("joint-mmse", "edu-mmse")  # a list is kept as a tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.num_edu = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.schemes = ("joint-mmse",)
    assert cfg.num_edu == 8 and cfg.schemes == ("joint-mmse", "edu-mmse")
    copy = dataclasses.replace(cfg, num_edu=4)
    assert copy.num_edu == 4 and cfg.num_edu == 8


def test_benchmark_configs_within_quadrature():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        # a config outside the quadrature's limits raises ConfigError here
        assert isinstance(config_from_dict(workloads.config(name, 1)), ScenarioConfig)


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
    with pytest.raises(ConfigError, match="num_edu must be >= 1"):
        load_config(str(path))


def test_partition_override():
    cfg = ScenarioConfig(num_oru=4, num_ue=2, num_edu=2, pilot_count=2)
    topo = build_topology(cfg, 0)
    new = topo.with_partition([1, 0, 1, 0])
    assert np.array_equal(new.edu_partition, [1, 0, 1, 0])
    with pytest.raises(ValueError):
        topo.with_partition([0, 1])
