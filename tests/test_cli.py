import dataclasses
import json
import subprocess
import sys

import pytest

from cfmimo.cli import main
from cfmimo.scenario import save_config

from conftest import nan_uplink_reports


@pytest.fixture
def cfg_file(tmp_path, desk_config):
    cfg = dataclasses.replace(desk_config, mc_drops=1, mc_realizations=8)
    path = tmp_path / "cfg.json"
    save_config(cfg, str(path))
    return str(path)


def test_simulate_smoke(tmp_path, cfg_file):
    out = str(tmp_path / "out")
    rc = main(
        [
            "simulate",
            "--config",
            cfg_file,
            "--out",
            out,
            "--links",
            "ul",
            "--deployment",
            "clustered",
        ]
    )
    assert rc == 0
    summary = json.load(open(out + "/summary.json"))
    assert summary["drops_completed"] == 1
    assert "edu-mmse" in summary["schemes"]


def test_missing_config_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "usage"


def test_bogus_scheme_exits_2_and_lists_tags(tmp_path, cfg_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "simulate",
                "--config",
                cfg_file,
                "--schemes",
                "bogus",
                "--out",
                str(tmp_path / "o"),
            ]
        )
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "joint-mmse" in err and "edu-pmmse" in err


def test_unresolved_angular_spread_exits_2(tmp_path, desk_config, capsys):
    path = tmp_path / "wide.json"
    raw = desk_config.to_dict()  # no ScenarioConfig holds the wide spread
    raw["antennas_per_oru"] = 16
    raw["asd_azimuth_deg"] = raw["asd_elevation_deg"] = 40.0
    path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert "(antennas_per_oru - 1) * max(asd) <= 90 deg" in err["detail"]
    assert not out.exists()


def test_one_realization_exits_2_before_any_drop(
    tmp_path, desk_config, capsys, monkeypatch
):
    import cfmimo.harness as hz

    def no_drop(*args, **kwargs):
        raise AssertionError("a drop ran")

    monkeypatch.setattr(hz, "run_drop", no_drop)
    path = tmp_path / "one.json"
    raw = desk_config.to_dict()  # no ScenarioConfig holds one realization
    raw["mc_realizations"] = 1
    path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    rc = _exit_code(["simulate", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert not (out / "summary.json").exists()
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "usage"
    assert "mc_realizations must be >= 2" in err["detail"]


def test_deploy_ga_writes_outputs(tmp_path, cfg_file):
    out = str(tmp_path / "ga")
    rc = main(
        ["deploy-ga", "--config", cfg_file, "--out", out, "--generations", "10"]
    )
    assert rc == 0
    mapping = json.load(open(out + "/partition.json"))
    assert len(mapping) == 16
    lines = [
        l
        for l in open(out + "/fitness_trajectory.csv").read().splitlines()
        if not l.startswith("#")
    ]
    assert lines[0] == "generation,best_fitness"
    assert len(lines) == 11


def test_associate_ql_writes_outputs(tmp_path, cfg_file):
    out = str(tmp_path / "ql")
    rc = main(
        ["associate-ql", "--config", cfg_file, "--out", out, "--episodes", "20"]
    )
    assert rc == 0
    rows = [
        l
        for l in open(out + "/association.csv").read().splitlines()
        if not l.startswith("#")
    ]
    assert rows[0] == "ue_index,edu_index,served"
    assert len(rows) == 1 + 8 * 4
    qsum = json.load(open(out + "/qtable_summary.json"))
    assert "best_r_sum" in qsum


def test_sweep_num_edu(tmp_path, cfg_file):
    out = str(tmp_path / "sweep")
    rc = main(
        [
            "sweep",
            "--config",
            cfg_file,
            "--out",
            out,
            "--param",
            "num_edu",
            "--values",
            "1,2",
            "--links",
            "ul",
            "--deployment",
            "clustered",
        ]
    )
    assert rc == 0
    combined = json.load(open(out + "/sweep_summary.json"))
    assert set(combined) == {"num_edu=1", "num_edu=2"}


def test_sweep_deployment_writes_each_simulate_run(tmp_path, cfg_file):
    flags = ["--config", cfg_file, "--links", "ul"]
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out), "--param", "deployment"] + flags) == 0
    combined = json.load(open(out / "sweep_summary.json"))
    assert set(combined) == {"deployment=ga", "deployment=clustered"}
    for mode in ("ga", "clustered"):
        run = out / f"deployment={mode}"
        assert combined[f"deployment={mode}"] == json.load(open(run / "summary.json"))
        alone = tmp_path / mode
        argv = ["simulate", "--out", str(alone), "--deployment", mode] + flags
        assert main(argv) == 0
        for name in ("raw_samples.csv", "summary.json", "partition.csv", "partition.json"):
            assert (run / name).read_bytes() == (alone / name).read_bytes()


def _write_association(path, num_ue, num_edu):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ue_index,edu_index,served\n")
        for k in range(num_ue):
            for m in range(num_edu):
                fh.write(f"{k},{m},{int(m == k % num_edu)}\n")


def test_sweep_association_file_completes_every_drop(tmp_path, cfg_file):
    assoc = tmp_path / "assoc.csv"
    _write_association(assoc, 8, 4)
    out = str(tmp_path / "sweep")
    rc = main(
        [
            "sweep", "--config", cfg_file, "--out", out,
            "--param", "num_edu", "--values", "4",
            "--links", "ul", "--deployment", "clustered",
            "--schemes", "p-mmse,edu-mmse",
            "--association", "file", "--association-file", str(assoc),
        ]
    )
    assert rc == 0
    summary = json.load(open(out + "/num_edu=4/summary.json"))
    assert summary["failures"] == []
    assert summary["drops_completed"] == 1


def test_simulate_association_file_runs_ga_once(tmp_path, cfg_file, monkeypatch):
    import cfmimo.harness as hz
    from cfmimo.deployment import GaConfig

    calls = []
    real = hz.ga_optimize

    def counting(pairwise, num_edu, config, rng):
        calls.append(num_edu)
        return real(pairwise, num_edu, GaConfig(generations=5), rng)

    monkeypatch.setattr(hz, "ga_optimize", counting)
    assoc = tmp_path / "assoc.csv"
    _write_association(assoc, 8, 4)
    out = str(tmp_path / "sim")
    rc = main(
        [
            "simulate", "--config", cfg_file, "--out", out,
            "--links", "ul", "--deployment", "ga", "--schemes", "p-mmse",
            "--association", "file", "--association-file", str(assoc),
        ]
    )
    assert rc == 0
    assert len(calls) == 1
    assert json.load(open(out + "/summary.json"))["drops_completed"] == 1


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cfmimo.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_simulate_rejects_one_row_partition_file(tmp_path, cfg_file, capsys):
    part = tmp_path / "partition.csv"
    part.write_text("oru_index,edu_index\n0,7\n")
    out = tmp_path / "sim"
    rc = _exit_code(
        [
            "simulate", "--config", cfg_file, "--out", str(out), "--links", "ul",
            "--deployment", "file", "--partition-file", str(part),
        ]
    )
    assert rc == 2
    assert not (out / "summary.json").exists()
    assert not (out / "raw_samples.csv").exists()
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert "partition" in json.loads(err)["detail"]


def test_association_row_out_of_range_exits_2(tmp_path, cfg_file, capsys):
    assoc = tmp_path / "assoc.csv"
    assoc.write_text("ue_index,edu_index,served\n9,0,1\n")
    rc = _exit_code(
        [
            "simulate", "--config", cfg_file, "--out", str(tmp_path / "sim"),
            "--links", "ul", "--deployment", "clustered", "--schemes", "p-mmse",
            "--association", "file", "--association-file", str(assoc),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err)["error"] == "usage"


def test_repeated_association_row_exits_2_naming_file_and_line(
    tmp_path, cfg_file, monkeypatch, capsys
):
    # the second row would leave UE 0 unserved by EDU 0 without a message
    assoc = tmp_path / "assoc.csv"
    assoc.write_text("ue_index,edu_index,served\n0,0,1\n1,1,1\n0,0,0\n")
    out = tmp_path / "sim"
    record = _rejected(
        [
            "simulate", "--config", cfg_file, "--out", str(out), "--links", "ul",
            "--deployment", "clustered", "--schemes", "p-mmse",
            "--association", "file", "--association-file", str(assoc),
        ],
        monkeypatch,
        capsys,
    )
    assert record["error"] == "usage"
    assert f"{assoc}, line 4: repeats ue_index 0, edu_index 0" in record["detail"]
    assert not out.exists()


def test_config_value_a_flag_replaces_is_not_checked(tmp_path, cfg_file, capsys):
    raw = json.load(open(cfg_file))
    raw["mc_drops"] = 0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(raw))
    argv = ["simulate", "--config", str(path), "--links", "ul",
            "--deployment", "clustered"]
    out = tmp_path / "flag"
    assert _exit_code(argv + ["--out", str(out), "--drops", "2"]) == 0
    assert json.load(open(out / "summary.json"))["drops_completed"] == 2
    assert _exit_code(argv + ["--out", str(tmp_path / "file")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "mc_drops must be >= 1" in record["detail"]


def _fail_drop(monkeypatch, drop):
    import cfmimo.harness as hz

    real = hz.run_drop

    def flaky(config, drop_index, genome, options=None):
        if drop_index == drop:
            raise RuntimeError("injected")
        return real(config, drop_index, genome, options)

    monkeypatch.setattr(hz, "run_drop", flaky)


def test_simulate_with_failed_drop_exits_1(tmp_path, cfg_file, monkeypatch):
    _fail_drop(monkeypatch, 1)
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate", "--config", cfg_file, "--out", str(out), "--drops", "2",
            "--links", "ul", "--deployment", "clustered",
        ]
    )
    assert rc == 1
    summary = json.load(open(out / "summary.json"))
    assert summary["drops_completed"] == 1
    assert summary["failures"][0]["drop"] == 1


def test_sweep_with_failed_drop_exits_1(tmp_path, cfg_file, monkeypatch):
    _fail_drop(monkeypatch, 0)
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep", "--config", cfg_file, "--out", str(out),
            "--param", "num_edu", "--values", "2",
            "--links", "ul", "--deployment", "clustered",
        ]
    )
    assert rc == 1
    combined = json.load(open(out / "sweep_summary.json"))
    assert combined["num_edu=2"]["drops_completed"] == 0


def test_quant_bits_is_echoed_and_reruns_byte_for_byte(tmp_path, cfg_file):
    flags = ["--links", "ul", "--deployment", "clustered", "--schemes", "edu-mmse"]
    first = tmp_path / "first"
    rc = main(
        ["simulate", "--config", cfg_file, "--out", str(first), "--quant-bits", "2"]
        + flags
    )
    assert rc == 0
    raw = (first / "raw_samples.csv").read_text()
    echo_line = next(l for l in raw.splitlines() if l.startswith("# config: "))
    echo = json.loads(echo_line[len("# config: "):])
    assert echo["quantizer_bits"] == 2
    echo_file = tmp_path / "echo.json"
    echo_file.write_text(json.dumps(echo))
    second = tmp_path / "second"
    rc = main(["simulate", "--config", str(echo_file), "--out", str(second)] + flags)
    assert rc == 0
    assert (second / "raw_samples.csv").read_bytes() == (
        first / "raw_samples.csv"
    ).read_bytes()


def test_quant_bits_zero_exits_2_before_any_drop(tmp_path, cfg_file, capsys):
    out = tmp_path / "sim"
    rc = _exit_code(
        [
            "simulate", "--config", cfg_file, "--out", str(out), "--links", "ul",
            "--deployment", "clustered", "--quant-bits", "0",
        ]
    )
    assert rc == 2
    assert not (out / "summary.json").exists()
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "usage"
    assert "quantizer_bits" in record["detail"]


def test_sweep_validates_every_edu_count_before_the_first_run(tmp_path, cfg_file, capsys):
    out = tmp_path / "sweep"
    rc = _exit_code(
        [
            "sweep", "--config", cfg_file, "--out", str(out),
            "--param", "num_edu", "--values", "2,0", "--drops", "1",
            "--links", "ul", "--deployment", "clustered",
        ]
    )
    assert rc == 2
    assert not (out / "num_edu=2").exists()
    assert not (out / "sweep_summary.json").exists()
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "usage"
    assert "num_edu must be >= 1" in record["detail"]


def test_sweep_association_row_beyond_a_swept_edu_count_exits_2(
    tmp_path, cfg_file, capsys
):
    # rows name EDUs 0..3, which the two-EDU campaign does not have
    assoc = tmp_path / "assoc.csv"
    _write_association(assoc, 8, 4)
    out = tmp_path / "sweep"
    rc = _exit_code(
        [
            "sweep", "--config", cfg_file, "--out", str(out),
            "--param", "num_edu", "--values", "2",
            "--links", "ul", "--deployment", "clustered", "--schemes", "p-mmse",
            "--association", "file", "--association-file", str(assoc),
        ]
    )
    assert rc == 2
    assert not (out / "num_edu=2").exists()
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "usage"
    assert "edu_index < 2" in record["detail"]


def test_sweep_association_file_read_against_each_edu_count(tmp_path, cfg_file):
    # rows name EDUs 0 and 1 only, which both swept campaigns have
    assoc = tmp_path / "assoc.csv"
    _write_association(assoc, 8, 2)
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep", "--config", cfg_file, "--out", str(out),
            "--param", "num_edu", "--values", "2,4",
            "--links", "ul", "--deployment", "clustered", "--schemes", "p-mmse",
            "--association", "file", "--association-file", str(assoc),
        ]
    )
    assert rc == 0
    combined = json.load(open(out / "sweep_summary.json"))
    for label in ("num_edu=2", "num_edu=4"):
        assert combined[label]["failures"] == []
        assert combined[label]["drops_completed"] == 1


def test_import_and_clustered_simulate_without_scipy(tmp_path, desk_config):
    """cfmimo runs on numpy alone: with scipy unimportable, the package imports
    and a clustered desk campaign completes."""
    path = tmp_path / "cfg.json"
    save_config(desk_config, str(path))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import cfmimo\n"
        "from cfmimo.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
            "--deployment", "clustered"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.load(open(tmp_path / "out" / "summary.json"))
    assert summary["drops_completed"] == desk_config.mc_drops == 2


def test_import_and_serial_desk_simulate_load_no_polynomial_module(tmp_path, desk_config):
    """The correlation quadrature's rule is stored: neither the import nor a
    serial campaign loads numpy.polynomial, and the campaign no numpy.ma."""
    path = tmp_path / "cfg.json"
    save_config(desk_config, str(path))
    code = (
        "import sys\n"
        "import cfmimo\n"
        "assert 'numpy.polynomial' not in sys.modules, 'import cfmimo loaded it'\n"
        "from cfmimo.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(sorted({'numpy.polynomial', 'numpy.ma'} & set(sys.modules)))\n"
    )
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
            "--deployment", "clustered"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def _rejected(argv, monkeypatch, capsys):
    """Run ``argv`` with every drop, channel build and QL run forbidden,
    check that it exits 2, and return the JSON record that stderr ends with."""
    import cfmimo.cli as cli
    import cfmimo.harness as hz

    def forbidden(*args, **kwargs):
        raise AssertionError("work ran before the input was checked")

    monkeypatch.setattr(hz, "run_drop", forbidden)
    monkeypatch.setattr(hz, "ql_associate", forbidden)
    monkeypatch.setattr(cli, "build_statistics", forbidden)
    assert _exit_code(argv) == 2
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("angle", ["-5", "inf", "nan"])
def test_bad_phase_drift_exits_2_before_any_drop(
    tmp_path, cfg_file, command, angle, monkeypatch, capsys
):
    out = tmp_path / "out"
    argv = [command, "--config", cfg_file, "--out", str(out), "--links", "dl",
            "--deployment", "clustered", "--phase-drift-deg", angle]
    if command == "sweep":
        argv += ["--param", "num_edu", "--values", "2"]
    record = _rejected(argv, monkeypatch, capsys)
    assert "phase_drift_deg must be a finite angle >= 0" in record["detail"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_workers_below_one_exits_2_before_any_drop(
    tmp_path, cfg_file, command, monkeypatch, capsys
):
    out = tmp_path / "out"
    argv = [command, "--config", cfg_file, "--out", str(out), "--links", "ul",
            "--deployment", "clustered", "--workers", "0"]
    if command == "sweep":
        argv += ["--param", "num_edu", "--values", "2"]
    record = _rejected(argv, monkeypatch, capsys)
    assert "--workers" in record["detail"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["deploy-ga", "--generations", "0"], "generations"),
        (["deploy-ga", "--population", "0"], "population_size"),
        (["associate-ql", "--episodes", "0"], "episodes"),
    ],
)
def test_zero_count_flag_exits_2(tmp_path, cfg_file, argv, field, monkeypatch, capsys):
    out = tmp_path / "out"
    record = _rejected(
        argv + ["--config", cfg_file, "--out", str(out)], monkeypatch, capsys
    )
    assert field in record["detail"]
    assert not out.exists()


def test_partition_json_that_is_not_an_object_exits_2(
    tmp_path, cfg_file, monkeypatch, capsys
):
    part = tmp_path / "partition.json"
    part.write_text(json.dumps([i % 4 for i in range(16)]))
    out = tmp_path / "sim"
    record = _rejected(
        [
            "simulate", "--config", cfg_file, "--out", str(out), "--links", "ul",
            "--deployment", "file", "--partition-file", str(part),
        ],
        monkeypatch,
        capsys,
    )
    assert str(part) in record["detail"]
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("ul_power_mw", float("nan")),
        ("noise_psd_dbm_hz", float("nan")),
        ("shadow_sigma_db", float("nan")),
        ("dl_pmax_mw", float("inf")),
    ],
)
def test_non_finite_config_float_exits_2_before_any_drop(
    tmp_path, cfg_file, field, value, monkeypatch, capsys
):
    raw = json.load(open(cfg_file))
    raw[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))  # NaN and Infinity as json.dumps writes them
    out = tmp_path / "out"
    record = _rejected(
        ["simulate", "--config", str(path), "--out", str(out),
         "--deployment", "clustered"],
        monkeypatch,
        capsys,
    )
    assert field in record["detail"] and "finite" in record["detail"]
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("master_seed", "1", "an integer"),
        ("num_edu", 4.0, "an integer"),
        ("num_edu", 4.5, "an integer"),
        ("mc_drops", 2.5, "an integer"),
        ("num_ue", True, "an integer"),
        ("mc_realizations", 20.9, "an integer"),
        ("pathloss_exponent", "3", "a real number"),
        ("schemes", "joint-mmse", "a list of scheme tags"),
        ("quantizer_bits", True, 'an integer or "infinite"'),
    ],
)
def test_mistyped_config_field_exits_2_before_any_drop(
    tmp_path, cfg_file, field, value, kind, monkeypatch, capsys
):
    raw = json.load(open(cfg_file))
    raw[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    record = _rejected(
        ["simulate", "--config", str(path), "--out", str(out),
         "--deployment", "clustered"],
        monkeypatch,
        capsys,
    )
    assert f"{field} must be {kind}, got {value!r}" in record["detail"]
    assert not out.exists()


@pytest.mark.parametrize("bad", [0.5, 2.0, None, True, "1"])
def test_partition_json_with_a_non_integer_edu_exits_2(
    tmp_path, cfg_file, bad, monkeypatch, capsys
):
    mapping = {str(i): i % 4 for i in range(16)}
    mapping["5"] = bad
    part = tmp_path / "partition.json"
    part.write_text(json.dumps(mapping))
    out = tmp_path / "sim"
    record = _rejected(
        [
            "simulate", "--config", cfg_file, "--out", str(out), "--links", "ul",
            "--deployment", "file", "--partition-file", str(part),
        ],
        monkeypatch,
        capsys,
    )
    assert record["error"] == "config"
    assert str(part) in record["detail"]
    assert json.dumps(bad) in record["detail"]
    assert not out.exists()


# int() reads "0_5" and "\u0665" (Arabic-Indic 5) as 5, and " +1_5 " as 15
@pytest.mark.parametrize("key", ["x", "5.0", "0_5", "\u0665", " +1_5 "])
def test_partition_json_with_a_non_integer_oru_key_exits_2(
    tmp_path, cfg_file, key, monkeypatch, capsys
):
    mapping = {str(i): i % 4 for i in range(16)}
    mapping[key] = mapping.pop("5")
    part = tmp_path / "partition.json"
    part.write_text(json.dumps(mapping))
    out = tmp_path / "sim"
    record = _rejected(
        [
            "simulate", "--config", cfg_file, "--out", str(out), "--links", "ul",
            "--deployment", "file", "--partition-file", str(part),
        ],
        monkeypatch,
        capsys,
    )
    assert record["error"] == "config"
    assert str(part) in record["detail"]
    assert json.dumps(key) in record["detail"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "associate-ql"])
def test_missing_partition_file_exits_2(tmp_path, cfg_file, command, monkeypatch, capsys):
    part = tmp_path / "nope.csv"
    out = tmp_path / "out"
    argv = [command, "--config", cfg_file, "--out", str(out),
            "--deployment", "file", "--partition-file", str(part)]
    record = _rejected(argv, monkeypatch, capsys)
    assert str(part) in record["detail"]
    assert not out.exists()


def test_missing_association_file_exits_2(tmp_path, cfg_file, monkeypatch, capsys):
    assoc = tmp_path / "nope.csv"
    out = tmp_path / "sim"
    record = _rejected(
        [
            "simulate", "--config", cfg_file, "--out", str(out), "--links", "ul",
            "--deployment", "clustered", "--schemes", "p-mmse",
            "--association", "file", "--association-file", str(assoc),
        ],
        monkeypatch,
        capsys,
    )
    assert str(assoc) in record["detail"]
    assert not out.exists()


def test_association_file_mode_without_a_file_exits_2(
    tmp_path, cfg_file, monkeypatch, capsys
):
    # the detail names the flags, for a campaign and for a sweep
    for argv in (["simulate"], ["sweep", "--param", "num_edu", "--values", "4"]):
        out = tmp_path / argv[0]
        record = _rejected(
            argv + ["--config", cfg_file, "--out", str(out), "--links", "ul",
                    "--deployment", "clustered", "--schemes", "p-mmse",
                    "--association", "file"],
            monkeypatch,
            capsys,
        )
        assert record == {
            "error": "usage", "detail": "--association file needs --association-file"
        }
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["sweep", "--param", "num_edu", "--values", "4"]],
)
def test_association_file_without_file_mode_exits_2(
    tmp_path, cfg_file, argv, monkeypatch, capsys
):
    assoc = tmp_path / "does-not-exist.csv"
    out = tmp_path / "out"
    record = _rejected(
        argv + ["--config", cfg_file, "--out", str(out), "--links", "ul",
                "--deployment", "clustered", "--association", "all",
                "--association-file", str(assoc)],
        monkeypatch,
        capsys,
    )
    assert record["error"] == "usage"
    assert "--association-file" in record["detail"]
    assert "--association file" in record["detail"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag",
    [
        ["--values", "1,2"],
        ["--deployment", "file"],
        ["--deployment", "ga"],
        ["--partition-file", "does-not-exist.csv"],
    ],
)
def test_sweep_over_deployment_rejects_the_flags_it_would_ignore(
    tmp_path, cfg_file, flag, monkeypatch, capsys
):
    out = tmp_path / "out"
    record = _rejected(
        ["sweep", "--config", cfg_file, "--out", str(out), "--links", "ul",
         "--param", "deployment"] + flag,
        monkeypatch,
        capsys,
    )
    assert record["error"] == "usage"
    assert flag[0] in record["detail"]
    assert "--param deployment" in record["detail"]
    assert not out.exists()


def _partition_rows(num_oru, num_edu):
    return "".join(f"{i},{i % num_edu}\n" for i in range(num_oru))


def test_sweep_partition_file_runs_each_edu_count(tmp_path, cfg_file):
    from cfmimo.harness import write_partition
    from cfmimo.scenario import load_config

    genome = [i % 4 for i in range(16)]
    write_partition(str(tmp_path), load_config(cfg_file), genome)
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep", "--config", cfg_file, "--out", str(out),
            "--param", "num_edu", "--values", "4", "--links", "ul",
            "--deployment", "file", "--partition-file", str(tmp_path / "partition.csv"),
        ]
    )
    assert rc == 0
    run = out / "num_edu=4"
    summary = json.load(open(run / "summary.json"))
    assert summary["drops_completed"] == 1
    assert summary["deployment"]["deployment"] == "file"
    assert json.load(open(run / "partition.json")) == {
        str(i): m for i, m in enumerate(genome)
    }


@pytest.mark.parametrize("values", ["2,4", "4,2"])
def test_sweep_partition_file_checked_against_every_edu_count_before_the_first_run(
    tmp_path, cfg_file, values, monkeypatch, capsys
):
    part = tmp_path / "partition.csv"
    part.write_text("oru_index,edu_index\n" + _partition_rows(16, 4))
    out = tmp_path / "sweep"
    record = _rejected(
        [
            "sweep", "--config", cfg_file, "--out", str(out),
            "--param", "num_edu", "--values", values, "--links", "ul",
            "--deployment", "file", "--partition-file", str(part),
        ],
        monkeypatch,
        capsys,
    )
    assert str(part) in record["detail"]
    assert "num_edu=2" in record["detail"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, repeated",
    [
        (["sweep", "--param", "num_edu", "--values", "2,2"], "2"),
        (["simulate", "--schemes", "joint-mmse,joint-mmse"], "joint-mmse"),
        (
            ["sweep", "--param", "num_edu", "--values", "2",
             "--schemes", "edu-mmse,joint-mmse,edu-mmse"],
            "edu-mmse",
        ),
    ],
)
def test_repeated_value_exits_2_before_any_drop(
    tmp_path, cfg_file, argv, repeated, monkeypatch, capsys
):
    out = tmp_path / "out"
    record = _rejected(
        argv + ["--config", cfg_file, "--out", str(out), "--links", "ul",
                "--deployment", "clustered"],
        monkeypatch,
        capsys,
    )
    assert "repeat" in record["detail"]
    assert repeated in record["detail"]
    assert not out.exists()


# the row replaced is association 0,3,0 and partition 3,3; int() reads "0_3" as
# 3, "1_0" as 10, "\u0663" as 3 and "\u0661\u0665" as 15 (Arabic-Indic digits)
@pytest.mark.parametrize(
    "kind, bad_row",
    [
        ("association", "1,x,1"),
        ("association", "1,2"),
        ("association", "0,0_3,0"),
        ("association", "0,1_0,1"),
        ("partition", "3,x"),
        ("partition", "3"),
        ("partition", "\u0663,3"),
        ("partition", "\u0661\u0665,3"),
        ("partition", "3,0_3"),
    ],
)
def test_malformed_input_row_exits_2_naming_file_and_row(
    tmp_path, cfg_file, kind, bad_row, monkeypatch, capsys
):
    path = tmp_path / f"{kind}.csv"
    if kind == "association":
        header = "ue_index,edu_index,served"
        rows = [f"{k},{m},{int(m == k % 4)}" for k in range(8) for m in range(4)]
        flags = ["--deployment", "clustered", "--schemes", "p-mmse",
                 "--association", "file", "--association-file", str(path)]
    else:
        header = "oru_index,edu_index"
        rows = _partition_rows(16, 4).splitlines()
        flags = ["--deployment", "file", "--partition-file", str(path)]
    rows[3] = bad_row
    path.write_text("# cfmimo\n" + header + "\n" + "\n".join(rows) + "\n")
    out = tmp_path / "sim"
    record = _rejected(
        ["simulate", "--config", cfg_file, "--out", str(out), "--links", "ul", *flags],
        monkeypatch,
        capsys,
    )
    assert str(path) in record["detail"]
    assert "line 6" in record["detail"]
    assert repr(bad_row) in record["detail"]
    if kind == "association":
        assert record["error"] == "usage"
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_partition_index_with_a_sign_and_spaces_loads(tmp_path, cfg_file, suffix):
    genome = [i % 4 for i in range(16)]
    part = tmp_path / f"partition{suffix}"
    if suffix == ".csv":
        rows = [f"{i},{m}" for i, m in enumerate(genome)]
        rows[3], rows[5] = " +3 , 3", "+5,1 "
        part.write_text("oru_index,edu_index\n" + "\n".join(rows) + "\n")
    else:
        mapping = {str(i): m for i, m in enumerate(genome)}
        mapping[" +3 "], mapping["+5"] = mapping.pop("3"), mapping.pop("5")
        part.write_text(json.dumps(mapping))
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate", "--config", cfg_file, "--out", str(out), "--links", "ul",
            "--deployment", "file", "--partition-file", str(part),
        ]
    )
    assert rc == 0
    assert json.load(open(out / "partition.json")) == {str(i): m for i, m in enumerate(genome)}


def _strict_json(path):
    """JSON file contents; NaN, Infinity and -Infinity raise ``ValueError``."""

    def reject(constant):
        raise ValueError(f"{path} holds {constant}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_non_finite_report_fails_the_drop_and_exits_1(
    tmp_path, cfg_file, command, monkeypatch
):
    nan_uplink_reports(monkeypatch, "edu-mmse")
    out = tmp_path / "out"
    argv = [command, "--config", cfg_file, "--out", str(out), "--links", "ul",
            "--deployment", "clustered"]
    run_dir = out
    if command == "sweep":
        argv += ["--param", "num_edu", "--values", "4"]
        run_dir = out / "num_edu=4"
    assert _exit_code(argv) == 1
    summary = _strict_json(run_dir / "summary.json")
    assert summary["drops_completed"] == 0
    error = summary["failures"][0]["error"]
    assert "edu-mmse" in error and "ul" in error
    if command == "sweep":
        _strict_json(out / "sweep_summary.json")


def test_negative_config_seed_exits_2_naming_master_seed(
    tmp_path, cfg_file, monkeypatch, capsys
):
    raw = json.load(open(cfg_file))
    raw["master_seed"] = -1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    record = _rejected(
        ["simulate", "--config", str(path), "--out", str(out),
         "--deployment", "clustered"],
        monkeypatch,
        capsys,
    )
    assert "master_seed must be >= 0" in record["detail"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "deploy-ga", "associate-ql"])
def test_negative_seed_flag_exits_2_naming_master_seed(
    tmp_path, cfg_file, command, monkeypatch, capsys
):
    out = tmp_path / "out"
    argv = [command, "--config", cfg_file, "--out", str(out), "--seed", "-5"]
    if command in ("simulate", "sweep"):
        argv += ["--deployment", "clustered"]
    if command == "sweep":
        argv += ["--param", "num_edu", "--values", "2"]
    record = _rejected(argv, monkeypatch, capsys)
    assert "master_seed must be >= 0" in record["detail"]
    assert record["error"] == "usage"  # one error kind for every subcommand
    assert not out.exists()


def test_associate_ql_negative_drop_exits_2_naming_the_flag(
    tmp_path, cfg_file, monkeypatch, capsys
):
    out = tmp_path / "out"
    record = _rejected(
        ["associate-ql", "--config", cfg_file, "--out", str(out), "--drop", "-1"],
        monkeypatch,
        capsys,
    )
    assert record["error"] == "usage"
    assert "--drop" in record["detail"]
    assert not out.exists()


def test_one_edu_ga_campaign_writes_strict_json(tmp_path, desk_config):
    # one EDU leaves no cross-EDU spread, so every GA score is +inf
    cfg = dataclasses.replace(desk_config, num_edu=1, mc_drops=1, mc_realizations=8)
    path = tmp_path / "one_edu.json"
    save_config(cfg, str(path))
    out = tmp_path / "out"
    rc = _exit_code(
        ["simulate", "--config", str(path), "--out", str(out), "--links", "ul",
         "--deployment", "ga"]
    )
    assert rc == 0
    deployment = _strict_json(out / "summary.json")["deployment"]
    assert deployment["fitness"] is None
    assert set(deployment["history"]) == {None}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--links", "ul"],
        ["sweep", "--links", "ul", "--param", "num_edu", "--values", "2,4"],
        ["associate-ql", "--episodes", "2"],
    ],
)
def test_partition_file_without_file_deployment_exits_2(
    tmp_path, cfg_file, argv, monkeypatch, capsys
):
    # a partition file is read only by --deployment file; another mode ran
    # without it and named no file
    part = tmp_path / "does-not-exist.csv"
    out = tmp_path / "out"
    record = _rejected(
        argv + ["--config", cfg_file, "--out", str(out), "--deployment", "clustered",
                "--partition-file", str(part)],
        monkeypatch,
        capsys,
    )
    assert str(part) in record["detail"]
    assert "'clustered'" in record["detail"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_phase_drift_without_the_downlink_exits_2(
    tmp_path, cfg_file, command, monkeypatch, capsys
):
    # the drift rotates only the downlink, so an uplink-only run drifted nothing
    out = tmp_path / "out"
    argv = [command, "--config", cfg_file, "--out", str(out), "--links", "ul",
            "--deployment", "clustered", "--phase-drift-deg", "10"]
    if command == "sweep":
        argv += ["--param", "num_edu", "--values", "2"]
    record = _rejected(argv, monkeypatch, capsys)
    assert record["error"] == "usage"
    assert "phase_drift_deg" in record["detail"]
    assert "dl" in record["detail"]
    assert not out.exists()


def test_config_naming_a_directory_exits_2(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(tmp_path), "--out", str(out)]
    record = _rejected(argv, monkeypatch, capsys)
    assert record["error"] == "usage"
    assert "is a directory" in record["detail"] and str(tmp_path) in record["detail"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "deploy-ga", "associate-ql"])
@pytest.mark.parametrize("below", [False, True])
def test_out_that_cannot_be_a_directory_exits_2_before_any_work(
    tmp_path, cfg_file, command, below, monkeypatch, capsys
):
    # a path at or below an existing file cannot hold the outputs; found only
    # when they are written, after every drop, it would lose the campaign
    import cfmimo.harness as hz

    afile = tmp_path / "afile"
    afile.write_text("keep")
    out = afile / "sub" if below else afile
    argv = [command, "--config", cfg_file, "--out", str(out)]
    if command == "sweep":
        argv += ["--param", "num_edu", "--values", "2", "--deployment", "clustered"]
    if command == "deploy-ga":
        argv += ["--generations", "1"]
    monkeypatch.setattr(hz, "ga_optimize", lambda *a, **k: pytest.fail("GA ran"))
    record = _rejected(argv, monkeypatch, capsys)
    assert record["error"] == "usage"
    assert str(out) in record["detail"] and "not a directory" in record["detail"]
    assert afile.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]
