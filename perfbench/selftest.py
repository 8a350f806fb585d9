"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs each workload's checks on a small instance (16 O-RUs x 2 antennas,
8 UEs, 4 EDUs) and shows that every check passes on the program's answer
and fails on a planted wrong one: an SINR off by 1e-6 relative, an
unbalanced genome, a QL association over the fronthaul cap, and so on.
Exits 0 only when the clean answers pass and every planted error is caught.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from cfmimo.association import QlConfig  # noqa: E402
from cfmimo.deployment import GaConfig  # noqa: E402
from cfmimo.harness import DropOptions, run_campaign  # noqa: E402
from cfmimo.scenario import config_from_dict  # noqa: E402

SMALL = {"num_oru": 16, "antennas_per_oru": 2, "num_ue": 8, "num_edu": 4,
         "pilot_count": 8, "mc_realizations": 10, "mc_drops": 2}
OUT = os.path.join(ROOT, ".perfbench_out", "selftest")


def _bump(x, index=0, rel=1e-6):
    """Move entry ``index`` of x by ``rel`` relative (absolute if it is 0)."""
    flat = x.reshape(-1)
    flat[index] += rel * (abs(flat[index]) or 1.0)


def _first_served(gamma) -> int:
    return int(np.flatnonzero(gamma > 0)[0])


def _cases():
    """(label, evaluate, clean data, mutation) for every planted error."""
    shutil.rmtree(OUT, ignore_errors=True)

    # full-uldl-allserve at small scale
    cfg = config_from_dict({**workloads.config("full-uldl-allserve", 7), **SMALL})
    out = os.path.join(OUT, "uldl")
    campaign = run_campaign(cfg, out, "clustered", DropOptions())
    files = checks.read_outputs(out)
    uldl = checks.gather_uldl(cfg, campaign)

    def eval_files(f, cfg=cfg):
        return checks.evaluate_outputs(f, cfg.schemes, ["ul", "dl"], cfg.num_ue, cfg.mc_drops)[0]

    def sum_row_off(f):
        row = next(r for r in f["rows"] if r[2] == "sum")
        row[5] = f"{float(row[5]) + 1e-4:.6f}"

    def negative_se(f):
        next(r for r in f["rows"] if r[2] != "sum")[5] = "-0.000001"

    yield ("sum row off by 1e-4", eval_files, files, sum_row_off)
    yield ("negative UE SE", eval_files, files, negative_se)
    yield ("summary median off by 1e-5", eval_files, files,
           lambda f: f["summary"]["schemes"]["joint-mmse"]["ul"].__setitem__(
               "median_sum_se", f["summary"]["schemes"]["joint-mmse"]["ul"]["median_sum_se"] + 1e-5))
    yield ("failed drop in summary", eval_files, files,
           lambda f: f["summary"].__setitem__("failures", [{"drop": 1, "error": "planted"}]))
    yield ("rows of one drop missing", eval_files, files,
           lambda f: f.__setitem__("rows", [r for r in f["rows"] if r[0] != "1"]))

    for scheme in ("joint-mmse", "l-mmse", "joint-mrc"):
        yield (f"{scheme} UL SINR off by 1e-6", checks.evaluate_uldl, uldl,
               lambda d, s=scheme: _bump(d["ul_gamma"][s]))

    def scale_block(d):
        d["R"][0, 0] *= 1 + 1e-6

    def non_hermitian(d):
        d["R"][0, 0, 0, 1] += 1e-6 * abs(d["R"][0, 0, 0, 0])

    def negative_eigenvalue(d):
        d["C"][0, 0, 0, 0] = -abs(d["C"][0, 0, 0, 0])

    yield ("beta off by 1e-6", checks.evaluate_uldl, uldl, lambda d: _bump(d["beta"]))
    yield ("trace(R) off by 1e-6", checks.evaluate_uldl, uldl, scale_block)
    yield ("R not Hermitian", checks.evaluate_uldl, uldl, non_hermitian)
    yield ("C not PSD", checks.evaluate_uldl, uldl, negative_eigenvalue)
    yield ("DL power off by 1e-6", checks.evaluate_uldl, uldl, lambda d: _bump(d["dl_power"]))
    yield ("DL SINR off by 1e-6", checks.evaluate_uldl, uldl, lambda d: _bump(d["dl_gamma"]))
    yield ("radiated power over the cap", checks.evaluate_uldl, uldl,
           lambda d: d["radiated"].__setitem__(0, 1.02 * d["cfg"]["dl_pmax_mw"]))

    # full-dcc-ga-ql at small scale, with a cap below the UE count
    cfg = config_from_dict({**workloads.config("full-dcc-ga-ql", 7), **SMALL, "fronthaul_ue_cap": 4})
    campaign = run_campaign(
        cfg, os.path.join(OUT, "dcc"), "ga",
        DropOptions(links=("ul",), association_mode="ql",
                    ql_config=QlConfig(episodes=5, fronthaul_ue_cap=4)),
        ga_config=GaConfig(generations=5),
    )
    dcc = checks.gather_dcc(cfg, campaign)

    def unbalance(d):
        g = d["genome"].copy()
        g[np.flatnonzero(g == 0)[0]] = 1
        d["genome"] = g

    def over_cap(d):
        d["deltas"][0] = d["deltas"][0].copy()
        d["deltas"][0][:, d["genome"] == 0] = True

    def inconsistent(d):
        d["deltas"][0] = d["deltas"][0].copy()
        l = np.flatnonzero(d["genome"] == 0)[0]
        d["deltas"][0][0, l] = not d["deltas"][0][0, l]

    yield ("unbalanced GA genome", checks.evaluate_dcc, dcc, unbalance)
    yield ("GA fitness off by 1e-6", checks.evaluate_dcc, dcc,
           lambda d: d.__setitem__("fitness", d["fitness"] * (1 + 1e-6)))
    yield ("GA no better than clustered", checks.evaluate_dcc, dcc,
           lambda d: d.__setitem__("clustered_genome", d["genome"].copy()))
    yield ("QL association over the cap", checks.evaluate_dcc, dcc, over_cap)
    yield ("QL association not EDU-consistent", checks.evaluate_dcc, dcc, inconsistent)
    yield ("ql_best_r_sum above ql_r_sum_all", checks.evaluate_dcc, dcc,
           lambda d: d["ql"].__setitem__(0, (d["ql"][0][1] + 1.0, d["ql"][0][1])))
    yield ("ql_best_r_sum off by 1e-6", checks.evaluate_dcc, dcc,
           lambda d: d["ql"].__setitem__(0, (d["ql"][0][0] + 1e-6 * max(d["ql"][0][0], 1.0),
                                             d["ql"][0][1])))
    yield ("p-mmse UL SINR off by 1e-6", checks.evaluate_dcc, dcc,
           lambda d: _bump(d["pmmse_gamma"], _first_served(d["pmmse_gamma"])))

    # desk-cli-campaign at small scale, through the CLI
    raw = {**workloads.config("desk-cli-campaign", 7), "mc_drops": 2, "mc_realizations": 10}
    out = os.path.join(OUT, "desk")
    os.makedirs(out)
    path = os.path.join(OUT, "desk.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    _, code = workloads.run("desk-cli-campaign", config_from_dict(dict(raw)), path, out)
    desk = checks.gather_desk(config_from_dict(dict(raw)), out, raw, code, 1)
    yield ("CLI exit code 1", checks.evaluate_desk, desk, lambda d: d.__setitem__("exit_code", 1))
    yield ("config echo differs from the input", checks.evaluate_desk, desk,
           lambda d: d["input_config"].__setitem__("bandwidth_hz", 2 * d["input_config"]["bandwidth_hz"]))
    yield ("re-run row differs", checks.evaluate_desk, desk,
           lambda d: d["rerun_rows"][0].__setitem__(5, "9.999999"))


def main() -> int:
    failures = 0
    seen = set()
    for label, evaluate, data, mutate in _cases():
        if id(data) not in seen:
            seen.add(id(data))
            errors = evaluate(data)
            print(f"{'pass' if not errors else 'FAIL'}  clean answer of {evaluate.__name__}: {errors}")
            failures += bool(errors)
        planted = copy.deepcopy(data)
        mutate(planted)
        errors = evaluate(planted)
        print(f"{'caught' if errors else 'MISSED'}  {label}: {errors[:1]}")
        failures += not errors
    print("selftest", "passed" if not failures else f"failed ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
