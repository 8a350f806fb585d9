"""cfmimo benchmark: one workload, repeated in fresh processes for a set time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a child interpreter (child.py) with BLAS/OpenMP pinned to
one thread that loads cfmimo from ``src/`` of this checkout, runs the
workload's campaign once and reports set-up time, wall time and peak RSS;
a set-up-only child follows each one. Repetitions start until the next one
would end after ``--seconds``; the untraced run reports the median of each
end-to-end metric. With
``--trace 1`` repetitions alternate between untraced and traced, and the
run reports the median per-layer figures of the traced ones plus the
tracing overhead. The first repetition also runs the workload's
correctness checks. The last line of standard output is the result JSON;
the line before it is the run record (environment, seed, fingerprint).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def _spawn(argv: list[str], log_path: str, deadline: float) -> None:
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=max(deadline - _now(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunError(f"child ran past the time limit; see {log_path}")
    if code != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RunError(f"child exited {code}:\n{tail}")


def _child(name, rep_dir, config_path, deadline, trace=False, check=False,
           setup_only=False) -> dict:
    os.makedirs(rep_dir)
    spec = {
        "workload": name,
        "config": config_path,
        "out": os.path.join(rep_dir, "out"),
        "result": os.path.join(rep_dir, "result.json"),
        "src": SRC,
        "trace": trace,
        "check": check,
        "setup_only": setup_only,
    }
    spec["spawned"] = _now()
    _spawn([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
           os.path.join(rep_dir, "log.txt"), deadline)
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["child_s"] = _now() - spec["spawned"]
    result["traced"] = trace
    return result


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    began = _now()
    deadline = began + RUN_LIMIT_S
    shutil.rmtree(os.path.join(OUT, name), ignore_errors=True)
    os.makedirs(os.path.join(OUT, name))
    config_path = os.path.join(OUT, name, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workloads.config(name, seed), fh, indent=2)

    # Compile the bytecode of a fresh checkout before any timed set-up.
    _spawn([sys.executable, "-c", "import cfmimo"],
           os.path.join(OUT, name, "warmup.txt"), deadline)

    # Each repetition is followed by a set-up-only child, so that set-up is
    # sampled twice per repetition across the run.
    reps: list[dict] = []
    setups: list[float] = []
    start = _now()
    while True:
        i = len(reps)
        rep_dir = os.path.join(OUT, name, f"rep{i}")
        reps.append(_child(name, rep_dir, config_path, deadline,
                           trace=trace and i % 2 == 1, check=i == 0))
        probe = _child(name, rep_dir + "-setup", config_path, deadline, setup_only=True)
        setups += [reps[-1]["setup_s"], probe["setup_s"]]
        cost = probe["child_s"] + max(r["child_s"] - r.get("check_s", 0.0) for r in reps)
        enough = len(reps) >= (2 if trace else 1)
        if enough and (_now() - start + cost > seconds or _now() + cost > deadline):
            break

    plain = [r for r in reps if not r["traced"]]
    errors = list(reps[0]["errors"])
    for r in reps[1:]:
        errors += r["errors"]
        if r["fingerprint"] != reps[0]["fingerprint"]:
            errors.append("repetitions of one seed gave different results")
    if any(r["exit_code"] != 0 for r in reps):
        errors.append("the program returned a non-zero exit code")

    if trace:
        layered = [r["layers"] for r in reps if r["traced"]]
        metrics = {k: statistics.median(l[k] for l in layered) for k in layered[0]}
        metrics["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in reps if r["traced"]
        ) - statistics.median(r["wall_s"] for r in plain)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }

    units = _units()
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "repetitions": len(reps),
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": setups,
        "check_s": reps[0]["check_s"],
        "errors": errors[:20],
        "fingerprint": reps[0]["fingerprint"],
        "env": {
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "blas": reps[0]["blas"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_env": {v: _child_env()[v] for v in THREAD_VARS},
            "machine": platform.machine(),
        },
        "run_s": _now() - began,
    }
    with open(os.path.join(OUT, name, "record.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=2)
    return result, record


def _version(module: str) -> str:
    from importlib.metadata import version

    return version(module)


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cfmimo", "__init__.py")):
        sys.stderr.write(f"no cfmimo sources under {SRC}\n")
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
