"""One repetition of a workload, in a fresh interpreter started by run.py.

Usage: python3 child.py '<json spec>' (run.py builds the spec). Set-up is
timed from the parent's spawn timestamp through ``import cfmimo`` and the
config load; only the standard library is imported before that, and a
set-up-only child stops there. The workload call is timed alone, peak RSS
is read right after it, and the checks run afterwards, outside both
timings. The result goes to the file named by ``spec["result"]`` as JSON.
"""

import json
import os
import resource
import sys
import time


def _blas() -> dict:
    """BLAS name, version and the thread count it reports."""
    import ctypes

    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no procfs: the thread count stays unreported
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(lib)] = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def main() -> None:
    spec = json.loads(sys.argv[1])
    import cfmimo
    from cfmimo.scenario import load_config

    cfg = load_config(spec["config"])
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawned"]

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cfmimo.__file__).startswith(src + os.sep):
        raise SystemExit(f"cfmimo was imported from {cfmimo.__file__}, not from {src}")
    if spec["setup_only"]:
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return

    import checks
    import workloads

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    campaign, exit_code = workloads.run(spec["workload"], cfg, spec["config"], spec["out"])
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    output_bytes = sum(
        os.path.getsize(os.path.join(spec["out"], f)) for f in os.listdir(spec["out"])
    )
    files = checks.read_outputs(spec["out"])
    links = workloads.WORKLOADS[spec["workload"]]["links"]
    errors, fingerprint = checks.evaluate_outputs(
        files, cfg.schemes, links, cfg.num_ue, cfg.mc_drops
    )
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": exit_code,
        "attempted": cfg.mc_drops,
        "failed": len(files["summary"].get("failures", [])),
        "fingerprint": fingerprint,
    }
    if tracer is not None:
        tracer.dump(os.path.join(spec["out"], "spans.json"))
        result["layers"] = tracer.metrics(output_bytes)
    if spec["check"]:
        start = time.perf_counter()
        if spec["workload"] == "full-uldl-allserve":
            errors += checks.evaluate_uldl(checks.gather_uldl(cfg, campaign))
        elif spec["workload"] == "full-dcc-ga-ql":
            errors += checks.evaluate_dcc(checks.gather_dcc(cfg, campaign))
        else:
            with open(spec["config"], encoding="utf-8") as fh:
                input_config = json.load(fh)
            drop = cfg.master_seed % cfg.mc_drops
            errors += checks.evaluate_desk(
                checks.gather_desk(cfg, spec["out"], input_config, exit_code, drop)
            )
        result["check_s"] = time.perf_counter() - start
        result["blas"] = _blas()
    result["errors"] = errors
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
