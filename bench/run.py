"""mcdisc benchmark: one command for the four workloads.

usage (from the repository root):
    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh worker process (bench/worker.py) with BLAS
pinned to one thread and MCM_THREADS removed; the package is imported from
./src. Set-up time is the median of several fresh-process imports of
mcdisc and mcdisc.cli. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run. Everything the run writes goes under ./.bench_build/.
Exit status: 0 when every op succeeded and passed its check, 1 when some
op failed, 2 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("qubit-sweep", "general-bracket", "tally-certify", "self-check")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2718
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
from worker import CALIBRATION_REF_NS  # noqa: E402
IMPORT_PROBE = os.path.join(BENCH_DIR, "probe_import.py")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run (missing sources, a worker that crashed)."""


def worker_env(root):
    env = {k: v for k, v in os.environ.items() if k != "MCM_THREADS"}
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def _probe(args, env, root):
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=root, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"import probe timed out: {err}") from err
    if proc.returncode != 0:
        raise BenchError(f"import probe failed:\n{proc.stderr.strip()}")
    return proc


def setup_times(env, root):
    """Median import time over fresh processes, each scaled to reference host
    speed by the calibration kernel timed right after it (see worker.py).
    Without compiled bytecode one warm-up import writes it first: users pay
    that once per install, not per run. Returns the median and the raw
    samples."""
    if not os.path.isdir(os.path.join(root, "src", "mcdisc", "__pycache__")):
        _probe([IMPORT_PROBE], env, root)
    samples = [tuple(float(v) for v in _probe([IMPORT_PROBE], env, root).stdout.split())
               for _ in range(SETUP_SAMPLES)]
    ref_s = CALIBRATION_REF_NS / 1e9
    return statistics.median(imp * ref_s / cal for imp, cal in samples), samples


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_breakdown(env, root):
    """Self time of scipy's and mcdisc's own modules from `python -X importtime`."""
    scipy_s, mcdisc_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = _probe(["-X", "importtime", "-c", "import mcdisc, mcdisc.cli"], env, root)
        scipy_us = mcdisc_us = 0
        for match in _IMPORTTIME.finditer(proc.stderr):
            self_us, module = int(match.group(1)), match.group(4)
            top = module.split(".")[0]
            scipy_us += self_us if top == "scipy" else 0
            mcdisc_us += self_us if top == "mcdisc" else 0
        scipy_s.append(scipy_us / 1e6)
        mcdisc_s.append(mcdisc_us / 1e6)
    return statistics.median(scipy_s), statistics.median(mcdisc_s)


def run_workload(name, seed, seconds, trace, root, work):
    env = worker_env(root)
    setup_s, setup_samples = setup_times(env, root)
    workdir = os.path.join(work, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(work, f"result-{name}-seed{seed}-trace{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--src", os.path.join(root, "src"), "--workdir", workdir, "--out", out]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s") from err
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchError(f"{name}: worker exited with status {proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    result["setup_s"] = setup_s
    result["setup_raw_s"] = statistics.median(imp for imp, _cal in setup_samples)
    result["setup_samples_s"] = setup_samples
    result["source_sha256"] = source_digest(root)
    if trace:
        spans = os.path.join(work, f"spans-{name}.tsv")     # tens of MB: keep the latest only
        os.replace(result["spans_file"], spans)
        result["spans_file"] = spans
        scipy_s, mcdisc_s = import_breakdown(env, root)
        result["layers"]["setup.import.scipy_s"] = scipy_s
        result["layers"]["setup.import.mcdisc_self_s"] = mcdisc_s
    shutil.rmtree(workdir, ignore_errors=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def source_digest(root):
    """sha256 over the package sources, to identify the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "mcdisc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def end_to_end(result):
    scaled = result["untraced"]["scaled"]
    return {
        "setup_s": result["setup_s"],
        "ops_per_s": scaled["ops_per_s"],
        "op_p50_ms": scaled["op_p50_ms"],
        "op_tail_ms": scaled["op_tail_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(name, result, trace):
    u = result["untraced"]
    print(f"== {name} (seed {result['seed']}, {u['ops']} ops in {u['cycles']} cycles, "
          f"{u['busy_s']:.2f} s timed)")
    if trace:
        t = result["traced"]
        print(f"   traced: {t['ops']} ops, overhead {result['layers']['trace.overhead_frac']:.3f}, "
              f"{result['spans']} spans -> {result['spans_file']}")
        return
    raw = dict(u["raw"], setup_s=result["setup_raw_s"], peak_rss_mb=result["peak_rss_mb"])
    for metric, value in end_to_end(result).items():
        print(f"   {metric:<12} {value:12.6g} {E2E_UNITS[metric]:<4}  (raw {raw[metric]:.6g})")
    print(f"   op_tail is p{u['op_tail_percentile']} of {u['op_tail_samples']} ops; "
          f"err_ratio {u['err_ratio']:.3g}; failed {u['failed']}/{u['ops']}")
    for key in ("rows_per_s", "trials_per_s", "analytic_share", "width_median", "width_max"):
        if key in u:
            print(f"   {key:<12} {u[key]:12.6g}")


def metric_payload(values, units):
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mcdisc", "__init__.py")):
        print("bench: run from the repository root; src/mcdisc was not found", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_build", "mcdisc-bench")
    os.makedirs(work, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, root, work)
            report(name, results[name], args.trace)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2

    phases = [r["untraced"] for r in results.values()]
    if args.trace:
        phases += [r["traced"] for r in results.values()]
    attempted = sum(p["ops"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        if args.trace:
            values = result["layers"]
            units = layer_units(values)
        else:
            values, units = end_to_end(result), E2E_UNITS
        for key, payload in metric_payload(values, units).items():
            metrics[prefix + key] = payload
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


def layer_units(values):
    units = {}
    for key in values:
        if key.endswith(".calls_per_op") or key.endswith(".nfev_per_op"):
            units[key] = "count/op"
        elif key.endswith("_s") and key.startswith("setup."):
            units[key] = "s"
        elif key == "trace.op_ms":
            units[key] = "ms"
        elif key.endswith("rows_per_s"):
            units[key] = "rows/s"
        elif key.endswith("trials_per_s"):
            units[key] = "trials/s"
        elif key.startswith("certify.general.width."):
            units[key] = "none"
        else:
            units[key] = "ratio"
    return units


if __name__ == "__main__":
    sys.exit(main())
