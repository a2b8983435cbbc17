"""Run one workload in a fresh process and write its measurements as JSON.

Started by run.py with BLAS pinned to one thread, MCM_THREADS removed and
PYTHONPATH pointing at the checkout's src/. One caller, closed loop: each
op starts when the previous one has returned, and no op starts threads.

usage: worker.py --workload NAME --seed N --seconds S --trace 0|1
                 --src DIR --workdir DIR --out FILE
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns, process_time_ns

CALIBRATION_REF_NS = 3.2e6  # calibration_kernel time on a quiet host; scaled times assume it
RAW_TIME_CAP = 1.5  # a run also stops after raw op time passes this many --seconds
TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail percentile

BOUND_FNS = {
    f"strategies.{fn}"
    for fn in ("helstrom", "guess_nc", "ud_quantum", "ud_noncontextual",
               "mcm_quantum", "mcm_noncontextual", "mcm_quantum_general")
}

# Per-layer keys reported as calls_per_op, self_frac and total_frac.
FN_KEYS = (
    "cli.main",
    "certify.certify_qubit",
    "ncmodel.nc_certified",
    "strategies.Povm",
    "strategies.bounds",
    "ensembles",
    "certify.certify_general",
    "certify.verify_kkt",
    "simulator.run",
    "simulator.certify_from_tally",
    "oracle.brute_guess",
    "oracle.brute_confidence",
    "oracle.brute_ud",
)


def tail(sorted_values):
    """Highest integer percentile with at least TAIL_SAMPLES samples beyond it
    (nearest rank); falls back to the maximum for short runs."""
    n = len(sorted_values)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_SAMPLES:
            return sorted_values[rank - 1], pct
    return sorted_values[-1], 100


def calibration_kernel(_state=[]):
    """Fixed work in the style of the package, touching no mcdisc code: a
    loop of Python arithmetic on small arrays with 2x2 Hermitian
    eigendecompositions (the closed forms, qmath), then one vectorised
    sampling chunk like the simulator's. Its time tracks the speed the host
    gives this process for both kinds of work."""
    import numpy as np

    if not _state:
        _state += [np.array([[1.0, 0.25 - 0.1j], [0.25 + 0.1j, 0.5]]),
                   np.random.Generator(np.random.Philox(0)),
                   np.array([0.5, 1.0]), np.array([[0.2, 0.5, 1.0], [0.4, 0.9, 1.0]])]
    a, rng, prior_cum, cums = _state
    acc = 0.0
    for i in range(100):
        m = a + (i * 1e-3) * a.T
        w, _v = np.linalg.eigh(m)
        acc += math.sqrt(abs(float(w[0])) + i) + float(np.real(np.trace(m @ m)))
    counts = np.zeros(cums.shape, dtype=np.int64)
    xs = np.searchsorted(prior_cum, rng.random(1 << 14), side="right")
    ys = (rng.random(1 << 14)[:, None] >= cums[xs]).sum(axis=1)
    np.add.at(counts, (xs, ys), 1)
    return acc + counts[0, 0]


def timed_calibration():
    start = perf_counter_ns()
    calibration_kernel()
    return perf_counter_ns() - start


def run_phase(workload_name, seed, seconds, workdir, tracer=None, min_cycles=None):
    """Run whole cycles until op time, scaled to reference host speed,
    reaches `seconds`, so a slow spell on the host does not shrink the
    sample (raw op time is capped at RAW_TIME_CAP * seconds, to bound the
    run's length); check each cycle after it ran."""
    import workloads

    wl = workloads.make(workload_name, seed, workdir)
    min_cycles = getattr(wl, "MIN_CYCLES", 1) if min_cycles is None else min_cycles
    latencies, kinds, failures = [], [], []
    worst = 0.0
    busy_ns, cpu_ns, scaled_ns, cycle = 0, 0, 0.0, 0
    calibration = []
    while cycle < min_cycles or (
        scaled_ns < seconds * 1e9 and busy_ns < RAW_TIME_CAP * seconds * 1e9
    ):
        ops = wl.cycle(cycle)
        done = []
        for op in ops:
            op_id = len(latencies)
            calibration.append(timed_calibration())
            cpu_start = process_time_ns()
            start = perf_counter_ns()
            try:
                result = tracer.run_op(op_id, op.run) if tracer else op.run()
                error = None
            except Exception as err:    # a raising op is a failed op, not a crash
                result, error = None, f"{type(err).__name__}: {err}"
            elapsed = perf_counter_ns() - start
            cpu_ns += process_time_ns() - cpu_start
            busy_ns += elapsed
            scaled_ns += elapsed * CALIBRATION_REF_NS / statistics.median(calibration[-3:])
            latencies.append(elapsed)
            kinds.append(op.kind)
            done.append((op_id, op, result, error))
        for op_id, op, result, error in done:
            if error is None:
                try:
                    ratio = op.check(result)
                except Exception as err:    # malformed output fails the op
                    ratio, error = math.inf, f"check: {type(err).__name__}: {err}"
            else:
                ratio = math.inf
            if not ratio <= 1.0:
                failures.append({"op": op_id, "kind": op.kind, "cycle": cycle,
                                 "error": error, "err_ratio": repr(ratio)})
            else:
                worst = max(worst, ratio)
        cycle += 1
    calibration.append(timed_calibration())
    return wl, {
        "calibration_ns": calibration,
        "cycles": cycle,
        "latencies_ns": latencies,
        "kinds": kinds,
        "failures": failures,
        "err_ratio": worst,
        "busy_s": busy_ns / 1e9,
        "cpu_s": cpu_ns / 1e9,
    }


def scaled_latencies(phase):
    """Each op's latency times CALIBRATION_REF_NS over the median of the
    calibration samples taken around it."""
    cal = phase["calibration_ns"]
    out = []
    for i, ns in enumerate(phase["latencies_ns"]):
        local = statistics.median(cal[max(0, i - 2): i + 4])
        out.append(ns * CALIBRATION_REF_NS / local)
    return out


def latency_stats(latencies_ns):
    lat = sorted(latencies_ns)
    tail_ns, _ = tail(lat)
    return {
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
    }


def summarize_phase(wl, phase):
    lat = phase["latencies_ns"]
    by_kind = defaultdict(list)
    for kind, ns in zip(phase["kinds"], lat):
        by_kind[kind].append(ns)
    out = {
        "ops": len(lat),
        "cycles": phase["cycles"],
        "busy_s": phase["busy_s"],
        "cpu_s": phase["cpu_s"],
        "calibration_ms": statistics.median(phase["calibration_ns"]) / 1e6,
        "raw": latency_stats(lat),
        "scaled": latency_stats(scaled_latencies(phase)),
        "op_tail_percentile": tail(sorted(lat))[1],
        "op_tail_samples": len(lat),
        "kind_p50_ms": {k: statistics.median(v) / 1e6 for k, v in sorted(by_kind.items())},
        "kind_count": {k: len(v) for k, v in sorted(by_kind.items())},
        "latencies_ms": [ns / 1e6 for ns in lat],
        "kinds": phase["kinds"],
        "failed": len(phase["failures"]),
        "failures": phase["failures"][:20],
        "err_ratio": phase["err_ratio"],
    }
    # Throughputs use op time scaled to reference host speed, as above.
    scale = sum(scaled_latencies(phase)) / sum(lat)
    if hasattr(wl, "rows"):
        out["rows"] = wl.rows
        out["rows_per_s"] = wl.rows / (phase["busy_s"] * scale)
        out["cli_sha256_cycle0"] = wl.digests[: wl.cycle_len]
    if hasattr(wl, "trials"):
        out["trials"] = wl.trials
        out["trials_per_s"] = wl.trials / (wl.sim_ns / 1e9 * scale)
        out["routes"] = dict(wl.routes)
        out["analytic_share"] = wl.routes["analytic"] / max(1, sum(wl.routes.values()))
    if hasattr(wl, "widths"):
        out["widths"] = {k: statistics.median(v) for k, v in sorted(wl.widths.items())}
        every = [w for v in wl.widths.values() for w in v]
        out["width_median"] = statistics.median(every)
        out["width_max"] = max(every)
    return out


def layer_metrics(tracer, n_ops):
    """Per-layer calls per op, and self and total time as shares of op time."""
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name = {name: _keys(name) for name in {span[0] for span in spans}}
    keys = [by_name[span[0]] for span in spans]
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    op_ns = 0
    analytic = general = 0
    for i, (name, start, end, parent, _op) in enumerate(spans):
        if name == "op":
            op_ns += end - start
            continue
        ancestors = set()
        up = parent
        while up >= 0:
            ancestors.update(keys[up])
            up = spans[up][3]
        for key in keys[i]:
            calls[key] += 1
            self_ns[key] += selfs[i]
            if key not in ancestors:
                total_ns[key] += end - start
        if "simulator.certify_from_tally" in ancestors:
            analytic += name == "certify.certify_qubit"
            general += name == "certify.certify_general"
    m = {}
    for key in FN_KEYS:
        m[f"{key}.calls_per_op"] = calls[key] / n_ops
        m[f"{key}.self_frac"] = self_ns[key] / op_ns
        m[f"{key}.total_frac"] = total_ns[key] / op_ns
    m["qmath.calls_per_op"] = calls["qmath"] / n_ops
    m["qmath.self_frac"] = self_ns["qmath"] / op_ns
    m["qmath.eig_hermitian.calls_per_op"] = calls["qmath.eig_hermitian"] / n_ops
    m["qmath.min_eig.calls_per_op"] = calls["qmath.min_eig"] / n_ops
    m["scipy.optimize.calls_per_op"] = calls["scipy.optimize"] / n_ops
    m["scipy.optimize.total_frac"] = total_ns["scipy.optimize"] / op_ns
    m["scipy.optimize.nfev_per_op"] = tracer.counters["scipy.optimize.nfev"] / n_ops
    m["numpy.linalg.eigvalsh.calls_per_op"] = calls["numpy.linalg.eigvalsh"] / n_ops
    m["simulator.route.analytic_frac"] = analytic / (analytic + general) if analytic + general else 0.0
    m["trace.op_ms"] = op_ns / n_ops / 1e6
    seconds = {key: {"calls": calls[key], "self_s": self_ns[key] / 1e9, "total_s": total_ns[key] / 1e9}
               for key in sorted(calls)}
    return m, seconds


def workload_metrics(untraced):
    """Throughput and width figures that one workload produces; 0 on the others."""
    import workloads

    widths = untraced.get("widths", {})
    labels = [workloads.class_label(*cls) for cls in workloads.GENERAL_CLASSES] + ["canonical"]
    m = {
        "cli.rows_per_s": untraced.get("rows_per_s", 0.0),
        "simulator.run.trials_per_s": untraced.get("trials_per_s", 0.0),
        "certify.general.width.median": untraced.get("width_median", 0.0),
        "certify.general.width.max": untraced.get("width_max", 0.0),
    }
    m.update({f"certify.general.width.{label}": widths.get(label, 0.0) for label in labels})
    return m


def _keys(name):
    keys = [name]
    layer = name.split(".")[0]
    if layer in ("qmath", "ensembles"):
        keys.append(layer)
    if name in BOUND_FNS:
        keys.append("strategies.bounds")
    if name.startswith("scipy.optimize."):
        keys.append("scipy.optimize")
    return keys


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    if "MCM_THREADS" in os.environ:
        raise SystemExit("MCM_THREADS must not be set in the workload process")
    start = perf_counter_ns()
    import mcdisc
    import mcdisc.cli  # noqa: F401
    import_s = (perf_counter_ns() - start) / 1e9
    here = os.path.realpath(os.path.dirname(mcdisc.__file__))
    if here != os.path.realpath(os.path.join(args.src, "mcdisc")):
        raise SystemExit(f"imported mcdisc from {here}, not from {args.src}")

    import numpy
    import scipy

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "import_s": import_s,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mcdisc": mcdisc.__version__,
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "mcm_threads_set": "MCM_THREADS" in os.environ,
        },
    }
    if not args.trace:
        wl, phase = run_phase(args.workload, args.seed, args.seconds, args.workdir)
        result["untraced"] = summarize_phase(wl, phase)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        half = args.seconds / 2.0
        wl, phase = run_phase(args.workload, args.seed, half, args.workdir, min_cycles=1)
        result["untraced"] = summarize_phase(wl, phase)
        tr = tracing.Tracer()
        result["wrapped"] = tracing.install(tr)
        wl, phase = run_phase(args.workload, args.seed, half, args.workdir, tracer=tr,
                              min_cycles=1)
        traced = summarize_phase(wl, phase)
        result["traced"] = traced
        layers, seconds = layer_metrics(tr, traced["ops"])
        layers["trace.overhead_frac"] = (
            1.0 - traced["scaled"]["ops_per_s"] / result["untraced"]["scaled"]["ops_per_s"]
        )
        layers["check.err_ratio"] = max(result["untraced"]["err_ratio"], traced["err_ratio"])
        layers.update(workload_metrics(result["untraced"]))
        result["layers"] = layers
        result["layer_seconds"] = seconds
        spans_path = os.path.join(args.workdir, "spans.tsv")
        tr.write(spans_path)
        result["spans_file"] = spans_path
        result["spans"] = len(tr.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
