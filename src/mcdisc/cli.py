"""Command-line front end.

Subcommands:
  bounds    discrimination bound pairs (quantum vs noncontextual) as CSV
  certify   certified maximum confidence: JSON report or eta1 sweep CSV
  simulate  run a prepare-and-measure experiment, emit the tally JSON
  verify    self-checks: KKT residuals or oracle-vs-closed-form agreement

Exit codes: 0 success, 1 verification or dominance failure, 2 usage or
domain error, 3 infeasible rates. A NumericalError (an internal consistency
check that lost precision) is a McdiscError, so it also exits 2 with
"error: ..." on stderr and no traceback.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .certify import (
    OutcomeRates,
    WeightVector,
    certify_general,
    certify_qubit,
    certify_qubit_curve,
    verify_kkt,
)
from .ensembles import (
    PairSpec,
    ensemble_from_json,
    make_noisy_pair,
    make_pure_pair,
    matrix_to_json,
)
from .errors import InfeasibleRateError, InvalidSpecError, McdiscError, OutOfRangeError
from .ncmodel import BRANCHES, nc_certified, nc_certified_curve
from .oracle import SearchConfig, brute_confidence, brute_guess, brute_ud
from .simulator import ExperimentSpec, certify_from_tally, run, tally_to_json
from .strategies import (
    bound_curves,
    helstrom,
    mcm_quantum,
    povm_from_json,
    povm_to_json,
    ud_quantum,
)

DOMINANCE_SLACK = 1e-12
CSV_BLOCK = 1024    # rows formatted and written at a time


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _emit(chunks, out_path):
    """Write an iterable of strings to out_path, or to stdout without one."""
    if not out_path:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    try:
        with open(out_path, "w", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as err:
        raise McdiscError(f"cannot write {out_path}: {err.strerror}") from None


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as err:
        raise McdiscError(f"cannot read {path}: {err.strerror}") from None


def _floats(raw: str, option: str) -> tuple:
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise OutOfRangeError(f"{option} {raw!r} is not a list of numbers") from None


def _parse_sweep(raw: str, allowed: tuple):
    parts = raw.split(":")
    if len(parts) != 4:
        raise OutOfRangeError(f"sweep spec {raw!r} is not var:start:end:steps")
    try:
        var, start, end, steps = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise OutOfRangeError(f"sweep spec {raw!r} has a non-numeric bound or step count") from None
    if var not in allowed:
        raise OutOfRangeError(f"sweep variable {var!r} not one of {allowed}")
    if steps < 2:
        raise OutOfRangeError("sweep needs at least 2 steps")
    if not start < end:
        raise OutOfRangeError(f"sweep range [{start}, {end}] is empty")
    if not np.isfinite(end - start):
        raise OutOfRangeError(f"sweep range [{start}, {end}] has no finite width")
    return var, np.linspace(start, end, steps)


def _csv_blocks(header: str, template: str, columns: list):
    """The CSV text in blocks of CSV_BLOCK rows: the header line, then
    template % row for each row of the equally long columns."""
    yield header + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK):
        block = [col[start:start + CSV_BLOCK].tolist() for col in columns]
        yield "".join(map(template.__mod__, zip(*block)))


def _dominance_breach(message: str) -> int:
    print(f"dominance violated at {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    """Bound pairs over the sweep, or at the single point --c (--p for mcm),
    computed for every row at once. The first row where the quantum value
    does not dominate goes to stderr with exit code 1 and nothing written."""
    if args.sweep:
        var, xs = _parse_sweep(args.sweep, ("c", "p"))
    else:
        var, xs = ("p", np.array([args.p])) if args.task == "mcm" else ("c", np.array([args.c]))
    quantum, nc = bound_curves(args.task, *((xs, args.p) if var == "c" else (args.c, xs)))
    if args.task == "ud":
        breach = quantum > nc + DOMINANCE_SLACK
    else:
        breach = quantum < nc - DOMINANCE_SLACK
    if breach.any():
        i = int(np.argmax(breach))
        return _dominance_breach(f"x={_fmt(xs[i])}: {_fmt(quantum[i])} vs {_fmt(nc[i])}")
    _emit(_csv_blocks("x,quantum,noncontextual", "%.12g,%.12g,%.12g\n", [xs, quantum, nc]), args.out)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _dual_payload(dual) -> dict:
    payload = {
        "K": matrix_to_json(dual.K),
        "s": [float(v) for v in dual.s],
        "r": [float(v) for v in dual.r],
        "sigma": [matrix_to_json(m) for m in dual.sigma],
        "r0": float(dual.r0),
        "sigma0": matrix_to_json(dual.sigma0),
    }
    if dual.lam is not None:
        payload["lambda"] = float(dual.lam)
        payload["X1"] = matrix_to_json(dual.X1)
        payload["X2"] = matrix_to_json(dual.X2)
    return payload


def cmd_certify(args) -> int:
    if args.ensemble:
        e = ensemble_from_json(_read(args.ensemble))
        if not args.rates:
            raise OutOfRangeError("--ensemble requires --rates")
        eta = _floats(args.rates, "--rates")
        rates = OutcomeRates(eta, 1.0 - sum(eta))
        alpha = (
            WeightVector(_floats(args.alpha, "--alpha"))
            if args.alpha
            else WeightVector((1.0,) + (0.0,) * (len(eta) - 1))
        )
        cert = certify_general(e, alpha, rates)
        payload = {
            "lower": cert.lower,
            "upper": cert.upper,
            "povm": povm_to_json(cert.povm),
            "dual": _dual_payload(cert.dual),
        }
        _emit([json.dumps(payload, indent=2, sort_keys=True) + "\n"], args.out)
        return 0

    if args.sweep:
        _, xs = _parse_sweep(args.sweep, ("eta1",))
        quantum, branch = certify_qubit_curve(args.c, args.p, xs)
        nc = nc_certified_curve(args.c, args.p, xs)
        breach = quantum < nc - DOMINANCE_SLACK
        if breach.any():
            i = int(np.argmax(breach))
            return _dominance_breach(f"eta1={_fmt(xs[i])}: {_fmt(quantum[i])} < {_fmt(nc[i])}")
        columns = [xs, quantum, nc, np.array(BRANCHES, dtype=object)[branch]]
        _emit(_csv_blocks("x,quantum,noncontextual,branch", "%.12g,%.12g,%.12g,%s\n", columns),
              args.out)
        return 0

    if args.eta1 is None:
        raise OutOfRangeError("certify needs --eta1 (or --sweep / --ensemble)")
    report = certify_qubit(args.c, args.p, args.eta1)
    payload = {
        "c": args.c,
        "p": args.p,
        "eta1": args.eta1,
        "value": report.value,
        "branch": report.branch,
        "rank_two": report.rank_two,
        "gap": report.gap,
        "noncontextual": nc_certified(args.c, args.p, args.eta1).value,
        "povm": povm_to_json(report.povm),
        "dual": _dual_payload(report.dual),
    }
    _emit([json.dumps(payload, indent=2, sort_keys=True) + "\n"], args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    try:
        raw = json.loads(_read(args.spec))
        ensemble_doc, povm_doc = raw["ensemble"], raw["povm"]
        trials = args.trials if args.trials is not None else int(raw.get("trials", 100000))
        seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
        loss = args.loss if args.loss is not None else float(raw.get("loss", 0.0))
    except KeyError as err:
        raise InvalidSpecError(f"experiment spec {args.spec} has no key {err}") from None
    except (ValueError, TypeError) as err:
        raise InvalidSpecError(f"malformed experiment spec {args.spec}: {err}") from None
    e = ensemble_from_json(json.dumps(ensemble_doc))
    povm = povm_from_json(povm_doc)
    tally = run(ExperimentSpec(e, povm, trials, seed, loss))

    if not args.certify:
        _emit([tally_to_json(tally) + "\n"], args.out)
        return 0
    cert = certify_from_tally(tally, e)
    payload = json.loads(tally_to_json(tally))
    payload["certification"] = {
        "eta1_interval": list(cert.eta1_interval),
        "value_interval": list(cert.value_interval),
        "value": getattr(cert.report, "value", None),
        "branch": getattr(cert.report, "branch", None),
        "upper": getattr(cert.report, "upper", None),
    }
    _emit([json.dumps(payload, indent=2, sort_keys=True) + "\n"], args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_kkt_mode(args) -> int:
    report = certify_qubit(args.c, args.p, args.eta1)
    e = make_noisy_pair(PairSpec(args.c, args.p))
    ok, residuals = verify_kkt(
        e,
        WeightVector((1.0,)),
        OutcomeRates((args.eta1,), 1.0 - args.eta1),
        report.povm,
        report.dual,
    )
    width = max(len(k) for k in residuals)
    for name, value in residuals.items():
        print(f"{name:<{width}}  {_fmt(value)}")
    print(f"kkt {'ok' if ok else 'FAILED'} (branch {report.branch})")
    return 0 if ok else 1


def _verify_oracle_mode(args) -> int:
    if args.samples < 1:
        raise OutOfRangeError(f"--samples={args.samples} must be at least 1")
    cfg = SearchConfig(seed=args.seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    worst = 0.0
    for _ in range(args.samples):
        c = float(rng.uniform(0.05, 0.95))
        p = float(rng.uniform(0.0, 0.9))
        eta1 = float(rng.uniform(0.05, 1.0))
        pure = make_pure_pair(PairSpec(c))
        noisy = make_noisy_pair(PairSpec(c, p))
        devs = [
            abs(brute_guess(noisy, cfg) - helstrom(noisy).value),
            abs(brute_confidence(noisy, None, cfg) - mcm_quantum(c, p).value),
            abs(brute_ud(pure, cfg) - ud_quantum(c).value),
            abs(brute_confidence(noisy, eta1, cfg) - certify_qubit(c, p, eta1).value),
        ]
        worst = max(worst, *devs)
    print(f"max oracle deviation over {args.samples} samples: {_fmt(worst)}")
    return 0 if worst <= 1e-3 else 1


def cmd_verify(args) -> int:
    if args.mode == "kkt":
        if args.eta1 is None:
            raise OutOfRangeError("verify --mode kkt needs --eta1")
        return _verify_kkt_mode(args)
    return _verify_oracle_mode(args)


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later main() call in the process. parse_args keeps no state between
    calls: each returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="mcdisc",
        description="Quantum vs noncontextual bounds for two-state discrimination "
        "and maximum-confidence certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="discrimination bound pairs as CSV")
    b.add_argument("--task", choices=("med", "ud", "mcm"), required=True)
    b.add_argument("--c", type=float, default=0.5, help="confusability")
    b.add_argument("--p", type=float, default=0.0,
                   help="depolarizing noise (ignored by --task ud, which always "
                        "reports the noiseless pair)")
    b.add_argument("--sweep", help="var:start:end:steps with var in {c,p}")
    b.add_argument("--out", help="output path (default stdout)")
    b.set_defaults(fn=cmd_bounds)

    c = sub.add_parser("certify", help="certified maximum confidence")
    c.add_argument("--c", type=float, default=0.5)
    c.add_argument("--p", type=float, default=0.0)
    c.add_argument("--eta1", type=float)
    c.add_argument("--sweep", help="eta1:start:end:steps")
    c.add_argument("--ensemble", help="ensemble JSON file (general route)")
    c.add_argument("--rates", help="comma-separated detector rates (general route)")
    c.add_argument("--alpha", help="comma-separated confidence weights")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_certify)

    s = sub.add_parser("simulate", help="prepare-and-measure Monte Carlo")
    s.add_argument("--spec", required=True, help="experiment JSON file")
    s.add_argument("--trials", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--loss", type=float)
    s.add_argument("--certify", action="store_true", help="append certification")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_simulate)

    v = sub.add_parser("verify", help="KKT residuals or oracle agreement")
    v.add_argument("--mode", choices=("kkt", "oracle"), required=True)
    v.add_argument("--c", type=float, default=0.5)
    v.add_argument("--p", type=float, default=0.0)
    v.add_argument("--eta1", type=float)
    v.add_argument("--samples", type=int, default=50)
    v.add_argument("--seed", type=int, default=1)
    v.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleRateError as err:
        print(f"infeasible rates: {err}", file=sys.stderr)
        return 3
    except McdiscError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
