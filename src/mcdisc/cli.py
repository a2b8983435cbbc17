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
import json
import sys

import numpy as np

from .certify import (
    OutcomeRates,
    WeightVector,
    certify_general,
    certify_qubit,
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
from .ncmodel import nc_certified
from .oracle import SearchConfig, brute_confidence, brute_guess, brute_ud
from .simulator import ExperimentSpec, certify_from_tally, run, tally_to_json
from .strategies import (
    guess_nc,
    helstrom,
    mcm_noncontextual,
    mcm_quantum,
    povm_from_json,
    povm_to_json,
    ud_noncontextual,
    ud_quantum,
)

DOMINANCE_SLACK = 1e-12


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _emit(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
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
    return var, np.linspace(start, end, steps)


def _csv(header: str, rows: list) -> str:
    lines = [header]
    lines += [",".join(_fmt(v) if not isinstance(v, str) else v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_sweep(header: str, xs, row, breach, out_path) -> int:
    """Build one CSV row per x in x order, check dominance, write the CSV.

    breach(row) returns a message when the row breaks dominance; the first
    one goes to stderr, nothing is written and the exit code is 1.
    """
    rows = [row(x) for x in xs]
    for r in rows:
        message = breach(r)
        if message:
            print(message, file=sys.stderr)
            return 1
    _emit(_csv(header, rows), out_path)
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _bounds_point(task: str, c: float, p: float):
    if task == "med":
        pair = make_pure_pair(PairSpec(c)) if p == 0.0 else make_noisy_pair(PairSpec(c, p))
        return helstrom(pair).value, guess_nc(c, p).value
    if task == "ud":
        return ud_quantum(c).value, ud_noncontextual(c).value
    return mcm_quantum(c, p).value, mcm_noncontextual(c, p).value


def cmd_bounds(args) -> int:
    task = args.task
    if args.sweep:
        var, xs = _parse_sweep(args.sweep, ("c", "p"))
    else:
        var, xs = ("p", [args.p]) if task == "mcm" else ("c", [args.c])

    def row(x):
        c = x if var == "c" else args.c
        p = x if var == "p" else args.p
        q, nc = _bounds_point(task, c, p)
        return (x, q, nc)

    def breach(r):
        x, q, nc = r
        better = q <= nc + DOMINANCE_SLACK if task == "ud" else q >= nc - DOMINANCE_SLACK
        if not better:
            return f"dominance violated at x={_fmt(x)}: {_fmt(q)} vs {_fmt(nc)}"

    return _write_sweep("x,quantum,noncontextual", xs, row, breach, args.out)


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
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
        return 0

    if args.sweep:
        _, xs = _parse_sweep(args.sweep, ("eta1",))

        def row(eta1):
            report = certify_qubit(args.c, args.p, eta1)
            nc = nc_certified(args.c, args.p, eta1)
            return (eta1, report.value, nc.value, report.branch)

        def breach(r):
            eta1, q, nc, _branch = r
            if q < nc - DOMINANCE_SLACK:
                return f"dominance violated at eta1={_fmt(eta1)}: {_fmt(q)} < {_fmt(nc)}"

        return _write_sweep("x,quantum,noncontextual,branch", xs, row, breach, args.out)

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
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
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
        _emit(tally_to_json(tally) + "\n", args.out)
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
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcdisc",
        description="Quantum vs noncontextual bounds for two-state discrimination "
        "and maximum-confidence certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="discrimination bound pairs as CSV")
    b.add_argument("--task", choices=("med", "ud", "mcm"), required=True)
    b.add_argument("--c", type=float, default=0.5, help="confusability")
    b.add_argument("--p", type=float, default=0.0, help="depolarizing noise")
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
