"""CLI surface: CSV/JSON shapes, exit codes, sweeps, and reproducibility."""
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcdisc
from mcdisc import cli
from mcdisc.certify import certify_qubit_ensemble
from mcdisc.cli import main
from mcdisc.ensembles import (
    Ensemble,
    PairSpec,
    ensemble_to_json,
    make_noisy_pair,
    make_pure_pair,
    pure_state,
)
from mcdisc.simulator import wilson_interval
from mcdisc.strategies import Povm, bound_curves, mcm_quantum, povm_to_json


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_sim_spec(path, trials=20_000, seed=7):
    e = make_noisy_pair(PairSpec(0.5, 0.5))
    povm = mcm_quantum(0.5, 0.5).measurement
    doc = {
        "ensemble": json.loads(ensemble_to_json(e)),
        "povm": povm_to_json(povm),
        "trials": trials,
        "seed": seed,
    }
    path.write_text(json.dumps(doc))


def fresh_env():
    """The environment for a new Python process that imports the same mcdisc
    as this test, installed or not."""
    src = os.path.dirname(os.path.dirname(mcdisc.__file__))
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def fresh_process(argv):
    """Start `python -m mcdisc.cli argv` in a new process; the caller
    collects it with communicate()."""
    return subprocess.Popen(
        [sys.executable, "-m", "mcdisc.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(),
    )


# --- bounds -----------------------------------------------------------------

def test_bounds_ud_single_point(capsys):
    code, out, err = run_cli(capsys, ["bounds", "--task", "ud", "--c", "0.5"])
    assert code == 0 and err == ""
    assert out == "x,quantum,noncontextual\n0.5,0.707106781187,0.75\n"


def test_bounds_ud_ignores_noise(capsys):
    # Documented: the ud pair is always the noiseless one, whatever --p says.
    argv = ["bounds", "--task", "ud", "--sweep", "c:0:1:3"]
    _, noiseless, _ = run_cli(capsys, argv)
    code, noisy, err = run_cli(capsys, [*argv, "--p", "0.2"])
    assert code == 0 and err == "" and noisy == noiseless


def test_bounds_med_orthogonal(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--task", "med", "--c", "0"])
    assert code == 0
    assert out.splitlines()[1] == "0,1,1"


def test_bounds_mcm_noiseless_point(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--task", "mcm", "--c", "0.5", "--p", "0"])
    assert code == 0
    assert out.splitlines()[1] == "0,1,1"


def test_bounds_sweep_shape(capsys):
    code, out, _ = run_cli(
        capsys, ["bounds", "--task", "mcm", "--c", "0.5", "--sweep", "p:0:1:11"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,quantum,noncontextual"
    assert len(lines) == 12
    assert out.endswith("\n") and "\r" not in out
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[2] == "1"


def test_bounds_mcm_sweep_reaches_identical_states(capsys):
    code, out, err = run_cli(capsys, ["bounds", "--task", "mcm", "--sweep", "c:0:1:5"])
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "1,0.5,0.5"


def test_bounds_mcm_near_identical_states(capsys):
    # Near c = 1 a cancelling 1 - k^2 pushes the value past 1, which
    # BoundResult rejects.
    code, out, err = run_cli(capsys, ["bounds", "--task", "mcm", "--c", "0.999999", "--p", "0"])
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "0,1,1"
    code, out, err = run_cli(
        capsys, ["bounds", "--task", "mcm", "--p", "0", "--sweep", "c:0.99:1:10001"]
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 10002


def test_bounds_med_accepts_noise(capsys):
    code, out, err = run_cli(
        capsys, ["bounds", "--task", "med", "--c", "0.5", "--p", "0.2", "--sweep", "c:0:1:2000"]
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 2001


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("certify_c0.5_p0.2_eta1.csv",
         ["certify", "--c", "0.5", "--p", "0.2", "--sweep", "eta1:0.01:1:100"]),
        ("bounds_mcm_c0.5_p.csv",
         ["bounds", "--task", "mcm", "--c", "0.5", "--sweep", "p:0:0.95:100"]),
        ("bounds_ud_c.csv", ["bounds", "--task", "ud", "--sweep", "c:0:1:100"]),
        ("bounds_med_p0_c.csv", ["bounds", "--task", "med", "--p", "0", "--sweep", "c:0:1:100"]),
        ("bounds_med_p0.2_c.csv", ["bounds", "--task", "med", "--p", "0.2", "--sweep", "c:0:1:100"]),
        ("bounds_mcm_p0.3_c.csv", ["bounds", "--task", "mcm", "--p", "0.3", "--sweep", "c:0:1:100"]),
        ("certify_c0.37_p0.21_eta1_20000.sha256",
         ["certify", "--c", "0.37", "--p", "0.21", "--sweep", "eta1:0.013:1:20000"]),
    ],
)
def test_sweep_matches_golden_csv(capsys, name, argv):
    # Closed forms printed to 12 significant digits: byte-stable across
    # platforms. A .sha256 golden holds the digest of a long sweep.
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    golden = (GOLDEN / name).read_bytes()
    if name.endswith(".sha256"):
        assert hashlib.sha256(out.encode()).hexdigest() == golden.decode().strip()
    else:
        assert out.encode() == golden


def test_bounds_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, ["bounds", "--task", "ud", "--sweep", "c:0.1:0.9:5", "--out", str(target)]
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("x,quantum,noncontextual\n")
    assert len(text.splitlines()) == 6


# --- certify ----------------------------------------------------------------

def test_certify_low_rate_report(capsys):
    code, out, _ = run_cli(
        capsys, ["certify", "--c", "0.5", "--p", "0", "--eta1", "0.2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.0, abs=1e-12)
    assert doc["branch"] == "LowRate"
    assert doc["rank_two"] is False
    assert doc["gap"] <= 1e-9
    assert set(doc) >= {"c", "p", "eta1", "noncontextual", "povm", "dual"}
    assert "lambda" in doc["dual"] and "X1" in doc["dual"] and "X2" in doc["dual"]


def test_certify_full_rate_report(capsys):
    code, out, _ = run_cli(
        capsys, ["certify", "--c", "0.5", "--p", "0", "--eta1", "1.0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.5, abs=1e-12)
    assert doc["rank_two"] is True


def test_certify_sweep_has_branch_column(capsys):
    code, out, _ = run_cli(
        capsys,
        ["certify", "--c", "0.5", "--p", "0.5", "--sweep", "eta1:0.05:1:20"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,quantum,noncontextual,branch"
    branches = {line.split(",")[3] for line in lines[1:]}
    assert branches <= {"LowRate", "Sharp", "HighRate"}
    assert len(branches) == 3


def test_certify_general_route(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(ensemble_to_json(make_noisy_pair(PairSpec(0.5, 0.5))))
    code, out, _ = run_cli(
        capsys, ["certify", "--ensemble", str(path), "--rates", "0.5"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] <= doc["upper"]
    assert doc["upper"] == pytest.approx(0.6767766952966369, abs=1e-4)
    assert "dual" in doc and "povm" in doc


def test_certify_general_route_tiny_rate_is_quiet(tmp_path, capsys, tiny_rate_pair):
    # The solver once divided by mu = 0 on this pair and printed numpy warnings.
    e = tiny_rate_pair
    path = tmp_path / "pair.json"
    path.write_text(ensemble_to_json(e))
    code, out, err = run_cli(capsys, ["certify", "--ensemble", str(path), "--rates", "1e-9"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    value = certify_qubit_ensemble(e, 1e-9).value
    assert doc["lower"] - 1e-9 <= value <= doc["upper"] + 1e-9


def test_certify_rejects_out_of_range_c(capsys):
    code, _, err = run_cli(capsys, ["certify", "--c", "1.5", "--eta1", "0.5"])
    assert code == 2
    assert "error:" in err


def test_certify_infeasible_rates_exit_code(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(ensemble_to_json(make_pure_pair(PairSpec(0.5))))
    code, _, err = run_cli(
        capsys, ["certify", "--ensemble", str(path), "--rates", "0.7,0.7"]
    )
    assert code == 3
    assert "infeasible" in err


NEAR_ONE = ["--c", "0.999999999999", "--p", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", *NEAR_ONE, "--eta1", "0.25"],
        ["certify", *NEAR_ONE, "--sweep", "eta1:0.01:1:100"],
        ["verify", "--mode", "kkt", *NEAR_ONE, "--eta1", "0.25"],
    ],
)
def test_certify_near_full_confusability(capsys, argv):
    # c within 1e-12 of 1: the canonical pair keeps its overlap and the
    # certificate its consistency.
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    if argv[0] == "verify":
        assert "kkt ok (branch Sharp)" in out


@pytest.mark.parametrize("c,eta1", [("0.999999999999", "1e-12"), ("0.999999999", "1e-12")])
def test_certify_lost_precision_exits_two(capsys, c, eta1):
    code, out, err = run_cli(capsys, ["certify", "--c", c, "--p", "0", "--eta1", eta1])
    assert code == 2 and out == ""
    assert err.startswith("error: analytic certification lost consistency")


@pytest.mark.parametrize(
    "argv, message",
    [
        # Row 0 (eta1 = 1e-12) loses consistency.
        (["certify", "--c", "0.999999999999", "--p", "0", "--sweep", "eta1:1e-12:0.9:5"],
         "error: analytic certification lost consistency: rate dev -2.21e-17, "
         "value dev -1.92e-05, gap 3.36e-05\n"),
        (["certify", "--c", "0.999999999", "--p", "0", "--sweep", "eta1:1e-12:1:5"],
         "error: analytic certification lost consistency: "),
    ],
)
def test_certify_sweep_lost_precision_exits_two(tmp_path, capsys, argv, message):
    # The sweep fails with certify_qubit's error for its first failing rate,
    # on one stderr line, and writes nothing.
    target = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, [*argv, "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")
    assert not target.exists()
    point = run_cli(capsys, ["certify", *argv[1:5], "--eta1", "1e-12"])
    assert point == (2, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--c", "0.5", "--p", "0.2", "--eta1", "1e-310"],
        ["certify", "--sweep", "eta1:1e-320:1e-300:5"],
        ["verify", "--mode", "kkt", "--c", "0.5", "--p", "0.2", "--eta1", "1e-310"],
    ],
)
def test_overflowing_rate_exits_two(capsys, argv):
    # 1/(2 eta1) and the rate multiplier overflow to inf at these rates.
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: rate eta1=") and "too small" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--spec", "{dir}/missing.json"],
        ["simulate", "--spec", "{dir}/broken.json"],
        ["simulate", "--spec", "{dir}/no_ensemble.json"],
        ["simulate", "--spec", "{dir}/list.json"],
        ["certify", "--ensemble", "{dir}/missing.json", "--rates", "0.5,0.5"],
        ["certify", "--ensemble", "{dir}/pair.json", "--rates", "a,b"],
        ["certify", "--ensemble", "{dir}/pair.json", "--rates", "0.5", "--alpha", "x"],
        ["certify", "--sweep", "eta1:a:1:5"],
        ["bounds", "--task", "mcm", "--sweep", "p:0:1:x"],
        ["bounds", "--task", "ud", "--out", "{dir}/nonexistent/x.csv"],
        ["certify", "--eta1", "0.5", "--out", "{dir}/nonexistent/x.csv"],
        ["certify", "--sweep", "eta1:0:1"],
        ["bounds", "--task", "mcm", "--sweep", "q:0:1:5"],
        ["certify", "--sweep", "eta1:0.1:1:1"],
        ["bounds", "--task", "ud", "--sweep", "c:0.5:0.5:5"],
        ["bounds", "--task", "ud", "--sweep", "c:0:inf:3"],
        ["certify", "--sweep", "eta1:-1e308:1e308:3"],
        ["certify", "--ensemble", "{dir}/pair.json"],
        ["certify"],
    ],
)
def test_bad_user_input_exits_two(tmp_path, capsys, argv):
    (tmp_path / "broken.json").write_text("{not json")
    (tmp_path / "no_ensemble.json").write_text('{"povm": {}}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "pair.json").write_text(ensemble_to_json(make_pure_pair(PairSpec(0.5))))
    code, out, err = run_cli(capsys, [a.format(dir=tmp_path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "patched, argv, message",
    [
        ("nc_certified", ["certify", "--c", "0.5", "--p", "0.2", "--sweep", "eta1:0.1:1:5"],
         "dominance violated at eta1=0.1: 0.842997170285 < 1.5\n"),
        ("mcm_noncontextual", ["bounds", "--task", "mcm", "--sweep", "p:0:0.5:5"],
         "dominance violated at x=0: 1 vs 1.5\n"),
    ],
)
def test_sweep_dominance_breach_exits_one(tmp_path, capsys, monkeypatch, patched, argv, message):
    # A noncontextual value above every quantum one breaks dominance on the
    # first row: that row goes to stderr and no CSV is written. `patched`
    # names the noncontextual bound raised to 1.5, in the array functions the
    # sweep calls.
    def nc_curve(c, p, eta1):
        return np.full(np.shape(eta1), 1.5)

    def mcm_curves(task, c, p):
        quantum, nc = bound_curves(task, c, p)
        return quantum, np.full_like(nc, 1.5)

    name, fake = {"nc_certified": ("nc_certified_curve", nc_curve),
                  "mcm_noncontextual": ("bound_curves", mcm_curves)}[patched]
    monkeypatch.setattr(cli, name, fake)
    target = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, [*argv, "--out", str(target)])
    assert code == 1 and out == ""
    assert err == message and not target.exists()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["bounds"])          # missing required --task
    assert excinfo.value.code == 2


# --- simulate ----------------------------------------------------------------

def test_simulate_emits_tally(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_sim_spec(spec)
    code, out, _ = run_cli(capsys, ["simulate", "--spec", str(spec)])
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 20_000
    assert sum(sum(row) for row in doc["counts"]) == 20_000


def test_simulate_repeats_are_identical(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_sim_spec(spec)
    _, first, _ = run_cli(capsys, ["simulate", "--spec", str(spec)])
    _, second, _ = run_cli(capsys, ["simulate", "--spec", str(spec)])
    assert first == second
    _, reseeded, _ = run_cli(capsys, ["simulate", "--spec", str(spec), "--seed", "8"])
    assert reseeded != first


def test_simulate_negative_seed_exits_two(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_sim_spec(spec)
    code, out, err = run_cli(capsys, ["simulate", "--spec", str(spec), "--seed", "-1"])
    assert code == 2 and out == ""
    assert err.startswith("error: seed=-1") and "Traceback" not in err


def test_simulate_certify_payload(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_sim_spec(spec, trials=50_000)
    code, out, _ = run_cli(capsys, ["simulate", "--spec", str(spec), "--certify"])
    assert code == 0
    doc = json.loads(out)
    cert = doc["certification"]
    assert set(cert) == {"eta1_interval", "value_interval", "value", "branch", "upper"}
    lo, hi = cert["value_interval"]
    assert lo <= hi
    assert cert["branch"] in {"LowRate", "Sharp", "HighRate"}


def test_simulate_certify_rare_clicks(tmp_path, capsys):
    # Detector 1 clicks about 3 times in 1e12 trials, so the Wilson lower
    # endpoint is near 1e-12, where certify_qubit loses its dual consistency.
    spec = tmp_path / "rare.json"
    doc = {
        "ensemble": json.loads(ensemble_to_json(make_noisy_pair(PairSpec(0.5, 0.2)))),
        "povm": povm_to_json(Povm((2e-12 * np.eye(2),), (1.0 - 2e-12) * np.eye(2))),
        "trials": 10**12,
        "seed": 4,
    }
    spec.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["simulate", "--spec", str(spec), "--certify"])
    assert code == 0, err
    payload = json.loads(out)
    lo, hi = payload["certification"]["value_interval"]
    assert math.isfinite(lo) and lo <= hi
    counts = np.array(payload["counts"])
    conf_lo, _ = wilson_interval(int(counts[0, 1]), int(counts[:, 1].sum()), z=3.0)
    assert conf_lo <= hi + 1e-12        # acceptance criterion 8's rule


def test_simulate_certify_unequal_priors_is_analytic(tmp_path, capsys):
    # Every qubit ensemble takes the closed form: value and branch are set
    # and upper, the general route's field, is null.
    spec = tmp_path / "skewed.json"
    doc = {
        "ensemble": json.loads(ensemble_to_json(make_noisy_pair(PairSpec(0.4, 0.1, (0.3, 0.7))))),
        "povm": povm_to_json(Povm((0.3 * np.eye(2),), 0.7 * np.eye(2))),
        "trials": 100_000,
        "seed": 5,
    }
    spec.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["simulate", "--spec", str(spec), "--certify"])
    assert code == 0
    cert = json.loads(out)["certification"]
    assert cert["upper"] is None
    assert cert["branch"] in {"LowRate", "Sharp", "HighRate"}
    assert min(cert["value_interval"]) <= cert["value"] <= max(cert["value_interval"])


# --- verify -------------------------------------------------------------------

def test_verify_kkt_mode(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--mode", "kkt", "--c", "0.5", "--p", "0.3", "--eta1", "0.6"]
    )
    assert code == 0
    assert "kkt ok" in out
    assert "stationarity" in out and "gap" in out


def test_verify_kkt_mode_small_rate(capsys):
    # Stationarity is judged relative to c_1 = q_1/eta1 = 5e7 here.
    code, out, _ = run_cli(
        capsys, ["verify", "--mode", "kkt", "--c", "0.5", "--p", "0.2", "--eta1", "1e-8"]
    )
    assert code == 0
    assert "kkt ok (branch LowRate)" in out


@pytest.mark.parametrize("eta1", ["1e-172", "1e-176", "1e-200", "1e-300"])
def test_verify_kkt_mode_tiny_rate(capsys, eta1):
    # The stationarity residual is scaled before its norm is taken: its
    # entries grow like 1/eta1, so their squares would overflow here.
    code, out, err = run_cli(
        capsys, ["verify", "--mode", "kkt", "--c", "0.5", "--p", "0.2", "--eta1", eta1]
    )
    assert code == 0 and err == ""
    assert "inf" not in out and "kkt ok (branch LowRate)" in out


def test_verify_kkt_needs_eta1(capsys):
    code, _, err = run_cli(capsys, ["verify", "--mode", "kkt"])
    assert code == 2
    assert "eta1" in err


def test_verify_oracle_mode_small_sample(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--mode", "oracle", "--samples", "3", "--seed", "4"]
    )
    assert code == 0
    assert "max oracle deviation" in out


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--seed", "-1"], "error: seed=-1"),
        (["--samples", "0"], "error: --samples=0"),
        (["--samples", "-1"], "error: --samples=-1"),
    ],
)
def test_verify_oracle_mode_rejects_bad_arguments(capsys, extra, message):
    code, out, err = run_cli(capsys, ["verify", "--mode", "oracle", *extra])
    assert code == 2 and out == ""
    assert err.startswith(message) and "Traceback" not in err


# --- repeated in-process calls -------------------------------------------------

def test_repeated_calls_are_independent(capsys):
    # One parser serves every main() call in a process; no call may see
    # options, errors or output of an earlier one. The references without a
    # golden file come from fresh processes, started together.
    usage = ["bounds"]
    point = ["certify", "--c", "0.5", "--p", "0.5", "--eta1", "0.5"]
    no_rate = ["certify", "--c", "0.5", "--p", "0.5"]
    fresh = [fresh_process(argv) for argv in (usage, point, no_rate)]
    (_, usage_err), (point_out, _), (_, no_rate_err) = (p.communicate() for p in fresh)

    with pytest.raises(SystemExit) as excinfo:
        main(usage)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and fresh[0].returncode == 2
    assert captured.out == "" and captured.err.encode() == usage_err
    assert captured.err.startswith("usage: mcdisc bounds")

    code, out, err = run_cli(capsys, point)
    assert code == 0 and err == "" and out.encode() == point_out

    code, out, err = run_cli(capsys, no_rate)
    assert code == 2 == fresh[2].returncode and out == ""
    assert err.startswith("error: certify needs --eta1") and err.encode() == no_rate_err

    for name, argv in [
        ("certify_c0.5_p0.2_eta1.csv",
         ["certify", "--c", "0.5", "--p", "0.2", "--sweep", "eta1:0.01:1:100"]),
        ("bounds_mcm_p0.3_c.csv", ["bounds", "--task", "mcm", "--p", "0.3", "--sweep", "c:0:1:100"]),
    ]:
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert out.encode() == (GOLDEN / name).read_bytes()


# Each option draws from a pool of ordinary values or, one time in four,
# from a pool of hostile ones, so that many argv get past argparse and
# reach the branches behind it.
FUZZ_NUMBERS = (["0.3", "0.5", "0.7", "0.2", "0.05"],
                ["0", "1", "-1", "nan", "inf", "-inf", "1e-320", "1e-172", "0.999999999999",
                 "abc", ""])
FUZZ_INTS = (["3", "1000", "7"], ["0", "1", "-1", "nan", "abc", ""])
FUZZ_SWEEPS = {
    "bounds": (["c:0:1:5", "p:0:0.95:4", "c:0.999:1:3", "p:0.1:0.3:2"],
               ["x:0:1:3", "c:1:0:3", "c:0.1:0.9:1", "::", "", "c:0:1", "p:nan:1:3",
                "c:-1:2:3", "c:0:inf:3", "c:-inf:0:3", "p:-1e308:1e308:3", "p:0:1:abc"]),
    "certify": (["eta1:0.01:1:7", "eta1:0.2:0.9:3", "eta1:1e-9:1e-6:3"],
                ["eta1:1e-320:1e-300:3", "eta1:1e-200:1e-172:3", "eta1:0:1:4", "x:0:1:3",
                 "eta1:1:0:3", "eta1:0.1:0.9:1", "::", "", "eta1:0.5:2:3", "eta1:nan:1:3",
                 "eta1:-1:0.5:3", "eta1:0.5:inf:3"]),
}


def fuzz_argv(rng, d):
    """One argv for main(): a subcommand (or none, or an unknown one) with a
    random subset of its options. File options name files in d, some
    missing or malformed, and --out always points into d."""
    def pick(pool):
        return pool[rng.randrange(len(pool))]

    def value(pools):
        return pick(pools[1] if rng.random() < 0.25 else pools[0])

    def some(options, p=0.5):
        argv = []
        for flag, pools in options:
            if rng.random() < p:
                argv += [flag, value(pools)]
        return argv

    command = pick(["bounds", "certify", "simulate", "verify"] * 5 + ["", "plot"])
    out = ["--out", value(([f"{d}/out.txt"], [f"{d}/missing/out.txt"]))]
    if command == "bounds":
        task = ["--task", value((["med", "ud", "mcm"], ["bogus", ""]))]
        if rng.random() < 0.1:
            task = []
        return ["bounds", *task, *some([("--c", FUZZ_NUMBERS), ("--p", FUZZ_NUMBERS),
                                        ("--sweep", FUZZ_SWEEPS["bounds"])]), *out]
    if command == "certify":
        if rng.random() < 0.25:
            return ["certify", *some([
                ("--ensemble", ([f"{d}/pair.json", f"{d}/qutrit.json"],
                                [f"{d}/broken.json", f"{d}/missing.json"])),
                ("--rates", (["0.3,0.3", "0.3", "0.2,0.5"],
                             ["0.6,0.6", "0.2,0.3,0.1", "a,b", "-0.1,0.5", "0,0", ""])),
                ("--alpha", (["1,0", "0.5,0.5", "1"], ["x", "nan,1", "-1,2"])),
            ], p=0.8), *out]
        rate = pick([("--eta1", FUZZ_NUMBERS), ("--sweep", FUZZ_SWEEPS["certify"])])
        return ["certify", *some([("--c", FUZZ_NUMBERS), ("--p", FUZZ_NUMBERS)]),
                *some([rate], p=0.9), *out]
    if command == "simulate":
        spec = ["--spec", value(([f"{d}/spec.json"], [f"{d}/broken.json", f"{d}/missing.json"]))]
        if rng.random() < 0.1:
            spec = []
        flags = ["--certify"] if rng.random() < 0.5 else []
        return ["simulate", *spec, *some([("--trials", FUZZ_INTS), ("--seed", FUZZ_INTS),
                                          ("--loss", FUZZ_NUMBERS)]), *flags, *out]
    if command == "verify":
        # The oracle mode draws at most one sample, so the set stays fast.
        mode = pick([["--mode", "kkt"], ["--mode", "oracle"]] * 3 + [["--mode", "bogus"], []])
        samples = ["--samples", pick(["0", "1", "1", "-1", "abc"])]
        return ["verify", *mode, *some([("--c", FUZZ_NUMBERS), ("--p", FUZZ_NUMBERS),
                                        ("--eta1", FUZZ_NUMBERS)], p=0.7),
                *some([("--seed", FUZZ_INTS)]), *samples]
    return [command] if command else []


def test_fuzzed_argv_keep_the_exit_code_contract(tmp_path, capsys):
    # Seeded argv over every subcommand, both verify modes and hostile values
    # (nan, inf, subnormal and near-overflow rates, malformed sweeps, missing
    # and broken files): each call returns, or exits through argparse, with a
    # code in {0, 1, 2, 3} and no traceback.
    (tmp_path / "pair.json").write_text(ensemble_to_json(make_pure_pair(PairSpec(0.5))))
    qutrit = Ensemble(((0.3, pure_state([1, 0, 0])), (0.7, pure_state([0.6, 0, 0.8j]))))
    (tmp_path / "qutrit.json").write_text(ensemble_to_json(qutrit))
    (tmp_path / "broken.json").write_text("{not json")
    write_sim_spec(tmp_path / "spec.json", trials=1000)
    rng = random.Random(20211)
    for _ in range(300):
        argv = fuzz_argv(rng, tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, argv


# --- start-up -----------------------------------------------------------------

STARTUP_SCRIPT = """
import sys
import mcdisc, mcdisc.cli
code = mcdisc.cli.main(["certify", "--c", "0.5", "--p", "0.2", "--eta1", "0.3",
                        "--out", sys.argv[1]])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_run_imports_no_scipy(tmp_path):
    # A fresh process, so modules other tests imported do not count.
    out = tmp_path / "point.json"
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(out)],
        capture_output=True, text=True, check=True, env=fresh_env(),
    )
    assert proc.stdout == "0 []\n"
    assert json.loads(out.read_text())["branch"]
