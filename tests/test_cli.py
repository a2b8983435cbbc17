"""CLI surface: CSV/JSON shapes, exit codes, sweeps, and reproducibility."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mcdisc
from mcdisc import cli
from mcdisc.cli import main
from mcdisc.ensembles import PairSpec, ensemble_to_json, make_noisy_pair, make_pure_pair
from mcdisc.simulator import wilson_interval
from mcdisc.strategies import Povm, mcm_quantum, povm_to_json


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
    ],
)
def test_sweep_matches_golden_csv(capsys, name, argv):
    # Closed forms printed to 12 significant digits: byte-stable across platforms.
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


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


@pytest.mark.parametrize("c,eta1", [("0.999999999999", "0.25"), ("0.5", "1e-12")])
def test_certify_lost_precision_exits_two(capsys, c, eta1):
    code, out, err = run_cli(capsys, ["certify", "--c", c, "--p", "0", "--eta1", eta1])
    assert code == 2 and out == ""
    assert err.startswith("error: analytic certification lost consistency")


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
    # first row: that row goes to stderr and no CSV is written.
    monkeypatch.setattr(cli, patched, lambda *args: SimpleNamespace(value=1.5))
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


# --- start-up -----------------------------------------------------------------

STARTUP_SCRIPT = """
import sys
import mcdisc, mcdisc.cli
code = mcdisc.cli.main(["certify", "--c", "0.5", "--p", "0.2", "--eta1", "0.3",
                        "--out", sys.argv[1]])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_run_imports_no_scipy(tmp_path):
    # A fresh process, so modules other tests imported do not count. It
    # imports the same mcdisc as this test, installed or not.
    src = os.path.dirname(os.path.dirname(mcdisc.__file__))
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = tmp_path / "point.json"
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(out)],
        capture_output=True, text=True, check=True, env=env,
    )
    assert proc.stdout == "0 []\n"
    assert json.loads(out.read_text())["branch"]
