"""End-to-end acceptance checks.

One test per shipped criterion, each with its stated numeric tolerance and a
runtime ceiling. Run with -v to get a pass/fail line per criterion.
"""
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import mcdisc
from mcdisc.certify import OutcomeRates, WeightVector, certify_qubit, delta_gap, verify_kkt
from mcdisc.ensembles import (
    PairSpec,
    ensemble_to_json,
    make_noisy_pair,
    make_pure_pair,
)
from mcdisc.ncmodel import nc_certified
from mcdisc.oracle import SearchConfig, brute_confidence, brute_guess, brute_ud
from mcdisc.simulator import ExperimentSpec, certify_from_tally, run, wilson_interval
from mcdisc.strategies import (
    helstrom,
    mcm_noncontextual,
    mcm_quantum,
    povm_to_json,
    ud_noncontextual,
    ud_quantum,
)

MCM_HALF_HALF = 0.6889822365046137


def _done(n: int, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} overran its {budget}s budget: {elapsed:.2f}s"
    print(f"criterion {n}: PASS ({elapsed:.2f}s)")


def test_criterion_1_worked_example_rate_profile():
    t0 = time.perf_counter()
    for eta1 in np.linspace(0.01, 0.2499, 50):
        assert certify_qubit(0.5, 0.0, float(eta1)).value == pytest.approx(1.0, abs=1e-10)
    assert certify_qubit(0.5, 0.0, 0.25).value == pytest.approx(1.0, abs=1e-10)
    for eta1 in np.linspace(0.25, 0.75, 51):
        v = certify_qubit(0.5, 0.0, float(eta1)).value
        assert 2.0 / 3.0 - 1e-10 <= v <= 1.0 + 1e-10
    assert certify_qubit(0.5, 0.0, 0.75).value == pytest.approx(2.0 / 3.0, abs=1e-10)
    for eta1 in np.linspace(0.7501, 1.0, 50):
        v = certify_qubit(0.5, 0.0, float(eta1)).value
        assert 0.5 - 1e-10 <= v <= 2.0 / 3.0 + 1e-10
    assert certify_qubit(0.5, 0.0, 1.0).value == pytest.approx(0.5, abs=1e-10)
    _done(1, t0, 1.0)


def test_criterion_2_unambiguous_failure_curves():
    t0 = time.perf_counter()
    for c in np.arange(1, 100) / 100.0:
        c = float(c)
        q = ud_quantum(c).value
        nc = ud_noncontextual(c).value
        assert q < nc
        assert abs(q - math.sqrt(c)) <= 1e-12
        assert abs(nc - (1.0 + c) / 2.0) <= 1e-12
    assert ud_noncontextual(0.0).value == 0.0
    _done(2, t0, 1.0)


def test_criterion_3_confidence_vs_noise_curves():
    t0 = time.perf_counter()
    for p in np.arange(0, 101) / 100.0:
        p = float(p)
        q = mcm_quantum(0.5, p).value
        nc = mcm_noncontextual(0.5, p).value
        if 0.0 < p < 1.0:
            assert q > nc
        else:
            assert abs(q - nc) <= 1e-12
    _done(3, t0, 1.0)


def test_criterion_4_noiseless_certified_curves():
    t0 = time.perf_counter()
    for eta1 in np.arange(1, 101) / 100.0:
        eta1 = float(eta1)
        q = certify_qubit(0.5, 0.0, eta1).value
        nc = nc_certified(0.5, 0.0, eta1).value
        if 0.25 < eta1 < 0.75:
            assert q > nc
        elif eta1 <= 0.25:
            assert abs(q - nc) <= 1e-10
            assert abs(q - 1.0) <= 1e-10
        else:
            assert abs(q - nc) <= 1e-10
            assert abs(q - 1.0 / (2.0 * eta1)) <= 1e-10
    _done(4, t0, 1.0)


def test_criterion_5_noisy_certified_curves_and_gap_relation():
    t0 = time.perf_counter()
    c, p = 0.5, 0.5
    k2 = ((1.0 - p) ** 2) * c
    q_bounds = ((1.0 - k2) / 2.0, (1.0 + k2) / 2.0)
    nc_lo = (1.0 - (1.0 - p) * c) / 2.0
    nc_hi = (1.0 + (1.0 - p) * c) / 2.0

    for eta1 in np.arange(1, 101) / 100.0:
        eta1 = float(eta1)
        q = certify_qubit(c, p, eta1).value
        nc = nc_certified(c, p, eta1).value
        if eta1 < 1.0:
            assert q > nc
        else:
            # the curves meet at the full-rate endpoint (both equal the prior)
            assert q >= nc - 1e-10

    eps = 1e-12
    for b in q_bounds:
        left = certify_qubit(c, p, b - eps).value
        right = certify_qubit(c, p, b + eps).value
        assert abs(left - right) <= 1e-10
    for b in (nc_lo, nc_hi):
        left = nc_certified(c, p, b - eps).value
        right = nc_certified(c, p, b + eps).value
        assert abs(left - right) <= 1e-10

    d_low, region = delta_gap(c, p, nc_lo / 2.0)
    assert region == "low"
    for eta1 in np.linspace(nc_hi, 1.0, 25):
        eta1 = float(eta1)
        d_high, region = delta_gap(c, p, eta1)
        assert region == "high"
        assert abs(d_high - (1.0 / eta1 - 1.0) * d_low) <= 1e-10
    _done(5, t0, 1.0)


def test_criterion_6_kkt_certificates_on_grid():
    t0 = time.perf_counter()
    alpha = WeightVector((1.0,))
    worst = 0.0
    for c in np.linspace(0.05, 0.95, 20):
        for p in np.linspace(0.0, 0.9, 20):
            e = make_noisy_pair(PairSpec(float(c), float(p)))
            for eta1 in np.linspace(0.05, 0.99, 20):
                eta1 = float(eta1)
                report = certify_qubit(float(c), float(p), eta1)
                ok, residuals = verify_kkt(
                    e, alpha, OutcomeRates((eta1,), 1.0 - eta1), report.povm, report.dual
                )
                assert ok, (c, p, eta1, residuals)
                worst = max(worst, max(residuals.values()))
    assert worst <= 1e-9
    _done(6, t0, 30.0)


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = SearchConfig()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))

    for _ in range(50):
        c = float(rng.uniform(0.05, 0.95))
        p = float(rng.uniform(0.0, 0.9))
        e = make_noisy_pair(PairSpec(c, p))
        assert abs(brute_guess(e, cfg=cfg) - helstrom(e).value) <= 1e-3

    for _ in range(50):
        c = float(rng.uniform(0.05, 0.95))
        p = float(rng.uniform(0.0, 0.9))
        e = make_noisy_pair(PairSpec(c, p))
        assert abs(brute_confidence(e, cfg=cfg) - mcm_quantum(c, p).value) <= 1e-3

    for _ in range(50):
        c = float(rng.uniform(0.05, 0.95))
        e = make_pure_pair(PairSpec(c))
        assert abs(brute_ud(e, cfg=cfg) - math.sqrt(c)) <= 1e-3
    _done(7, t0, 30.0)


def test_criterion_8_simulation_soundness():
    t0 = time.perf_counter()

    # million-shot run with the optimal-confidence measurement
    e = make_noisy_pair(PairSpec(0.5, 0.5))
    povm = mcm_quantum(0.5, 0.5).measurement
    tally = run(ExperimentSpec(e, povm, trials=1_000_000, seed=2024))
    clicks = int(tally.counts[:, 1].sum())
    hits = int(tally.counts[0, 1])
    lo, hi = wilson_interval(hits, clicks, z=3.0)
    assert lo <= MCM_HALF_HALF <= hi

    # certified maxima from empirical rates upper-bound empirical confidence
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
    for _ in range(20):
        c = float(rng.uniform(0.1, 0.9))
        p = float(rng.uniform(0.0, 0.8))
        eta1 = float(rng.uniform(0.1, 1.0))
        scenario = make_noisy_pair(PairSpec(c, p))
        report = certify_qubit(c, p, eta1)
        t = run(ExperimentSpec(scenario, report.povm, trials=50_000, seed=int(rng.integers(1 << 30))))
        cert = certify_from_tally(t, scenario)
        clicks = int(t.counts[:, 1].sum())
        hits = int(t.counts[0, 1])
        conf_lo, _ = wilson_interval(hits, clicks, z=3.0)
        assert conf_lo <= max(cert.value_interval) + 1e-12
    _done(8, t0, 120.0)


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    spec = tmp_path / "spec.json"
    doc = {
        "ensemble": json.loads(ensemble_to_json(make_noisy_pair(PairSpec(0.5, 0.5)))),
        "povm": povm_to_json(mcm_quantum(0.5, 0.5).measurement),
        "trials": 100_000,
        "seed": 7,
    }
    spec.write_text(json.dumps(doc))

    commands = [
        ["bounds", "--task", "mcm", "--c", "0.5", "--sweep", "p:0:1:51"],
        ["certify", "--c", "0.5", "--p", "0.5", "--sweep", "eta1:0.05:1:50"],
        ["certify", "--c", "0.5", "--p", "0.5", "--eta1", "0.5"],
        ["simulate", "--spec", str(spec), "--certify"],
    ]
    # The child processes import the same mcdisc as this test, installed or not.
    src = os.path.dirname(os.path.dirname(mcdisc.__file__))
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "mcdisc.cli", *argv],
                capture_output=True,
                check=True,
                env=env,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout
    _done(9, t0, 120.0)
