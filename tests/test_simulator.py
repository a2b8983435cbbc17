"""Finite-shot measurement simulation, Wilson intervals, and certification
from empirical tallies."""
import json
import math
import time

import numpy as np
import pytest

from mcdisc import certify
from mcdisc.certify import (
    CertReport,
    GeneralCertificate,
    OutcomeRates,
    WeightVector,
    certify_general,
    certify_qubit,
    certify_qubit_ensemble,
)
from mcdisc.ensembles import Ensemble, PairSpec, average_state, make_noisy_pair, make_pure_pair, pure_state
from mcdisc.errors import (
    DimensionMismatchError,
    InvalidSpecError,
    OutOfRangeError,
    ZeroRateError,
)
from mcdisc.simulator import (
    ExperimentSpec,
    Tally,
    certify_from_tally,
    run,
    tally_from_json,
    tally_to_json,
    wilson_interval,
)
from mcdisc.strategies import Povm, helstrom, mcm_quantum


def helstrom_povm(e):
    return helstrom(e).measurement


def test_orthogonal_pair_is_noise_free():
    e = make_pure_pair(PairSpec(0.0))
    spec = ExperimentSpec(e, helstrom_povm(e), trials=10_000, seed=5)
    tally = run(spec)
    assert tally.counts[0, 2] == 0 and tally.counts[1, 1] == 0
    assert tally.empirical_confidence(1) == 1.0
    assert tally.empirical_confidence(2) == 1.0


def test_run_is_deterministic():
    e = make_noisy_pair(PairSpec(0.5, 0.3))
    spec = ExperimentSpec(e, helstrom_povm(e), trials=50_000, seed=42)
    a = run(spec)
    b = run(spec)
    assert np.array_equal(a.counts, b.counts)


def test_full_loss_sends_everything_to_inconclusive():
    e = make_pure_pair(PairSpec(0.5))
    spec = ExperimentSpec(e, helstrom_povm(e), trials=2_000, seed=1, loss=1.0)
    tally = run(spec)
    assert tally.counts[:, 1:].sum() == 0
    assert tally.counts[:, 0].sum() == 2_000


def test_rates_track_born_probabilities_under_loss():
    e = make_noisy_pair(PairSpec(0.5, 0.2))
    povm = helstrom_povm(e)
    trials = 200_000
    spec = ExperimentSpec(e, povm, trials=trials, seed=7, loss=0.3)
    tally = run(spec)
    rho = average_state(e).matrix
    rates = tally.rates()
    for y, m in enumerate(povm.elements, start=1):
        target = 0.7 * float(np.real(np.trace(m @ rho)))
        sigma = math.sqrt(target * (1.0 - target) / trials)
        assert abs(rates[y] - target) <= 5.0 * sigma


def test_every_cell_tracks_prior_times_born_probability():
    # Three trine preparations with unequal priors, a three-detector POVM
    # with an inconclusive half, loss 0.2: each cell counts[x, y] is
    # Binomial(N, q_x P(y|x)).
    trine = [pure_state([math.cos(a), math.sin(a)]) for a in (0.0, math.pi / 3, 2 * math.pi / 3)]
    priors = (0.5, 0.3, 0.2)
    e = Ensemble(tuple(zip(priors, trine)))
    povm = Povm(tuple(s.matrix / 3.0 for s in trine), 0.5 * np.eye(2, dtype=complex))
    trials, loss = 1_000_000, 0.2
    tally = run(ExperimentSpec(e, povm, trials=trials, seed=31, loss=loss))
    assert tally.counts.shape == (3, 4)
    for x, (q, state) in enumerate(e.members):
        for y, m in enumerate(povm.outcome_elements()):
            born = float(np.real(np.trace(m @ state.matrix)))
            p_cell = q * ((1.0 - loss) * born + (loss if y == 0 else 0.0))
            sigma = math.sqrt(trials * p_cell * (1.0 - p_cell))
            assert abs(tally.counts[x, y] - trials * p_cell) <= 5.0 * sigma


def test_cost_does_not_grow_with_trials():
    e = make_noisy_pair(PairSpec(0.5, 0.2))
    spec = ExperimentSpec(e, helstrom_povm(e), trials=10**12, seed=9, loss=0.1)
    t0 = time.perf_counter()
    tally = run(spec)
    assert time.perf_counter() - t0 < 0.5
    assert tally.counts.dtype == np.int64
    assert int(tally.counts.sum()) == 10**12


def test_priors_at_the_tolerance_edge_are_simulated():
    # The constructor accepts priors within PRIOR_TOL of the simplex, which
    # numpy's multinomial would reject as they stand.
    e = Ensemble(((1.0 + 5e-13, pure_state([1.0, 0.0])), (-4e-13, pure_state([0.6, 0.8]))))
    povm = helstrom_povm(make_pure_pair(PairSpec(0.36)))
    tally = run(ExperimentSpec(e, povm, trials=1_000, seed=4))
    assert isinstance(tally, Tally)
    assert tally.counts[1].sum() == 0 and tally.counts.sum() == 1_000


def test_wilson_interval_behaviour():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    for successes, trials in ((5, 40), (300, 1_000), (999, 1_000)):
        lo, hi = wilson_interval(successes, trials)
        phat = successes / trials
        assert 0.0 <= lo < phat < hi <= 1.0
    narrow = wilson_interval(500, 1_000)
    wide = wilson_interval(50, 100)
    assert narrow[1] - narrow[0] < wide[1] - wide[0]


def test_tally_wilson_covers_rates():
    e = make_noisy_pair(PairSpec(0.5, 0.5))
    spec = ExperimentSpec(e, mcm_quantum(0.5, 0.5).measurement, trials=30_000, seed=3)
    tally = run(spec)
    rates = tally.rates()
    for y, (lo, hi) in enumerate(tally.wilson()):
        assert lo <= rates[y] <= hi


def test_tally_validation_and_confidence_errors():
    with pytest.raises(InvalidSpecError):
        Tally(np.array([[1, 2], [3, 4]]), trials=100)   # counts/trials mismatch
    with pytest.raises(InvalidSpecError):
        Tally(np.array([[-1, 1], [0, 0]]), trials=0)
    counts = np.zeros((2, 3), dtype=np.int64)
    counts[0, 1] = 10
    tally = Tally(counts, trials=10)
    with pytest.raises(OutOfRangeError):
        tally.empirical_confidence(3)
    with pytest.raises(ZeroRateError):
        tally.empirical_confidence(2)


def test_tally_json_round_trip():
    e = make_pure_pair(PairSpec(0.5))
    spec = ExperimentSpec(e, helstrom_povm(e), trials=5_000, seed=11)
    tally = run(spec)
    text = tally_to_json(tally)
    back = tally_from_json(text)
    assert np.array_equal(back.counts, tally.counts)
    assert back.trials == tally.trials
    payload = json.loads(text)
    assert set(payload) == {"trials", "counts", "rates", "wilson"}
    with pytest.raises(InvalidSpecError):
        tally_from_json("{\"trials\": 5}")
    with pytest.raises(InvalidSpecError):
        tally_from_json("[]")


def _tally(e, povm, trials=200_000, seed=23):
    return run(ExperimentSpec(e, povm, trials=trials, seed=seed))


def _probes(tally):
    lo, hi = tally.wilson()[1]
    return [float(tally.rates()[1]), max(lo, 1e-12), hi]


def test_tally_equal_prior_pair_matches_certify_qubit():
    # The equal-prior depolarized pair takes the closed form, which agrees
    # with the canonical-pair formulas at every probe.
    c, p = 0.37, 0.22
    e = make_noisy_pair(PairSpec(c, p))
    tally = _tally(e, mcm_quantum(c, p).measurement)
    cert = certify_from_tally(tally, e)
    assert isinstance(cert.report, CertReport)
    values = [certify_qubit(c, p, eta).value for eta in _probes(tally)]
    assert cert.report.value == pytest.approx(values[0], abs=1e-13)
    assert cert.value_interval == pytest.approx((min(values), max(values)), abs=1e-13)
    assert cert.report.branch == certify_qubit(c, p, _probes(tally)[0]).branch


@pytest.mark.parametrize(
    "e",
    [
        # priors equal only within 4e-10, beyond PRIOR_TOL
        make_noisy_pair(PairSpec(0.37, 0.22, (0.5 + 4e-10, 0.5 - 4e-10))),
        # a pure and a mixed state, equal priors
        Ensemble(((0.5, pure_state([1.0, 0.0])), (0.5, make_noisy_pair(PairSpec(0.5, 0.3)).states[1]))),
        # skewed priors
        make_pure_pair(PairSpec(0.5, priors=(0.7, 0.3))),
        # one member
        Ensemble(((1.0, pure_state([0.6, 0.8j])),)),
    ],
    ids=["near-equal-priors", "unequal-purities", "skewed-priors", "single-member"],
)
def test_tally_qubit_shapes_take_closed_form(e):
    # Every qubit ensemble is certified in closed form, inside the general
    # route's bracket at each probe.
    tally = _tally(e, Povm((0.4 * np.eye(2, dtype=complex),), 0.6 * np.eye(2, dtype=complex)))
    cert = certify_from_tally(tally, e)
    assert isinstance(cert.report, CertReport)
    values = []
    for eta in _probes(tally):
        bracket = certify_general(e, WeightVector((1.0,)), OutcomeRates((eta,), 1.0 - eta))
        value = certify_qubit_ensemble(e, eta).value
        assert bracket.lower - 1e-10 <= value <= bracket.upper + 1e-10
        values.append(value)
    assert cert.value_interval == (min(values), max(values))


def test_tally_fully_mixed_pair_certifies_prior():
    # Both states I/2: every detector has confidence q_1 = 1/2.
    e = make_noisy_pair(PairSpec(0.5, 1.0))
    tally = _tally(e, Povm((0.3 * np.eye(2, dtype=complex),), 0.7 * np.eye(2, dtype=complex)))
    cert = certify_from_tally(tally, e)
    assert cert.report.value == 0.5
    assert cert.value_interval == (0.5, 0.5)


def test_certify_from_tally_brackets_true_value():
    e = make_noisy_pair(PairSpec(0.5, 0.5))
    povm = mcm_quantum(0.5, 0.5).measurement
    spec = ExperimentSpec(e, povm, trials=100_000, seed=13)
    tally = run(spec)
    cert = certify_from_tally(tally, e)
    lo, hi = cert.value_interval
    assert lo <= hi
    true_value = 0.6889822365046137
    assert lo <= true_value + 1e-3
    assert hi >= true_value - 1e-3
    e_lo, e_hi = cert.eta1_interval
    assert e_lo <= tally.rates()[1] <= e_hi


def test_certify_from_tally_identity_arm():
    # A detector that always clicks pins eta1 to 1, so the certified maximum
    # collapses to the prior.
    e = make_pure_pair(PairSpec(0.5))
    povm = Povm((np.eye(2, dtype=complex),), np.zeros((2, 2), dtype=complex))
    spec = ExperimentSpec(e, povm, trials=10_000, seed=2)
    tally = run(spec)
    cert = certify_from_tally(tally, e)
    assert cert.report.value == pytest.approx(0.5, abs=1e-9)


def test_certify_from_tally_general_route():
    v2 = np.array([0.6, 0.8, 0.0])
    e = Ensemble(((0.5, pure_state([1.0, 0.0, 0.0])), (0.5, pure_state(v2))))
    povm = Povm(
        (0.5 * np.eye(3, dtype=complex),), 0.5 * np.eye(3, dtype=complex)
    )
    spec = ExperimentSpec(e, povm, trials=20_000, seed=19)
    tally = run(spec)
    cert = certify_from_tally(tally, e)
    lo, hi = cert.value_interval
    assert 0.5 <= lo <= hi <= 1.0 + 1e-9
    # A qutrit ensemble keeps the SDP route; its values are the upper ends.
    assert isinstance(cert.report, GeneralCertificate)
    uppers = [
        certify_general(e, WeightVector((1.0,)), OutcomeRates((eta,), 1.0 - eta)).upper
        for eta in _probes(tally)
    ]
    assert cert.value_interval == (min(uppers), max(uppers))


def test_certify_from_tally_all_clicks_qutrit(monkeypatch):
    # A detector that always clicks: eta1_hat = 1 and Wilson hi rounds to
    # 1 - 1.1e-16. The three probes take the exact single-detector route,
    # with no SDP solve, and the value interval still equals that of three
    # serial certify_general calls.
    v2 = np.array([0.6, 0.8, 0.0])
    e = Ensemble(((0.5, pure_state([1.0, 0.0, 0.0])), (0.5, pure_state(v2))))
    povm = Povm((np.eye(3, dtype=complex),), np.zeros((3, 3), dtype=complex))
    tally = run(ExperimentSpec(e, povm, trials=20_000, seed=19))
    probes = _probes(tally)
    assert probes[0] == 1.0 and 1.0 - probes[2] < 1e-15 and probes[1] < 0.9999
    batches, solve = [], certify._sdp_solve
    monkeypatch.setattr(certify, "_sdp_solve", lambda A, b, C: batches.append(len(b)) or solve(A, b, C))
    cert = certify_from_tally(tally, e)
    monkeypatch.undo()
    assert batches == []
    uppers = [
        certify_general(e, WeightVector((1.0,)), OutcomeRates((eta,), 1.0 - eta)).upper
        for eta in probes
    ]
    assert cert.value_interval == (min(uppers), max(uppers))


def test_experiment_spec_validation():
    e = make_pure_pair(PairSpec(0.5))
    povm = helstrom_povm(e)
    qutrit_povm = Povm((np.eye(3, dtype=complex),), np.zeros((3, 3), dtype=complex))
    with pytest.raises(DimensionMismatchError):
        ExperimentSpec(e, qutrit_povm, trials=10, seed=0)
    with pytest.raises(OutOfRangeError):
        ExperimentSpec(e, povm, trials=0, seed=0)
    with pytest.raises(OutOfRangeError):
        ExperimentSpec(e, povm, trials=10, seed=0, loss=1.5)
    with pytest.raises(OutOfRangeError):
        ExperimentSpec(e, povm, trials=10, seed=-1)
