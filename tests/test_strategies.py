"""Closed-form discrimination bounds, their measurements, and dominance."""
import math

import numpy as np
import pytest

from mcdisc.ensembles import (
    DensityMatrix,
    Ensemble,
    PairSpec,
    average_state,
    depolarize,
    make_noisy_pair,
    make_pure_pair,
    pure_state,
)
from mcdisc.errors import (
    DimensionMismatchError,
    InvalidSpecError,
    OutOfRangeError,
    WrongArityError,
)
from mcdisc.ncmodel import build_model, noisy_epistemic, sharp
from mcdisc.strategies import (
    BoundResult,
    Povm,
    confidence_of,
    guess_nc,
    helstrom,
    mcm_noncontextual,
    mcm_quantum,
    mcm_quantum_general,
    povm_from_json,
    povm_to_json,
    ud_noncontextual,
    ud_quantum,
)

HELSTROM_HALF = 0.8535533905932737   # 1/2 + sqrt(0.5)/2
MCM_HALF_HALF = 0.6889822365046137   # max confidence at c = 0.5, p = 0.5


def guessing_probability(povm, e):
    return sum(
        q * float(np.real(np.trace(m @ s.matrix)))
        for m, (q, s) in zip(povm.elements, e.members)
    )


# --- minimum-error guessing ------------------------------------------------

def test_helstrom_orthogonal_pair():
    assert helstrom(make_pure_pair(PairSpec(0.0))).value == pytest.approx(1.0, abs=1e-12)


def test_helstrom_half_confusability_frozen():
    res = helstrom(make_pure_pair(PairSpec(0.5)))
    assert res.value == pytest.approx(HELSTROM_HALF, abs=1e-12)
    assert res.theory == "quantum" and res.task == "med"


def test_helstrom_identical_states_guesses_likelier():
    s = pure_state([1.0, 0.0])
    e = Ensemble(((0.7, s), (0.3, s)))
    assert helstrom(e).value == pytest.approx(0.7, abs=1e-12)


def test_helstrom_measurement_achieves_value():
    for c in (0.1, 0.5, 0.9):
        for p in (0.0, 0.4):
            for priors in ((0.5, 0.5), (0.8, 0.2)):
                e = make_noisy_pair(PairSpec(c, p, priors))
                res = helstrom(e)
                assert guessing_probability(res.measurement, e) == pytest.approx(
                    res.value, abs=1e-12
                )


def test_helstrom_wrong_arity():
    s = pure_state([1.0, 0.0])
    with pytest.raises(WrongArityError):
        helstrom(Ensemble(((1.0, s),)))


def test_guess_nc_endpoints_and_gap():
    assert guess_nc(0.0).value == 1.0
    assert guess_nc(1.0).value == 0.5
    assert guess_nc(0.5).value == 0.75
    assert guess_nc(0.5).value < HELSTROM_HALF


def test_guess_nc_with_noise_matches_ontic_model():
    for c in np.linspace(0.0, 1.0, 21):
        m = build_model(float(c))
        xi = sharp(m, "mu1")
        for p in np.linspace(0.0, 1.0, 11):
            hit1 = float(np.dot(noisy_epistemic(m, "mu1", float(p)), xi.weights))
            hit2 = float(np.dot(noisy_epistemic(m, "mu2", float(p)), xi.weights))
            model = 0.5 * hit1 + 0.5 * (1.0 - hit2)
            assert guess_nc(float(c), float(p)).value == pytest.approx(model, abs=1e-12)
    assert guess_nc(0.3, 0.0).value == 1.0 - 0.3 / 2.0


def test_med_dominance_grid():
    for c in np.linspace(0.01, 0.99, 50):
        q = helstrom(make_pure_pair(PairSpec(float(c)))).value
        assert q > guess_nc(float(c)).value
        for p in (0.3, 0.9):
            q = helstrom(make_noisy_pair(PairSpec(float(c), p))).value
            assert q > guess_nc(float(c), p).value


# --- unambiguous discrimination ---------------------------------------------

def test_ud_quantum_endpoints():
    assert ud_quantum(0.0).value == pytest.approx(0.0, abs=1e-12)
    assert ud_quantum(1.0).value == pytest.approx(1.0, abs=1e-12)


def test_ud_quantum_value_and_no_cross_clicks():
    for c in (0.1, 0.5, 0.81):
        res = ud_quantum(c)
        assert res.value == pytest.approx(math.sqrt(c), abs=1e-12)
        e = make_pure_pair(PairSpec(c))
        m1, m2 = res.measurement.elements
        assert abs(np.trace(m1 @ e.states[1].matrix)) <= 1e-12
        assert abs(np.trace(m2 @ e.states[0].matrix)) <= 1e-12
        failure = float(np.real(np.trace(res.measurement.inconclusive @ average_state(e).matrix)))
        assert failure == pytest.approx(math.sqrt(c), abs=1e-10)


def test_ud_noncontextual_discontinuity():
    assert ud_noncontextual(0.0).value == 0.0
    assert ud_noncontextual(0.0).branch == "zero-confusability"
    assert ud_noncontextual(1e-6).value == pytest.approx(0.5000005, abs=1e-12)
    assert ud_noncontextual(0.5).value == pytest.approx(0.75, abs=1e-14)


def test_ud_dominance_grid():
    for c in np.linspace(0.01, 0.99, 99):
        assert ud_quantum(float(c)).value < ud_noncontextual(float(c)).value


# --- maximum confidence -----------------------------------------------------

def test_mcm_quantum_noiseless_is_unambiguous():
    for c in (0.1, 0.5, 0.9):
        assert mcm_quantum(c, 0.0).value == pytest.approx(1.0, abs=1e-12)


def test_mcm_quantum_full_noise_is_prior():
    assert mcm_quantum(0.5, 1.0).value == pytest.approx(0.5, abs=1e-12)


def test_mcm_quantum_frozen_value():
    assert mcm_quantum(0.5, 0.5).value == pytest.approx(MCM_HALF_HALF, abs=1e-12)


def test_mcm_closed_form_matches_operator_norm_route():
    for c in (0.1, 0.5, 0.9):
        for p in (0.05, 0.5, 0.95):
            e = make_noisy_pair(PairSpec(c, p))
            assert mcm_quantum(c, p).value == pytest.approx(
                mcm_quantum_general(e, 1).value, abs=1e-10
            )


def test_mcm_povm_achieves_value():
    for c in (0.2, 0.5, 0.8):
        for p in (0.1, 0.5, 0.9):
            e = make_noisy_pair(PairSpec(c, p))
            res = mcm_quantum(c, p)
            assert confidence_of(res.measurement, e, 1) == pytest.approx(
                res.value, abs=1e-10
            )
            assert confidence_of(res.measurement, e, 2) == pytest.approx(
                res.value, abs=1e-10
            )


def test_mcm_general_detector_two():
    e = make_noisy_pair(PairSpec(0.5, 0.5))
    res = mcm_quantum_general(e, 2)
    assert res.value == pytest.approx(MCM_HALF_HALF, abs=1e-10)
    assert confidence_of(res.measurement, e, 2) == pytest.approx(res.value, abs=1e-10)
    with pytest.raises(OutOfRangeError):
        mcm_quantum_general(e, 3)


def test_mcm_noncontextual_values():
    assert mcm_noncontextual(0.5, 0.0).value == pytest.approx(1.0, abs=1e-14)
    assert mcm_noncontextual(0.5, 1.0).value == pytest.approx(0.5, abs=1e-14)
    assert mcm_noncontextual(0.5, 0.5).value == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_mcm_identical_states_at_full_confusability():
    # c = 1, p = 0: the two states coincide and neither theory beats the prior.
    q, nc = mcm_quantum(1.0, 0.0), mcm_noncontextual(1.0, 0.0)
    assert q.value == nc.value == 0.5
    assert q.branch == nc.branch == "identical-states"
    m1, m2 = q.measurement.elements
    assert np.allclose(m1, np.diag([0.0, 0.5])) and np.allclose(m2, np.diag([0.0, 0.5]))
    assert np.allclose(q.measurement.inconclusive, np.diag([1.0, 0.0]))
    assert mcm_quantum(0.5, 0.0).branch == mcm_noncontextual(0.5, 0.0).branch == ""


def test_mcm_pure_pair_value_is_one_up_to_identical_states():
    # At p = 0 the value is exactly 1 for every c < 1. Near c = 1, 1 - k^2
    # loses every digit to cancellation unless 1 - k is formed from 1 - c.
    for c in [1.0 - 10.0 ** -e for e in range(1, 16)] + [0.999999, float(np.nextafter(1.0, 0.0))]:
        assert abs(mcm_quantum(c, 0.0).value - 1.0) <= 1e-15
    for c in np.linspace(0.99, 1.0, 201)[:-1]:
        for p in (1e-12, 1e-6, 0.01):
            v = mcm_quantum(float(c), p).value
            k = (1.0 - p) * math.sqrt(c)
            ref = 0.5 * (1.0 + (1.0 - p) * math.sqrt((1.0 - c) / ((1.0 - k) * (1.0 + k))))
            assert v <= 1.0 and abs(v - ref) <= 1e-9


def test_mcm_dominance_and_endpoint_equality():
    for p in np.linspace(0.0, 1.0, 101):
        q = mcm_quantum(0.5, float(p)).value
        nc = mcm_noncontextual(0.5, float(p)).value
        if 0.0 < p < 1.0:
            assert q > nc
        else:
            assert abs(q - nc) <= 1e-12


def test_noiseless_ud_povm_on_noisy_states_reproduces_nc_ceiling():
    # Measuring the depolarized pair with the pure pair's unambiguous POVM
    # yields exactly the noncontextual maximum confidence.
    for c in (0.2, 0.5, 0.8):
        povm = ud_quantum(c).measurement
        for p in (0.1, 0.5, 0.9):
            noisy = depolarize(make_pure_pair(PairSpec(c)), p)
            assert confidence_of(povm, noisy, 1) == pytest.approx(
                mcm_noncontextual(c, p).value, abs=1e-12
            )


# --- containers and serialization --------------------------------------------

def test_povm_validation():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(OutOfRangeError):
        Povm((np.diag([1.0, -0.1]),), np.diag([0.0, 1.1]))
    with pytest.raises(OutOfRangeError):
        Povm((0.5 * eye,), 0.1 * eye)         # completeness violated
    with pytest.raises(DimensionMismatchError):
        Povm((np.eye(3) * 0.5,), 0.5 * eye)


def test_bound_result_validation():
    with pytest.raises(OutOfRangeError):
        BoundResult(1.5, "quantum", "med", Povm((), np.eye(2)))
    with pytest.raises(ValueError):
        BoundResult(0.5, "classical", "med")
    with pytest.raises(ValueError):
        BoundResult(0.5, "noncontextual", "guessing")
    with pytest.raises(ValueError):
        BoundResult(0.5, "noncontextual", "med", Povm((), np.eye(2)))
    with pytest.raises(ValueError):
        BoundResult(0.5, "quantum", "med", None)


def test_povm_json_round_trip():
    povm = ud_quantum(0.5).measurement
    back = povm_from_json(povm_to_json(povm))
    for a, b in zip(povm.outcome_elements(), back.outcome_elements()):
        assert np.allclose(a, b, atol=1e-15)
    with pytest.raises(InvalidSpecError):
        povm_from_json({"elements": "nope"})


def test_confidence_of_checks_dimensions():
    povm = ud_quantum(0.5).measurement
    qutrit = Ensemble(((1.0, DensityMatrix(np.eye(3) / 3.0)),))
    with pytest.raises(DimensionMismatchError):
        confidence_of(povm, qutrit, 1)
