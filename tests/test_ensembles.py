"""Ensemble construction, depolarizing noise, and the canonical pair family."""
from decimal import Decimal, localcontext

import numpy as np
import pytest

from mcdisc import qmath
from mcdisc.ensembles import (
    DensityMatrix,
    Ensemble,
    PairSpec,
    average_state,
    confusability,
    depolarize,
    ensemble_from_json,
    ensemble_to_json,
    make_noisy_pair,
    make_pure_pair,
    matrix_from_json,
    matrix_to_json,
    mirror_state,
    pure_state,
)
from mcdisc.errors import (
    DimensionMismatchError,
    InvalidNoiseError,
    InvalidSpecError,
    NotPureError,
)


def overlap(e):
    return float(np.real(np.trace(e.states[0].matrix @ e.states[1].matrix)))


def test_pure_pair_orthogonal_at_zero_confusability():
    e = make_pure_pair(PairSpec(0.0))
    assert overlap(e) == pytest.approx(0.0, abs=1e-14)


def test_pure_pair_identical_at_full_confusability():
    e = make_pure_pair(PairSpec(1.0))
    assert np.allclose(e.states[0].matrix, e.states[1].matrix, atol=1e-14)


def test_pure_pair_half_confusability_matches_plus_state_overlap():
    # Same statistics as the |0>, |+> pair: squared overlap exactly 1/2.
    e = make_pure_pair(PairSpec(0.5))
    assert overlap(e) == pytest.approx(0.5, abs=1e-14)


def test_pure_pair_keeps_its_overlap_near_one():
    # <1|rho1|1> = sin^2(theta/2) = (1 - sqrt(c))/2, which acos(sqrt(c))
    # misses by 1.1e-4 relative at this c.
    c = 0.999999999999
    rho1 = make_pure_pair(PairSpec(c)).states[0].matrix
    with localcontext() as ctx:
        ctx.prec = 50
        exact = (1 - Decimal(c).sqrt()) / 2
        assert abs(Decimal(rho1[1, 1].real) / exact - 1) <= Decimal("1e-15")


def test_confusability_round_trip_random():
    rng = np.random.default_rng(1009)
    for c in rng.uniform(0.0, 1.0, size=1000):
        e = make_pure_pair(PairSpec(float(c)))
        assert confusability(e.states[0], e.states[1]) == pytest.approx(c, abs=1e-12)


def test_pure_pair_rejects_noise_parameter():
    with pytest.raises(InvalidSpecError):
        make_pure_pair(PairSpec(0.5, 0.25))


def test_depolarize_identity_at_zero():
    e = make_pure_pair(PairSpec(0.3))
    out = depolarize(e, 0.0)
    for before, after in zip(e.states, out.states):
        assert np.allclose(before.matrix, after.matrix)


def test_depolarize_full_noise_gives_maximally_mixed():
    out = depolarize(make_pure_pair(PairSpec(0.3)), 1.0)
    for s in out.states:
        assert np.allclose(s.matrix, np.eye(2) / 2.0, atol=1e-14)


def test_depolarize_half_noise_purity():
    out = depolarize(make_pure_pair(PairSpec(0.5)), 0.5)
    for s in out.states:
        assert s.purity() == pytest.approx(0.625, abs=1e-12)


def test_depolarize_keeps_priors_and_validates():
    e = make_pure_pair(PairSpec(0.5, 0.0, (0.7, 0.3)))
    assert depolarize(e, 0.4).priors == (0.7, 0.3)
    with pytest.raises(InvalidNoiseError):
        depolarize(e, 1.5)


def test_depolarize_commutes_with_average():
    for c in (0.1, 0.5, 0.9):
        for p in (0.0, 0.3, 1.0):
            e = make_pure_pair(PairSpec(c))
            left = average_state(depolarize(e, p)).matrix
            right = (1.0 - p) * average_state(e).matrix + p * np.eye(2) / 2.0
            assert np.linalg.norm(left - right) <= 1e-12


def test_confusability_trivial_values():
    zero = pure_state([1.0, 0.0])
    one = pure_state([0.0, 1.0])
    assert confusability(zero, zero) == pytest.approx(1.0, abs=1e-14)
    assert confusability(zero, one) == pytest.approx(0.0, abs=1e-14)
    plus = pure_state([1.0, 1.0])
    assert confusability(zero, plus) == pytest.approx(0.5, abs=1e-14)
    assert confusability(plus, zero) == confusability(zero, plus)


def test_confusability_rejects_mixed_states():
    mixed = DensityMatrix(np.eye(2) / 2.0)
    with pytest.raises(NotPureError):
        confusability(mixed, pure_state([1.0, 0.0]))


def test_average_state_single_member():
    s = pure_state([1.0, 2.0j])
    e = Ensemble(((1.0, s),))
    assert np.allclose(average_state(e).matrix, s.matrix)


def test_average_state_orthogonal_pair_is_maximally_mixed():
    e = make_pure_pair(PairSpec(0.0))
    assert np.allclose(average_state(e).matrix, np.eye(2) / 2.0, atol=1e-14)


def test_average_state_bloch_length():
    # Canonical pair average lies along z with Bloch length sqrt(c)/2,
    # equivalently trace_norm(rho - I/2) = sqrt(c).
    e = make_pure_pair(PairSpec(0.5))
    rho = average_state(e).matrix
    v = qmath.bloch_vector(rho)
    assert np.linalg.norm(v) == pytest.approx(np.sqrt(0.5) / 2.0, abs=1e-12)
    assert qmath.trace_norm(rho - np.eye(2) / 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_mirror_state_completes_to_identity():
    e = make_pure_pair(PairSpec(0.37))
    for s in e.states:
        mixed = (s.matrix + mirror_state(s).matrix) / 2.0
        assert np.linalg.norm(mixed - np.eye(2) / 2.0) <= 1e-12


def test_mirror_state_rejects_mixed():
    with pytest.raises(NotPureError):
        mirror_state(DensityMatrix(np.eye(2) / 2.0))


def test_density_matrix_validation():
    with pytest.raises(InvalidSpecError):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))     # not Hermitian
    with pytest.raises(InvalidSpecError):
        DensityMatrix(np.eye(2))                              # trace 2
    with pytest.raises(InvalidSpecError):
        DensityMatrix(np.diag([1.5, -0.5]))                   # negative eigenvalue
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(np.eye(5) / 5.0)


def test_ensemble_validation():
    s = pure_state([1.0, 0.0])
    with pytest.raises(InvalidSpecError):
        Ensemble(())
    with pytest.raises(InvalidSpecError):
        Ensemble(((0.6, s), (0.3, s)))                        # priors sum to 0.9
    with pytest.raises(InvalidSpecError):
        Ensemble(((-0.1, s), (1.1, s)))
    s3 = DensityMatrix(np.eye(3) / 3.0)
    with pytest.raises(DimensionMismatchError):
        Ensemble(((0.5, s), (0.5, s3)))


def test_pair_spec_validation():
    with pytest.raises(InvalidSpecError):
        PairSpec(-0.1)
    with pytest.raises(InvalidSpecError):
        PairSpec(0.5, 1.2)
    with pytest.raises(InvalidSpecError):
        PairSpec(0.5, 0.0, (0.6, 0.6))


def test_ensemble_json_round_trip():
    e = make_noisy_pair(PairSpec(0.42, 0.17, (0.6, 0.4)))
    back = ensemble_from_json(ensemble_to_json(e))
    assert back.priors == e.priors
    for a, b in zip(e.states, back.states):
        assert np.allclose(a.matrix, b.matrix, atol=1e-15)


def test_ensemble_json_rejects_malformed():
    with pytest.raises(InvalidSpecError):
        ensemble_from_json('{"dim": 2, "members": [{"prior": 1.0}]}')
    good = ensemble_to_json(make_pure_pair(PairSpec(0.5)))
    with pytest.raises(InvalidSpecError):
        ensemble_from_json(good.replace('"dim": 2', '"dim": 3'))


def test_matrix_json_round_trip_complex():
    m = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
    assert np.allclose(matrix_from_json(matrix_to_json(m)), m)
