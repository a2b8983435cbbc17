"""Brute-force search oracles. These are the independent cross-checks for the
closed-form strategy values, so the tests lean on frozen references and on
soundness inequalities rather than on the formulas under test."""
import math

import numpy as np
import pytest

from mcdisc.ensembles import Ensemble, PairSpec, make_noisy_pair, make_pure_pair, pure_state
from mcdisc.errors import (
    DimensionMismatchError,
    InfeasibleRateError,
    NotPureError,
    OutOfRangeError,
    WrongArityError,
)
from mcdisc.oracle import (
    RESTARTS,
    SearchConfig,
    _candidate_directions,
    _largest_b,
    brute_confidence,
    brute_guess,
    brute_ud,
)
from mcdisc.strategies import helstrom, mcm_quantum, ud_quantum


def test_brute_guess_recovers_helstrom_halfway():
    e = make_pure_pair(PairSpec(0.5))
    assert brute_guess(e) == pytest.approx(0.8535533905932737, abs=1e-6)


def test_brute_guess_orthogonal_pair():
    e = make_pure_pair(PairSpec(0.0))
    assert brute_guess(e) == pytest.approx(1.0, abs=1e-9)


def test_brute_guess_identical_states_returns_best_prior():
    e = Ensemble(((0.7, pure_state([1.0, 0.0])), (0.3, pure_state([1.0, 0.0]))))
    val = brute_guess(e)
    assert 0.7 <= val <= 0.7 + 1e-12


def test_brute_guess_sound_against_closed_form():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(17)))
    for _ in range(12):
        c = float(rng.uniform(0.05, 0.95))
        p = float(rng.uniform(0.0, 0.9))
        e = make_noisy_pair(PairSpec(c, p))
        target = helstrom(e).value
        val = brute_guess(e)
        assert val <= target + 1e-9
        assert val >= target - 1e-3


def test_brute_confidence_recovers_mcm():
    e = make_noisy_pair(PairSpec(0.5, 0.5))
    assert brute_confidence(e) == pytest.approx(0.6889822365046137, abs=1e-6)


def test_brute_confidence_sound_against_closed_form():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(23)))
    for _ in range(12):
        c = float(rng.uniform(0.05, 0.95))
        p = float(rng.uniform(0.0, 0.9))
        e = make_noisy_pair(PairSpec(c, p))
        target = mcm_quantum(c, p).value
        val = brute_confidence(e)
        assert val <= target + 1e-9
        assert val >= target - 1e-3


def test_brute_confidence_with_rate_constraint():
    from mcdisc.certify import certify_qubit

    e = make_pure_pair(PairSpec(0.5))
    val = brute_confidence(e, eta1=0.75)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-3)
    for eta1 in (0.3, 0.5, 0.9):
        target = certify_qubit(0.5, 0.0, eta1).value
        val = brute_confidence(e, eta1=eta1)
        assert val <= target + 1e-9
        assert val >= target - 1e-3


def test_brute_confidence_rejects_bad_rate():
    e = make_pure_pair(PairSpec(0.5))
    with pytest.raises(InfeasibleRateError):
        brute_confidence(e, eta1=0.0)
    with pytest.raises(InfeasibleRateError):
        brute_confidence(e, eta1=1.2)


def test_brute_ud_halfway_failure_rate():
    e = make_pure_pair(PairSpec(0.5))
    assert brute_ud(e) == pytest.approx(0.7071067811865476, abs=1e-6)


def test_brute_ud_matches_overlap_across_grid():
    for c in (0.0, 0.25, 0.81):
        e = make_pure_pair(PairSpec(c))
        assert brute_ud(e) == pytest.approx(math.sqrt(c), abs=1e-6)


def test_brute_ud_sound_lower_bound():
    # Every rate the oracle returns is achieved by a feasible POVM, so it
    # cannot fall below the optimum by more than rounding.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
    for _ in range(50):
        c = float(rng.uniform(0.05, 0.95))
        target = ud_quantum(c).value
        val = brute_ud(make_pure_pair(PairSpec(c)))
        assert val >= target - 1e-14
        assert val <= target + 1e-12
    for priors in ((0.8, 0.2), (0.2, 0.8)):
        val = brute_ud(make_pure_pair(PairSpec(0.5, priors=priors)))
        assert 0.6 - 1e-14 <= val <= 0.6 + 1e-12


def test_brute_ud_unequal_priors_boundary_regime():
    # With priors (0.8, 0.2) and c = 0.5 the interior stationary point is
    # infeasible, so the optimum sits on the single-state boundary at
    # q1*c + q2 = 0.6.
    e = make_pure_pair(PairSpec(0.5, priors=(0.8, 0.2)))
    assert brute_ud(e) == pytest.approx(0.6, abs=1e-6)


def test_brute_ud_mirrored_priors_boundary_regime():
    # Mirror of the (0.8, 0.2) case: the optimum sits on the other
    # single-state boundary, at q2*c + q1 = 0.6.
    e = make_pure_pair(PairSpec(0.5, priors=(0.2, 0.8)))
    assert brute_ud(e) == pytest.approx(0.6, abs=1e-6)


def _random_kernel_pair(rng):
    projectors = []
    for _ in range(2):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        projectors.append(np.outer(vec, vec.conj()))
    return projectors


def _eigvalsh_completes(p1, p2, a, b):
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        return False
    return float(np.linalg.eigvalsh(np.eye(2) - a * p1 - b * p2)[0]) >= -1e-12


def test_largest_b_is_the_eigvalsh_completeness_boundary():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(41)))
    eye = np.eye(2)
    for _ in range(20):
        p1, p2 = _random_kernel_pair(rng)
        a = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, size=50)))
        b = _largest_b(float(np.real(np.trace(p1 @ p2))), a)
        for x, y in zip(a.tolist(), b.tolist()):
            assert np.linalg.eigvalsh(eye - x * p1 - y * p2)[0] >= -1e-14
            if y < 1.0:
                assert not _eigvalsh_completes(p1, p2, x, y + 1e-9)
    # Orthogonal kernels complete to the identity, so a = 1 leaves b = 1.
    assert _largest_b(0.0, np.array([1.0])).tolist() == [1.0]


def test_candidate_directions_are_cached_and_read_only():
    dirs = _candidate_directions(SearchConfig(seed=5))
    assert _candidate_directions(SearchConfig(seed=5)) is dirs
    with pytest.raises(ValueError):
        dirs[0, 0] = 2.0
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    reseeded = _candidate_directions(SearchConfig(seed=6))
    assert reseeded.shape == dirs.shape
    assert not np.array_equal(reseeded[-RESTARTS:], dirs[-RESTARTS:])


def test_oracles_are_deterministic():
    e = make_noisy_pair(PairSpec(0.37, 0.22))
    cfg = SearchConfig(seed=99)
    assert brute_guess(e, cfg=cfg) == brute_guess(e, cfg=cfg)
    assert brute_confidence(e, cfg=cfg) == brute_confidence(e, cfg=cfg)
    pure = make_pure_pair(PairSpec(0.37))
    assert brute_ud(pure, cfg=cfg) == brute_ud(pure, cfg=cfg)


def test_search_config_validation():
    with pytest.raises(OutOfRangeError):
        SearchConfig(seed=-1)


def test_brute_guess_arity_and_dimension_checks():
    single = Ensemble(((1.0, pure_state([1.0, 0.0])),))
    with pytest.raises(WrongArityError):
        brute_guess(single)
    qutrits = Ensemble(
        ((0.5, pure_state([1.0, 0.0, 0.0])), (0.5, pure_state([0.0, 1.0, 0.0])))
    )
    with pytest.raises(DimensionMismatchError):
        brute_guess(qutrits)


def test_brute_ud_requires_pure_pair():
    noisy = make_noisy_pair(PairSpec(0.5, 0.5))
    with pytest.raises(NotPureError):
        brute_ud(noisy)
