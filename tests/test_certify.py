"""Rate-constrained confidence certification: analytic engine, KKT checks,
SDP bracketing, and the quantum/noncontextual gap relation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdisc import qmath
from mcdisc.certify import (
    CertReport,
    DualCertificate,
    GeneralCertificate,
    OutcomeRates,
    WeightVector,
    certify_general,
    certify_qubit,
    certify_qubit_ensemble,
    delta_gap,
    verify_kkt,
)
from mcdisc.ensembles import (
    DensityMatrix,
    Ensemble,
    PairSpec,
    average_state,
    make_noisy_pair,
    make_pure_pair,
    pure_state,
)
from mcdisc.errors import (
    DegenerateEnsembleError,
    DimensionMismatchError,
    InfeasibleRateError,
    NumericalError,
    OutOfRangeError,
    WrongRegionError,
    ZeroRateError,
)
from mcdisc.ncmodel import nc_certified
from mcdisc.strategies import Povm, confidence_of, helstrom


def noisy_pair(c, p):
    return make_noisy_pair(PairSpec(c, p)) if p > 0 else make_pure_pair(PairSpec(c))


# --- analytic qubit certification ---------------------------------------------

def test_low_rate_certifies_unambiguous_compatibility():
    report = certify_qubit(0.5, 0.0, 0.2)
    assert report.value == pytest.approx(1.0, abs=1e-12)
    assert report.branch == "LowRate"
    assert not report.rank_two


def test_high_boundary_value():
    report = certify_qubit(0.5, 0.0, 0.75)
    assert report.value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert report.branch == "Sharp"   # boundary ties report the lower branch


def test_full_rate_certifies_prior():
    report = certify_qubit(0.5, 0.0, 1.0)
    assert report.value == pytest.approx(0.5, abs=1e-12)
    assert report.branch == "HighRate"
    assert report.rank_two


def test_noisy_sharp_branch_frozen_value():
    report = certify_qubit(0.5, 0.5, 0.5)
    assert report.value == pytest.approx(0.6767766952966369, abs=1e-12)
    assert report.branch == "Sharp"
    assert report.gap <= 1e-9


def test_certified_povm_hits_rate_and_value():
    for c in (0.2, 0.5, 0.8):
        for p in (0.0, 0.3, 0.6):
            e = noisy_pair(c, p)
            rho = average_state(e).matrix
            for eta1 in (0.1, 0.35, 0.5, 0.8, 1.0):
                report = certify_qubit(c, p, eta1)
                m1 = report.povm.elements[0]
                rate = float(np.real(np.trace(m1 @ rho)))
                assert rate == pytest.approx(eta1, abs=1e-10)
                assert confidence_of(report.povm, e, 1) == pytest.approx(
                    report.value, abs=1e-10
                )


def test_dual_slack_identity():
    # X1 - X2 must reproduce lambda*rho - rho1/(2 eta1) for the qubit form.
    for c, p, eta1 in ((0.5, 0.0, 0.5), (0.3, 0.4, 0.7), (0.8, 0.2, 0.15)):
        e = noisy_pair(c, p)
        report = certify_qubit(c, p, eta1)
        d = report.dual
        lhs = d.X1 - d.X2
        rhs = d.lam * average_state(e).matrix - e.states[0].matrix / (2.0 * eta1)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_branch_continuity_at_boundaries():
    eps = 1e-12
    for c in (0.1, 0.5, 0.9):
        for p in (0.0, 0.3, 0.7):
            k = (1.0 - p) * math.sqrt(c)
            for b in ((1.0 - k * k) / 2.0, (1.0 + k * k) / 2.0):
                left = certify_qubit(c, p, b - eps).value
                right = certify_qubit(c, p, b + eps).value
                assert abs(left - right) <= 1e-10


def test_certified_non_increasing_in_rate():
    grid = np.linspace(0.02, 1.0, 150)
    for c in (0.25, 0.5, 0.75):
        for p in (0.0, 0.5):
            values = [certify_qubit(c, p, float(x)).value for x in grid]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_rank_two_flag_tracks_high_region():
    k2 = (1.0 - 0.5) ** 2 * 0.5
    hi = (1.0 + k2) / 2.0
    assert not certify_qubit(0.5, 0.5, hi - 0.01).rank_two
    assert certify_qubit(0.5, 0.5, hi + 0.01).rank_two


def test_dominance_over_noncontextual():
    grid = np.linspace(0.02, 1.0, 50)
    # noiseless: strict exactly inside the sharp window, equal elsewhere
    for eta1 in grid:
        q = certify_qubit(0.5, 0.0, float(eta1)).value
        nc = nc_certified(0.5, 0.0, float(eta1)).value
        if 0.25 < eta1 < 0.75:
            assert q > nc + 1e-12
        else:
            assert abs(q - nc) <= 1e-10
    # noisy: strict everywhere except the full-rate endpoint
    for p in (0.25, 0.5, 0.75):
        for eta1 in grid:
            q = certify_qubit(0.5, p, float(eta1)).value
            nc = nc_certified(0.5, p, float(eta1)).value
            if eta1 < 1.0:
                assert q > nc + 1e-12
            else:
                assert abs(q - nc) <= 1e-10


def test_zero_duality_gap_across_parameter_grid():
    # Vectorized restatement of the three-branch solution: the dual objective
    # lambda*eta1 + tr[X2] must match the primal value at one million points.
    c = np.linspace(0.005, 0.995, 100)[:, None, None]
    p = np.linspace(0.0, 0.99, 100)[None, :, None]
    eta = np.linspace(0.01, 1.0, 100)[None, None, :]

    cos_t = np.sqrt(c)
    sin_t = np.sqrt(1.0 - c)
    tan_t = sin_t / cos_t
    k = (1.0 - p) * cos_t
    k2 = k * k
    lo = (1.0 - k2) / 2.0
    hi = (1.0 + k2) / 2.0
    amp = (1.0 - p) * sin_t / np.sqrt(1.0 - k2)

    low = eta <= lo
    high = eta > hi
    u = 1.0 - 2.0 * eta
    root = np.sqrt(np.maximum(k2 - u * u, 0.0))
    gamma = np.where(
        low, k / np.sqrt(1.0 - k2),
        np.where(high, -k / np.sqrt(1.0 - k2), u / np.where(root > 0, root, 1.0)),
    )
    value = np.where(
        low, 0.5 * (1.0 + amp),
        np.where(
            high,
            0.5 * (1.0 + amp * (1.0 / eta - 1.0)),
            0.5 + tan_t * root / (4.0 * eta),
        ),
    )
    lam = (1.0 + gamma * tan_t) / (2.0 * eta)
    center = (lam - 1.0 / (2.0 * eta)) / 2.0
    radius = np.sqrt((k * center) ** 2 + ((1.0 - p) * sin_t / (4.0 * eta)) ** 2)
    tr_x2 = np.maximum(-(center - radius), 0.0)
    dual = lam * eta + tr_x2
    assert np.max(np.abs(dual - value)) <= 1e-9


def test_certify_qubit_domain_errors():
    with pytest.raises(DegenerateEnsembleError):
        certify_qubit(0.0, 0.0, 0.5)
    with pytest.raises(DegenerateEnsembleError):
        certify_qubit(1.0, 0.0, 0.5)
    with pytest.raises(OutOfRangeError):
        certify_qubit(1.2, 0.0, 0.5)
    with pytest.raises(OutOfRangeError):
        certify_qubit(0.5, 1.0, 0.5)
    with pytest.raises(OutOfRangeError):
        certify_qubit(0.5, 0.0, 0.0)
    with pytest.raises(OutOfRangeError):
        certify_qubit(0.5, 0.0, 1.1)


# --- optimality-system verification --------------------------------------------

def kkt_inputs(c, p, eta1):
    report = certify_qubit(c, p, eta1)
    e = noisy_pair(c, p)
    alpha = WeightVector((1.0,))
    rates = OutcomeRates((eta1,), 1.0 - eta1)
    return e, alpha, rates, report


def test_verify_kkt_passes_on_analytic_output():
    e, alpha, rates, report = kkt_inputs(0.5, 0.0, 0.5)
    ok, residuals = verify_kkt(e, alpha, rates, report.povm, report.dual)
    assert ok
    assert max(residuals.values()) <= 1e-10
    assert set(residuals) == {
        "primal_psd", "primal_completeness", "primal_rates", "dual_psd",
        "dual_feasibility", "stationarity", "slackness", "gap",
    }


def test_verify_kkt_detects_perturbed_measurement():
    e, alpha, rates, report = kkt_inputs(0.5, 0.0, 0.5)
    m1 = (1.0 - 2e-3) * report.povm.elements[0]
    bad = Povm((m1,), np.eye(2, dtype=complex) - m1)
    ok, residuals = verify_kkt(e, alpha, rates, bad, report.dual)
    assert not ok
    assert residuals["primal_rates"] == pytest.approx(1e-3, rel=0.05)


def test_verify_kkt_rejects_feasible_but_suboptimal_point():
    # The always-available choice M1 = eta1*I is primal feasible yet fails
    # the zero-gap test against the true dual certificate.
    e, alpha, rates, report = kkt_inputs(0.5, 0.0, 0.5)
    trivial = Povm((0.5 * np.eye(2, dtype=complex),), 0.5 * np.eye(2, dtype=complex))
    ok, residuals = verify_kkt(e, alpha, rates, trivial, report.dual)
    assert not ok
    assert residuals["primal_psd"] <= 1e-12
    assert residuals["primal_completeness"] <= 1e-12
    assert residuals["primal_rates"] <= 1e-12
    assert residuals["gap"] > 1e-3


def test_verify_kkt_dimension_checks():
    e, alpha, rates, report = kkt_inputs(0.5, 0.0, 0.5)
    with pytest.raises(DimensionMismatchError):
        verify_kkt(e, WeightVector((1.0, 1.0)), rates, report.povm, report.dual)
    with pytest.raises(DimensionMismatchError):
        verify_kkt(e, alpha, OutcomeRates((0.3, 0.3), 0.4), report.povm, report.dual)


def test_verify_kkt_zero_rate_with_weight():
    e, alpha, _, report = kkt_inputs(0.5, 0.0, 0.5)
    with pytest.raises(ZeroRateError):
        verify_kkt(e, alpha, OutcomeRates((0.0,), 1.0), report.povm, report.dual)


# --- rate and weight containers ---------------------------------------------

def test_outcome_rates_validation():
    with pytest.raises(InfeasibleRateError):
        OutcomeRates((0.5, 0.7), -0.2)
    with pytest.raises(InfeasibleRateError):
        OutcomeRates((1.2,), -0.2)
    with pytest.raises(InfeasibleRateError):
        OutcomeRates((0.3,), 0.3)        # sums to 0.6
    r = OutcomeRates((0.25, 0.25), 0.5)
    assert r.n == 2


def test_weight_vector_validation():
    with pytest.raises(OutOfRangeError):
        WeightVector(())
    with pytest.raises(OutOfRangeError):
        WeightVector((-0.1,))
    with pytest.raises(OutOfRangeError):
        WeightVector((math.inf,))


# --- SDP bracketing --------------------------------------------------------------

def test_general_brackets_analytic_saturated_value():
    e = make_pure_pair(PairSpec(0.5))
    hel = helstrom(e)
    rho = average_state(e).matrix
    eta = tuple(float(np.real(np.trace(m @ rho))) for m in hel.measurement.elements)
    cert = certify_general(e, WeightVector((1.0, 0.0)), OutcomeRates(eta, 0.0))
    target = certify_qubit(0.5, 0.0, eta[0]).value
    assert cert.lower <= target + 1e-9
    assert cert.upper >= target - 1e-9
    assert cert.upper - cert.lower <= 1e-8
    assert cert.interval == (cert.lower, cert.upper)


def test_general_success_weighting_reaches_helstrom():
    e = make_pure_pair(PairSpec(0.5))
    hel = helstrom(e)
    rho = average_state(e).matrix
    eta = tuple(float(np.real(np.trace(m @ rho))) for m in hel.measurement.elements)
    cert = certify_general(e, WeightVector(eta), OutcomeRates(eta, 0.0))
    assert cert.lower >= hel.value - 1e-6
    assert cert.upper >= hel.value - 1e-9


def test_general_single_pure_state_full_confidence():
    e = Ensemble(((1.0, pure_state([1.0, 0.0])),))
    cert = certify_general(e, WeightVector((1.0,)), OutcomeRates((1.0,), 0.0))
    assert cert.lower == pytest.approx(1.0, abs=1e-6)
    assert cert.upper == pytest.approx(1.0, abs=1e-6)


def test_general_brackets_unsaturated_noisy_point():
    e = make_noisy_pair(PairSpec(0.5, 0.5))
    cert = certify_general(e, WeightVector((1.0,)), OutcomeRates((0.5,), 0.5))
    target = certify_qubit(0.5, 0.5, 0.5).value
    assert cert.lower <= target + 1e-9
    assert cert.upper >= target - 1e-9
    assert cert.upper - cert.lower <= 1e-8


def test_general_handles_qutrit_ensembles():
    v2 = np.array([0.6, 0.8, 0.0])
    e = Ensemble(((0.5, pure_state([1.0, 0.0, 0.0])), (0.5, pure_state(v2))))
    cert = certify_general(e, WeightVector((1.0,)), OutcomeRates((0.5,), 0.5))
    # embedded pair with squared overlap 0.36; the true optimum is 0.9
    assert cert.lower <= 0.9 + 1e-9
    assert cert.upper >= 0.9 - 1e-9
    assert cert.lower == pytest.approx(0.9, abs=1e-8)
    assert cert.upper == pytest.approx(0.9, abs=1e-8)


# (d, n, saturated): the benchmark's nine classes plus three saturated arms.
GENERAL_CLASSES = [
    (d, n, sat) for d in (2, 3, 4) for n, sat in ((1, False), (2, False), (2, True))
] + [(3, 3, True)]


def random_instance(rng, dim, n, saturated):
    """Seeded ensemble of max(n, 2) states of random rank 1..dim with
    unequal priors, and detector rates, drawn as the benchmark draws them."""
    priors = rng.uniform(0.5, 1.5, size=max(n, 2))
    priors = priors / priors.sum()
    priors[-1] = 1.0 - priors[:-1].sum()
    members = []
    for q in priors:
        rank = int(rng.integers(1, dim + 1))
        w = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        m = w @ w.conj().T
        members.append((float(q), DensityMatrix(m / np.real(np.trace(m)))))
    if saturated:
        eta = tuple(float(v) for v in rng.dirichlet(np.full(n, 2.0)))
        return Ensemble(tuple(members)), OutcomeRates(eta, 0.0)
    eta = tuple(float(v) for v in rng.uniform(0.1, 0.8 / n, size=n))
    return Ensemble(tuple(members)), OutcomeRates(eta, 1.0 - sum(eta))


@pytest.mark.parametrize("dim,n,saturated", GENERAL_CLASSES)
def test_general_bracket_is_tight_and_exactly_feasible(dim, n, saturated):
    rng = np.random.default_rng([dim, n, int(saturated)])
    alpha = WeightVector((1.0,) * n)
    for _ in range(3):
        e, rates = random_instance(rng, dim, n, saturated)
        cert = certify_general(e, alpha, rates)
        assert cert.lower <= cert.upper <= cert.lower + 1e-6
        povm = Povm(cert.povm.elements, cert.povm.inconclusive)   # PSD and complete
        rho = average_state(e).matrix
        for m, eta in zip(povm.elements, rates.eta):
            assert float(np.real(np.trace(m @ rho))) == pytest.approx(eta, abs=1e-9)
        _, residuals = verify_kkt(e, alpha, rates, povm, cert.dual)
        assert residuals["dual_psd"] <= 1e-9
        assert residuals["dual_feasibility"] <= 1e-9
        assert residuals["gap"] <= 1e-6


def test_general_matches_analytic_route_on_kkt_grid():
    # A 6 x 6 x 6 subset of acceptance criterion 6's 20 x 20 x 20 grid.
    picks = [0, 4, 8, 11, 15, 19]
    alpha = WeightVector((1.0,))
    for c in np.linspace(0.05, 0.95, 20)[picks]:
        for p in np.linspace(0.0, 0.9, 20)[picks]:
            e = make_noisy_pair(PairSpec(float(c), float(p)))
            for eta1 in np.linspace(0.05, 0.99, 20)[picks]:
                rates = OutcomeRates((float(eta1),), 1.0 - float(eta1))
                value = certify_qubit(float(c), float(p), float(eta1)).value
                cert = certify_general(e, alpha, rates)
                assert abs(cert.lower - value) <= 1e-9, (c, p, eta1)
                assert abs(cert.upper - value) <= 1e-9, (c, p, eta1)
                ok, residuals = verify_kkt(e, alpha, rates, cert.povm, cert.dual)
                assert ok, (c, p, eta1, residuals)


@pytest.mark.parametrize("eta", [(0.3, 0.0), (0.6, 0.4), (1.0, 0.0)])
def test_general_edge_rates_match_single_detector(eta):
    # With weight on detector 1 only, detector 2 is part of the inconclusive
    # outcome, so the single-detector analytic value applies: a zero-rate
    # arm, saturated rates, and a detector that always clicks.
    e = make_noisy_pair(PairSpec(0.5, 0.2))
    alpha = WeightVector((1.0, 0.0))
    rates = OutcomeRates(eta, 1.0 - sum(eta))
    cert = certify_general(e, alpha, rates)
    value = certify_qubit(0.5, 0.2, eta[0]).value
    assert abs(cert.lower - value) <= 1e-9
    assert abs(cert.upper - value) <= 1e-9
    ok, residuals = verify_kkt(e, alpha, rates, cert.povm, cert.dual)
    assert ok, residuals


def test_general_validation_errors():
    e = make_pure_pair(PairSpec(0.5))
    with pytest.raises(DimensionMismatchError):
        certify_general(e, WeightVector((1.0,)), OutcomeRates((0.3, 0.3), 0.4))
    with pytest.raises(DimensionMismatchError):
        certify_general(e, WeightVector((1.0, 1.0, 1.0)), OutcomeRates((0.2, 0.2, 0.2), 0.4))
    with pytest.raises(ZeroRateError):
        certify_general(e, WeightVector((1.0,)), OutcomeRates((0.0,), 1.0))


def test_general_certificate_is_reported_honestly():
    e = make_noisy_pair(PairSpec(0.5, 0.5))
    rates = OutcomeRates((0.5,), 0.5)
    alpha = WeightVector((1.0,))
    cert = certify_general(e, alpha, rates)
    assert isinstance(cert, GeneralCertificate)
    assert cert.upper >= cert.lower - 1e-9
    # the dual objective recomputed from the certificate matches the bound
    assert cert.dual.objective(rates) == pytest.approx(cert.upper, abs=1e-9)


# --- closed-form qubit ensembles --------------------------------------------------

def random_qubit_ensemble(rng, members, ranks=(1, 2)):
    """Seeded qubit ensemble with priors in (0.05, 0.95) before normalising
    and states of a rank drawn from ranks (complex Gaussian factors)."""
    priors = rng.uniform(0.05, 0.95, size=members)
    priors = priors / priors.sum()
    priors[-1] = 1.0 - priors[:-1].sum()
    states = []
    for _ in range(members):
        rank = int(rng.choice(ranks))
        w = rng.normal(size=(2, rank)) + 1j * rng.normal(size=(2, rank))
        m = w @ w.conj().T
        states.append(DensityMatrix(m / np.real(np.trace(m))))
    return Ensemble(tuple(zip((float(q) for q in priors), states)))


def inside_general_bracket(e, eta):
    alpha, rates = WeightVector((1.0,)), OutcomeRates((eta,), 1.0 - eta)
    report = certify_qubit_ensemble(e, eta)
    bracket = certify_general(e, alpha, rates)
    assert bracket.lower - 1e-10 <= report.value <= bracket.upper + 1e-10, (eta, report.branch)
    return report


@pytest.mark.parametrize(
    "members,ranks",
    [(2, (1,)), (2, (2,)), (2, (1, 2)), (3, (1, 2))],
    ids=["pure", "mixed", "pure-and-mixed", "three-member"],
)
def test_qubit_ensemble_inside_general_bracket(members, ranks):
    rng = np.random.default_rng([members, *ranks])
    alpha = WeightVector((1.0,))
    for _ in range(8):
        e = random_qubit_ensemble(rng, members, ranks)
        for eta in (float(rng.uniform(0.01, 0.99)), 1e-6, 1e-3, 0.999, 1.0):
            report = inside_general_bracket(e, eta)
            ok, residuals = verify_kkt(e, alpha, OutcomeRates((eta,), 1.0 - eta), report.povm, report.dual)
            assert ok, (eta, report.branch, residuals)


def test_qubit_ensemble_matches_certify_qubit_on_kkt_grid():
    # Acceptance criterion 6's grid: the same value and branch as the
    # canonical-pair formulas; on a 6 x 6 x 6 subset, a certificate that
    # passes verify_kkt.
    alpha = WeightVector((1.0,))
    picks = {0, 4, 8, 11, 15, 19}
    for i, c in enumerate(np.linspace(0.05, 0.95, 20)):
        for j, p in enumerate(np.linspace(0.0, 0.9, 20)):
            e = make_noisy_pair(PairSpec(float(c), float(p)))
            for k, eta1 in enumerate(np.linspace(0.05, 0.99, 20)):
                eta1 = float(eta1)
                expected = certify_qubit(float(c), float(p), eta1)
                report = certify_qubit_ensemble(e, eta1)
                assert abs(report.value - expected.value) <= 1e-13, (c, p, eta1)
                assert report.branch == expected.branch, (c, p, eta1)
                if {i, j, k} <= picks:
                    ok, residuals = verify_kkt(
                        e, alpha, OutcomeRates((eta1,), 1.0 - eta1), report.povm, report.dual
                    )
                    assert ok, (c, p, eta1, residuals)


def test_qubit_ensemble_unequal_priors_match_general_route():
    # Priors the canonical-pair formulas do not cover, across all branches.
    for q1 in (0.2, 0.45, 0.8):
        e = make_noisy_pair(PairSpec(0.4, 0.15, (q1, 1.0 - q1)))
        branches = {inside_general_bracket(e, float(eta)).branch for eta in np.linspace(0.02, 1.0, 15)}
        assert branches == {"LowRate", "Sharp", "HighRate"}


def test_qubit_ensemble_identical_pure_states():
    # |rbar| = 1: every detector has confidence q_1.
    state = pure_state([0.6, 0.8j])
    e = Ensemble(((0.3, state), (0.7, state)))
    for eta in (1e-9, 0.3, 0.5, 1.0):
        report = inside_general_bracket(e, eta)
        assert report.value == pytest.approx(0.3, abs=1e-15)


def test_qubit_ensemble_ball_when_average_is_maximally_mixed():
    # rbar = 0 (orthogonal pure pair, equal priors): the feasible set is the
    # ball |v| <= min(eta1, 1 - eta1), so the value is 1 up to eta1 = 1/2
    # and 1/(2 eta1) above.
    e = make_pure_pair(PairSpec(0.0))
    for eta in (0.1, 0.5, 0.7, 1.0):
        report = inside_general_bracket(e, eta)
        assert report.value == pytest.approx(min(1.0, 0.5 / eta), abs=1e-15)
    assert certify_qubit_ensemble(e, 0.5).branch == "LowRate"
    assert certify_qubit_ensemble(e, 0.7).branch == "HighRate"


def test_qubit_ensemble_fully_mixed_pair_certifies_prior():
    e = make_noisy_pair(PairSpec(0.5, 1.0))
    alpha = WeightVector((1.0,))
    for eta, branch in ((0.2, "LowRate"), (0.5, "LowRate"), (0.8, "HighRate")):
        report = certify_qubit_ensemble(e, eta)
        assert (report.value, report.branch) == (0.5, branch)
        ok, residuals = verify_kkt(e, alpha, OutcomeRates((eta,), 1.0 - eta), report.povm, report.dual)
        assert ok, residuals


def test_qubit_ensemble_rare_clicks_keep_consistency():
    # certify_qubit loses its dual consistency at these rates; the LowRate
    # value does not depend on eta1.
    e = make_noisy_pair(PairSpec(0.5, 0.2))
    low = certify_qubit(0.5, 0.2, 1e-3).value
    for eta in (1e-10, 3e-12):
        with pytest.raises(NumericalError):
            certify_qubit(0.5, 0.2, eta)
        report = certify_qubit_ensemble(e, eta)
        assert report.branch == "LowRate"
        assert report.value == pytest.approx(low, abs=1e-15)


def test_qubit_ensemble_domain_errors():
    with pytest.raises(DimensionMismatchError):
        certify_qubit_ensemble(Ensemble(((1.0, pure_state([1.0, 0.0, 0.0])),)), 0.5)
    e = make_pure_pair(PairSpec(0.5))
    for eta in (0.0, -0.1, 1.5):
        with pytest.raises(OutOfRangeError):
            certify_qubit_ensemble(e, eta)


bloch_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda r: 1e-3 <= np.linalg.norm(r) <= 1.0
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    q1=st.floats(0.05, 0.95),
    r1=bloch_vectors,
    r2=bloch_vectors,
    shrink=st.floats(0.0, 1.0),
    etas=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)).map(sorted),
)
def test_qubit_ensemble_non_increasing_in_rate(q1, r1, r2, shrink, etas):
    # A detector at rate eta_b scaled by eta_a/eta_b is one at rate eta_a
    # with the same confidence, so the certified value cannot rise with the
    # rate; and each value is inside the general route's bracket.
    states = [DensityMatrix(qmath.bloch_op(0.5, r / 2.0)) for r in (r1, shrink * r2)]
    e = Ensemble(((q1, states[0]), (1.0 - q1, states[1])))
    low, high = (inside_general_bracket(e, eta).value for eta in etas)
    assert low >= high - 1e-12


# --- gap relation ---------------------------------------------------------------

def test_delta_relation_between_regions():
    for c in (0.2, 0.5, 0.8):
        for p in (0.1, 0.5, 0.9):
            n_lo = (1.0 - (1.0 - p) * c) / 2.0
            n_hi = (1.0 + (1.0 - p) * c) / 2.0
            d_low, region = delta_gap(c, p, n_lo / 2.0)
            assert region == "low"
            for eta1 in np.linspace(n_hi, 1.0, 7):
                d_high, region = delta_gap(c, p, float(eta1))
                assert region == "high"
                assert d_high == pytest.approx((1.0 / eta1 - 1.0) * d_low, abs=1e-10)


def test_delta_zero_without_noise():
    d_low, region = delta_gap(0.5, 0.0, 0.1)
    assert region == "low"
    assert abs(d_low) <= 1e-12
    d_high, region = delta_gap(0.5, 0.0, 1.0)
    assert region == "high"
    assert abs(d_high) <= 1e-12


def test_delta_positive_with_noise():
    d_low, _ = delta_gap(0.5, 0.5, 0.2)
    assert d_low > 1e-4


def test_delta_rejects_sharp_range():
    with pytest.raises(WrongRegionError):
        delta_gap(0.5, 0.5, 0.5)


# --- report plumbing -------------------------------------------------------------

def test_report_and_dual_shapes():
    report = certify_qubit(0.5, 0.3, 0.4)
    assert isinstance(report, CertReport)
    d = report.dual
    assert isinstance(d, DualCertificate)
    assert len(d.s) == len(d.r) == len(d.sigma) == 1
    assert d.objective(OutcomeRates((0.4,), 0.6)) == pytest.approx(
        report.value, abs=1e-9
    )


# --- lazy scipy hook ---------------------------------------------------------------

def test_optimize_attribute_loads_scipy_on_demand():
    optimize = pytest.importorskip("scipy.optimize")
    import mcdisc.certify

    assert mcdisc.certify.optimize is optimize
    with pytest.raises(AttributeError, match="'mcdisc.certify'.*'no_such_name'"):
        getattr(mcdisc.certify, "no_such_name")
    namespace = {}
    exec("from mcdisc.certify import *", namespace)
    assert namespace["certify_qubit"] is certify_qubit
