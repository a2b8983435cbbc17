"""Four-region ontic model: epistemic weights, responses, certified ceiling."""
import numpy as np
import pytest

from mcdisc.ncmodel import (
    EPISTEMIC_LABELS,
    ResponseFunction,
    build_model,
    nc_achievability_search,
    nc_certified,
    nc_confidence,
    prob,
    sharp,
)
from mcdisc.errors import (
    OutOfRangeError,
    ZeroConfusabilityError,
    ZeroRateError,
)
from mcdisc.strategies import mcm_noncontextual

ALWAYS = ResponseFunction(np.ones(4), "always-click")


def test_disjoint_supports_at_zero_confusability():
    m = build_model(0.0)
    assert np.allclose(m.weights("mu1"), [0, 1, 0, 0])
    assert np.allclose(m.weights("mu2"), [0, 0, 1, 0])


def test_identical_states_at_full_confusability():
    m = build_model(1.0)
    assert np.allclose(m.weights("mu1"), [1, 0, 0, 0])
    assert np.allclose(m.weights("mu2"), [1, 0, 0, 0])


def test_half_confusability_mixed_state_is_uniform():
    m = build_model(0.5)
    assert np.allclose(m.weights("mu_mixed"), [0.25, 0.25, 0.25, 0.25])


@pytest.mark.parametrize("c", [0.0, 0.1, 0.5, 0.93, 1.0])
def test_epistemic_vectors_normalized_and_mirrored(c):
    m = build_model(c)
    for label in EPISTEMIC_LABELS:
        w = m.weights(label)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
    # mirror identity holds exactly
    for a, b in (("mu1", "mu1_bar"), ("mu2", "mu2_bar")):
        mix = (m.weights(a) + m.weights(b)) / 2.0
        assert np.array_equal(mix, m.weights("mu_mixed")) or np.allclose(
            mix, m.weights("mu_mixed"), atol=1e-15
        )


@pytest.mark.parametrize("c", [0.05, 0.3, 0.5, 0.8])
def test_overlap_of_the_two_states_is_c(c):
    m = build_model(c)
    # weight of mu2 inside the support of mu1
    support1 = m.weights("mu1") > 0
    assert m.weights("mu2")[support1].sum() == pytest.approx(c, abs=1e-14)
    # same thing phrased through a sharp response
    assert prob(m, "mu1", sharp(m, "mu2")) == pytest.approx(c, abs=1e-14)


def test_state_distance_in_region_arithmetic():
    for c in (0.1, 0.5, 0.9):
        m = build_model(c)
        l1 = np.abs(m.weights("mu1") - m.weights("mu2")).sum()
        assert l1 == pytest.approx(2.0 * (1.0 - c), abs=1e-14)


def test_triangle_inequality_over_epistemics():
    m = build_model(0.37)
    base = np.abs(m.weights("mu1") - m.weights("mu2")).sum()
    for label in EPISTEMIC_LABELS:
        y = m.weights(label)
        lhs = np.abs(y - m.weights("mu2")).sum()
        rhs = np.abs(y - m.weights("mu1")).sum() + base
        assert lhs <= rhs + 1e-14


def test_sharp_click_sums_bounded_by_confusability():
    # Clicking sharply on any third state y, the two ensemble states respond
    # with total weight between 1-c and 1+c.
    for c in (0.2, 0.5, 0.8):
        m = build_model(c)
        for label in ("mu1", "mu2", "mu1_bar", "mu2_bar"):
            xi = sharp(m, label)
            total = prob(m, "mu1", xi) + prob(m, "mu2", xi)
            assert 1.0 - c - 1e-12 <= total <= 1.0 + c + 1e-12


def test_prob_trivial_and_region_values():
    m = build_model(0.5)
    for label in EPISTEMIC_LABELS:
        assert prob(m, label, ALWAYS) == pytest.approx(1.0, abs=1e-14)
    assert prob(m, "mu1", sharp(m, "mu2_bar")) == pytest.approx(0.5, abs=1e-14)


def test_unknown_epistemic_label_rejected():
    with pytest.raises(OutOfRangeError):
        build_model(0.5).weights("mu3")


def test_response_function_validation():
    with pytest.raises(OutOfRangeError):
        ResponseFunction(np.ones(3))
    with pytest.raises(OutOfRangeError):
        ResponseFunction(np.array([0.5, 0.5, 0.5, 1.5]))


def test_full_rate_response_gives_prior_confidence():
    for c in (0.2, 0.5, 0.8):
        for p in (0.0, 0.5, 1.0):
            conf, eta1 = nc_confidence(build_model(c), p, ALWAYS)
            assert conf == pytest.approx(0.5, abs=1e-14)
            assert eta1 == pytest.approx(1.0, abs=1e-14)


def test_noiseless_mirror_response_is_unambiguous():
    conf, eta1 = nc_confidence(build_model(0.5), 0.0, sharp(build_model(0.5), "mu2_bar"))
    assert conf == pytest.approx(1.0, abs=1e-14)
    assert eta1 == pytest.approx(0.25, abs=1e-14)


def test_noisy_mirror_response_hits_ceiling():
    m = build_model(0.5)
    conf, eta1 = nc_confidence(m, 0.5, sharp(m, "mu2_bar"))
    assert conf == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert eta1 == pytest.approx(0.375, abs=1e-14)


def test_zero_rate_response_rejected():
    m = build_model(0.0)
    never = ResponseFunction(np.array([1.0, 0.0, 0.0, 0.0]), "overlap-only")
    with pytest.raises(ZeroRateError):
        nc_confidence(m, 0.0, never)


def test_certified_known_values():
    assert nc_certified(0.5, 0.0, 0.2).value == pytest.approx(1.0, abs=1e-14)
    assert nc_certified(0.5, 0.0, 0.5).value == pytest.approx(0.75, abs=1e-14)
    assert nc_certified(0.5, 0.0, 1.0).value == pytest.approx(0.5, abs=1e-14)
    assert nc_certified(0.5, 0.5, 0.2).value == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_certified_branch_labels():
    assert nc_certified(0.5, 0.0, 0.2).branch == "LowRate"
    assert nc_certified(0.5, 0.0, 0.5).branch == "Sharp"
    assert nc_certified(0.5, 0.0, 0.9).branch == "HighRate"
    # boundary ties report the lower-rate branch
    assert nc_certified(0.5, 0.0, 0.25).branch == "LowRate"
    assert nc_certified(0.5, 0.0, 0.75).branch == "Sharp"


@pytest.mark.parametrize("eta1", [1e-3, 0.5, 1.0])
def test_certified_identical_noiseless_states(eta1):
    # At c = 1, p = 0 both branch points sit at 0 and 1, so every rate is
    # Sharp; the other branches divide by 1 - (1-p)c = 0.
    result = nc_certified(1.0, 0.0, eta1)
    assert result.value == 0.5
    assert result.branch == "Sharp"


def test_certified_continuous_at_region_boundaries():
    eps = 1e-12
    for c in (0.1, 0.5, 0.9):
        for p in (0.0, 0.3, 0.7):
            lo = (1.0 - (1.0 - p) * c) / 2.0
            hi = (1.0 + (1.0 - p) * c) / 2.0
            for b in (lo, hi):
                left = nc_certified(c, p, b - eps).value
                right = nc_certified(c, p, b + eps).value
                assert abs(left - right) <= 1e-10


def test_certified_non_increasing_in_rate():
    grid = np.linspace(0.01, 1.0, 200)
    for c in (0.2, 0.5, 0.8):
        for p in (0.0, 0.4, 0.8):
            values = [nc_certified(c, p, float(x)).value for x in grid]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_certified_domain_errors():
    with pytest.raises(ZeroConfusabilityError):
        nc_certified(0.0, 0.0, 0.5)
    with pytest.raises(OutOfRangeError):
        nc_certified(1.1, 0.0, 0.5)
    with pytest.raises(OutOfRangeError):
        nc_certified(0.5, -0.1, 0.5)
    with pytest.raises(OutOfRangeError):
        nc_certified(0.5, 0.0, 0.0)


def test_search_returns_mirror_response_at_its_rate():
    m = build_model(0.5)
    xi = nc_achievability_search(m, 0.0, 0.25)
    assert np.array_equal(xi.weights, sharp(m, "mu2_bar").weights)


def test_search_full_rate_clicks_everywhere():
    xi = nc_achievability_search(build_model(0.5), 0.0, 1.0)
    assert np.allclose(xi.weights, np.ones(4))


def test_search_high_rate_example():
    m = build_model(0.5)
    xi = nc_achievability_search(m, 0.0, 0.9)
    conf, eta1 = nc_confidence(m, 0.0, xi)
    assert eta1 == pytest.approx(0.9, abs=1e-9)
    assert conf == pytest.approx(1.0 / 1.8, abs=1e-9)


def test_search_achieves_certified_ceiling_everywhere():
    # The best in-model response must reproduce the closed-form ceiling:
    # neither above it (soundness) nor below it (achievability), up to rounding.
    for c in (0.2, 0.5, 0.8):
        m = build_model(c)
        for p in (0.0, 0.3, 0.6):
            for eta1 in np.linspace(0.05, 1.0, 20):
                xi = nc_achievability_search(m, p, float(eta1))
                conf, rate = nc_confidence(m, p, xi)
                ceiling = nc_certified(c, p, float(eta1)).value
                assert abs(rate - eta1) <= 1e-12
                assert conf <= ceiling + 1e-12
                assert conf >= ceiling - 1e-12


def test_search_reaches_full_rate_everywhere():
    # The ensemble weights can sum to 1 - 1 ulp; rate 1 must stay reachable.
    for c in np.linspace(0.04, 1.0, 25):
        m = build_model(float(c))
        for p in np.linspace(0.0, 1.0, 20):
            conf, rate = nc_confidence(m, float(p), nc_achievability_search(m, float(p), 1.0))
            assert conf == pytest.approx(0.5, abs=1e-12)
            assert rate == pytest.approx(1.0, abs=1e-12)


def test_noncontextual_closed_forms_agree_at_low_rate():
    # strategies.mcm_noncontextual is the rate-free ceiling; below the first
    # branch point nc_certified and the search must give the same value.
    for c in np.linspace(0.01, 1.0, 20):
        m = build_model(float(c))
        for p in np.linspace(0.0, 1.0, 21):
            if c == 1.0 and p == 0.0:
                continue  # the low-rate range (0, lo] is empty here
            unbounded = mcm_noncontextual(float(c), float(p)).value
            lo = (1.0 - (1.0 - p) * c) / 2.0
            for eta1 in np.linspace(lo / 7.0, lo, 7):
                certified = nc_certified(float(c), float(p), float(eta1)).value
                xi = nc_achievability_search(m, float(p), float(eta1))
                searched, _ = nc_confidence(m, float(p), xi)
                assert certified == pytest.approx(unbounded, abs=1e-12)
                assert searched == pytest.approx(unbounded, abs=1e-12)
