"""Finite ontic model for preparation-noncontextual two-state statistics.

The ontic space has four regions, ordered (R12, R1, R2, R0): the overlap
region shared by both states, the private regions of states 1 and 2, and
the region shared by the two mirror states. The five epistemic
distributions over these regions are fixed by three requirements: each
state overlaps the other with weight exactly c, each state mixed equally
with its mirror reproduces the maximally mixed distribution, and the
construction is symmetric under swapping the two states. Response
functions are vectors of per-region click weights in [0, 1]; sharp
(outcome-deterministic) responses are indicators of epistemic supports.
The model's responses are the convex hull of the never-click response and
the five sharp ones, not the whole cube [0, 1]^4: a click on R1 alone, say,
is no response of the model.

nc_certified gives the noncontextual ceiling on the confidence of detector 1
as a function of its observed rate, in three branches split at
(1 - (1-p)c)/2 and (1 + (1-p)c)/2 (nc_certified_curve: over an array of
rates). nc_achievability_search finds the best
response in the hull exactly, as an independent check of that ceiling; the
three branches are the segments never -> sharp(mu2_bar) -> sharp(mu1) ->
sharp(mu_mixed).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import in_unit_interval
from .errors import (
    OutOfRangeError,
    ZeroConfusabilityError,
    ZeroRateError,
)
from .strategies import BoundResult, unit_values

__all__ = [
    "REGIONS",
    "EPISTEMIC_LABELS",
    "OnticModel",
    "ResponseFunction",
    "build_model",
    "sharp",
    "prob",
    "ensemble_weights",
    "noisy_epistemic",
    "nc_confidence",
    "BRANCHES",
    "nc_certified",
    "nc_certified_curve",
    "nc_achievability_search",
]

REGIONS = ("R12", "R1", "R2", "R0")
EPISTEMIC_LABELS = ("mu1", "mu2", "mu1_bar", "mu2_bar", "mu_mixed")
# Rate branches of the certified curves, in rate order (nc_certified and
# certify.certify_qubit share them).
BRANCHES = ("LowRate", "Sharp", "HighRate")


@dataclass(frozen=True, eq=False)
class OnticModel:
    """Four-region ontic space with its five epistemic weight vectors."""

    c: float
    epistemics: dict

    def weights(self, label: str) -> np.ndarray:
        try:
            return self.epistemics[label]
        except KeyError:
            raise OutOfRangeError(f"unknown epistemic label {label!r}") from None


@dataclass(frozen=True, eq=False)
class ResponseFunction:
    """Per-region click weights in [0, 1] with a human-readable description."""

    weights: np.ndarray
    description: str = ""

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (4,):
            raise OutOfRangeError(f"response function needs 4 region weights, got {w.shape}")
        if not all(in_unit_interval(v) for v in w):
            raise OutOfRangeError(f"response weights {w} outside [0, 1]")
        w = np.clip(w, 0.0, 1.0)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def build_model(c: float) -> OnticModel:
    """Canonical four-region model at confusability c."""
    if not (0.0 <= c <= 1.0):
        raise OutOfRangeError(f"confusability c={c} outside [0, 1]")
    eps = {
        "mu1": np.array([c, 1.0 - c, 0.0, 0.0]),
        "mu2": np.array([c, 0.0, 1.0 - c, 0.0]),
        "mu1_bar": np.array([0.0, 0.0, 1.0 - c, c]),
        "mu2_bar": np.array([0.0, 1.0 - c, 0.0, c]),
        "mu_mixed": np.array([c / 2.0, (1.0 - c) / 2.0, (1.0 - c) / 2.0, c / 2.0]),
    }
    for v in eps.values():
        v.flags.writeable = False
    return OnticModel(c, eps)


def sharp(m: OnticModel, label: str) -> ResponseFunction:
    """Outcome-deterministic response: the indicator of an epistemic support."""
    w = (m.weights(label) > 0.0).astype(float)
    return ResponseFunction(w, f"sharp({label})")


def prob(m: OnticModel, state: str, xi: ResponseFunction) -> float:
    """Click probability of response xi on the epistemic state with that label."""
    return float(np.dot(m.weights(state), xi.weights))


def noisy_epistemic(m: OnticModel, label: str, p: float) -> np.ndarray:
    """Depolarized epistemic state (1-p) mu + p mu_mixed."""
    return (1.0 - p) * m.weights(label) + p * m.weights("mu_mixed")


def ensemble_weights(m: OnticModel, p: float) -> np.ndarray:
    """Epistemic state of the equal-prior noisy pair ensemble."""
    pair = (m.weights("mu1") + m.weights("mu2")) / 2.0
    return p * m.weights("mu_mixed") + (1.0 - p) * pair


def nc_confidence(m: OnticModel, p: float, xi: ResponseFunction) -> tuple:
    """Confidence for state 1 and outcome rate of a response on the noisy pair.

    Returns (confidence, eta1) where eta1 is the click rate on the ensemble
    distribution and the confidence is the posterior weight of state 1 among
    clicks, both computed by region arithmetic.
    """
    if not (0.0 <= p <= 1.0):
        raise OutOfRangeError(f"noise p={p} outside [0, 1]")
    eta1 = float(np.dot(ensemble_weights(m, p), xi.weights))
    if eta1 <= 1e-15:
        raise ZeroRateError("response never clicks on this ensemble")
    num = float(np.dot(noisy_epistemic(m, "mu1", p), xi.weights))
    return num / (2.0 * eta1), eta1


def _rate_branches(eta1, edges: tuple, formulas: tuple) -> tuple:
    """(branch, values) of a curve with three branches in rate, in BRANCHES
    order: branch 0 up to and including edges[0], 1 up to and including
    edges[1], 2 above. Each formula maps eta1 to a tuple of values.

    A number evaluates only its own branch's formula. An array evaluates
    every formula at every rate, where inf or nan outside a formula's branch
    is never picked, and picks each value per entry.
    """
    if not isinstance(eta1, np.ndarray):
        branch = 0 if eta1 <= edges[0] else 1 if eta1 <= edges[1] else 2
        return branch, formulas[branch](eta1)
    branch = (eta1 > edges[0]).astype(int) + (eta1 > edges[1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        parts = zip(*(formula(eta1) for formula in formulas))
        return branch, tuple(np.choose(branch, part) for part in parts)


def _nc_curve(c: float, p: float, eta1) -> tuple:
    """(branch, value) of nc_certified at a rate or an array of rates, unchecked."""
    # shrink = 0 at c = 1, p = 0, where every rate is Sharp; numpy division
    # lets the other two branches be evaluated there for an array.
    shrink = np.float64(1.0 - (1.0 - p) * c)
    branch, (value,) = _rate_branches(eta1, (shrink / 2.0, (1.0 + (1.0 - p) * c) / 2.0), (
        lambda eta1: (1.0 - p / (2.0 * shrink),),
        lambda eta1: (0.5 + (1.0 - p) * (1.0 - c) / (4.0 * eta1),),
        lambda eta1: ((1.0 - p * (1.0 - eta1) / shrink) / (2.0 * eta1),),
    ))
    return branch, value


def _check_nc_pair(c: float, p: float):
    if c == 0.0:
        raise ZeroConfusabilityError("certified noncontextual bound needs overlapping supports")
    if not (0.0 < c <= 1.0):
        raise OutOfRangeError(f"confusability c={c} outside (0, 1]")
    if not (0.0 <= p <= 1.0):
        raise OutOfRangeError(f"noise p={p} outside [0, 1]")


def nc_certified(c: float, p: float, eta1: float) -> BoundResult:
    """Noncontextual ceiling on detector-1 confidence at a given outcome rate.

    Piecewise in eta1 with boundaries (1 - (1-p)c)/2 and (1 + (1-p)c)/2:
    constant below (rate deficit costs nothing), a 1/eta1 falloff in the
    middle where sharp responses live, and a steeper falloff above where
    only padded (rank-two) responses reach the rate. Adjacent branch
    formulas agree at the boundaries; ties report the lower-rate branch.
    nc_certified_curve evaluates a whole eta1 grid in one pass.
    """
    _check_nc_pair(c, p)
    if not (0.0 < eta1 <= 1.0):
        raise OutOfRangeError(f"rate eta1={eta1} outside (0, 1]")
    branch, value = _nc_curve(c, p, eta1)
    return BoundResult(value, "noncontextual", "mcm", branch=BRANCHES[branch])


def nc_certified_curve(c: float, p: float, eta1: np.ndarray) -> np.ndarray:
    """nc_certified's value at every rate of an eta1 array, checked and
    clipped to [0, 1] as BoundResult does. The first rate outside (0, 1]
    raises nc_certified's error."""
    _check_nc_pair(c, p)
    eta1 = np.asarray(eta1, dtype=float)
    outside = ~((0.0 < eta1) & (eta1 <= 1.0))
    if outside.any():
        raise OutOfRangeError(f"rate eta1={eta1[outside][0]} outside (0, 1]")
    _, value = _nc_curve(c, p, eta1)
    return unit_values(value)[0]


def nc_achievability_search(m: OnticModel, p: float, eta1: float) -> ResponseFunction:
    """Best in-model response at rate eta1, found exactly.

    The responses are the hull of six vertices: never-click and the five
    sharp responses. At a fixed rate the confidence is linear in the
    response, so the optimum lies where the rate hyperplane cuts the segment
    between two vertices; all 15 segments are solved for their mixing
    weight at once. The segment from never-click to sharp(mu_mixed), which
    clicks on the whole support of the ensemble, reaches every rate in
    (0, 1].
    """
    if not (0.0 < eta1 <= 1.0):
        raise OutOfRangeError(f"rate eta1={eta1} outside (0, 1]")
    if not (0.0 <= p <= 1.0):
        raise OutOfRangeError(f"noise p={p} outside [0, 1]")
    names = ("never",) + tuple(f"sharp({label})" for label in EPISTEMIC_LABELS)
    sharps = [sharp(m, label).weights for label in EPISTEMIC_LABELS]
    vertices = np.vstack([np.zeros(4)] + sharps)
    rates = vertices @ ensemble_weights(m, p)
    rates[-1] = 1.0  # sharp(mu_mixed): its summed rate can miss 1 by an ulp
    u, v = np.triu_indices(len(vertices), k=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (eta1 - rates[u]) / (rates[v] - rates[u])
    feasible = (0.0 <= t) & (t <= 1.0)
    t = np.where(feasible, t, 0.0)
    mixes = (1.0 - t)[:, None] * vertices[u] + t[:, None] * vertices[v]
    clicks_on_1 = np.where(feasible, mixes @ noisy_epistemic(m, "mu1", p), -np.inf)
    k = int(np.argmax(clicks_on_1))
    return ResponseFunction(mixes[k], f"mix({names[u[k]]}, {names[v[k]]}, t={t[k]:.12g})")
