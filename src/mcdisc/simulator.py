"""Monte-Carlo prepare-and-measure runs feeding the certifier.

Each trial draws a preparation from the ensemble priors, erases it with a
state-independent loss probability (folded into outcome 0 together with
the measurement's own inconclusive weight), and otherwise samples an
outcome from the Born probabilities. Trials are independent, so the tally
is drawn exactly from that distribution in two multinomial steps: the
trials per preparation from the priors, then each preparation's outcomes
from its row of outcome probabilities. The cost grows with preparations x
outcomes, not with the trial count. Counts are reproducible bit for bit:
one counter-based stream is derived from the seed.

certify_from_tally routes by dimension alone: a qubit ensemble is
certified in closed form (certify_qubit_ensemble), any other by the
general SDP bracket, its three rate probes in one batched solve.
"""
from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .certify import OutcomeRates, WeightVector, _certify_general_batch, certify_qubit_ensemble
from .ensembles import Ensemble
from .errors import (
    DimensionMismatchError,
    InvalidSpecError,
    OutOfRangeError,
    ZeroRateError,
)
from .strategies import Povm

__all__ = [
    "ExperimentSpec",
    "Tally",
    "TallyCertification",
    "run",
    "wilson_interval",
    "certify_from_tally",
    "tally_to_json",
    "tally_from_json",
]

Z95 = statistics.NormalDist().inv_cdf(0.975)


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    ensemble: Ensemble
    povm: Povm
    trials: int
    seed: int
    loss: float = 0.0

    def __post_init__(self):
        if self.povm.dim != self.ensemble.dim:
            raise DimensionMismatchError(
                f"POVM dim {self.povm.dim} vs ensemble dim {self.ensemble.dim}"
            )
        if not (0.0 <= self.loss <= 1.0):
            raise OutOfRangeError(f"loss={self.loss} outside [0, 1]")
        if self.trials < 1:
            raise OutOfRangeError(f"trials={self.trials} must be positive")
        if self.seed < 0:
            raise OutOfRangeError(f"seed={self.seed} must be non-negative")


@dataclass(frozen=True, eq=False)
class Tally:
    """Counts indexed by (preparation, outcome), outcome 0 inconclusive."""

    counts: np.ndarray
    trials: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2:
            raise InvalidSpecError("counts must be a preparations x outcomes table")
        if (counts < 0).any() or int(counts.sum()) != self.trials:
            raise InvalidSpecError("counts must be nonnegative and sum to trials")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_outcomes(self) -> int:
        return self.counts.shape[1]

    def rates(self) -> np.ndarray:
        """Ensemble-average click rate per outcome 0..n."""
        return self.counts.sum(axis=0) / self.trials

    def wilson(self, z: float = Z95) -> list:
        totals = self.counts.sum(axis=0)
        return [wilson_interval(int(k), self.trials, z) for k in totals]

    def empirical_confidence(self, y: int) -> float:
        """Fraction of outcome-y events whose preparation was state y."""
        if not (1 <= y < self.n_outcomes):
            raise OutOfRangeError(f"detector index {y} outside 1..{self.n_outcomes - 1}")
        column = int(self.counts[:, y].sum())
        if column == 0:
            raise ZeroRateError(f"no clicks on detector {y}")
        return int(self.counts[y - 1, y]) / column


@dataclass(frozen=True, eq=False)
class TallyCertification:
    report: object                      # CertReport or GeneralCertificate
    eta1_interval: tuple
    value_interval: tuple


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple:
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _distribution(weights) -> np.ndarray:
    """Weights clipped at 0 and normalised along the last axis. numpy's
    multinomial rejects any entry below 0 or above 1, which priors within
    PRIOR_TOL of the simplex and rounded Born rows can reach."""
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    return w / w.sum(axis=-1, keepdims=True)


def run(spec: ExperimentSpec) -> Tally:
    states = np.array([s.matrix for s in spec.ensemble.states])
    outcomes = np.array(spec.povm.outcome_elements())
    born = _distribution(np.real(np.einsum("xij,yji->xy", states, outcomes)))
    probs = (1.0 - spec.loss) * born
    probs[:, 0] += spec.loss
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
    per_prep = rng.multinomial(spec.trials, _distribution(spec.ensemble.priors))
    return Tally(rng.multinomial(per_prep, _distribution(probs)), spec.trials)


def certify_from_tally(t: Tally, e: Ensemble) -> TallyCertification:
    """Certify detector 1 from empirical rates, at the point estimate and
    both Wilson 95% endpoints; the value interval spans all three results.

    Only detector 1's rate is constrained (a sound relaxation). The values
    are certify_qubit_ensemble's for a qubit ensemble and otherwise the
    upper ends of certify_general's brackets, with the three probes solved
    as one batch (a probe within 1e-9 of eta1 = 1 has no inconclusive
    block, so it has its own SDP layout and solve); each bracket equals a
    lone certify_general call's bit for bit.
    """
    rates = t.rates()
    eta1_hat = float(rates[1])
    if eta1_hat <= 0.0:
        raise ZeroRateError("detector 1 never clicked; confidence undefined")
    lo, hi = t.wilson()[1]
    lo = max(lo, 1e-12)
    probe = [eta1_hat, lo, hi]

    if e.dim == 2:
        reports = [certify_qubit_ensemble(e, eta) for eta in probe]
        values = [report.value for report in reports]
    else:
        batch = [OutcomeRates((eta,), 1.0 - eta) for eta in probe]
        reports = _certify_general_batch(e, WeightVector((1.0,)), batch)
        values = [report.upper for report in reports]
    return TallyCertification(reports[0], (lo, hi), (min(values), max(values)))


def tally_to_json(t: Tally) -> str:
    payload = {
        "trials": t.trials,
        "counts": [[int(v) for v in row] for row in t.counts],
        "rates": [float(r) for r in t.rates()],
        "wilson": [[float(a), float(b)] for a, b in t.wilson()],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def tally_from_json(text: str) -> Tally:
    try:
        payload = json.loads(text)
        return Tally(np.array(payload["counts"], dtype=np.int64), int(payload["trials"]))
    except (KeyError, TypeError, ValueError) as err:
        raise InvalidSpecError(f"malformed tally JSON: {err}") from err
