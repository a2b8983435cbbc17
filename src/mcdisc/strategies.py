"""Closed-form discrimination bounds and the measurements achieving them.

Three tasks over a two-state qubit ensemble, each in two theories:

- minimum-error guessing ("med"): quantum Helstrom value vs the
  noncontextual ceiling 1 - c/2;
- unambiguous discrimination ("ud"): the reported value is the inconclusive
  rate, sqrt(c) quantumly vs (1+c)/2 noncontextually (with a discontinuity
  at c = 0 where the noncontextual rate drops to 0);
- maximum confidence ("mcm"): closed forms in (c, p) for the depolarized
  pair, plus the operator-norm route for arbitrary ensembles.

Values for "med" and "mcm" are success probabilities / confidences; values
for "ud" are failure rates. Quantum results carry the achieving POVM;
noncontextual results carry no measurement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .ensembles import (
    Ensemble,
    PairSpec,
    average_state,
    make_pure_pair,
    matrix_from_json,
    matrix_to_json,
    mirror_state,
)
from .errors import (
    DimensionMismatchError,
    InvalidSpecError,
    OutOfRangeError,
    WrongArityError,
)

__all__ = [
    "Povm",
    "BoundResult",
    "helstrom",
    "guess_nc",
    "ud_quantum",
    "ud_noncontextual",
    "mcm_quantum",
    "mcm_quantum_general",
    "mcm_noncontextual",
    "confidence_of",
    "povm_to_json",
    "povm_from_json",
    "ZERO_C_THRESHOLD",
]

COMPLETENESS_TOL = 1e-10
ZERO_C_THRESHOLD = 1e-12   # below this the noncontextual inconclusive rate is 0


@dataclass(frozen=True, eq=False)
class Povm:
    """Measurement with detectors 1..n plus an inconclusive element (outcome 0)."""

    elements: tuple
    inconclusive: np.ndarray

    def __post_init__(self):
        elements = tuple(np.asarray(m, dtype=complex) for m in self.elements)
        inconclusive = np.asarray(self.inconclusive, dtype=complex)
        dims = {m.shape for m in elements} | {inconclusive.shape}
        if len(dims) != 1:
            raise DimensionMismatchError(f"POVM elements of mixed shapes {sorted(dims)}")
        total = inconclusive.copy()
        for m in elements:
            low = qmath.min_eig(m)
            if low < qmath.PSD_TOL:
                raise OutOfRangeError(f"POVM element has negative eigenvalue {low:.3e}")
            total = total + m
        low = qmath.min_eig(inconclusive)
        if low < qmath.PSD_TOL:
            raise OutOfRangeError(f"inconclusive element has negative eigenvalue {low:.3e}")
        dev = np.linalg.norm(total - np.eye(total.shape[0]))
        if dev > COMPLETENESS_TOL:
            raise OutOfRangeError(f"POVM completeness violated by {dev:.3e}")
        for m in elements:
            m.flags.writeable = False
        inconclusive.flags.writeable = False
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "inconclusive", inconclusive)

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.inconclusive.shape[0]

    def outcome_elements(self) -> tuple:
        """All elements in outcome order 0..n."""
        return (self.inconclusive,) + self.elements


@dataclass(frozen=True, eq=False)
class BoundResult:
    value: float
    theory: str                 # "quantum" | "noncontextual"
    task: str                   # "med" | "ud" | "mcm"
    measurement: Povm | None = None
    branch: str = ""

    def __post_init__(self):
        if not (-1e-12 <= self.value <= 1.0 + 1e-12):
            raise OutOfRangeError(f"bound value {self.value} outside [0, 1]")
        if self.theory not in ("quantum", "noncontextual"):
            raise ValueError(f"unknown theory {self.theory!r}")
        if self.task not in ("med", "ud", "mcm"):
            raise ValueError(f"unknown task {self.task!r}")
        if (self.measurement is not None) != (self.theory == "quantum"):
            raise ValueError("a measurement is attached exactly when the theory is quantum")
        object.__setattr__(self, "value", float(min(max(self.value, 0.0), 1.0)))


def _check_c(c: float):
    if not (0.0 <= c <= 1.0):
        raise OutOfRangeError(f"confusability c={c} outside [0, 1]")


def _check_p(p: float):
    if not (0.0 <= p <= 1.0):
        raise OutOfRangeError(f"noise p={p} outside [0, 1]")


def helstrom(e: Ensemble) -> BoundResult:
    """Optimal two-state guessing probability and the projective measurement.

    Works for any priors and mixedness: the value is
    1/2 + ||q1 rho1 - q2 rho2||_1 / 2 and the measurement projects onto the
    positive/nonpositive eigenspaces of the weighted difference.
    """
    if len(e) != 2:
        raise WrongArityError(f"helstrom needs exactly two members, got {len(e)}")
    (q1, s1), (q2, s2) = e.members
    diff = q1 * s1.matrix - q2 * s2.matrix
    values, vectors = qmath.eig_hermitian(diff)
    value = 0.5 + 0.5 * float(np.sum(np.abs(values)))
    pos = vectors[:, values > 0]
    m1 = pos @ qmath.dagger(pos)
    m2 = np.eye(e.dim, dtype=complex) - m1
    povm = Povm((m1, m2), np.zeros((e.dim, e.dim), dtype=complex))
    return BoundResult(value, "quantum", "med", povm)


def guess_nc(c: float, p: float = 0.0) -> BoundResult:
    """Noncontextual ceiling on the two-state guessing probability.

    With depolarizing noise p this is the four-region model's value for
    guessing state 1 exactly when sharp(mu1) fires on the noisy states.
    """
    _check_c(c)
    _check_p(p)
    return BoundResult(1.0 - c / 2.0 - p * (1.0 - c) / 2.0, "noncontextual", "med")


def ud_quantum(c: float) -> BoundResult:
    """Minimal quantum inconclusive rate sqrt(c) and the three-outcome POVM.

    Each conclusive detector is a scaled projector onto the mirror of the
    other state (so cross clicks vanish identically); the common scale
    1/(1 + sqrt(c)) is the largest that keeps the inconclusive element PSD.
    """
    _check_c(c)
    pair = make_pure_pair(PairSpec(c))
    s1, s2 = pair.states
    scale = 1.0 / (1.0 + math.sqrt(c))
    m1 = scale * mirror_state(s2).matrix
    m2 = scale * mirror_state(s1).matrix
    m0 = np.eye(2, dtype=complex) - m1 - m2
    povm = Povm((m1, m2), qmath.psd_floor(m0, 0.0))
    return BoundResult(math.sqrt(c), "quantum", "ud", povm)


def ud_noncontextual(c: float) -> BoundResult:
    """Noncontextual minimal inconclusive rate: (1+c)/2, but 0 at c = 0.

    The bound holds for strictly positive confusability only; at c = 0 a
    noncontextual model discriminates perfectly, so the rate is 0 and the
    function is discontinuous there.
    """
    _check_c(c)
    if c <= ZERO_C_THRESHOLD:
        return BoundResult(0.0, "noncontextual", "ud", branch="zero-confusability")
    return BoundResult((1.0 + c) / 2.0, "noncontextual", "ud")


def _confidence(m1: np.ndarray, e: Ensemble, y: int = 1) -> float:
    """q_y tr[M rho_y] / tr[M rho] for a single detector element."""
    q, s = e.members[y - 1]
    rho = average_state(e).matrix
    num = q * float(np.real(np.trace(m1 @ s.matrix)))
    den = float(np.real(np.trace(m1 @ rho)))
    return num / den


def confidence_of(povm: Povm, e: Ensemble, y: int = 1) -> float:
    """Confidence of detector y of a POVM on an ensemble (Bayes posterior)."""
    if povm.dim != e.dim:
        raise DimensionMismatchError("POVM and ensemble dimensions differ")
    if not (1 <= y <= povm.n):
        raise OutOfRangeError(f"detector index {y} outside 1..{povm.n}")
    return _confidence(np.asarray(povm.elements[y - 1]), e, y)


def mcm_quantum(c: float, p: float) -> BoundResult:
    """Maximum quantum confidence for the depolarized canonical pair.

    Value: (1 + (1-p) sqrt(1-c) / sqrt(1 - (1-p)^2 c)) / 2. The attached
    two-detector POVM has rank-one elements along
    |phi_y> = sqrt((1-k)/2)|0> + (-1)^(y+1) sqrt((1+k)/2)|1>, k = (1-p) sqrt(c),
    scaled by 1/(1+k) so the inconclusive element is PSD with a zero eigenvalue.
    At c = 1, p = 0 the states are identical (k = 1): the value is 1/2 and the
    same POVM (m1 = m2 = |1><1|/2, m0 = |0><0|) is returned.
    """
    _check_c(c)
    _check_p(p)
    root_c = math.sqrt(c)
    k = (1.0 - p) * root_c
    # 1 - k without cancellation near k = 1, so that 1 - k^2 = (1-k)(1+k)
    # keeps the value at or below 1 as c -> 1 at p = 0.
    one_minus_k = p + (1.0 - p) * (1.0 - c) / (1.0 + root_c)
    identical = one_minus_k <= 0.0
    if identical:
        value = 0.5
    else:
        value = 0.5 * (1.0 + (1.0 - p) * math.sqrt(1.0 - c) / math.sqrt(one_minus_k * (1.0 + k)))
    lo = math.sqrt(one_minus_k / 2.0)
    hi = math.sqrt((1.0 + k) / 2.0)
    phi1 = np.array([lo, hi], dtype=complex)
    phi2 = np.array([lo, -hi], dtype=complex)
    t = 1.0 / (1.0 + k)
    m1 = t * np.outer(phi1, phi1.conj())
    m2 = t * np.outer(phi2, phi2.conj())
    m0 = np.eye(2, dtype=complex) - m1 - m2
    povm = Povm((m1, m2), qmath.psd_floor(m0, 0.0))
    branch = "identical-states" if identical else ""
    return BoundResult(value, "quantum", "mcm", povm, branch=branch)


def mcm_quantum_general(e: Ensemble, y: int = 1) -> BoundResult:
    """Maximum confidence of detector y for an arbitrary ensemble.

    Computed as the operator norm of s q_y rho_y s with s the pseudo-inverse
    square root of the average state; rank deficiency is handled by support
    restriction. The attached single-detector POVM is the scaled optimizer.
    """
    if not (1 <= y <= len(e)):
        raise OutOfRangeError(f"detector index {y} outside 1..{len(e)}")
    q, s = e.members[y - 1]
    rho = average_state(e).matrix
    root = qmath.inv_sqrt(rho)
    op = root @ (q * s.matrix) @ root
    values, vectors = qmath.eig_hermitian(op)
    value = float(min(max(values[-1], 0.0), 1.0))
    phi = vectors[:, -1]
    raw = root @ np.outer(phi, phi.conj()) @ root
    top = qmath.op_norm(raw)
    if top <= 0.0:
        m_y = np.zeros_like(raw)
    else:
        m_y = raw / top
    # The optimizer sits in slot y; lower slots are never-click placeholders
    # so confidence_of(povm, e, y) addresses the right detector.
    zero = np.zeros((e.dim, e.dim), dtype=complex)
    elements = (zero,) * (y - 1) + (m_y,)
    povm = Povm(elements, qmath.psd_floor(np.eye(e.dim, dtype=complex) - m_y, 0.0))
    return BoundResult(value, "quantum", "mcm", povm, branch=f"detector-{y}")


def mcm_noncontextual(c: float, p: float) -> BoundResult:
    """Noncontextual ceiling on the confidence for the depolarized pair.

    At c = 1, p = 0 the states are identical and the ceiling is 1/2.
    """
    _check_c(c)
    _check_p(p)
    if (1.0 - p) * c >= 1.0:
        return BoundResult(0.5, "noncontextual", "mcm", branch="identical-states")
    value = 0.5 * (1.0 + (1.0 - p) * (1.0 - c) / (1.0 - (1.0 - p) * c))
    return BoundResult(value, "noncontextual", "mcm")


def povm_to_json(povm: Povm) -> dict:
    """JSON-ready payload; inverse of povm_from_json."""
    return {
        "elements": [matrix_to_json(m) for m in povm.elements],
        "inconclusive": matrix_to_json(povm.inconclusive),
    }


def povm_from_json(payload: dict) -> Povm:
    try:
        elements = tuple(matrix_from_json(m) for m in payload["elements"])
        inconclusive = matrix_from_json(payload["inconclusive"])
    except (KeyError, TypeError, ValueError, IndexError) as err:
        raise InvalidSpecError(f"malformed POVM payload: {err}") from err
    return Povm(elements, inconclusive)
