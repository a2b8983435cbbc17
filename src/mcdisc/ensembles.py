"""State ensembles: density matrices, prior-weighted collections, canonical pairs.

Two-state problems are placed in a canonical qubit basis, symmetric about
|0>: the pair is |psi_1> = cos(theta/2)|0> + sin(theta/2)|1> and
|psi_2> = cos(theta/2)|0> - sin(theta/2)|1> with cos(theta) = sqrt(c), so
the squared overlap (confusability) is exactly c. Depolarizing noise mixes
each state with I/2.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import (
    DimensionMismatchError,
    InvalidNoiseError,
    InvalidSpecError,
    NotPureError,
)

__all__ = [
    "DensityMatrix",
    "Ensemble",
    "PairSpec",
    "pure_state",
    "make_pure_pair",
    "make_noisy_pair",
    "canonical_pair_matrices",
    "depolarize",
    "confusability",
    "average_state",
    "mirror_state",
    "ensemble_to_json",
    "ensemble_from_json",
    "matrix_to_json",
    "matrix_from_json",
]

PURITY_TOL = 1e-8   # a state counts as pure when its top eigenvalue is >= 1 - PURITY_TOL
PRIOR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, PSD, trace-one matrix of dimension 2 to 4."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 3, 4):
            raise DimensionMismatchError(f"density matrix must be square (2-4), got {m.shape}")
        if not qmath.is_hermitian(m):
            raise InvalidSpecError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-10:
            raise InvalidSpecError(f"density matrix trace {tr} is not 1 within 1e-10")
        vals = np.linalg.eigvalsh((m + qmath.dagger(m)) / 2.0)
        if vals[0] < qmath.PSD_TOL:
            raise InvalidSpecError(f"density matrix has negative eigenvalue {vals[0]:.3e}")
        m = (m + qmath.dagger(m)) / 2.0
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def is_pure(self, tol: float = PURITY_TOL) -> bool:
        vals = np.linalg.eigvalsh(self.matrix)
        return bool(vals[-1] >= 1.0 - tol)


def pure_state(vec) -> DensityMatrix:
    """Density matrix of a normalized state vector."""
    v = np.asarray(vec, dtype=complex)
    n = np.linalg.norm(v)
    if n == 0:
        raise InvalidSpecError("zero vector has no associated state")
    v = v / n
    return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Prior-weighted list of states, all of the same dimension."""

    members: tuple

    def __post_init__(self):
        members = tuple((float(q), s) for q, s in self.members)
        if not members:
            raise InvalidSpecError("ensemble needs at least one member")
        if any(q < -PRIOR_TOL for q, _ in members):
            raise InvalidSpecError("priors must be nonnegative")
        total = sum(q for q, _ in members)
        if abs(total - 1.0) > PRIOR_TOL:
            raise InvalidSpecError(f"priors sum to {total!r}, expected 1 within {PRIOR_TOL}")
        dims = {s.dim for _, s in members}
        if len(dims) != 1:
            raise DimensionMismatchError(f"mixed state dimensions {sorted(dims)} in one ensemble")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0][1].dim

    @property
    def priors(self) -> tuple:
        return tuple(q for q, _ in self.members)

    @property
    def states(self) -> tuple:
        return tuple(s for _, s in self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class PairSpec:
    """Two-state family parameters: confusability c, noise p, priors.

    c is primary; the basis angle theta with cos(theta) = sqrt(c) is derived.
    """

    c: float
    p: float = 0.0
    priors: tuple = (0.5, 0.5)

    def __post_init__(self):
        if not (0.0 <= self.c <= 1.0):
            raise InvalidSpecError(f"confusability c={self.c} outside [0, 1]")
        if not (0.0 <= self.p <= 1.0):
            raise InvalidSpecError(f"noise p={self.p} outside [0, 1]")
        q1, q2 = self.priors
        if q1 < 0 or q2 < 0 or abs(q1 + q2 - 1.0) > PRIOR_TOL:
            raise InvalidSpecError(f"priors {self.priors} are not a probability pair")

    @property
    def theta(self) -> float:
        return math.acos(math.sqrt(self.c))


def _canonical_vectors(theta: float) -> tuple:
    """cos(theta/2)|0> +/- sin(theta/2)|1>."""
    half = theta / 2.0
    return (
        np.array([math.cos(half), math.sin(half)], dtype=complex),
        np.array([math.cos(half), -math.sin(half)], dtype=complex),
    )


def make_pure_pair(spec: PairSpec) -> Ensemble:
    """Canonical pure qubit pair with squared overlap spec.c.

    The spec must carry p = 0; build noisy pairs with make_noisy_pair or
    depolarize.
    """
    if spec.p != 0.0:
        raise InvalidSpecError("make_pure_pair requires p=0; use make_noisy_pair for p>0")
    psi1, psi2 = _canonical_vectors(spec.theta)
    q1, q2 = spec.priors
    return Ensemble(((q1, pure_state(psi1)), (q2, pure_state(psi2))))


def depolarize(e: Ensemble, p: float) -> Ensemble:
    """Map every state to (1-p) rho + p I/2, keeping the priors."""
    if not (0.0 <= p <= 1.0):
        raise InvalidNoiseError(f"noise p={p} outside [0, 1]")
    if e.dim != 2:
        raise DimensionMismatchError("depolarize is defined for qubit ensembles")
    eye = np.eye(2, dtype=complex) / 2.0
    members = tuple(
        (q, DensityMatrix((1.0 - p) * s.matrix + p * eye)) for q, s in e.members
    )
    return Ensemble(members)


def make_noisy_pair(spec: PairSpec) -> Ensemble:
    """Depolarized canonical pair: convenience for the common construction."""
    pure = make_pure_pair(PairSpec(spec.c, 0.0, spec.priors))
    return depolarize(pure, spec.p)


def canonical_pair_matrices(c: float, p: float) -> tuple:
    """Depolarized canonical rho1, rho2 and their average, as unchecked arrays."""
    eye = np.eye(2, dtype=complex)
    psis = _canonical_vectors(PairSpec(c, p).theta)
    rho1, rho2 = ((1.0 - p) * np.outer(psi, psi.conj()) + p * eye / 2.0 for psi in psis)
    return rho1, rho2, (rho1 + rho2) / 2.0


def confusability(s1: DensityMatrix, s2: DensityMatrix) -> float:
    """Squared overlap tr[s1 s2] of two pure states.

    Defined for pure states only; the description of a noisy pair keeps the
    confusability of the underlying pure pair in its PairSpec.
    """
    for s in (s1, s2):
        if not s.is_pure():
            raise NotPureError("confusability is defined for pure states only")
    val = float(np.real(np.trace(s1.matrix @ s2.matrix)))
    return min(max(val, 0.0), 1.0)


def average_state(e: Ensemble) -> DensityMatrix:
    """Prior-weighted mixture of the ensemble members."""
    acc = sum(q * s.matrix for q, s in e.members)
    return DensityMatrix(acc)


def mirror_state(s: DensityMatrix) -> DensityMatrix:
    """Orthogonal companion of a pure qubit state: I - rho.

    Mixing a state equally with its mirror gives I/2 exactly, which is the
    relation the ontic model's mirrored preparations reproduce.
    """
    if s.dim != 2:
        raise DimensionMismatchError("mirror_state is defined for qubits")
    if not s.is_pure():
        raise NotPureError("mirror_state is defined for pure states")
    return DensityMatrix(np.eye(2, dtype=complex) - s.matrix)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> list:
    """Nested rows of [re, im] cells."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(cell[0], cell[1]) for cell in row] for row in rows])


def ensemble_to_json(e: Ensemble) -> str:
    doc = {
        "dim": e.dim,
        "members": [
            {"prior": q, "matrix": matrix_to_json(s.matrix)} for q, s in e.members
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def ensemble_from_json(text: str) -> Ensemble:
    try:
        doc = json.loads(text)
        dim = int(doc["dim"])
        members = tuple(
            (float(m["prior"]), DensityMatrix(matrix_from_json(m["matrix"])))
            for m in doc["members"]
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InvalidSpecError(f"malformed ensemble JSON: {exc}") from exc
    e = Ensemble(members)
    if e.dim != dim:
        raise InvalidSpecError(f"declared dim {dim} does not match matrices of dim {e.dim}")
    return e
