"""Small dense complex Hermitian linear algebra.

Everything in the library runs through this module: eigendecompositions,
trace and operator norms, PSD flooring and the pseudo-inverse square root,
for matrices of dimension 2 to 4. All functions are pure and reentrant.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonHermitianError, NotPsdError

__all__ = [
    "HERM_TOL",
    "PSD_TOL",
    "SUPPORT_EPS",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "EigenDecomposition",
    "dagger",
    "is_hermitian",
    "eig_hermitian",
    "trace_norm",
    "op_norm",
    "psd_floor",
    "inv_sqrt",
    "min_eig",
    "bloch_op",
    "bloch_vector",
]

# Tolerances: well above double-precision noise for dimension <= 4.
HERM_TOL = 1e-10       # Frobenius tolerance for Hermiticity checks
PSD_TOL = -1e-10       # eigenvalues above this count as nonnegative
SUPPORT_EPS = 1e-12    # eigenvalues below this count as zero (off support)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULI = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


class EigenDecomposition(NamedTuple):
    """Eigenvalues in ascending order and orthonormal eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in (2, 3, 4):
        raise ValueError(f"supported dimensions are 2 to 4, got {a.shape[0]}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    return a


def is_hermitian(a: np.ndarray, tol: float = HERM_TOL) -> bool:
    a = np.asarray(a, dtype=complex)
    return bool(np.linalg.norm(a - dagger(a)) <= tol)


def _checked_hermitian(a) -> np.ndarray:
    a = _as_square(a)
    dev = np.linalg.norm(a - dagger(a))
    if dev > HERM_TOL:
        raise NonHermitianError(f"matrix deviates from Hermiticity by {dev:.3e}")
    # Symmetrize so downstream eigensolvers see an exactly Hermitian input.
    return (a + dagger(a)) / 2.0


def eig_hermitian(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    a : array_like
        Square complex matrix, Hermitian within ``HERM_TOL`` in Frobenius norm.

    Returns
    -------
    EigenDecomposition
        Real eigenvalues in ascending order and the matching orthonormal
        eigenvectors as columns. Reconstruction ``V diag(w) V+`` agrees with
        the input to 1e-12 relative Frobenius error.

    Raises
    ------
    NonHermitianError
        If the Hermiticity tolerance is violated.
    """
    a = _checked_hermitian(a)
    values, vectors = np.linalg.eigh(a)
    return EigenDecomposition(values, vectors)


def trace_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    values, _ = eig_hermitian(a)
    return float(np.sum(np.abs(values)))


def op_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    values, _ = eig_hermitian(a)
    return float(np.max(np.abs(values)))


def min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    values, _ = eig_hermitian(a)
    return float(values[0])


def psd_floor(a: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Raise every eigenvalue below ``eps`` to ``eps``, keeping eigenvectors."""
    values, vectors = eig_hermitian(a)
    clipped = np.maximum(values, eps)
    out = (vectors * clipped) @ dagger(vectors)
    return (out + dagger(out)) / 2.0


def inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix on its support.

    Eigenvalues below ``SUPPORT_EPS`` are treated as zero, so
    ``inv_sqrt(a) @ a @ inv_sqrt(a)`` is the projector onto the support of
    ``a`` within 1e-10.

    Raises
    ------
    NotPsdError
        If some eigenvalue is below ``PSD_TOL``.
    """
    values, vectors = eig_hermitian(a)
    if values[0] < PSD_TOL:
        raise NotPsdError(f"matrix has negative eigenvalue {values[0]:.3e}")
    inv = np.where(values >= SUPPORT_EPS, 1.0 / np.sqrt(np.maximum(values, SUPPORT_EPS)), 0.0)
    out = (vectors * inv) @ dagger(vectors)
    return (out + dagger(out)) / 2.0


def bloch_op(t: float, v) -> np.ndarray:
    """Qubit operator t*I + v . sigma for a real 3-vector v."""
    x, y, z = (float(c) for c in v)
    return np.array([[t + z, complex(x, -y)], [complex(x, y), t - z]])


def bloch_vector(a: np.ndarray) -> np.ndarray:
    """Pauli components (tr[a sigma_i] / 2, i = x, y, z) of a 2x2 Hermitian matrix."""
    a = np.asarray(a, dtype=complex)
    return np.real(np.einsum("kij,ji->k", _PAULI, a)) / 2.0
