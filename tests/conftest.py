"""Shared test fixtures."""
import numpy as np
import pytest

from mcdisc.ensembles import DensityMatrix, Ensemble


@pytest.fixture
def tiny_rate_pair():
    """Draw 165 of default_rng(2024): a rank-1 and a rank-2 qubit state with
    equal priors, on which the solver once divided by mu = 0 at eta1 = 1e-9."""
    rng = np.random.default_rng(2024)
    for _ in range(166):
        states = []
        for rank in (1, 2):
            w = rng.normal(size=(2, rank)) + 1j * rng.normal(size=(2, rank))
            m = w @ w.conj().T
            states.append(DensityMatrix(m / np.real(np.trace(m))))
    return Ensemble(((0.5, states[0]), (0.5, states[1])))
