"""Brute-force search oracles for the qubit closed forms.

Everything here is deliberately independent of the analytic machinery: the
searches only evaluate feasible measurements and keep the best, so a value
returned by an oracle is always achievable and can sit at most a search
resolution below the matching closed form, never above it. Tests freeze
oracle outputs against the formulas in strategies and certify.

All three searches work in the Bloch picture. A qubit effect is
M = t I + v.sigma, its value on a state rho = (1/2) I + u.sigma is
t + 2 v.u, and PSD plus M <= I reduce to |v| <= min(t, 1 - t). Rate
constraints are enforced exactly by solving for t (or the radius) instead
of sampling and rejecting, which keeps the search unbiased next to the
rate shell boundary.

The searches are array code. Each direction oracle has one scorer over an
(n, 3) array of unit directions, used both for the scan of the candidate
directions (built once per seed) and for the batched axis moves
that polish the best of them. The unambiguous oracle runs its boundary
bisection for every scan point at once and refines by repeated zooms.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .ensembles import Ensemble, average_state
from .errors import (
    DimensionMismatchError,
    InfeasibleRateError,
    NotPureError,
    NumericalError,
    OutOfRangeError,
    WrongArityError,
)

__all__ = ["SearchConfig", "brute_guess", "brute_confidence", "brute_ud"]


RESTARTS = 400
GRID_RESOLUTION = 0.02
REFINE_TOLERANCE = 1e-7


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0xC0FFEE

    def __post_init__(self):
        if self.seed < 0:
            raise OutOfRangeError(f"seed={self.seed} must be non-negative")


_DEFAULT = SearchConfig()


def _fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic quasi-uniform unit directions."""
    i = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / count
    azimuth = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack((r * np.cos(azimuth), r * np.sin(azimuth), z))


def _restart_directions(cfg: SearchConfig) -> np.ndarray:
    """One extra direction per restart, each from its own derived stream."""
    out = np.empty((RESTARTS, 3))
    for i in range(RESTARTS):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        )
        vec = rng.normal(size=3)
        norm = np.linalg.norm(vec)
        out[i] = vec / norm if norm > 1e-12 else (1.0, 0.0, 0.0)
    return out


@functools.lru_cache(maxsize=8)
def _candidate_directions(cfg: SearchConfig) -> np.ndarray:
    """Grid plus restart directions, built once per config and read-only."""
    grid = _fibonacci_sphere(int(math.ceil(4.0 * math.pi / GRID_RESOLUTION**2)))
    dirs = np.vstack((grid, _restart_directions(cfg)))
    dirs.setflags(write=False)
    return dirs


_AXIS_MOVES = np.vstack((np.eye(3), -np.eye(3)))


def _search_directions(score, cfg: SearchConfig) -> float:
    """Best score over unit directions: scan the candidates, then polish.

    `score` maps an (n, 3) array of unit directions to n achievable values.
    The polish scores the six axis moves of the current best as one batch,
    takes the best improving move, and halves the step when none improves.
    """
    dirs = _candidate_directions(cfg)
    scores = score(dirs)
    i = int(np.argmax(scores))
    best, best_val = dirs[i], float(scores[i])
    step = 0.25
    while step > REFINE_TOLERANCE:
        # best is a unit vector and step <= 1/4, so every move has norm >= 3/4.
        cands = best + step * _AXIS_MOVES
        cands /= np.linalg.norm(cands, axis=1)[:, None]
        vals = score(cands)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best, best_val = cands[j], float(vals[j])
        else:
            step /= 2.0
    return best_val


def _qubit_pair_blochs(e: Ensemble):
    if e.dim != 2:
        raise DimensionMismatchError("oracle searches cover qubits only")
    return [np.real(qmath.bloch_vector(s.matrix)) for s in e.states]


def brute_guess(e: Ensemble, cfg: SearchConfig = _DEFAULT) -> float:
    """Best average success probability found over two-outcome measurements.

    The guess measurement (M, I - M) has success q1 tr[M rho1] +
    q2 tr[(I - M) rho2], linear in M, so projectors and the trivial
    always-guess-one-state choices exhaust the extreme points; the search
    scans projector directions and keeps the trivial guesses as candidates.
    """
    if len(e) != 2:
        raise WrongArityError(f"guessing oracle needs 2 states, got {len(e)}")
    u1, u2 = _qubit_pair_blochs(e)
    q1, q2 = e.priors
    pull = q1 * u1 - q2 * u2

    def score(dirs):
        return 0.5 + dirs @ pull

    return max(_search_directions(score, cfg), q1, q2)


def brute_confidence(
    e: Ensemble, eta1: float | None = None, cfg: SearchConfig = _DEFAULT
) -> float:
    """Best detector-1 confidence found by direct search.

    With no rate given the optimum over all effects is scale-invariant and
    rank-one, so projector directions suffice. With a rate eta1 the effect
    is forced onto the shell tr[M rho] = eta1: for each direction the trace
    part is solved from the rate and the confidence is linear in the radius,
    so only the largest feasible radius matters.
    """
    q1 = e.priors[0]
    u1 = _qubit_pair_blochs(e)[0]
    ubar = np.real(qmath.bloch_vector(average_state(e).matrix))

    if eta1 is None:

        def score(dirs):
            numer = 0.5 + dirs @ u1
            denom = 0.5 + dirs @ ubar
            safe = denom > 1e-14
            return np.where(safe, q1 * numer / np.where(safe, denom, 1.0), q1)

        return max(q1, _search_directions(score, cfg))

    if not (0.0 < eta1 <= 1.0):
        raise InfeasibleRateError(f"rate eta1={eta1} outside (0, 1]")

    gain_vec = 2.0 * (u1 - ubar)

    def score(dirs):
        # t = eta1 - s*beta; constraints t - s >= 0 and t + s <= 1 bound the
        # radius s. |beta| <= 1, so at least one of them is finite.
        beta = 2.0 * (dirs @ ubar)
        gain = dirs @ gain_vec
        lo = np.where(1.0 + beta > 1e-14, eta1 / np.maximum(1.0 + beta, 1e-14), np.inf)
        hi = np.where(1.0 - beta > 1e-14, (1.0 - eta1) / np.maximum(1.0 - beta, 1e-14), np.inf)
        radius = np.minimum(lo, hi)
        return np.where(gain > 0.0, q1 * (eta1 + gain * radius) / eta1, q1)

    return max(q1, _search_directions(score, cfg))


def _completes(p1: np.ndarray, p2: np.ndarray, a, b) -> np.ndarray:
    """Elementwise: a, b in [0, 1] and M = I - a P1 - b P2 >= 0 to within 1e-12.

    The smallest eigenvalue of the 2x2 Hermitian M is taken in closed form,
    (m00 + m11)/2 - sqrt(((m00 - m11)/2)^2 + |m01|^2).
    """
    m00 = 1.0 - a * p1[0, 0].real - b * p2[0, 0].real
    m11 = 1.0 - a * p1[1, 1].real - b * p2[1, 1].real
    m01 = a * p1[0, 1] + b * p2[0, 1]
    lam = (m00 + m11) / 2.0 - np.hypot((m00 - m11) / 2.0, np.abs(m01))
    in_box = (0.0 <= a) & (a <= 1.0) & (0.0 <= b) & (b <= 1.0)
    return in_box & (lam >= -1e-12)


def brute_ud(e: Ensemble, cfg: SearchConfig = _DEFAULT) -> float:
    """Smallest inconclusive rate found over unambiguous three-outcome POVMs.

    Zero cross clicks force each conclusive element onto the kernel of the
    other state, leaving two scale factors (a, b). The failure rate falls
    monotonically in each factor, so the optimum sits on the completeness
    boundary I - a P1 - b P2 >= 0, tested with the exact smallest eigenvalue
    of the 2x2 matrix. The largest feasible b is found for a whole array of
    a values at once by a 60-step bisection, so the one-dimensional profile
    is scanned on a grid plus random draws in one pass, then refined by
    65-point zooms onto the neighbours of the best point.
    """
    if len(e) != 2:
        raise WrongArityError(f"unambiguous oracle needs 2 states, got {len(e)}")
    if e.dim != 2:
        raise DimensionMismatchError("oracle searches cover qubits only")
    for state in e.states:
        if not state.is_pure():
            raise NotPureError("unambiguous oracle requires pure states")

    kernels = []
    for other in (e.states[1], e.states[0]):
        values, vectors = qmath.eig_hermitian(other.matrix)
        vec = vectors[:, int(np.argmin(values))]
        kernels.append(np.outer(vec, vec.conj()))
    p1, p2 = kernels
    rho = average_state(e).matrix
    w1 = float(np.real(np.trace(p1 @ rho)))
    w2 = float(np.real(np.trace(p2 @ rho)))
    for state, proj in zip((e.states[1], e.states[0]), (p1, p2)):
        cross = float(np.real(np.trace(proj @ state.matrix)))
        if cross > 1e-9:
            raise NumericalError(f"kernel projector leaks {cross:.2e} cross clicks")

    def profile(a: np.ndarray) -> np.ndarray:
        """Failure rate at the largest feasible b, for each a."""
        lo, hi = np.zeros_like(a), np.ones_like(a)
        for _ in range(60):
            mid = (lo + hi) / 2.0
            ok = _completes(p1, p2, a, mid)
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        b = np.where(_completes(p1, p2, a, 1.0), 1.0, lo)
        return 1.0 - a * w1 - b * w2

    ticks = np.linspace(0.0, 1.0, int(round(1.0 / GRID_RESOLUTION)) + 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    scan = np.concatenate((ticks, rng.uniform(0.0, 1.0, size=RESTARTS)))
    vals = profile(scan)
    i = int(np.argmin(vals))
    best_a, best_val = float(scan[i]), float(vals[i])

    lo_a = max(0.0, best_a - GRID_RESOLUTION)
    hi_a = min(1.0, best_a + GRID_RESOLUTION)
    while hi_a - lo_a > REFINE_TOLERANCE * 1e-3:
        xs = np.linspace(lo_a, hi_a, 65)
        vals = profile(xs)
        i = int(np.argmin(vals))
        best_val = min(best_val, float(vals[i]))
        lo_a, hi_a = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, 64)])
    return best_val
