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
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 400
    grid_resolution: float = 0.02
    refine_tolerance: float = 1e-7
    seed: int = 0xC0FFEE

    def __post_init__(self):
        if self.restarts < 1:
            raise OutOfRangeError(f"restarts={self.restarts} must be at least 1")
        if not (0.0 < self.grid_resolution <= 0.1):
            raise OutOfRangeError(
                f"grid_resolution={self.grid_resolution} outside (0, 0.1]"
            )
        if not (0.0 < self.refine_tolerance < 1.0):
            raise OutOfRangeError(
                f"refine_tolerance={self.refine_tolerance} outside (0, 1)"
            )


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
    out = np.empty((cfg.restarts, 3))
    for i in range(cfg.restarts):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        )
        vec = rng.normal(size=3)
        norm = np.linalg.norm(vec)
        out[i] = vec / norm if norm > 1e-12 else (1.0, 0.0, 0.0)
    return out


def _candidate_directions(cfg: SearchConfig) -> np.ndarray:
    grid = _fibonacci_sphere(int(math.ceil(4.0 * math.pi / cfg.grid_resolution**2)))
    return np.vstack((grid, _restart_directions(cfg)))


def _polish_direction(score, start: np.ndarray, floor: float) -> float:
    best = np.array(start, dtype=float)
    best_val = score(best)
    step = 0.25
    while step > floor:
        improved = False
        for axis in range(3):
            for sign in (1.0, -1.0):
                cand = best.copy()
                cand[axis] += sign * step
                norm = np.linalg.norm(cand)
                if norm < 1e-12:
                    continue
                cand /= norm
                val = score(cand)
                if val > best_val:
                    best, best_val, improved = cand, val, True
        if not improved:
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

    dirs = _candidate_directions(cfg)
    scores = 0.5 + dirs @ pull
    start = dirs[int(np.argmax(scores))]

    def score(direction):
        return 0.5 + float(direction @ pull)

    refined = _polish_direction(score, start, cfg.refine_tolerance)
    return max(refined, q1, q2)


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

        def score(direction):
            denom = 0.5 + float(direction @ ubar)
            if denom <= 1e-14:
                return q1
            return max(q1, q1 * (0.5 + float(direction @ u1)) / denom)

        dirs = _candidate_directions(cfg)
        numer = 0.5 + dirs @ u1
        denom = 0.5 + dirs @ ubar
        safe = denom > 1e-14
        scores = np.where(safe, q1 * numer / np.where(safe, denom, 1.0), q1)
        start = dirs[int(np.argmax(scores))]
        return max(q1, _polish_direction(score, start, cfg.refine_tolerance))

    if not (0.0 < eta1 <= 1.0):
        raise InfeasibleRateError(f"rate eta1={eta1} outside (0, 1]")

    gain_vec = 2.0 * (u1 - ubar)

    def best_radius(beta: float) -> float:
        # t = eta1 - s*beta; constraints t - s >= 0 and t + s <= 1.
        bounds = []
        if 1.0 + beta > 1e-14:
            bounds.append(eta1 / (1.0 + beta))
        if 1.0 - beta > 1e-14:
            bounds.append((1.0 - eta1) / (1.0 - beta))
        return min(bounds) if bounds else 0.0

    def score(direction):
        gain = float(direction @ gain_vec)
        if gain <= 0.0:
            return q1
        s = best_radius(2.0 * float(direction @ ubar))
        return q1 * (eta1 + s * gain) / eta1

    dirs = _candidate_directions(cfg)
    beta = 2.0 * (dirs @ ubar)
    gain = dirs @ gain_vec
    lo = np.where(1.0 + beta > 1e-14, eta1 / np.maximum(1.0 + beta, 1e-14), np.inf)
    hi = np.where(1.0 - beta > 1e-14, (1.0 - eta1) / np.maximum(1.0 - beta, 1e-14), np.inf)
    radius = np.minimum(lo, hi)
    scores = q1 * (eta1 + np.maximum(gain, 0.0) * radius) / eta1
    start = dirs[int(np.argmax(scores))]
    return max(q1, _polish_direction(score, start, cfg.refine_tolerance))


def brute_ud(e: Ensemble, cfg: SearchConfig = _DEFAULT) -> float:
    """Smallest inconclusive rate found over unambiguous three-outcome POVMs.

    Zero cross clicks force each conclusive element onto the kernel of the
    other state, leaving two scale factors (a, b). The failure rate falls
    monotonically in each factor, so the optimum sits on the completeness
    boundary I - a P1 - b P2 >= 0; for every a the largest feasible b is
    found by bisection, and the remaining one-dimensional profile is
    scanned on a grid plus random draws, then refined by golden section.
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

    def feasible(a: float, b: float) -> bool:
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            return False
        m0 = np.eye(2, dtype=complex) - a * p1 - b * p2
        return float(np.linalg.eigvalsh(m0)[0]) >= -1e-12

    def failure(a: float, b: float) -> float:
        return 1.0 - a * w1 - b * w2

    def boundary_b(a: float) -> float:
        if feasible(a, 1.0):
            return 1.0
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if feasible(a, mid):
                lo = mid
            else:
                hi = mid
        return lo

    def profile(a: float) -> float:
        return failure(a, boundary_b(a))

    ticks = np.linspace(0.0, 1.0, int(round(1.0 / cfg.grid_resolution)) + 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    draws = rng.uniform(0.0, 1.0, size=cfg.restarts)
    best_a = 0.0
    best_val = profile(0.0)
    for a in np.concatenate([ticks, draws]):
        val = profile(float(a))
        if val < best_val:
            best_a, best_val = float(a), val

    lo_a = max(0.0, best_a - cfg.grid_resolution)
    hi_a = min(1.0, best_a + cfg.grid_resolution)
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi_a - shrink * (hi_a - lo_a)
    x2 = lo_a + shrink * (hi_a - lo_a)
    f1, f2 = profile(x1), profile(x2)
    while hi_a - lo_a > cfg.refine_tolerance * 1e-3:
        if f1 <= f2:
            hi_a, x2, f2 = x2, x1, f1
            x1 = hi_a - shrink * (hi_a - lo_a)
            f1 = profile(x1)
        else:
            lo_a, x1, f1 = x1, x2, f2
            x2 = lo_a + shrink * (hi_a - lo_a)
            f2 = profile(x2)
    return min(best_val, f1, f2)
