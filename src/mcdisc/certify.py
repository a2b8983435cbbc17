"""Certification of maximum confidence from observed outcome rates.

The setting: trusted preparations, an untrusted measurement, and only the
outcome rates observed. The certified value is the largest confidence any
measurement compatible with those rates could have, so it upper-bounds
what the device actually does.

For the equal-prior depolarized qubit pair the problem has an analytic
solution in three branches split at (1 -/+ (1-p)^2 c)/2: below, the rate
deficit is free and the unconstrained maximum-confidence value is
certified; in the middle, a sharp rank-one detector is forced; above,
only rank-two detectors (a multiple of the identity plus a projector)
reach the rate. certify_qubit builds the optimal detector and a matching
dual certificate with zero duality gap, verify_kkt checks the full
optimality system of any (primal, dual) pair, and certify_general brackets
the value for arbitrary small ensembles by randomized primal search plus a
repaired dual upper bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import qmath
from .ensembles import Ensemble, average_state, canonical_pair_matrices
from .errors import (
    DegenerateEnsembleError,
    DimensionMismatchError,
    InfeasibleRateError,
    OutOfRangeError,
    UnequalPriorsError,
    WrongRegionError,
    ZeroRateError,
)
from .ncmodel import nc_certified
from .strategies import Povm

__all__ = [
    "OutcomeRates",
    "WeightVector",
    "DualCertificate",
    "CertReport",
    "GeneralCertificate",
    "certify_qubit",
    "verify_kkt",
    "certify_general",
    "delta_gap",
]

RATE_SUM_TOL = 1e-9
KKT_TOL = 1e-9
PRIOR_TOL = 1e-12
GENERAL_RESTARTS = 2000     # random starts of certify_general's primal search
GENERAL_SEED = 0xC0FFEE     # seed of those starts, fixed for reproducible brackets


@dataclass(frozen=True)
class OutcomeRates:
    """Observed click rates for detectors 1..n plus the undetected rate."""

    eta: tuple
    eta0: float

    def __post_init__(self):
        eta = tuple(float(v) for v in self.eta)
        eta0 = float(self.eta0)
        for v in eta + (eta0,):
            if not (-1e-12 <= v <= 1.0 + 1e-12):
                raise InfeasibleRateError(f"rate {v} outside [0, 1]")
        if abs(eta0 + sum(eta) - 1.0) > RATE_SUM_TOL:
            raise InfeasibleRateError(
                f"rates sum to {eta0 + sum(eta)!r}, expected 1 within {RATE_SUM_TOL}"
            )
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eta0", eta0)

    @property
    def n(self) -> int:
        return len(self.eta)


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights combining per-detector confidences into one objective."""

    alpha: tuple

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        if not alpha:
            raise OutOfRangeError("weight vector must be nonempty")
        for a in alpha:
            if not (a >= 0.0 and math.isfinite(a)):
                raise OutOfRangeError(f"weight {a} must be finite and nonnegative")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Feasible dual variables proving an upper bound tr[K] + sum s_y eta_y.

    K is the completeness multiplier, s_y the rate multipliers, and the PSD
    combinations r_y sigma_y (one per detector, plus r0 sigma0 for the
    inconclusive element) absorb the positivity constraints. For the
    analytic qubit path the compact form (lam, X1, X2) is kept as well,
    with K = X2, s = (lam,), r1 sigma1 = X1.
    """

    K: np.ndarray
    s: tuple
    r: tuple
    sigma: tuple
    r0: float
    sigma0: np.ndarray
    lam: float | None = None
    X1: np.ndarray | None = None
    X2: np.ndarray | None = None

    @classmethod
    def from_qubit(cls, lam: float, X1: np.ndarray, X2: np.ndarray) -> "DualCertificate":
        eye = np.eye(2, dtype=complex)
        r1 = float(np.real(np.trace(X1)))
        r0 = float(np.real(np.trace(X2)))
        sigma1 = X1 / r1 if r1 > 1e-15 else eye / 2.0
        sigma0 = X2 / r0 if r0 > 1e-15 else eye / 2.0
        return cls(
            K=X2, s=(lam,), r=(r1,), sigma=(sigma1,), r0=r0, sigma0=sigma0,
            lam=lam, X1=X1, X2=X2,
        )

    def objective(self, rates: OutcomeRates) -> float:
        return float(np.real(np.trace(self.K))) + float(
            np.dot(self.s, rates.eta[: len(self.s)])
        )


@dataclass(frozen=True, eq=False)
class CertReport:
    """Certified maximum confidence with the achieving POVM and its dual proof."""

    value: float
    branch: str                  # LowRate | Sharp | HighRate
    povm: Povm
    dual: DualCertificate
    gap: float
    rank_two: bool = False       # above the high boundary no rank-one optimum exists


@dataclass(frozen=True, eq=False)
class GeneralCertificate:
    """Bracketing interval from numerical search: lower (achieved) and upper (dual)."""

    lower: float
    upper: float
    povm: Povm
    dual: DualCertificate

    @property
    def interval(self) -> tuple:
        return (self.lower, self.upper)


# ---------------------------------------------------------------------------
# Analytic qubit certification
# ---------------------------------------------------------------------------

def certify_qubit(c: float, p: float, eta1: float, priors: tuple = (0.5, 0.5)) -> CertReport:
    """Certified maximum confidence of detector 1 for the noisy canonical pair.

    Parameters
    ----------
    c : float
        Confusability of the underlying pure pair, strictly inside (0, 1).
    p : float
        Depolarizing noise in [0, 1).
    eta1 : float
        Observed detector-1 rate in (0, 1].
    priors : pair of floats
        Must be (1/2, 1/2); other priors go through certify_general.

    Returns
    -------
    CertReport
        Branch-tagged value, the optimal single-detector POVM (detector plus
        inconclusive completion), the zero-gap dual certificate, and the
        numerically verified duality gap.

    Raises
    ------
    DegenerateEnsembleError
        For c = 0 or c = 1, where the closed forms degenerate.
    UnequalPriorsError, OutOfRangeError
        For inputs outside the analytic path's domain.
    """
    q1, q2 = priors
    if abs(q1 - 0.5) > PRIOR_TOL or abs(q2 - 0.5) > PRIOR_TOL:
        raise UnequalPriorsError("analytic certification assumes equiprobable states")
    if c in (0.0, 1.0):
        raise DegenerateEnsembleError(f"c={c} not certifiable on the analytic path")
    if not (0.0 < c < 1.0):
        raise OutOfRangeError(f"confusability c={c} outside (0, 1)")
    if not (0.0 <= p < 1.0):
        raise OutOfRangeError(f"noise p={p} outside [0, 1)")
    if not (0.0 < eta1 <= 1.0):
        raise OutOfRangeError(f"rate eta1={eta1} outside (0, 1]")

    cos_t = math.sqrt(c)
    sin_t = math.sqrt(1.0 - c)
    tan_t = sin_t / cos_t
    k = (1.0 - p) * cos_t                       # rescaled overlap, in (0, 1)
    lo = (1.0 - k * k) / 2.0
    hi = (1.0 + k * k) / 2.0
    amp = (1.0 - p) * sin_t / math.sqrt(1.0 - k * k)   # unconstrained optimum is (1+amp)/2

    if eta1 <= lo:
        branch = "LowRate"
        gamma = k / math.sqrt(1.0 - k * k)
        value = 0.5 * (1.0 + amp)
    elif eta1 <= hi:
        branch = "Sharp"
        u = 1.0 - 2.0 * eta1
        disc = k * k - u * u
        gamma = u / math.sqrt(disc)
        value = 0.5 + tan_t * math.sqrt(disc) / (4.0 * eta1)
    else:
        branch = "HighRate"
        gamma = -k / math.sqrt(1.0 - k * k)
        value = 0.5 * (1.0 + amp * (1.0 / eta1 - 1.0))

    lam = (1.0 + gamma * tan_t) / (2.0 * eta1)
    rho1, _, rho = canonical_pair_matrices(c, p)
    slack = lam * rho - rho1 / (2.0 * eta1)     # equals X1 - X2 at the optimum
    values, vectors = qmath.eig_hermitian(slack)
    low_vec = vectors[:, 0]
    proj = np.outer(low_vec, low_vec.conj())
    X1 = max(float(values[1]), 0.0) * np.outer(vectors[:, 1], vectors[:, 1].conj())
    X2 = max(-float(values[0]), 0.0) * proj

    eye = np.eye(2, dtype=complex)
    if branch == "LowRate":
        m1 = (2.0 * eta1 / (1.0 - k * k)) * proj
    elif branch == "Sharp":
        m1 = proj
    else:
        mix = (2.0 * eta1 - 1.0 - k * k) / (1.0 - k * k)
        m1 = mix * eye + (1.0 - mix) * proj
    povm = Povm((m1,), qmath.psd_floor(eye - m1, 0.0))

    rate = float(np.real(np.trace(m1 @ rho)))
    primal = float(np.real(np.trace(m1 @ rho1))) / (2.0 * eta1)
    dual_obj = lam * eta1 + float(np.real(np.trace(X2)))
    if abs(rate - eta1) > 1e-10 or abs(primal - value) > 1e-9 or abs(dual_obj - primal) > 1e-9:
        raise ArithmeticError(
            f"analytic certification lost consistency: rate dev {rate - eta1:.2e}, "
            f"value dev {primal - value:.2e}, gap {dual_obj - primal:.2e}"
        )
    gap = max(dual_obj - primal, 0.0)
    dual = DualCertificate.from_qubit(lam, X1, X2)
    return CertReport(value, branch, povm, dual, gap, rank_two=(branch == "HighRate"))


# ---------------------------------------------------------------------------
# KKT verification
# ---------------------------------------------------------------------------

def verify_kkt(
    e: Ensemble,
    alpha: WeightVector,
    rates: OutcomeRates,
    povm: Povm,
    dual: DualCertificate,
    tol: float = KKT_TOL,
) -> tuple:
    """Check the full optimality system for a (primal, dual) pair.

    Five groups of conditions: primal feasibility (PSD elements,
    completeness, rate constraints), dual feasibility (K PSD and
    K + s_y rho dominating each weighted state), Lagrangian stationarity,
    complementary slackness, and zero duality gap. Returns (ok, residuals)
    where residuals maps each group to its worst deviation.
    """
    n = povm.n
    if len(alpha.alpha) != n or rates.n != n:
        raise DimensionMismatchError(
            f"detector counts disagree: povm {n}, alpha {len(alpha.alpha)}, rates {rates.n}"
        )
    if n > len(e):
        raise DimensionMismatchError(f"{n} detectors but only {len(e)} ensemble members")
    if povm.dim != e.dim or dual.K.shape != (e.dim, e.dim):
        raise DimensionMismatchError("operator dimensions disagree")
    if len(dual.s) != n or len(dual.r) != n or len(dual.sigma) != n:
        raise DimensionMismatchError("dual certificate arity does not match the detectors")

    rho = average_state(e).matrix
    coeff = []
    for y in range(n):
        a_y = alpha.alpha[y]
        if a_y == 0.0:
            coeff.append(0.0)
            continue
        if rates.eta[y] <= 0.0:
            raise ZeroRateError(f"detector {y + 1} has weight but zero rate")
        coeff.append(a_y * e.priors[y] / rates.eta[y])

    outcome_elements = povm.outcome_elements()
    psd_dev = max(max(0.0, -qmath.min_eig(m)) for m in outcome_elements)
    complete_dev = float(
        np.linalg.norm(sum(outcome_elements) - np.eye(e.dim))
    )
    rate_dev = abs(float(np.real(np.trace(povm.inconclusive @ rho))) - rates.eta0)
    for y in range(n):
        rate_dev = max(
            rate_dev,
            abs(float(np.real(np.trace(povm.elements[y] @ rho))) - rates.eta[y]),
        )

    k_psd = max(0.0, -qmath.min_eig(dual.K))
    feas_dev = 0.0
    stat_dev = float(np.linalg.norm(dual.r0 * dual.sigma0 - dual.K))
    slack_dev = abs(dual.r0 * float(np.real(np.trace(povm.inconclusive @ dual.sigma0))))
    primal = 0.0
    for y in range(n):
        target = coeff[y] * e.states[y].matrix
        feas_dev = max(
            feas_dev, max(0.0, -qmath.min_eig(dual.K + dual.s[y] * rho - target))
        )
        stat_dev = max(
            stat_dev,
            float(np.linalg.norm(target + dual.r[y] * dual.sigma[y] - dual.s[y] * rho - dual.K)),
        )
        slack_dev = max(
            slack_dev,
            abs(dual.r[y] * float(np.real(np.trace(povm.elements[y] @ dual.sigma[y])))),
        )
        primal += coeff[y] * float(np.real(np.trace(povm.elements[y] @ e.states[y].matrix)))
    dual_obj = float(np.real(np.trace(dual.K))) + float(np.dot(dual.s, rates.eta))
    gap_dev = abs(primal - dual_obj)

    residuals = {
        "primal_psd": psd_dev,
        "primal_completeness": complete_dev,
        "primal_rates": rate_dev,
        "dual_psd": k_psd,
        "dual_feasibility": feas_dev,
        "stationarity": stat_dev,
        "slackness": slack_dev,
        "gap": gap_dev,
    }
    ok = all(v <= tol for v in residuals.values())
    return ok, residuals


# ---------------------------------------------------------------------------
# General-n search certification
# ---------------------------------------------------------------------------

def _dual_value(s: np.ndarray, targets: list, rho: np.ndarray, etas: np.ndarray):
    """Feasible dual point for multipliers s: iterated positive-part envelope."""
    dim = rho.shape[0]
    K = np.zeros((dim, dim), dtype=complex)
    for target, s_y in zip(targets, s):
        K = K + qmath.psd_floor(target - s_y * rho - K, 0.0)
    return float(np.real(np.trace(K))) + float(np.dot(s, etas)), K


def _sample_dense_element(rng, eta_y: float, rho: np.ndarray, dim: int):
    for _ in range(8):
        w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = w @ qmath.dagger(w)
        m /= qmath.op_norm(m) * rng.uniform(1.0, 4.0)
        tr = float(np.real(np.trace(m @ rho)))
        if tr <= 1e-12:
            continue
        m = m * (eta_y / tr)
        if np.linalg.eigvalsh(m)[-1] <= 1.0 + 1e-12:
            return m
    return None


def _in_unit_interval(m: np.ndarray) -> bool:
    w = np.linalg.eigvalsh(m)
    return w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12


def _lattice_directions() -> np.ndarray:
    dirs = [
        np.array(v, dtype=float)
        for v in np.ndindex(3, 3, 3)
        if v != (1, 1, 1)
    ]
    dirs = [d - 1.0 for d in dirs]
    return np.array([d / np.linalg.norm(d) for d in dirs])


def _rate_neutral_directions(rho: np.ndarray) -> list:
    """Hermitian step directions b with tr[b rho] = 0, so moves keep every rate."""
    dim = rho.shape[0]
    basis = []
    for i in range(dim):
        for j in range(i, dim):
            b = np.zeros((dim, dim), dtype=complex)
            if i == j:
                b[i, i] = 1.0
            else:
                b[i, j] = b[j, i] = 0.5
            basis.append(b)
            if i != j:
                bi = np.zeros((dim, dim), dtype=complex)
                bi[i, j] = -0.5j
                bi[j, i] = 0.5j
                basis.append(bi)
    weight = float(np.real(np.trace(rho @ rho)))
    out = []
    for b in basis:
        proj = b - (float(np.real(np.trace(b @ rho))) / weight) * rho
        if np.linalg.norm(proj) > 1e-12:
            out.append(proj)
    return out


def certify_general(
    e: Ensemble,
    alpha: WeightVector,
    rates: OutcomeRates,
) -> GeneralCertificate:
    """Bracket the certifiable weighted confidence for an arbitrary ensemble.

    The lower end is the best feasible measurement found by a randomized,
    locally refined search over rate-matched effects; the upper end is a
    feasible dual point (positive-part envelope over scalar multipliers,
    minimized numerically), so the true optimum always lies inside the
    reported interval up to 1e-9 arithmetic slack. The search draws
    GENERAL_RESTARTS random starts from the fixed seed GENERAL_SEED, so
    repeated calls return the same bracket.
    """
    n = rates.n
    if len(alpha.alpha) != n:
        raise DimensionMismatchError(
            f"alpha has {len(alpha.alpha)} entries for {n} detectors"
        )
    if n < 1 or n > len(e):
        raise DimensionMismatchError(f"{n} detectors incompatible with {len(e)} states")
    if sum(rates.eta) > 1.0 + RATE_SUM_TOL:
        raise InfeasibleRateError(f"detector rates sum to {sum(rates.eta)} > 1")
    dim = e.dim
    rho = average_state(e).matrix
    eye = np.eye(dim, dtype=complex)

    coeff = np.zeros(n)
    for y in range(n):
        if alpha.alpha[y] == 0.0:
            continue
        if rates.eta[y] <= 0.0:
            raise ZeroRateError(f"detector {y + 1} has weight but zero rate")
        coeff[y] = alpha.alpha[y] * e.priors[y] / rates.eta[y]

    def objective(ms) -> float:
        return sum(
            coeff[y] * float(np.real(np.trace(ms[y] @ e.states[y].matrix)))
            for y in range(n)
            if coeff[y] > 0.0
        )

    def feasible(ms) -> bool:
        m0 = eye - sum(ms)
        return qmath.min_eig(m0) >= -1e-12

    # Always-feasible baseline: every detector proportional to the identity.
    best = [rates.eta[y] * eye for y in range(n)]
    if not feasible(best):
        raise InfeasibleRateError("rates admit no measurement on this ensemble")
    best_val = objective(best)

    # With no room for an inconclusive outcome, the last arm is pinned by
    # completeness (its rate then matches automatically), so sampling all
    # arms independently would almost never satisfy M0 >= 0.
    saturated = rates.eta0 <= 1e-9 and n >= 2
    rng_root = np.random.SeedSequence(GENERAL_SEED)

    if dim == 2:
        # Scalar pipeline: an arm (t, v) has value t + 2 v.u_y on state y,
        # rate t + 2 v.u on the average, eigenvalues t +/- |v|, and the
        # inconclusive element stays PSD iff (1 - sum t) >= |sum v|.
        u = np.real(qmath.bloch_vector(rho))
        us = [np.real(qmath.bloch_vector(e.states[y].matrix)) for y in range(n)]
        active_idx = [y for y in range(n) if coeff[y] > 0.0]

        def arm_ok(t, v):
            radius = float(np.linalg.norm(v))
            return t - radius >= 0.0 and t + radius <= 1.0

        def m0_ok(ts, vs):
            return (1.0 - sum(ts)) - float(np.linalg.norm(sum(vs))) >= -1e-12

        def value_of(ts, vs):
            return sum(coeff[y] * (ts[y] + 2.0 * float(vs[y] @ us[y])) for y in active_idx)

        def solve_t(v, y):
            return rates.eta[y] - 2.0 * float(v @ u)

        best_ts = [rates.eta[y] for y in range(n)]
        best_vs = [np.zeros(3) for _ in range(n)]
        best_val = value_of(best_ts, best_vs)

        for child in rng_root.spawn(GENERAL_RESTARTS):
            rng = np.random.Generator(np.random.Philox(child))
            ts, vs, ok = [], [], True
            for y in range(n - 1 if saturated else n):
                t = rng.uniform(0.02, 0.98)
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                v = rng.uniform(0.0, min(t, 1.0 - t)) * direction
                trace = t + 2.0 * float(v @ u)
                if trace <= 1e-12:
                    ok = False
                    break
                scale = rates.eta[y] / trace
                t, v = scale * t, scale * v
                if not arm_ok(t, v):
                    ok = False
                    break
                ts.append(t)
                vs.append(v)
            if not ok:
                continue
            if saturated:
                t_last, v_last = 1.0 - sum(ts), -sum(vs) if vs else np.zeros(3)
                if not arm_ok(t_last, v_last):
                    continue
                ts.append(t_last)
                vs.append(v_last)
            if m0_ok(ts, vs):
                val = value_of(ts, vs)
                if val > best_val:
                    best_ts, best_vs, best_val = ts, vs, val

        step = 0.25
        dirs = _lattice_directions()
        while step > 1e-7:
            sweeps = 0
            improved = True
            while improved and sweeps < 40:
                improved = False
                sweeps += 1
                for y in range(n):
                    partners = [None] + [o for o in range(n) if o != y]
                    for other in partners:
                        for d in dirs:
                            # Translations explore the interior; rotations
                            # slide along the curved |v| = min(t, 1-t)
                            # boundary, where translations toward the
                            # optimum are all blocked.
                            candidates = [best_vs[y] + step * d]
                            radius = float(np.linalg.norm(best_vs[y]))
                            if radius > 1e-12:
                                tilted = best_vs[y] + step * d
                                norm = float(np.linalg.norm(tilted))
                                if norm > 1e-12:
                                    candidates.append(tilted * (radius / norm))
                            for v_new in candidates:
                                t_new = solve_t(v_new, y)
                                if not arm_ok(t_new, v_new):
                                    continue
                                delta = v_new - best_vs[y]
                                cand_ts = list(best_ts)
                                cand_vs = list(best_vs)
                                cand_ts[y], cand_vs[y] = t_new, v_new
                                if other is not None:
                                    v_other = best_vs[other] - delta
                                    t_other = solve_t(v_other, other)
                                    if not arm_ok(t_other, v_other):
                                        continue
                                    cand_ts[other], cand_vs[other] = t_other, v_other
                                if m0_ok(cand_ts, cand_vs):
                                    val = value_of(cand_ts, cand_vs)
                                    if val > best_val + 1e-12:
                                        best_ts, best_vs, best_val = cand_ts, cand_vs, val
                                        improved = True
            step /= 2.0
        best = [qmath.bloch_op(best_ts[y], best_vs[y]) for y in range(n)]
    else:
        for child in rng_root.spawn(GENERAL_RESTARTS):
            rng = np.random.Generator(np.random.Philox(child))
            ms = []
            for y in range(n - 1 if saturated else n):
                m = _sample_dense_element(rng, rates.eta[y], rho, dim)
                if m is None:
                    break
                ms.append(m)
            if len(ms) < (n - 1 if saturated else n):
                continue
            if saturated:
                last = eye - sum(ms) if ms else eye
                if not _in_unit_interval(last):
                    continue
                ms.append((last + qmath.dagger(last)) / 2.0)
            if feasible(ms):
                val = objective(ms)
                if val > best_val:
                    best, best_val = ms, val

        neutral = _rate_neutral_directions(rho)
        step = 0.25
        while step > 1e-7:
            sweeps = 0
            improved = True
            while improved and sweeps < 40:
                improved = False
                sweeps += 1
                for y in range(n):
                    partners = [None] + [o for o in range(n) if o != y]
                    for other in partners:
                        for b in neutral:
                            for sgn in (1.0, -1.0):
                                moved = best[y] + sgn * step * b
                                if not _in_unit_interval(moved):
                                    continue
                                cand = list(best)
                                cand[y] = moved
                                if other is not None:
                                    taken = best[other] - sgn * step * b
                                    if not _in_unit_interval(taken):
                                        continue
                                    cand[other] = taken
                                if feasible(cand) and objective(cand) > best_val + 1e-12:
                                    best, best_val = cand, objective(cand)
                                    improved = True
            step /= 2.0

    floored = [qmath.psd_floor(m, 0.0) for m in best]
    m0 = qmath.psd_floor(eye - sum(floored), 0.0)
    best_povm = Povm(tuple(floored), m0)
    best_val = objective(floored)

    # Dual side: minimize the positive-part envelope over the multipliers of
    # the active arms only (inactive multipliers pinned at zero never help).
    targets = [coeff[y] * e.states[y].matrix for y in range(n)]
    active = [y for y in range(n) if coeff[y] > 0.0]
    etas = np.asarray(rates.eta)

    def g(s_active) -> float:
        s = np.zeros(n)
        s[active] = s_active
        val, _ = _dual_value(s, targets, rho, etas)
        return val

    s_best = np.zeros(len(active))
    g_best = g(s_best)
    if len(active) == 1:
        hi_s = 2.0 * max(coeff) + 1.0
        res = optimize.minimize_scalar(
            lambda s: g([s]), bounds=(-1.0, hi_s), method="bounded",
            options={"xatol": 1e-12},
        )
        if res.fun < g_best:
            s_best, g_best = np.array([res.x]), float(res.fun)
    elif active:
        starts = [np.zeros(len(active)), np.array([coeff[y] for y in active])]
        for x0 in starts:
            res = optimize.minimize(
                g, x0, method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
            )
            if res.fun < g_best:
                s_best, g_best = np.asarray(res.x), float(res.fun)
        for i in range(len(active)):
            def line(v, i=i):
                s_try = s_best.copy()
                s_try[i] = v
                return g(s_try)
            res = optimize.minimize_scalar(
                line, bounds=(s_best[i] - 2.0, s_best[i] + 2.0), method="bounded",
                options={"xatol": 1e-12},
            )
            if res.fun < g_best:
                s_best[i], g_best = float(res.x), float(res.fun)

    s_full = np.zeros(n)
    s_full[active] = s_best
    upper, K = _dual_value(s_full, targets, rho, etas)

    # Explicit feasibility repair: any eigenvalue deficit is shifted into K.
    deficit = max(0.0, -qmath.min_eig(K))
    for y in range(n):
        deficit = max(deficit, -qmath.min_eig(K + s_full[y] * rho - targets[y]))
    if deficit > 0.0:
        K = K + deficit * eye
        upper = float(np.real(np.trace(K))) + float(np.dot(s_full, etas))

    r_list, sigma_list = [], []
    for y in range(n):
        gap_op = K + s_full[y] * rho - targets[y]
        r_y = float(np.real(np.trace(gap_op)))
        sigma_list.append(gap_op / r_y if r_y > 1e-15 else eye / dim)
        r_list.append(max(r_y, 0.0))
    r0 = float(np.real(np.trace(K)))
    sigma0 = K / r0 if r0 > 1e-15 else eye / dim
    dual = DualCertificate(
        K=K, s=tuple(s_full), r=tuple(r_list), sigma=tuple(sigma_list),
        r0=r0, sigma0=sigma0,
    )
    if upper < best_val - 1e-9:
        raise ArithmeticError(
            f"dual upper bound {upper} fell below achieved primal {best_val}"
        )
    return GeneralCertificate(best_val, upper, best_povm, dual)


# ---------------------------------------------------------------------------
# Quantum vs noncontextual gap relation
# ---------------------------------------------------------------------------

def delta_gap(c: float, p: float, eta1: float) -> tuple:
    """Quantum-minus-noncontextual certified gap and its rate region.

    Defined in the low region (eta1 at or below (1 - (1-p)c)/2, where both
    certified curves are constant) and the high region (eta1 at or above
    (1 + (1-p)c)/2). The two are tied by
    high_gap(eta1) = (1/eta1 - 1) * low_gap.
    """
    n_lo = (1.0 - (1.0 - p) * c) / 2.0
    n_hi = (1.0 + (1.0 - p) * c) / 2.0
    quantum = certify_qubit(c, p, eta1).value
    if eta1 <= n_lo:
        region = "low"
    elif eta1 >= n_hi:
        region = "high"
    else:
        raise WrongRegionError(
            f"eta1={eta1} lies in the sharp range ({n_lo}, {n_hi}) where the relation is undefined"
        )
    return quantum - nc_certified(c, p, eta1).value, region
