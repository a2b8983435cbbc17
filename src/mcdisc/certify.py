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
reach the rate. _certified_qubit evaluates and checks that closed form
over an array of rates (certify_qubit_curve; certify_qubit at one rate).

Every other problem with one weighted detector, at any dimension, is
solved exactly by _single_detector over an array of rates, by a search
over one scalar structured by the generalised eigenvalues of
(q_y rho_y, rho): certify_qubit_ensemble, certify_general with one
nonzero weight and the tally route (simulator.certify_from_tally). With
two or more weighted detectors certify_general brackets the value by an
interior-point solve of the certification SDP (_sdp_solve). verify_kkt
checks the optimality system of any (primal, dual) pair.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmath
from .ensembles import Ensemble, average_state, in_unit_interval
from .errors import (
    DegenerateEnsembleError,
    DimensionMismatchError,
    InfeasibleRateError,
    NumericalError,
    OutOfRangeError,
    WrongRegionError,
    ZeroRateError,
)
from .ncmodel import BRANCHES, _rate_branches, nc_certified
from .strategies import COMPLETENESS_TOL, Povm

__all__ = [
    "OutcomeRates",
    "WeightVector",
    "DualCertificate",
    "CertReport",
    "GeneralCertificate",
    "certify_qubit",
    "certify_qubit_curve",
    "certify_qubit_ensemble",
    "verify_kkt",
    "certify_general",
    "delta_gap",
]

RATE_SUM_TOL = 1e-9
KKT_TOL = 1e-9
CERT_RATE_TOL = 1e-10    # rate deviation an analytic certificate may show
CERT_VALUE_TOL = 1e-9    # value and gap deviation an analytic certificate may show
QUBIT_CURVE_BLOCK = 2048   # rates certify_qubit_curve evaluates at a time


def __getattr__(name: str):
    # Serves only the benchmark tracer (bench/tracer.py), which wraps
    # `mcdisc.certify.optimize`; nothing in mcdisc calls scipy. Importing it
    # on first access keeps scipy off the import path. This goes once the
    # benchmark-only change of ROADMAP item 1 lets the tracer count a
    # missing optimize as zero calls.
    if name == "optimize":
        from scipy import optimize

        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class OutcomeRates:
    """Observed click rates for detectors 1..n plus the undetected rate."""

    eta: tuple
    eta0: float

    def __post_init__(self):
        eta = tuple(float(v) for v in self.eta)
        eta0 = float(self.eta0)
        for v in eta + (eta0,):
            if not in_unit_interval(v):
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
    def from_slacks(cls, K: np.ndarray, s: tuple, slacks: list, **compact) -> "DualCertificate":
        """Certificate with r0 sigma0 = K and r_y sigma_y = slacks[y], each sigma of unit trace."""
        parts = [K, *slacks]
        r = [float(np.trace(m).real) for m in parts]
        sigma = [m / v if v > 1e-15 else np.eye(len(K), dtype=complex) / len(K)
                 for m, v in zip(parts, r)]
        return cls(K=K, s=tuple(s), r=tuple([max(v, 0.0) for v in r[1:]]), sigma=tuple(sigma[1:]),
                   r0=r[0], sigma0=sigma[0], **compact)

    @classmethod
    def from_qubit(cls, lam: float, X1: np.ndarray, X2: np.ndarray) -> "DualCertificate":
        return cls.from_slacks(X2, (lam,), [X1], lam=lam, X1=X1, X2=X2)

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

    @property
    def rank_two(self) -> bool:  # above the high boundary no rank-one optimum exists
        return self.branch == "HighRate"


@dataclass(frozen=True, eq=False)
class GeneralCertificate:
    """Bracket of a certified value.

    lower is the value an exactly feasible POVM (povm) achieves; upper is the
    objective of an exactly feasible dual point (dual). Both are sound, and
    their difference is the remaining duality gap.
    """

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

def certify_qubit(c: float, p: float, eta1: float) -> CertReport:
    """Certified maximum confidence of detector 1 for the equal-prior noisy
    canonical pair; certify_qubit_ensemble takes any qubit ensemble, and
    certify_qubit_curve evaluates a whole eta1 grid in one pass.

    The POVM and dual are built from _certified_qubit's checked Bloch
    scalars at this one rate.

    Parameters
    ----------
    c : float
        Confusability of the underlying pure pair, strictly inside (0, 1).
    p : float
        Depolarizing noise in [0, 1).
    eta1 : float
        Observed detector-1 rate in (0, 1].

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
    OutOfRangeError
        For inputs outside the analytic path's domain.
    NumericalError
        When the closed form loses the precision its consistency check
        demands (at c within 1e-9 of 1 with eta1 near 1e-12, say) or
        overflows (eta1 < 5.6e-309).
    """
    opt, bloch = _certified_qubit(c, p, np.array([eta1], dtype=float))
    t, w, unit_x, unit_z, x1, x2, gap = (float(v[0]) for v in bloch)
    unit = np.array([unit_x, 0.0, unit_z])
    povm = Povm((qmath.bloch_op(t, -w * unit),), qmath.bloch_op(1.0 - t, w * unit))
    X1 = qmath.bloch_op(x1 / 2.0, (x1 / 2.0) * unit)
    X2 = qmath.bloch_op(x2 / 2.0, (-x2 / 2.0) * unit)
    dual = DualCertificate.from_qubit(float(opt.lam[0]), X1, X2)
    return CertReport(float(opt.value[0]), BRANCHES[int(opt.branch[0])], povm, dual, gap)


def certify_qubit_curve(c: float, p: float, eta1: np.ndarray) -> tuple:
    """certify_qubit's value and branch index (into BRANCHES) at every rate
    of an eta1 array, in one array pass with no matrices.

    Every rate goes through certify_qubit's closed form and certificate
    check (_certified_qubit), so each value equals certify_qubit's bit for
    bit, and the sweep raises certify_qubit's error for its first rejected
    rate in array order. The rates are taken QUBIT_CURVE_BLOCK at a time,
    so the temporary arrays stay small however long the grid is.
    """
    _check_qubit_pair(c, p)
    eta1 = np.asarray(eta1, dtype=float)
    value, branch = np.empty(eta1.shape), np.empty(eta1.shape, dtype=int)
    for start in range(0, eta1.size, QUBIT_CURVE_BLOCK):
        opt, _ = _certified_qubit(c, p, eta1[start:start + QUBIT_CURVE_BLOCK])
        value[start:start + QUBIT_CURVE_BLOCK] = opt.value
        branch[start:start + QUBIT_CURVE_BLOCK] = opt.branch
    return value, branch


class _QubitOptimum(NamedTuple):
    """certify_qubit's optimum at each rate of an array.

    branch indexes BRANCHES, lam is the rate multiplier of the dual, and the
    detector is M1 = shift I + weight P, with P the projector onto the low
    eigenvector of lam rho - rho1/(2 eta1). gamma fixes that eigenvector:
    the slack's Bloch vector is along (-1, 0, gamma).
    """

    branch: np.ndarray
    value: np.ndarray
    lam: np.ndarray
    shift: np.ndarray
    weight: np.ndarray
    gamma: np.ndarray


def _check_qubit_pair(c: float, p: float):
    if c in (0.0, 1.0):
        raise DegenerateEnsembleError(f"c={c} not certifiable on the analytic path")
    if not (0.0 < c < 1.0):
        raise OutOfRangeError(f"confusability c={c} outside (0, 1)")
    if not (0.0 <= p < 1.0):
        raise OutOfRangeError(f"noise p={p} outside [0, 1)")


def _qubit_closed_form(c: float, p: float, eta1: np.ndarray) -> _QubitOptimum:
    """The three-branch closed form of certify_qubit at an array of rates in
    (0, 1] (see ncmodel._rate_branches)."""
    cos_t = math.sqrt(c)
    sin_t = math.sqrt(1.0 - c)
    tan_t = sin_t / cos_t
    k = (1.0 - p) * cos_t                       # rescaled overlap, in (0, 1)
    lo = (1.0 - k * k) / 2.0
    hi = (1.0 + k * k) / 2.0
    amp = (1.0 - p) * sin_t / math.sqrt(1.0 - k * k)   # unconstrained optimum is (1+amp)/2

    def sharp(eta1):
        u = 1.0 - 2.0 * eta1
        root = np.sqrt(k * k - u * u)
        return 0.5 + tan_t * root / (4.0 * eta1), u / root, 0.0, 1.0

    def high(eta1):
        mix = (2.0 * eta1 - 1.0 - k * k) / (1.0 - k * k)
        return 0.5 * (1.0 + amp * (1.0 / eta1 - 1.0)), -k / math.sqrt(1.0 - k * k), mix, 1.0 - mix

    branch, (value, gamma, shift, weight) = _rate_branches(eta1, (lo, hi), (
        lambda eta1: (0.5 * (1.0 + amp), k / math.sqrt(1.0 - k * k), 0.0, 2.0 * eta1 / (1.0 - k * k)),
        sharp,
        high,
    ))
    with np.errstate(over="ignore"):
        lam = (1.0 + gamma * tan_t) / (2.0 * eta1)
    return _QubitOptimum(branch, value, lam, shift, weight, gamma)


def _certified_qubit(c: float, p: float, eta1: np.ndarray) -> tuple:
    """certify_qubit's optimum at each rate of a 1-d array, with its
    certificate checked, as (_QubitOptimum, (t, w, unit_x, unit_z, x1, x2,
    gap)); raises the error of the first rejected rate.

    The pair enters through (c, p) alone: rho = (I + k sigma_z)/2 and
    rho1 = (I + g sigma_x + k sigma_z)/2 with k = (1-p) sqrt(c) and
    g = (1-p) sqrt(1-c). The slack lam rho - rho1/(2 eta1) is
    a0 I + a.sigma with a0 = gamma tan(theta)/(4 eta1) and
    a = g (-1, 0, gamma)/(4 eta1). With u = a/|a| = (unit_x, 0, unit_z),
    M1 = t I - w u.sigma (t = shift + weight/2, w = weight/2), and the dual
    slacks are X1 = (x1/2)(I + u.sigma) and X2 = K = (x2/2)(I - u.sigma)
    with x1 = |a| + a0 and x2 = |a| - a0, floored at 0. On LowRate
    M1 <= I is inactive and x2 = 0 exactly; the formula would give only
    the rounding of two O(1/eta1) terms.

    Per rate, in this order: eta1 in (0, 1], lam finite, M1's eigenvalues
    t - w >= qmath.PSD_TOL and t + w <= 1 + COMPLETENESS_TOL, then
    _consistent, all absolute.
    """
    _check_qubit_pair(c, p)
    inside = (0.0 < eta1) & (eta1 <= 1.0)
    opt = _qubit_closed_form(c, p, np.where(inside, eta1, 1.0))
    k, g = (1.0 - p) * math.sqrt(c), (1.0 - p) * math.sqrt(1.0 - c)
    tan_t = math.sqrt(1.0 - c) / math.sqrt(c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norm = np.hypot(1.0, opt.gamma)
        unit_x, unit_z = -1.0 / norm, opt.gamma / norm
        x1 = np.maximum(g * norm + opt.gamma * tan_t, 0.0) / (4.0 * eta1)
        x2 = np.maximum(g * norm - opt.gamma * tan_t, 0.0) / (4.0 * eta1)
        x2[opt.branch == 0] = 0.0
        t, w = opt.shift + opt.weight / 2.0, opt.weight / 2.0
        rate = t - w * k * unit_z
        primal = (t - w * (g * unit_x + k * unit_z)) / (2.0 * eta1)
        gap = opt.lam * eta1 + x2 - primal
        psd = (t - w >= qmath.PSD_TOL) & (t + w - 1.0 <= COMPLETENESS_TOL)
        ok = inside & np.isfinite(opt.lam) & psd & _consistent(rate - eta1, primal - opt.value, gap)
    if not ok.all():
        i = int(np.argmin(ok))
        rate_i = float(eta1[i])
        if not inside[i]:
            raise OutOfRangeError(f"rate eta1={rate_i} outside (0, 1]")
        if not np.isfinite(opt.lam[i]):         # lam grows like 1/eta1 as eta1 -> 0
            raise NumericalError(f"rate eta1={rate_i} too small: the rate multiplier overflows")
        if not psd[i]:
            raise OutOfRangeError(f"detector eigenvalues {t[i] - w[i]:.3e}, {t[i] + w[i]:.3e} "
                                  "outside [0, 1]")
        raise NumericalError(f"analytic certification lost consistency: rate dev {rate[i] - rate_i:.2e}, "
                             f"value dev {primal[i] - opt.value[i]:.2e}, gap {gap[i]:.2e}")
    return opt, (t, w, unit_x, unit_z, x1, x2, np.maximum(gap, 0.0))


def _consistent(rate_dev, value_dev, gap):
    """Whether an analytic certificate hits its rate and value and closes its
    duality gap, absolutely and elementwise (nan fails)."""
    return ((np.abs(rate_dev) <= CERT_RATE_TOL) & (np.abs(value_dev) <= CERT_VALUE_TOL)
            & (np.abs(gap) <= CERT_VALUE_TOL))


# ---------------------------------------------------------------------------
# Exact certification of one weighted detector, any dimension
# ---------------------------------------------------------------------------

def certify_qubit_ensemble(e: Ensemble, eta1: float) -> CertReport:
    """Certified maximum confidence of a single detector for member 1 of any
    qubit ensemble (any priors and members, mixed states): _single_detector's
    dual objective. The branch names the piece of the rate axis, so that
    the boundaries fall as in certify_qubit: jump 0 is LowRate, the stretch
    Sharp (its right end included), jump 1 HighRate; with one group of
    generalised eigenvalues (rho of rank one, or every detector of
    confidence q_1), LowRate up to eta1 = 1/2 and HighRate above.

    Raises DimensionMismatchError for a non-qubit ensemble, OutOfRangeError
    for eta1 outside (0, 1] and NumericalError on overflow or an inverted
    bracket.
    """
    if e.dim != 2:
        raise DimensionMismatchError(f"qubit certification needs dim 2, got {e.dim}")
    if not (0.0 < eta1 <= 1.0):
        raise OutOfRangeError(f"rate eta1={eta1} outside (0, 1]")
    return _qubit_report(e, eta1, _single_detector(e, 0, 1.0, np.array([eta1])))


def _qubit_report(e: Ensemble, eta1: float, opt: _Single) -> CertReport:
    """certify_qubit_ensemble's report from the first rate of opt."""
    cert = _single_certificate(e, OutcomeRates((eta1,), 1.0 - eta1), 0, opt)
    branch = int(opt.piece[0]) if opt.groups == 2 else 0 if eta1 <= 0.5 else 2
    return CertReport(cert.upper, BRANCHES[branch], cert.povm, cert.dual, max(cert.upper - cert.lower, 0.0))


def _hermitian(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


NEWTON_MAX_ITER = 100   # safeguarded Newton steps per stretch rate (bisection bounds it)
SINGLE_ROUNDING = 4.0   # lower moves down by this times dim eps times its size


class _Single(NamedTuple):
    """_single_detector's optimum at each rate of an array: piece 2g on
    jump g and 2g + 1 on the stretch after it (of groups jumps), the value
    lower of detector M, the objective upper = tr K + s eta of the dual
    (K, s) and its slack Z = K + s rho - c rho_y, all stacked in full space."""

    piece: np.ndarray
    groups: int
    lower: np.ndarray
    upper: np.ndarray
    M: np.ndarray
    K: np.ndarray
    s: np.ndarray
    Z: np.ndarray


def _single_detector(e: Ensemble, y: int, weight: float, eta: np.ndarray) -> _Single:
    """Exact max c tr[M rho_y] s.t. tr[M rho] = eta, 0 <= M <= I, with
    c = weight q_y / eta, and its dual min tr K + s eta s.t. K >= 0,
    K + s rho >= c rho_y, at each rate of a 1-d array in (0, 1].

    With A = q_y rho_y and t = s/c the value is c min_t [t eta +
    tr(A - t rho)_+] (its maximum over eta is Croke et al.'s, PRL 96,
    070401, 2006). qmath.pencil gives P+ and P_N of A - t rho at each group
    mu_g of generalised eigenvalues. The rate h(t) = tr[rho P+(t)] jumps
    from h+ = tr[rho P+] to h+ + tr[rho P_N] at mu_g, where
    M = P+ + tau P_N in closed form, and falls smoothly in between
    (_stretch_solve). The dual K = c (A - t rho)_+, s = c t is repaired at
    least cost for its rounding, which c magnifies: with -m the least
    eigenvalue of K + s rho - c rho_y, s rises by delta and K gains
    max(0, m - delta lambda_i) along each eigenvector of rho on its support
    and m on ker rho, delta the cheapest of 0 and the m / lambda_i. lower
    equals upper in exact arithmetic, so it moves down by its rounding
    bound, SINGLE_ROUNDING dim eps times its size. Raises NumericalError
    where c overflows.
    """
    rho = sum(q * s.matrix for q, s in e.members)    # average_state(e).matrix, unchecked
    q, state = e.members[y]
    pen = qmath.pencil(q * state.matrix, rho)
    dim, rank, groups = len(rho), len(pen.weights), len(pen.mu)
    with np.errstate(over="ignore", divide="ignore"):
        scale = weight / eta
    if not np.isfinite(scale).all():
        rate = float(eta[np.argmin(np.isfinite(scale))])
        raise NumericalError(f"rate eta={rate} too small: the rate multiplier overflows")

    index = np.arange(rank)
    top = index >= rank - pen.above[:, None]                          # P+ of each jump
    null = (index >= rank - pen.above[:, None] - pen.size[:, None]) & ~top
    jump_w = (np.abs(pen.vectors) ** 2 * pen.weights[:, None]).sum(axis=1)     # v^H rho v
    h_plus, h_null = (jump_w * top).sum(axis=1), (jump_w * null).sum(axis=1)
    edges = np.maximum.accumulate(np.stack([h_plus, h_plus + h_null], axis=1).ravel())
    piece = np.clip(np.searchsorted(edges, eta) - 1, 0, 2 * groups - 2)
    g = piece // 2
    tau = np.clip((eta - h_plus[g]) / h_null[g], 0.0, 1.0)
    coef = top[g] + tau[:, None] * null[g]
    found = [pen.mu[g], pen.values[g], pen.vectors[g], top[g], _from_eigen(pen.vectors[g], coef)]
    stretch = np.flatnonzero(piece % 2)
    if stretch.size:
        found = [v.copy() for v in found]
        for v, part in zip(found, _stretch_solve(pen, g[stretch], eta[stretch], h_plus, h_plus + h_null)):
            v[stretch] = part
    t, values, vectors, positive, m_s = found

    lower = scale * np.einsum("kij,ji->k", m_s, pen.a).real
    M = _hermitian(pen.basis @ m_s @ pen.basis.conj().T)
    K = _hermitian(pen.basis @ _from_eigen(vectors, scale[:, None] * np.maximum(values, 0.0) * positive)
                   @ pen.basis.conj().T)
    s = scale * t
    target = (scale * q)[:, None, None] * state.matrix
    deficit = np.maximum(-np.linalg.eigvalsh(K + s[:, None, None] * rho - target)[:, 0], 0.0)
    shift = np.concatenate([np.zeros((len(eta), 1)), deficit[:, None] / pen.weights], axis=1)
    lift = np.maximum(deficit[:, None, None] - shift[:, :, None] * pen.weights, 0.0)
    cost = shift * eta[:, None] + lift.sum(axis=2) + (dim - rank) * deficit[:, None]
    best = (np.arange(len(eta)), np.argmin(cost, axis=1))
    K = K + (pen.basis * lift[best][:, None, :]) @ pen.basis.conj().T
    if rank < dim:
        K = K + deficit[:, None, None] * (np.eye(dim) - pen.basis @ pen.basis.conj().T)
    s = s + shift[best]
    upper = np.trace(K, axis1=1, axis2=2).real + s * eta
    lower = lower - SINGLE_ROUNDING * dim * np.finfo(float).eps * np.abs(lower)
    return _Single(piece, groups, lower, upper, M, K, s, _hermitian(K + s[:, None, None] * rho - target))


def _from_eigen(vectors: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """V diag(coef) V^H for each of a stack of eigenvector matrices V."""
    return (vectors * coef[:, None, :]) @ vectors.conj().swapaxes(-1, -2)


def _stretch_solve(pen: qmath.Pencil, g, eta, h_plus, h_minus) -> list:
    """_single_detector on the stretches after groups g: [t, eigenvalues,
    eigenvectors, positive mask, detector] at each rate, the detector in
    the pencil's basis.

    Safeguarded Newton on h(t) = eta, stacked over the rates, in the bracket
    (lo, hi) = (mu[g+1], mu[g]) where h falls from h_plus[g+1] to
    h_minus[g], with h'(t) = -2 sum |v_a^H rho v_b|^2 / (w_a - w_b) over
    positive eigenpairs a and the others b; a step leaving the bracket
    bisects it. A rate stops once |h - eta| <= 4 rank eps eta or its
    bracket is a few ulps wide. The detector mixes P+ at the two bracket
    ends onto the rate, so that the rate is exact; where the bracket is a
    few ulps wide, as between two generalised eigenvalues equal up to
    rounding, P+ at either end is optimal, whichever basis the eigensolver
    picked for the near-null eigenvectors.
    """
    rank, eps = len(pen.weights), np.finfo(float).eps
    up = np.arange(rank) >= rank - pen.above[g + 1][:, None]
    pairs = up[:, :, None] & ~up[:, None, :]
    lo, hi = pen.mu[g + 1], pen.mu[g]
    h_lo, h_hi = h_plus[g + 1], h_minus[g]
    p_lo, p_hi = _from_eigen(pen.vectors[g + 1], up), _from_eigen(pen.vectors[g], up)
    with np.errstate(divide="ignore", invalid="ignore"):
        start = np.nan_to_num((h_lo - eta) / (h_lo - h_hi), nan=0.5)
    t, done = lo + (hi - lo) * np.clip(start, 0.0, 1.0), np.zeros(len(g), dtype=bool)
    for step_count in range(NEWTON_MAX_ITER + 1):
        w, v = np.linalg.eigh(pen.a - t[:, None, None] * np.diag(pen.weights))
        h = (np.abs(v) ** 2 * pen.weights[:, None] * up[:, None, :]).sum(axis=(1, 2))
        p, high, low = _from_eigen(v, up), (h > eta) & ~done, (h <= eta) & ~done
        lo, h_lo, p_lo = np.where(high, t, lo), np.where(high, h, h_lo), np.where(high[:, None, None], p, p_lo)
        hi, h_hi, p_hi = np.where(low, t, hi), np.where(low, h, h_hi), np.where(low[:, None, None], p, p_hi)
        narrow = hi - lo <= 4.0 * eps * np.maximum(abs(lo), abs(hi))
        done |= (np.abs(h - eta) <= 4.0 * rank * eps * eta) | narrow
        if done.all() or step_count == NEWTON_MAX_ITER:
            break
        cross = np.abs(v.conj().swapaxes(-1, -2) @ (pen.weights[:, None] * v)) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = -2.0 * np.where(pairs, cross / (w[:, :, None] - w[:, None, :]), 0.0).sum(axis=(1, 2))
            step = t - (h - eta) / slope
        t = np.where(done, t, np.where((step > lo) & (step < hi), step, (lo + hi) / 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        mix = np.clip(np.nan_to_num((eta - h_hi) / (h_lo - h_hi), nan=0.5), 0.0, 1.0)[:, None, None]
    return [t, w, v, up, mix * p_lo + (1.0 - mix) * p_hi]


# ---------------------------------------------------------------------------
# KKT verification
# ---------------------------------------------------------------------------

def _objective_weights(e: Ensemble, alpha: WeightVector, rates: OutcomeRates) -> list:
    """Objective weights c_y = alpha_y q_y / eta_y, with c_y = 0 where alpha_y = 0.

    Raises ZeroRateError for a nonzero weight on a zero rate.
    """
    coeff = []
    for y, a_y in enumerate(alpha.alpha):
        if a_y == 0.0:
            coeff.append(0.0)
        elif rates.eta[y] <= 0.0:
            raise ZeroRateError(f"detector {y + 1} has weight but zero rate")
        else:
            coeff.append(a_y * e.priors[y] / rates.eta[y])
    return coeff


def verify_kkt(
    e: Ensemble,
    alpha: WeightVector,
    rates: OutcomeRates,
    povm: Povm,
    dual: DualCertificate,
    tol: float = KKT_TOL,
) -> tuple:
    """Check the full optimality system for a (primal, dual) pair.

    Five groups of conditions, each checked on every outcome y = 0..n:
    primal feasibility (PSD elements, completeness, rates), dual
    feasibility (K + s_y rho - c_y rho_y PSD; outcome 0, the inconclusive
    element, has c_0 = s_0 = 0, so this is dual_psd), stationarity,
    complementary slackness, and zero duality gap. Returns (ok, residuals).

    Stationarity (the norm of c_y rho_y + r_y sigma_y - s_y rho - K) and
    dual feasibility are divided by max(1, max_y c_y): their terms grow with
    c_y = alpha_y q_y / eta_y as a rate falls, and so does their rounding.
    The stationarity matrix is divided before its norm is taken, because the
    squares of its entries overflow once eta_y falls below about 1e-171.
    All other residuals are absolute.
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
    elements = povm.outcome_elements()
    coeffs = _objective_weights(e, alpha, rates)
    outcomes = zip(
        elements,
        (rates.eta0, *rates.eta),
        (0.0, *coeffs),
        (np.zeros_like(rho), *(state.matrix for state in e.states[:n])),
        (0.0, *dual.s),
        (dual.r0, *dual.r),
        (dual.sigma0, *dual.sigma),
    )
    scale = max(1.0, *coeffs)
    psd, rate, feas, stat, slack, primal = [], [], [], [], [], 0.0
    for m, eta, coeff, state, s, r, sigma in outcomes:
        target = coeff * state
        psd.append(max(0.0, -qmath.min_eig(m)))
        rate.append(abs(float(np.real(np.trace(m @ rho))) - eta))
        feas.append(max(0.0, -qmath.min_eig(dual.K + s * rho - target)))
        stat.append(float(np.linalg.norm((target + r * sigma - s * rho - dual.K) / scale)))
        slack.append(abs(r * float(np.real(np.trace(m @ sigma)))))
        primal += coeff * float(np.real(np.trace(m @ state)))

    residuals = {
        "primal_psd": max(psd),
        "primal_completeness": float(np.linalg.norm(sum(elements) - np.eye(e.dim))),
        "primal_rates": max(rate),
        "dual_psd": feas[0],
        "dual_feasibility": max(feas[1:]) / scale,
        "stationarity": max(stat),
        "slackness": max(slack),
        "gap": abs(primal - dual.objective(rates)),
    }
    ok = all(v <= tol for v in residuals.values())
    return ok, residuals


# ---------------------------------------------------------------------------
# General-n certification: one primal-dual interior-point SDP solve
# ---------------------------------------------------------------------------

SDP_MAX_ITER = 60    # the solve takes 8 to 25 iterations for d <= 4, n <= 2
SDP_STALL = 2        # iterations without a better iterate before stopping,
SDP_NEAR = 1e-8      # counted once max(gap, residual) is below this
SDP_TOL = 1e-13      # max(gap, residual) at which an iterate is final
SDP_STEP = 0.98      # fraction of the distance to the cone boundary taken
_TINY = np.finfo(float).tiny


@functools.lru_cache(maxsize=None)
def _hermitian_basis(dim: int) -> np.ndarray:
    """Basis of the dim x dim Hermitian matrices, orthogonal under Re tr[a b].
    Cached per dim, so the array is read-only."""
    unit = np.eye(dim * dim).reshape(dim, dim, dim, dim)     # unit[i, j] = |i><j|
    basis = [unit[i, i] for i in range(dim)]
    for i, j in itertools.combinations(range(dim), 2):
        basis += [unit[i, j] + unit[j, i], 1j * (unit[j, i] - unit[i, j])]
    basis = np.array(basis, dtype=complex)
    basis.setflags(write=False)
    return basis


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_j, b_j> for each instance j along the leading axis."""
    return (a.conj() * b).real.reshape(len(a), -1).sum(axis=1)


def _sdp_solve(A: np.ndarray, b: np.ndarray, C: np.ndarray) -> list:
    """Approximate optima (X, y) of k instances of max <C, X> s.t. A(X) = b,
    X PSD, and of their duals min b.y s.t. Z = A*(y) - C PSD, for Hermitian
    blocks X, Z, C. The constraint matrices A, of shape (m, blocks, d, d),
    are shared; b has shape (k, m) and C shape (k, blocks, d, d). Returns
    one (X, y) pair per instance, X of shape (blocks, d, d).

    Infeasible primal-dual interior-point method from X = Z = I, y = 0:
    HKM direction, Mehrotra predictor-corrector (Helmberg, Rendl, Vanderbei
    and Wolkowicz, SIAM J. Optim. 6(2), 1996). Each iteration factors the
    stacked [X; Z] blocks once as L L^H, for Z^-1 and both step lengths;
    where only X's factor fails, Z is factored alone (_sdp_step). The Schur
    complement sum_i Re tr[A_k X_i A_l Z_i^-1] is A applied to the stacked
    products X_i (A_l Z_i^-1), an order of products that keeps tiny-rate
    solves converging. Each instance keeps its iterate with the smallest
    max(gap, residual), since the Schur complement of rank-deficient
    problems loses precision near the optimum, and stops on its own: once
    that is below SDP_TOL, after SDP_STALL iterations without a better
    iterate below SDP_NEAR, when mu = <X, Z> / (blocks d) is no longer
    positive, or when Z's factor or the Schur solve fails. Every operation
    acts on each instance alone, so its result is the same, bit for bit,
    whichever others share its batch.
    """
    k, m = b.shape
    blocks, d = C.shape[1], C.shape[-1]
    a_t = A.transpose(1, 3, 2, 0).reshape(-1, m)    # A(G)_k = Re tr[A_k G] = Re vec(G) @ a_t
    a_f = A.reshape(m, -1)                          # A*(y) = y @ a_f
    a_r = A.transpose(1, 0, 2, 3).reshape(blocks, m * d, d)    # per block: A_l stacked by rows
    u = np.broadcast_to(np.eye(d, dtype=complex), (k, 2 * blocks, d, d)).copy()   # [X; Z]
    y = np.zeros((k, m))
    live = list(range(k))
    best, best_err, stall = [None] * k, [math.inf] * k, [0] * k
    for _ in range(SDP_MAX_ITER):
        n = len(live)
        x, z = u[:, :blocks], u[:, blocks:]
        rp = b - (x.reshape(n, 1, -1) @ a_t)[:, 0].real
        rd = C + z - (y.reshape(n, 1, m) @ a_f).reshape(x.shape)
        err = np.maximum(np.abs(_rowdot(C, x) - (b * y).sum(axis=1)),
                         np.maximum(np.linalg.norm(rp, axis=1),
                                    np.linalg.norm(rd.reshape(n, -1), axis=1)))
        mu = _rowdot(x, z) / (blocks * d)
        keep = []
        for j, (i, err_j, mu_j) in enumerate(zip(live, err.tolist(), mu.tolist())):
            if err_j < best_err[i]:
                best[i], best_err[i], stall[i] = (x[j], y[j]), err_j, 0
            elif best_err[i] < SDP_NEAR:
                stall[i] += 1
            if best_err[i] >= SDP_TOL and stall[i] < SDP_STALL and mu_j > 0.0:
                keep.append(j)
        if len(keep) < n:
            u, y, b, C, rp, rd, mu = (v[keep] for v in (u, y, b, C, rp, rd, mu))
            live = [live[j] for j in keep]
        if not live:
            break
        try:
            u, y = _sdp_step(a_t, a_f, a_r, u, y, rp, rd, mu)
        except np.linalg.LinAlgError:
            # A stacked factorisation raises if any instance fails: step each
            # alone, without X's factor where that fails, and stop the ones
            # that still fail.
            steps = {}
            for j in range(len(live)):
                one = (a_t, a_f, a_r) + tuple(v[j : j + 1] for v in (u, y, rp, rd, mu))
                for factor_x in (True, False):
                    try:
                        steps[j] = _sdp_step(*one, factor_x)
                        break
                    except np.linalg.LinAlgError:
                        pass
            if not steps:
                break
            keep = list(steps)
            b, C, live = b[keep], C[keep], [live[j] for j in keep]
            u = np.concatenate([steps[j][0] for j in keep])
            y = np.concatenate([steps[j][1] for j in keep])
    return best


def _sdp_step(a_t, a_f, a_r, u, y, rp, rd, mu, factor_x=True) -> tuple:
    """One predictor-corrector step of _sdp_solve for a stack of instances:
    the new [X; Z] blocks and y. Raises LinAlgError if a Cholesky factor or
    Schur solve of any instance fails. With factor_x False only Z is
    factored, and X's step length comes from the eigenvalues of X^-1 dX:
    at tiny rates X's least eigenvalue can fall below the rounding of its
    entries, so its Cholesky factor fails while X^-1 dX is still usable."""
    n, blocks, d, m = len(u), u.shape[1] // 2, u.shape[-1], a_t.shape[1]
    x, z = u[:, :blocks], u[:, blocks:]
    inv_l = np.linalg.inv(np.linalg.cholesky(u if factor_x else z))
    inv_lh = inv_l.conj().swapaxes(-1, -2)
    w = inv_lh[:, -blocks:] @ inv_l[:, -blocks:]    # Z^-1
    a_w = (a_r @ w).reshape(n, blocks, m, d, d).transpose(0, 1, 3, 2, 4).reshape(n, blocks, d, m * d)
    x_a_w = (x @ a_w).reshape(n, blocks, d, m, d).transpose(0, 3, 1, 2, 4).reshape(n, m, -1)
    schur = (x_a_w @ a_t).real                      # [l, k] = Re tr[A_k X A_l Z^-1]
    schur = (schur + schur.swapaxes(-1, -2)) / 2.0    # symmetric in exact arithmetic; narrows brackets
    x_rd = x @ rd

    def direction(rc):
        rhs = ((rc + x_rd) @ w).reshape(n, 1, -1) @ a_t
        dy = np.linalg.solve(schur, (rhs[:, 0].real - rp)[..., None])[..., 0]
        dz = (dy.reshape(n, 1, -1) @ a_f).reshape(x.shape) - rd
        dx = (rc - x @ dz) @ w
        return np.concatenate([(dx + dx.conj().swapaxes(-1, -2)) / 2.0, dz], axis=1), dy

    def lengths(du, frac):  # (primal, dual): frac of the way to the PSD boundary, at most 1
        if factor_x:
            low = np.linalg.eigvalsh(inv_l @ du @ inv_lh)[..., 0].reshape(n, 2, blocks).min(axis=2)
        else:
            low_x = np.linalg.eigvals(np.linalg.solve(x, du[:, :blocks])).real.min(axis=(1, 2))
            low_z = np.linalg.eigvalsh(inv_l @ du[:, blocks:] @ inv_lh)[..., 0].min(axis=1)
            low = np.stack([low_x, low_z], axis=1)
        return np.minimum(1.0, frac / np.maximum(-low, _TINY))

    def advance(t, du):
        return u + np.repeat(t, blocks, axis=1)[..., None, None] * du

    xz = x @ z
    du, _ = direction(-xz)
    trial = advance(lengths(du, 1.0), du)
    sigma = (_rowdot(trial[:, :blocks], trial[:, blocks:]) / (blocks * d * mu)) ** 3
    rc = (sigma * mu)[:, None, None, None] * np.eye(d) - xz - du[:, :blocks] @ du[:, blocks:]
    du, dy = direction(rc)
    t = lengths(du, SDP_STEP)
    return advance(t, du), y + t[:, 1:] * dy


def certify_general(e: Ensemble, alpha: WeightVector, rates: OutcomeRates) -> GeneralCertificate:
    """Bracket the certifiable weighted confidence for an arbitrary ensemble.

    The value is the SDP max sum_y c_y tr[M_y rho_y], c_y = alpha_y q_y / eta_y,
    over POVMs with tr[M_y rho] = eta_y; its dual is min tr K + s.eta over
    K and Z_y = K + s_y rho - c_y rho_y PSD. lower is the value of an
    exactly feasible POVM and upper the objective of a feasible dual; the
    optimum lies between up to 1e-9 arithmetic slack, and NumericalError
    is raised if upper falls below lower by more. With exactly one nonzero
    weight the other detectors never tighten the value, and
    _single_detector solves it exactly (_single_certificate). Otherwise one
    interior-point solve (_sdp_solve) approximates both ends, repaired on
    supp rho (qmath.support): the POVM made exactly feasible (each element
    moved to its rate, the largest-rate one reset to I minus the rest, all
    mixed toward eta_y I until PSD), negative eigenvalues of K and the Z_y
    shifted into K.
    """
    n = rates.n
    if len(alpha.alpha) != n:
        raise DimensionMismatchError(f"alpha has {len(alpha.alpha)} entries for {n} detectors")
    if n < 1 or n > len(e):
        raise DimensionMismatchError(f"{n} detectors incompatible with {len(e)} states")
    if sum(rates.eta) > 1.0 + RATE_SUM_TOL:
        raise InfeasibleRateError(f"detector rates sum to {sum(rates.eta)} > 1")
    _objective_weights(e, alpha, rates)
    weighted = [y for y, a in enumerate(alpha.alpha) if a != 0.0]
    if len(weighted) != 1:
        return _certify_general_batch(e, alpha, (rates,))[0]
    y = weighted[0]
    opt = _single_detector(e, y, alpha.alpha[y], np.array([rates.eta[y]]))
    return _single_certificate(e, rates, y, opt)


def _single_certificate(e: Ensemble, rates: OutcomeRates, y: int, opt: _Single) -> GeneralCertificate:
    """certify_general's certificate for weight on detector y alone, from
    the first rate of opt: M_y is opt's detector and every other outcome
    z, the inconclusive one included, gets eta_z / (sum of their rates)
    times I - M_y, with s_z = 0."""
    n, m_y, K, s_y = rates.n, opt.M[0], opt.K[0], float(opt.s[0])
    others = [rates.eta0 if z == n else rates.eta[z] for z in range(n + 1) if z != y]
    share = iter([v / sum(others) for v in others] if sum(others) > 0.0 else [0.0] * (n - 1) + [1.0])
    ms = [m_y if z == y else next(share) * (np.eye(len(K)) - m_y) for z in range(n + 1)]
    dual = DualCertificate.from_slacks(K, [s_y if z == y else 0.0 for z in range(n)],
                                       [opt.Z[0] if z == y else K for z in range(n)])
    lower, upper = float(opt.lower[0]), float(opt.upper[0])
    if upper < lower - 1e-9:
        raise NumericalError(f"dual upper bound {upper} fell below achieved primal {lower}")
    return GeneralCertificate(lower, upper, Povm(tuple(ms[:n]), ms[n]), dual)


def _certify_general_batch(e: Ensemble, alpha: WeightVector, batch) -> list:
    """certify_general's SDP route for each OutcomeRates in batch (each
    already checked by certify_general's rules), with one _sdp_solve per
    SDP layout: rates whose SDPs have the same blocks and rate rows share
    their constraint matrices and are solved together. Each bracket equals
    that of a batch of one, bit for bit."""
    dim, rho = e.dim, average_state(e).matrix
    layouts, coeffs = {}, []
    for index, rates in enumerate(batch):
        n = rates.n
        coeffs.append(_objective_weights(e, alpha, rates))
        # SDP blocks: the arms with nonzero rate (a rate-0 arm has weight 0 and
        # keeps M_y = 0) and the inconclusive element n. With eta_0 = 0 it and
        # the last rate row (implied by completeness) are dropped, or the primal
        # has no interior and the dual a line of optima (K - t rho, s + t).
        arms = tuple(y for y in range(n) if rates.eta[y] > 0.0)
        layout = (arms, arms[:-1]) if rates.eta0 <= RATE_SUM_TOL else (arms + (n,), arms)
        layouts.setdefault(layout, []).append(index)

    basis = _hermitian_basis(dim)
    traces = np.trace(basis, axis1=1, axis2=2).real
    certs = [None] * len(batch)
    for (blocks, rows), members in layouts.items():
        A = np.zeros((len(basis) + len(rows), len(blocks), dim, dim), dtype=complex)
        A[: len(basis)] = basis[:, None]
        for k, y in enumerate(rows):
            A[len(basis) + k, blocks.index(y)] = rho
        targets = [[coeffs[i][y] * state.matrix for y, state in enumerate(e.states[: batch[i].n])]
                   for i in members]
        b = np.array([np.concatenate([traces, [batch[i].eta[y] for y in rows]]) for i in members])
        zero = np.zeros((dim, dim))
        C = np.array([[t[y] if y < len(t) else zero for y in blocks] for t in targets])
        for i, t, (x, y_opt) in zip(members, targets, _sdp_solve(A, b, C)):
            certs[i] = _general_bracket(rho, basis, batch[i], t, blocks, rows, x, y_opt)
    return certs


def _general_bracket(rho, basis, rates, targets, blocks, rows, x, y_opt) -> GeneralCertificate:
    """certify_general's bracket from the SDP's approximate optimum (x, y_opt):
    both ends repaired to exact feasibility."""
    n, dim = rates.n, len(rho)
    eye = np.eye(dim, dtype=complex)
    K = np.einsum("k,kab->ab", y_opt[: len(basis)], basis)
    s = np.zeros(n)
    s[list(rows)] = y_opt[len(basis):]
    arms = [y for y in blocks if y < n]
    if len(rows) < len(arms):
        # Saturated: K + s_y rho >= Z_y >= 0 for each y, so t = min s_y moves K to a PSD point.
        t = s[arms].min()
        K, s[arms] = K + t * rho, s[arms] - t
    support = qmath.support(rho).vectors
    if support.shape[1] < dim:
        # q_y rho_y <= rho, so off supp rho (projector P) an element or K
        # changes no rate or value and only adds rounding, which
        # c_y = alpha_y q_y / eta_y magnifies. P K P and P x P are feasible
        # where K and x are, and the completion below puts I - P into one
        # element.
        proj = support @ support.conj().T
        K, x = (_hermitian(proj @ h @ proj) for h in (K, x))
    slack = [K + s[y] * rho - targets[y] for y in range(n)]
    deficit = max(0.0, *(-qmath.min_eig(m) for m in [K] + slack))
    dual = DualCertificate.from_slacks(K + deficit * eye, s, [m + deficit * eye for m in slack])
    upper = dual.objective(rates)

    wanted = list(rates.eta) + [max(rates.eta0, 0.0)]
    weight = float(np.real(np.trace(rho @ rho)))
    ms = [level * rho / weight for level in wanted]
    for i, m in zip(blocks, x):
        w, rate = wanted[i], float(np.real(np.trace(m @ rho)))
        ms[i] = m * (w / rate) if rate > w else m + (w - rate) / weight * rho
    last = max(range(n + 1), key=wanted.__getitem__)   # completing with it needs least mixing
    ms[last] = eye - sum(m for i, m in enumerate(ms) if i != last)
    levels = [float(np.real(np.trace(m @ rho))) for m in ms]
    lows = [qmath.min_eig(m) for m in ms]
    mix = max([0.0] + [-low / (level - low) for low, level in zip(lows, levels) if low < 0.0])
    ms = [(1.0 - mix) * m + mix * level * eye for m, level in zip(ms, levels)]
    lower = sum(float(np.real(np.trace(m @ target))) for m, target in zip(ms, targets))
    if upper < lower - 1e-9:
        raise NumericalError(f"dual upper bound {upper} fell below achieved primal {lower}")

    return GeneralCertificate(lower, upper, Povm(tuple(ms[:n]), ms[n]), dual)


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
