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
dual certificate with zero duality gap; certify_qubit_curve evaluates the
same closed form over an array of rates and checks each certificate in
Bloch form, for sweeps. certify_qubit_ensemble does the
same for one detector on any qubit ensemble (any priors, any number of
members, mixed states), where the constraints 0 <= M <= I are two
spheroids in the Bloch ball and the optimum is one of three closed-form
candidates. verify_kkt checks the full optimality system of any (primal,
dual) pair, and certify_general brackets the value for arbitrary small
ensembles (dimension 2 to 4, any number of detectors) by one primal-dual
interior-point solve of the certification SDP, whose primal and dual ends
are then repaired to exact feasibility. The solver (_sdp_solve) takes a
leading instance axis: k problems that share their constraint matrices,
each stopping on its own, with the Schur complement formed by stacked
matrix products; certify_general is its one-instance case. Where the
average state rho is rank-deficient, both repaired ends are first
compressed to its support.
The tally route (simulator.certify_from_tally) picks by dimension: qubit
ensembles take certify_qubit_ensemble, all others certify_general's
bracket, with the three rate probes solved in one batch.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmath
from .ensembles import Ensemble, average_state, canonical_pair_matrices, in_unit_interval
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
CERT_VALUE_TOL = 1e-9    # value and gap deviation, relative to max(1, c_1) for ensembles
CERT_ACTIVE_TOL = 1e-14  # constraint value below which a qubit candidate counts as feasible
QUBIT_RECHECK_RATE = 1e-6  # certify_qubit_curve runs certify_qubit itself below this rate
QUBIT_RECHECK_SHARE = 1.0 / 16.0  # ... and where a Bloch residual exceeds this share of its bound
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
    """Bracket of a certified value from one SDP solve.

    lower is the value an exactly feasible POVM (povm) achieves; upper is the
    objective of an exactly feasible dual point (dual). Both are sound, and
    their difference is the solver's remaining duality gap.
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
        When the closed forms lose the precision their consistency checks
        demand (at c within 1e-12 of 1, say) or overflow (eta1 < 5.6e-309).
    """
    _check_qubit_pair(c, p)
    if not (0.0 < eta1 <= 1.0):
        raise OutOfRangeError(f"rate eta1={eta1} outside (0, 1]")
    opt = _qubit_closed_form(c, p, eta1)
    branch, value, lam = BRANCHES[opt.branch], float(opt.value), float(opt.lam)
    if not math.isfinite(lam):                  # grows like 1/eta1 as eta1 -> 0
        raise NumericalError(f"rate eta1={eta1} too small: the rate multiplier overflows")
    rho1, _, rho = canonical_pair_matrices(c, p)
    slack = lam * rho - rho1 / (2.0 * eta1)     # equals X1 - X2 at the optimum
    values, vectors = qmath.eig_hermitian(slack)
    low_vec = vectors[:, 0]
    proj = np.outer(low_vec, low_vec.conj())
    X1 = max(float(values[1]), 0.0) * np.outer(vectors[:, 1], vectors[:, 1].conj())
    X2 = max(-float(values[0]), 0.0) * proj

    eye = np.eye(2, dtype=complex)
    if branch == "LowRate":
        m1 = float(opt.weight) * proj
    elif branch == "Sharp":
        m1 = proj
    else:
        m1 = float(opt.shift) * eye + float(opt.weight) * proj
    povm = Povm((m1,), qmath.psd_floor(eye - m1, 0.0))

    rate = float(np.real(np.trace(m1 @ rho)))
    primal = float(np.real(np.trace(m1 @ rho1))) / (2.0 * eta1)
    dual_obj = lam * eta1 + float(np.real(np.trace(X2)))
    _check_consistency(rate - eta1, primal - value, dual_obj - primal, 1.0)
    gap = max(dual_obj - primal, 0.0)
    dual = DualCertificate.from_qubit(lam, X1, X2)
    return CertReport(value, branch, povm, dual, gap)


def certify_qubit_curve(c: float, p: float, eta1: np.ndarray) -> tuple:
    """certify_qubit's value and branch index (into BRANCHES) at every rate
    of an eta1 array, in one array pass with no matrices.

    Each rate's certificate is checked in Bloch form: with
    slack = lam rho - rho1/(2 eta1) = a0 I + a.sigma, the detector is
    M1 = shift I + weight (I - a.sigma/|a|)/2, and its PSD and completeness
    bounds, rate, value and duality gap are certify_qubit's checks. Rates
    where one of them exceeds QUBIT_RECHECK_SHARE of its bound, rates
    outside (0, 1], and rates below QUBIT_RECHECK_RATE are run through
    certify_qubit itself, in eta1 order, so the first one it rejects raises
    certify_qubit's own error. Rounding decides both forms of the residuals
    below about 1e-7 and near c = 1, and there they can disagree: on
    80 000 random inputs (eta1 >= 1e-6, half with c within 0.1 of 1),
    certificates certify_qubit rejected had Bloch residuals down to 0.26
    of the bound.

    The rates are taken QUBIT_CURVE_BLOCK at a time, so the temporary
    arrays stay small however long the grid is.

    Raises the errors of certify_qubit.
    """
    _check_qubit_pair(c, p)
    eta1 = np.asarray(eta1, dtype=float)
    value, branch = np.empty(eta1.shape), np.empty(eta1.shape, dtype=int)
    for start in range(0, eta1.size, QUBIT_CURVE_BLOCK):
        rates = eta1[start:start + QUBIT_CURVE_BLOCK]
        inside = (0.0 < rates) & (rates <= 1.0)
        opt = _qubit_closed_form(c, p, np.where(inside, rates, 1.0))
        recheck = ~inside | (rates < QUBIT_RECHECK_RATE) | ~_bloch_consistent(c, p, rates, opt)
        for rate in rates[recheck].tolist():
            certify_qubit(c, p, rate)
        value[start:start + QUBIT_CURVE_BLOCK] = opt.value
        branch[start:start + QUBIT_CURVE_BLOCK] = opt.branch
    return value, branch


class _QubitOptimum(NamedTuple):
    """certify_qubit's optimum at one rate or at each rate of an array.

    branch indexes BRANCHES, lam is the rate multiplier of the dual, and the
    detector is M1 = shift I + weight P, with P the projector onto the low
    eigenvector of lam rho - rho1/(2 eta1).
    """

    branch: np.ndarray
    value: np.ndarray
    lam: np.ndarray
    shift: np.ndarray
    weight: np.ndarray


def _check_qubit_pair(c: float, p: float):
    if c in (0.0, 1.0):
        raise DegenerateEnsembleError(f"c={c} not certifiable on the analytic path")
    if not (0.0 < c < 1.0):
        raise OutOfRangeError(f"confusability c={c} outside (0, 1)")
    if not (0.0 <= p < 1.0):
        raise OutOfRangeError(f"noise p={p} outside [0, 1)")


def _qubit_closed_form(c: float, p: float, eta1) -> _QubitOptimum:
    """The three-branch closed form of certify_qubit at eta1, a rate or an
    array of rates in (0, 1] (see ncmodel._rate_branches)."""
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
    return _QubitOptimum(branch, value, lam, shift, weight)


def _bloch_consistent(c: float, p: float, eta1: np.ndarray, opt: _QubitOptimum) -> np.ndarray:
    """Whether certify_qubit's POVM and consistency checks pass at each rate,
    evaluated in Bloch form (see certify_qubit_curve).

    The pair enters through the Bloch components of the same matrices
    certify_qubit builds, not through (c, p): near c = 1 their rounding
    alone can break the consistency check. The matrices are real, so the y
    components are 0.
    """
    rho1, _, rho = canonical_pair_matrices(c, p)
    (r0, rx, _, rz), (s0, sx, _, sz) = (
        (float(np.trace(m).real) / 2.0, *qmath.bloch_vector(m).tolist()) for m in (rho, rho1)
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # slack = lam rho - rho1/(2 eta1) = a0 I + a.sigma; its low eigenvector
        # gives M1 = shift I + weight (I - a.sigma/|a|)/2 = t I - w a.sigma/|a|.
        half_rate = 1.0 / (2.0 * eta1)
        a0 = opt.lam * r0 - s0 * half_rate
        ax, az = opt.lam * rx - sx * half_rate, opt.lam * rz - sz * half_rate
        size = np.hypot(ax, az)
        t, w = opt.shift + opt.weight / 2.0, opt.weight / 2.0
        rate = 2.0 * (t * r0 - w * (rx * ax + rz * az) / size)
        primal = 2.0 * (t * s0 - w * (sx * ax + sz * az) / size) * half_rate
        dual_obj = opt.lam * eta1 + np.maximum(size - a0, 0.0)
    share = QUBIT_RECHECK_SHARE
    return ((t - w >= share * qmath.PSD_TOL) & (t + w - 1.0 <= share * COMPLETENESS_TOL)
            & (np.abs(rate - eta1) <= share * CERT_RATE_TOL)
            & (np.abs(primal - opt.value) <= share * CERT_VALUE_TOL)
            & (np.abs(dual_obj - primal) <= share * CERT_VALUE_TOL))


def _check_consistency(rate_dev: float, value_dev: float, gap: float, scale: float):
    """Raise NumericalError unless an analytic certificate hits its rate and
    value and closes its duality gap. The rate is judged absolutely, value
    and gap relative to scale (1 keeps them absolute)."""
    if (abs(rate_dev) > CERT_RATE_TOL or abs(value_dev) > CERT_VALUE_TOL * scale
            or abs(gap) > CERT_VALUE_TOL * scale):
        raise NumericalError(
            f"analytic certification lost consistency: rate dev {rate_dev:.2e}, "
            f"value dev {value_dev:.2e}, gap {gap:.2e}"
        )


def _spheroid_max(g: np.ndarray, a: np.ndarray, flat: float):
    """Largest g.v over |v| + a.v <= 1, for flat = 1 - |a|^2 >= 0, as
    (lam, u, root).

    lam is the maximum: the smallest lam >= 0 with |g - lam a| <= lam. The
    maximiser is along the unit vector u = (g - lam a)/lam, and over
    |v| + a.v <= h it is v = h lam u / root, where
    root = sqrt((g.a)^2 + |g|^2 flat). Returns None where the spheroid is
    unbounded along g (flat = 0 and g.a <= 0).
    """
    ga, gg = float(g @ a), float(g @ g)
    root = math.sqrt(ga * ga + gg * flat)
    if root == 0.0 or (ga < 0.0 and flat == 0.0):
        return None
    # Of the two forms of the positive root, take the one without cancellation.
    lam = gg / (ga + root) if ga >= 0.0 else (root - ga) / flat
    return lam, (g - lam * a) / lam, root


def certify_qubit_ensemble(e: Ensemble, eta1: float) -> CertReport:
    """Certified maximum confidence of a single detector for member 1 of any
    qubit ensemble (any priors, any number of members, mixed states), in
    closed form.

    With M = t I + v.sigma, rho_x = (I + r_x.sigma)/2 and rbar the Bloch
    vector of the average state, the rate fixes t = eta1 - rbar.v and the
    value is q_1 (eta1 + g.v)/eta1 with g = r_1 - rbar. 0 <= M <= I becomes
    two spheroids with a focus at the origin, |v| + rbar.v <= eta1 (M PSD)
    and |v| - rbar.v <= 1 - eta1 (I - M PSD). The problem is convex, so the
    optimum is the first of three candidates that meets both constraints
    (within CERT_ACTIVE_TOL): the maximum over the first spheroid alone
    (branch LowRate), over the second alone (HighRate), or over the circle
    where both boundaries meet, rbar.v = eta1 - 1/2, |v| = 1/2, where M is
    a projector (Sharp). A second-spheroid optimum that also touches the
    first is named Sharp, so the branch boundaries fall as in
    certify_qubit. For g = 0 every detector has confidence q_1: M = eta1 I
    is returned, named LowRate up to eta1 = 1/2 and HighRate above, the
    fully mixed limit of certify_qubit's branches.

    The multipliers (mu1, mu2) of the two spheroids give the dual: with
    c_1 = q_1/eta1 and u the unit vector of the optimal v, K = (c_1 mu2/2)
    (I + u.sigma), s = c_1 (1 + mu1 - mu2), and the detector slack is
    (c_1 mu1/2) (I - u.sigma). The consistency check is relative to
    max(1, c_1), because c_1 grows as eta1 falls.

    Raises
    ------
    DimensionMismatchError
        For an ensemble that is not a qubit ensemble.
    OutOfRangeError
        For eta1 outside (0, 1].
    NumericalError
        When the certificate misses its rate or value, leaves a gap or overflows.
    """
    if e.dim != 2:
        raise DimensionMismatchError(f"qubit certification needs dim 2, got {e.dim}")
    if not (0.0 < eta1 <= 1.0):
        raise OutOfRangeError(f"rate eta1={eta1} outside (0, 1]")
    q1, priors = e.priors[0], np.asarray(e.priors)
    bloch = 2.0 * np.array([qmath.bloch_vector(s.matrix) for s in e.states])
    rbar = priors @ bloch
    g = bloch[0] - rbar
    # 1 - |rbar|^2 as the mean purity deficit plus the spread of the Bloch
    # vectors, which keeps its precision as |rbar| -> 1 (near-identical
    # pure states), where 1 - |rbar|^2 itself cancels.
    deficit = max(float(priors @ (1.0 - np.einsum("xi,xi->x", bloch, bloch))), 0.0)
    flat = deficit + float(priors @ np.einsum("xi,xi->x", bloch - rbar, bloch - rbar))

    branch, v, u, mu1, mu2 = _qubit_optimum(g, rbar, flat, eta1)
    t = eta1 - float(rbar @ v)
    m1 = qmath.bloch_op(t, v)
    povm = Povm((m1,), qmath.bloch_op(1.0 - t, -v))
    coeff = q1 / eta1
    if not math.isfinite(coeff * (1.0 + mu1 + mu2)):
        raise NumericalError(f"rate eta1={eta1} too small: the dual multipliers overflow")
    value = q1 + coeff * float(g @ v)
    K = (coeff * mu2 / 2.0) * qmath.bloch_op(1.0, u)
    s = coeff * (1.0 + mu1 - mu2)
    dual = DualCertificate.from_slacks(K, (s,), [(coeff * mu1 / 2.0) * qmath.bloch_op(1.0, -u)])

    rho = sum(q * state.matrix for q, state in e.members)
    rate = float(np.real(np.trace(m1 @ rho)))
    primal = coeff * float(np.real(np.trace(m1 @ e.states[0].matrix)))
    dual_obj = float(np.real(np.trace(K))) + s * eta1
    _check_consistency(rate - eta1, primal - value, dual_obj - primal, max(1.0, coeff))
    return CertReport(value, branch, povm, dual, max(dual_obj - primal, 0.0))


def _qubit_optimum(g: np.ndarray, rbar: np.ndarray, flat: float, eta1: float) -> tuple:
    """(branch, v, u, mu1, mu2) of certify_qubit_ensemble's reduced problem:
    max g.v over |v| + rbar.v <= eta1 and |v| - rbar.v <= 1 - eta1."""
    if not g.any():
        return ("LowRate" if eta1 <= 0.5 else "HighRate"), np.zeros(3), np.zeros(3), 0.0, 0.0

    def excess(v, sign, h):                 # constraint value |v| + sign rbar.v - h
        return math.hypot(*v) + sign * float(rbar @ v) - h

    for sign, h, other, name in ((1.0, eta1, 1.0 - eta1, "LowRate"), (-1.0, 1.0 - eta1, eta1, "HighRate")):
        found = _spheroid_max(g, sign * rbar, flat)
        if found is None:
            continue
        lam, u, root = found
        v = (h * lam / root) * u
        if excess(v, -sign, other) <= CERT_ACTIVE_TOL:
            if sign < 0.0 and excess(v, 1.0, eta1) >= -CERT_ACTIVE_TOL:
                name = "Sharp"
            return (name, v, u, lam, 0.0) if sign > 0.0 else (name, v, u, 0.0, lam)

    # Both boundaries active: |v| = 1/2 and rbar.v = eta1 - 1/2. Neither
    # single candidate is feasible, so the circle is proper (|rbar| > 0,
    # radius > 0) and g is not along rbar; anything else is lost precision.
    # Its radius is sqrt((1/2 - along)(1/2 + along)) with
    # along = (eta1 - 1/2)/|rbar|. For |rbar| > 1/2 the two factors take
    # (1 - |rbar|)/2 = flat/(2 (1 + |rbar|)), so that a small circle near
    # the tip of a long spheroid (|rbar| -> 1) keeps its precision.
    lost = NumericalError(f"qubit certification lost precision at eta1={eta1}")
    norm_r = math.hypot(*rbar)
    if norm_r > 0.5:
        tip = flat / (2.0 * (1.0 + norm_r))
        spread = (1.0 - eta1 - tip) * (eta1 - tip)
    else:
        spread = (norm_r / 2.0 - (eta1 - 0.5)) * (norm_r / 2.0 + (eta1 - 0.5))
    if norm_r == 0.0 or spread <= 0.0:
        raise lost
    axis = rbar / norm_r
    along, across = (eta1 - 0.5) / norm_r, math.sqrt(spread) / norm_r
    g_par = float(g @ axis)
    g_perp = g - g_par * axis
    size = math.hypot(*g_perp)
    if size == 0.0:
        raise lost
    v = along * axis + (across / size) * g_perp
    # g = (mu1 + mu2) u + (mu1 - mu2) rbar with u = 2 v.
    total = size / (2.0 * across)
    diff = (g_par - 2.0 * total * along) / norm_r
    return "Sharp", v, 2.0 * v, max((total + diff) / 2.0, 0.0), max((total - diff) / 2.0, 0.0)


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
    stacked [X; Z] blocks once as L L^H; Z^-1 and both step lengths (from
    the least eigenvalue of L^-1 dU L^-H) come from that factor. Where only
    X's factor fails, as it can at tiny rates, Z is factored alone and X's
    step length comes from the eigenvalues of X^-1 dX. The Schur complement
    sum_i Re tr[A_k X_i A_l Z_i^-1] is A applied to the stacked products
    X_i (A_l Z_i^-1); the same sum taken as Ab_i (X_i (x) Z_i^-1) Ab_i^T
    has other rounding and stalls at rates of 1e-8 and below.

    Each instance stops on its own, keeping the iterate with the smallest
    max(gap, residual), because near the optimum of rank-deficient problems
    the Schur complement loses precision: once that error is below
    SDP_TOL, after SDP_STALL iterations without a better iterate once it is
    below SDP_NEAR, when mu = <X, Z> / (blocks d) is no longer positive, or
    when Z's Cholesky factor or the Schur solve fails. A stopped instance leaves
    the working arrays. Every operation acts on each instance alone
    (stacked matmuls and solves, row-wise sums), so an instance's result is
    the same, bit for bit, whichever others share its batch.
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
    K and Z_y = K + s_y rho - c_y rho_y PSD. One interior-point solve
    (_sdp_solve, here with one instance) approximates both. Where rho is
    rank-deficient, K and every element are first compressed to supp rho,
    which changes no rate or value. lower is the value of the POVM made
    exactly feasible (each element moved to its rate, the largest-rate one
    reset to I minus the rest, all mixed toward M_y = eta_y I until PSD);
    upper is the dual objective once negative eigenvalues of K and the Z_y
    are shifted into K. The optimum lies in
    [lower, upper] up to 1e-9 arithmetic slack, and repeated calls return
    the same bracket, as does a batched solve of the same rates
    (simulator.certify_from_tally). Raises NumericalError if upper falls
    below lower.
    """
    return _certify_general_batch(e, alpha, (rates,))[0]


def _certify_general_batch(e: Ensemble, alpha: WeightVector, batch) -> list:
    """certify_general for each OutcomeRates in batch, with one _sdp_solve
    per SDP layout: rates whose SDPs have the same blocks and rate rows
    share their constraint matrices and are solved together. Each bracket
    equals certify_general's for the same rates, bit for bit."""
    dim, rho = e.dim, average_state(e).matrix
    layouts, coeffs = {}, []
    for index, rates in enumerate(batch):
        n = rates.n
        if len(alpha.alpha) != n:
            raise DimensionMismatchError(f"alpha has {len(alpha.alpha)} entries for {n} detectors")
        if n < 1 or n > len(e):
            raise DimensionMismatchError(f"{n} detectors incompatible with {len(e)} states")
        if sum(rates.eta) > 1.0 + RATE_SUM_TOL:
            raise InfeasibleRateError(f"detector rates sum to {sum(rates.eta)} > 1")
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
    values, vectors = qmath.eig_hermitian(rho)
    support = vectors[:, values >= qmath.SUPPORT_EPS]
    if support.shape[1] < dim:
        # q_y rho_y <= rho, so off supp rho (projector P) an element or K
        # changes no rate or value and only adds rounding, which
        # c_y = alpha_y q_y / eta_y magnifies. P K P and P x P are feasible
        # where K and x are, and the completion below puts I - P into one
        # element.
        proj = support @ support.conj().T
        K, x = ((h + h.conj().swapaxes(-1, -2)) / 2.0 for h in (proj @ K @ proj, proj @ x @ proj))
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
