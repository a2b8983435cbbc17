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
dual certificate with zero duality gap. certify_qubit_ensemble does the
same for one detector on any qubit ensemble (any priors, any number of
members, mixed states), where the constraints 0 <= M <= I are two
spheroids in the Bloch ball and the optimum is one of three closed-form
candidates. verify_kkt checks the full optimality system of any (primal,
dual) pair, and certify_general brackets the value for arbitrary small
ensembles (dimension 2 to 4, any number of detectors) by one primal-dual
interior-point solve of the certification SDP, whose primal and dual ends
are then repaired to exact feasibility. The tally route
(simulator.certify_from_tally) picks by dimension: qubit ensembles take
certify_qubit_ensemble, all others certify_general.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
from .ncmodel import nc_certified
from .strategies import Povm

__all__ = [
    "OutcomeRates",
    "WeightVector",
    "DualCertificate",
    "CertReport",
    "GeneralCertificate",
    "certify_qubit",
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
    canonical pair; certify_qubit_ensemble takes any qubit ensemble.

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
        demand, for example at c within 1e-12 of 1.
    """
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
    _check_consistency(rate - eta1, primal - value, dual_obj - primal, 1.0)
    gap = max(dual_obj - primal, 0.0)
    dual = DualCertificate.from_qubit(lam, X1, X2)
    return CertReport(value, branch, povm, dual, gap)


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
        When the certificate misses its rate or value or leaves a duality gap.
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

    Stationarity is the norm of c_y rho_y + r_y sigma_y - s_y rho - K over
    max(1, max_y c_y): its terms grow with c_y = alpha_y q_y / eta_y as a
    rate falls, and so does their rounding. All other residuals are absolute.
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
    psd, rate, feas, stat, slack, primal = [], [], [], [], [], 0.0
    for m, eta, coeff, state, s, r, sigma in outcomes:
        target = coeff * state
        psd.append(max(0.0, -qmath.min_eig(m)))
        rate.append(abs(float(np.real(np.trace(m @ rho))) - eta))
        feas.append(max(0.0, -qmath.min_eig(dual.K + s * rho - target)))
        stat.append(float(np.linalg.norm(target + r * sigma - s * rho - dual.K)))
        slack.append(abs(r * float(np.real(np.trace(m @ sigma)))))
        primal += coeff * float(np.real(np.trace(m @ state)))

    residuals = {
        "primal_psd": max(psd),
        "primal_completeness": float(np.linalg.norm(sum(elements) - np.eye(e.dim))),
        "primal_rates": max(rate),
        "dual_psd": feas[0],
        "dual_feasibility": max(feas[1:]),
        "stationarity": max(stat) / max(1.0, *coeffs),
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


def _hermitian_basis(dim: int) -> np.ndarray:
    """Basis of the dim x dim Hermitian matrices, orthogonal under Re tr[a b]."""
    unit = np.eye(dim * dim).reshape(dim, dim, dim, dim)     # unit[i, j] = |i><j|
    basis = [unit[i, i] for i in range(dim)]
    for i, j in itertools.combinations(range(dim), 2):
        basis += [unit[i, j] + unit[j, i], 1j * (unit[j, i] - unit[i, j])]
    return np.array(basis, dtype=complex)


def _sdp_solve(A: np.ndarray, b: np.ndarray, C: np.ndarray) -> tuple:
    """Approximate optima (X, y) of max <C, X> s.t. A(X) = b, X PSD, and of
    its dual min b.y s.t. Z = A*(y) - C PSD, for Hermitian blocks X, Z, C
    and constraint matrices A of shape (m, blocks, d, d).

    Infeasible primal-dual interior-point method from X = Z = I, y = 0:
    HKM direction, Mehrotra predictor-corrector. Near the optimum of
    rank-deficient problems the Schur complement loses precision, so the
    iterate with the smallest max(gap, residual) is returned.
    """
    def a_op(x):
        return np.einsum("kiab,iba->k", A, x).real

    def a_adj(y):
        return np.einsum("k,kiab->iab", y, A)

    def boundary(u, du):    # largest t with every block of u + t du PSD
        low = np.linalg.eigvals(np.linalg.solve(u, du)).real.min()
        return -1.0 / low if low < 0.0 else math.inf

    eye, size = np.eye(C.shape[1]), C.shape[0] * C.shape[1]
    x = np.broadcast_to(eye, C.shape).astype(complex)
    z, y = x.copy(), np.zeros(len(b))
    best, best_err, stall = (x, y), math.inf, 0
    for _ in range(SDP_MAX_ITER):
        rp, rd = b - a_op(x), C + z - a_adj(y)
        err = max(abs(np.vdot(C, x).real - b @ y), np.linalg.norm(rp), np.linalg.norm(rd))
        if err < best_err:
            best, best_err, stall = (x, y), err, 0
        elif best_err < SDP_NEAR:
            stall += 1
        if best_err < SDP_TOL or stall >= SDP_STALL:
            break
        try:
            z_inv = np.linalg.inv(z)
            schur = np.einsum("kiab,liba->kl", A, x @ A @ z_inv).real

            def direction(rc):
                dy = np.linalg.solve(schur, a_op((rc + x @ rd) @ z_inv) - rp)
                dz = a_adj(dy) - rd
                dx = (rc - x @ dz) @ z_inv
                return (dx + np.swapaxes(dx.conj(), -1, -2)) / 2.0, dy, dz

            xz, mu = x @ z, np.vdot(x, z).real / size
            dx, dy, dz = direction(-xz)
            tp, td = min(1.0, boundary(x, dx)), min(1.0, boundary(z, dz))
            sigma = (np.vdot(x + tp * dx, z + td * dz).real / (size * mu)) ** 3
            dx, dy, dz = direction(sigma * mu * eye - xz - dx @ dz)
            tp = min(1.0, SDP_STEP * boundary(x, dx))
            td = min(1.0, SDP_STEP * boundary(z, dz))
        except np.linalg.LinAlgError:
            break
        x, y, z = x + tp * dx, y + td * dy, z + td * dz
    return best


def certify_general(e: Ensemble, alpha: WeightVector, rates: OutcomeRates) -> GeneralCertificate:
    """Bracket the certifiable weighted confidence for an arbitrary ensemble.

    The value is the SDP max sum_y c_y tr[M_y rho_y], c_y = alpha_y q_y / eta_y,
    over POVMs with tr[M_y rho] = eta_y; its dual is min tr K + s.eta over
    K and Z_y = K + s_y rho - c_y rho_y PSD. One interior-point solve
    approximates both. lower is the value of its POVM made exactly feasible
    (each element moved to its rate, the largest-rate one reset to I minus
    the rest, all mixed toward M_y = eta_y I until PSD); upper is the dual
    objective once negative eigenvalues of K and the Z_y are shifted into
    K. The optimum lies in [lower, upper] up to 1e-9 arithmetic slack, and
    repeated calls return the same bracket. Raises NumericalError if upper
    falls below lower.
    """
    n = rates.n
    if len(alpha.alpha) != n:
        raise DimensionMismatchError(f"alpha has {len(alpha.alpha)} entries for {n} detectors")
    if n < 1 or n > len(e):
        raise DimensionMismatchError(f"{n} detectors incompatible with {len(e)} states")
    if sum(rates.eta) > 1.0 + RATE_SUM_TOL:
        raise InfeasibleRateError(f"detector rates sum to {sum(rates.eta)} > 1")
    dim, rho = e.dim, average_state(e).matrix
    eye = np.eye(dim, dtype=complex)
    coeff = _objective_weights(e, alpha, rates)
    targets = [coeff[y] * e.states[y].matrix for y in range(n)]

    # SDP blocks: the arms with nonzero rate (a rate-0 arm has weight 0 and
    # keeps M_y = 0) and the inconclusive element n. With eta_0 = 0 it and
    # the last rate row (implied by completeness) are dropped, or the primal
    # has no interior and the dual a line of optima (K - t rho, s + t).
    arms = [y for y in range(n) if rates.eta[y] > 0.0]
    saturated = rates.eta0 <= RATE_SUM_TOL
    blocks, rows = (arms, arms[:-1]) if saturated else (arms + [n], arms)
    basis = _hermitian_basis(dim)
    A = np.zeros((len(basis) + len(rows), len(blocks), dim, dim), dtype=complex)
    A[: len(basis)] = basis[:, None]
    for k, y in enumerate(rows):
        A[len(basis) + k, blocks.index(y)] = rho
    b = np.concatenate([np.trace(basis, axis1=1, axis2=2).real, [rates.eta[y] for y in rows]])
    x, y_opt = _sdp_solve(A, b, np.array([targets[y] if y < n else 0.0 * eye for y in blocks]))

    K = np.einsum("k,kab->ab", y_opt[: len(basis)], basis)
    s = np.zeros(n)
    s[rows] = y_opt[len(basis):]
    if saturated:
        # K + s_y rho >= Z_y >= 0 for each y: t = min s_y moves K to a PSD point.
        t = s[arms].min()
        K, s[arms] = K + t * rho, s[arms] - t
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
