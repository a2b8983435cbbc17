"""The four benchmark workloads: seeded inputs, timed ops and their checks.

Each workload is a repeating cycle of ops. Cycle k draws its inputs from
(seed, workload, k), so the same seed gives the same inputs, and every
cycle has the same shape (op kinds and sizes); only the drawn parameters
change. Runs measure whole cycles, so the op mix is identical from run to
run and from seed to seed, which keeps medians comparable.

An op's `run()` is the only timed code. `check(result)` runs afterwards,
outside the timed region, and returns the worst deviation from the op's
reference divided by that reference's tolerance (a ratio above 1 fails).
The tolerances are the ones the test suite uses.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from time import perf_counter_ns

import numpy as np

from mcdisc import certify, cli, ensembles, oracle, simulator, strategies

DOMINANCE_SLACK = 1e-12     # cli dominance check and tests
CLOSED_FORM_TOL = 1e-10     # sampled rows vs the benchmark's own closed forms
KKT_TOL = 1e-9              # verify_kkt default and acceptance criterion 6
BRACKET_TOL = 1e-9          # general-route bracket and dual residuals
ORACLE_TOL = 1e-3           # acceptance criterion 7
SOUNDNESS_SLACK = 1e-12     # acceptance criterion 8

WORKLOADS = ("qubit-sweep", "general-bracket", "tally-certify", "self-check")


def rng_for(seed, workload, cycle):
    key = [seed, WORKLOADS.index(workload), cycle]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


# ---------------------------------------------------------------------------
# Reference closed forms, written out here so the checks do not call the
# code they check.
# ---------------------------------------------------------------------------

def certified_closed_form(c, p, eta1):
    """Three-branch certified maximum confidence of the noisy canonical pair."""
    k = (1.0 - p) * math.sqrt(c)
    lo, hi = (1.0 - k * k) / 2.0, (1.0 + k * k) / 2.0
    amp = (1.0 - p) * math.sqrt(1.0 - c) / math.sqrt(1.0 - k * k)
    if eta1 <= lo:
        return 0.5 * (1.0 + amp), "LowRate", (lo, hi)
    if eta1 <= hi:
        u = 1.0 - 2.0 * eta1
        tan_t = math.sqrt(1.0 - c) / math.sqrt(c)
        return 0.5 + tan_t * math.sqrt(k * k - u * u) / (4.0 * eta1), "Sharp", (lo, hi)
    return 0.5 * (1.0 + amp * (1.0 / eta1 - 1.0)), "HighRate", (lo, hi)


def bounds_closed_form(task, c, p):
    """(quantum, noncontextual) pair for one bounds task."""
    if task == "mcm":
        k = (1.0 - p) * math.sqrt(c)
        q = 0.5 * (1.0 + (1.0 - p) * math.sqrt(1.0 - c) / math.sqrt(1.0 - k * k))
        return q, 0.5 * (1.0 + (1.0 - p) * (1.0 - c) / (1.0 - (1.0 - p) * c))
    if task == "ud":
        return math.sqrt(c), (1.0 + c) / 2.0
    return 0.5 * (1.0 + math.sqrt(1.0 - c)), 1.0 - c / 2.0     # med, pure pair


def wilson_lower(successes, trials, z):
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return center - half


def random_state(rng, dim, rank):
    w = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = w @ w.conj().T
    return ensembles.DensityMatrix(m / np.real(np.trace(m)))


def random_effect(rng, dim):
    """A full-rank effect with largest eigenvalue in (1/2, 1)."""
    w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = w @ w.conj().T + 0.1 * np.eye(dim)
    m = m / np.linalg.eigvalsh(m)[-1] * rng.uniform(0.5, 0.95)
    return (m + m.conj().T) / 2.0


def _dual_residuals(e, alpha, rates, dual):
    """(dual_psd, dual_feasibility) residuals, as verify_kkt defines them."""
    rho = sum(q * s.matrix for q, s in e.members)
    worst_feas = 0.0
    for y in range(rates.n):
        coeff = 0.0 if alpha[y] == 0.0 else alpha[y] * e.priors[y] / rates.eta[y]
        gap = dual.K + dual.s[y] * rho - coeff * e.states[y].matrix
        worst_feas = max(worst_feas, -np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)[0])
    psd = max(0.0, -np.linalg.eigvalsh((dual.K + dual.K.conj().T) / 2.0)[0])
    return psd, max(0.0, worst_feas)


class Op:
    """One timed call. kind names the op's class inside its workload."""

    def __init__(self, kind, fn, check):
        self.kind = kind
        self.run = fn
        self.check = check


# ---------------------------------------------------------------------------
# qubit-sweep: the curve-drawing use, through the CLI in process.
# ---------------------------------------------------------------------------

class QubitSweep:
    """Per cycle: one 20k-row certify sweep, twelve 100-row sweeps (certify
    and bounds for each task), and six single-point certify JSON reports.

    The 100-row sweeps are the size the acceptance suite uses; with the
    point reports they put the median op among the short sweeps, while
    the long sweep carries most of the rows.
    """

    name = "qubit-sweep"
    LONG_ROWS = 20000
    SHORT_ROWS = 100
    SAMPLED_ROWS = 200

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rows = 0
        self.digests = []
        self.n_files = 0
        self.cycle_len = 0

    def _path(self):
        self.n_files += 1
        return os.path.join(self.workdir, f"out{self.n_files % 64}.txt")

    def cycle(self, k):
        rng = rng_for(self.seed, self.name, k)

        def cp():
            return float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 0.9))

        ops = []
        c, p = cp()
        start = float(rng.uniform(0.01, 0.05))
        ops.append(self._certify_sweep("certify-long", c, p, start, 1.0, self.LONG_ROWS))
        for i in range(12):
            c, p = cp()
            lo, hi = float(rng.uniform(0.02, 0.3)), float(rng.uniform(0.7, 0.98))
            if i % 2 == 0:
                ops.append(self._certify_sweep("certify-short", c, p, lo, 1.0 if i % 4 else hi,
                                               self.SHORT_ROWS))
            else:
                task = ("mcm", "ud", "med")[(i // 2) % 3]
                ops.append(self._bounds_sweep(task, c, p, lo, hi, self.SHORT_ROWS, i % 4 == 1))
        for _ in range(6):
            c, p = cp()
            ops.append(self._certify_point(c, p, float(rng.uniform(0.05, 1.0))))
        self.cycle_len = len(ops)
        return ops

    def _cli(self, argv, path, rows):
        def run():
            return cli.main(argv + ["--out", path])

        def account(rc):
            if rc != 0:
                return math.inf, b""
            with open(path, "rb") as fh:
                data = fh.read()
            self.rows += rows
            self.digests.append(hashlib.sha256(data).hexdigest())
            return None, data

        return run, account

    def _certify_sweep(self, kind, c, p, start, end, steps):
        argv = ["certify", "--c", repr(c), "--p", repr(p), "--sweep", f"eta1:{start!r}:{end!r}:{steps}"]
        run, account = self._cli(argv, self._path(), steps)
        xs = np.linspace(start, end, steps)
        picks = np.random.default_rng([self.seed, self.n_files]).choice(
            steps, min(steps, self.SAMPLED_ROWS), replace=False
        )

        def check(rc):
            bad, data = account(rc)
            if bad is not None:
                return bad
            lines = data.decode().splitlines()
            if lines[0] != "x,quantum,noncontextual,branch" or len(lines) != steps + 1:
                return math.inf
            rows = [line.split(",") for line in lines[1:]]
            worst = 0.0
            for _x, q, nc, _branch in rows:
                if float(q) < float(nc) - DOMINANCE_SLACK:
                    return math.inf
            for i in picks:
                value, branch, (lo, hi) = certified_closed_form(c, p, float(xs[i]))
                worst = max(worst, abs(float(rows[i][1]) - value) / CLOSED_FORM_TOL)
                near_edge = min(abs(xs[i] - lo), abs(xs[i] - hi)) < 1e-12
                if rows[i][3] != branch and not near_edge:
                    return math.inf
            return worst

        return Op(kind, run, check)

    def _bounds_sweep(self, task, c, p, lo, hi, steps, over_p):
        # med compares Helstrom of the noisy pair with the noiseless guess_nc,
        # which only dominates at p = 0, so med runs on pure pairs.
        if task == "med":
            p = 0.0
        var = "p" if (task == "mcm" and over_p) else "c"
        a, b = (0.0, hi) if var == "p" else (lo, hi)
        argv = ["bounds", "--task", task, "--c", repr(c), "--p", repr(p),
                "--sweep", f"{var}:{a!r}:{b!r}:{steps}"]
        run, account = self._cli(argv, self._path(), steps)
        xs = np.linspace(a, b, steps)

        def check(rc):
            bad, data = account(rc)
            if bad is not None:
                return bad
            lines = data.decode().splitlines()
            if lines[0] != "x,quantum,noncontextual" or len(lines) != steps + 1:
                return math.inf
            worst = 0.0
            for i, line in enumerate(lines[1:]):
                _x, q, nc = (float(v) for v in line.split(","))
                ok = q <= nc + DOMINANCE_SLACK if task == "ud" else q >= nc - DOMINANCE_SLACK
                if not ok:
                    return math.inf
                x = float(xs[i])
                ref_q, ref_nc = bounds_closed_form(task, x if var == "c" else c, x if var == "p" else p)
                worst = max(worst, abs(q - ref_q) / CLOSED_FORM_TOL, abs(nc - ref_nc) / CLOSED_FORM_TOL)
            return worst

        return Op(f"bounds-{task}", run, check)

    def _certify_point(self, c, p, eta1):
        argv = ["certify", "--c", repr(c), "--p", repr(p), "--eta1", repr(eta1)]
        run, account = self._cli(argv, self._path(), 1)

        def check(rc):
            bad, data = account(rc)
            if bad is not None:
                return bad
            report = json.loads(data)
            value, branch, _ = certified_closed_form(c, p, eta1)
            if report["branch"] != branch:
                return math.inf
            worst = abs(report["value"] - value) / CLOSED_FORM_TOL
            dual = report["dual"]
            cert = certify.DualCertificate.from_qubit(
                dual["lambda"],
                ensembles.matrix_from_json(dual["X1"]),
                ensembles.matrix_from_json(dual["X2"]),
            )
            ok, residuals = certify.verify_kkt(
                ensembles.make_noisy_pair(ensembles.PairSpec(c, p)),
                certify.WeightVector((1.0,)),
                certify.OutcomeRates((eta1,), 1.0 - eta1),
                strategies.povm_from_json(report["povm"]),
                cert,
                tol=KKT_TOL,
            )
            return max(worst, max(residuals.values()) / KKT_TOL) if ok else math.inf

        return Op("certify-point", run, check)


# ---------------------------------------------------------------------------
# general-bracket: certify_general on seeded random ensembles.
# ---------------------------------------------------------------------------

GENERAL_CLASSES = tuple(
    (d, n, sat) for d in (2, 3, 4) for n in (1, 2) for sat in ((False, True) if n == 2 else (False,))
)


def class_label(d, n, saturated):
    return f"d{d}.n{n}.{'saturated' if saturated else 'free'}"


class GeneralBracket:
    """Per cycle: one instance of each qubit (d = 2) class and one equal-prior
    canonical noisy pair, whose analytic value is known, plus two instances
    of each d = 3 and d = 4 class.

    The qubit classes run several times faster than the others; doubling
    the slow classes puts the median op well inside the slow group instead
    of at the gap between the two groups, where it would jump with the draw.
    Instance cost varies about 50% within a class, so an untraced run
    measures at least MIN_CYCLES cycles (32 instances). Widths are taken
    from the first cycle only, so they are exact functions of the seed
    however many cycles a run completes.
    """

    name = "general-bracket"
    MIN_CYCLES = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.widths = {}

    def cycle(self, k):
        rng = rng_for(self.seed, self.name, k)
        ops = []
        for d, n, sat in GENERAL_CLASSES:
            for _ in range(1 if d == 2 else 2):
                ops.append(self._random_instance(rng, k, d, n, sat))
        ops.append(self._canonical_instance(rng, k))
        return ops

    def _op(self, label, k, e, alpha, rates, reference=None):
        def run():
            return certify.certify_general(e, certify.WeightVector(alpha), rates)

        def check(cert):
            if k == 0:
                self.widths.setdefault(label, []).append(cert.upper - cert.lower)
            worst = max(0.0, cert.lower - cert.upper) / BRACKET_TOL
            worst = max(worst, *(r / BRACKET_TOL for r in _dual_residuals(e, alpha, rates, cert.dual)))
            if reference is not None:
                miss = max(0.0, cert.lower - reference, reference - cert.upper)
                worst = max(worst, miss / BRACKET_TOL)
            return worst

        return Op(label, run, check)

    def _random_instance(self, rng, k, d, n, saturated):
        members = max(n, 2)
        priors = rng.uniform(0.5, 1.5, size=members)
        priors = priors / priors.sum()
        priors[-1] = 1.0 - priors[:-1].sum()
        states = [random_state(rng, d, int(rng.integers(1, d + 1))) for _ in range(members)]
        e = ensembles.Ensemble(tuple((float(q), s) for q, s in zip(priors, states)))
        if saturated:
            eta1 = float(rng.uniform(0.2, 0.8))
            rates = certify.OutcomeRates((eta1, 1.0 - eta1), 0.0)
        else:
            eta = tuple(float(v) for v in rng.uniform(0.1, 0.8 / n, size=n))
            rates = certify.OutcomeRates(eta, 1.0 - sum(eta))
        return self._op(class_label(d, n, saturated), k, e, (1.0,) * n, rates)

    def _canonical_instance(self, rng, k):
        c, p = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.0, 0.8))
        eta1 = float(rng.uniform(0.1, 0.9))
        e = ensembles.make_noisy_pair(ensembles.PairSpec(c, p))
        reference = certify.certify_qubit(c, p, eta1).value
        rates = certify.OutcomeRates((eta1,), 1.0 - eta1)
        return self._op("canonical", k, e, (1.0,), rates, reference)


# ---------------------------------------------------------------------------
# tally-certify: simulate, then certify from the tally.
# ---------------------------------------------------------------------------

class TallyCertify:
    """Per cycle: seven equal-prior noisy pairs (analytic route) with trial
    counts on a log ladder from 1e5 to 1e7, and two specs that take the
    general route: unequal priors at 1e7 trials and a qutrit at 3e5.

    The ladder makes trial count drive the cost; with nine ops per cycle
    the median op is the fifth rung (about 2e6 trials). The three slowest
    ops of a cycle (top rung, unequal priors, qutrit) are a third of all
    ops, so the tail percentile falls inside that group for any run of
    four or more cycles instead of on its edge.

    The analytic specs simulate the optimal detector for (c, p, eta1) mixed
    with DETECTOR_NOISE of rate-preserving white noise. The exactly optimal
    detector's true confidence equals the certified maximum, so criterion
    8's 3-sigma rule would then fail by chance on about one spec in 750;
    the admixture gives the rule a margin without changing the rule. eta1
    stays below 0.9 so that the margin, which scales with the confidence's
    distance from 1/2, stays well above the sampling error.
    """

    name = "tally-certify"
    LADDER = tuple(10.0 ** (5.0 + i / 3.0) for i in range(7))
    DETECTOR_NOISE = 0.1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.sim_ns = 0
        self.trials = 0
        self.routes = {"analytic": 0, "general": 0}

    def cycle(self, k):
        rng = rng_for(self.seed, self.name, k)
        ops = []
        for rung in self.LADDER:
            c, p = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.0, 0.8))
            eta1 = float(rng.uniform(0.1, 0.9))
            e = ensembles.make_noisy_pair(ensembles.PairSpec(c, p))
            optimal = certify.certify_qubit(c, p, eta1).povm.elements[0]
            m1 = (1.0 - self.DETECTOR_NOISE) * optimal + self.DETECTOR_NOISE * eta1 * np.eye(2)
            povm = strategies.Povm((m1,), np.eye(2) - m1)
            ops.append(self._op("analytic", rng, e, povm, rung))
        q1 = float(rng.choice([rng.uniform(0.3, 0.45), rng.uniform(0.55, 0.7)]))
        c, p = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.0, 0.8))
        pair = ensembles.make_noisy_pair(ensembles.PairSpec(c, p, (q1, 1.0 - q1)))
        ops.append(self._op("unequal-priors", rng, pair, self._effect_povm(rng, 2), 1e7))
        states = [random_state(rng, 3, int(rng.integers(1, 4))) for _ in range(2)]
        qutrit = ensembles.Ensemble(((0.5, states[0]), (0.5, states[1])))
        ops.append(self._op("qutrit", rng, qutrit, self._effect_povm(rng, 3), 3e5))
        return ops

    @staticmethod
    def _effect_povm(rng, dim):
        m1 = random_effect(rng, dim)
        return strategies.Povm((m1,), np.eye(dim) - m1)

    def _op(self, kind, rng, e, povm, trials):
        trials = int(round(trials * 10.0 ** rng.uniform(-0.05, 0.05)))
        spec = simulator.ExperimentSpec(e, povm, trials, int(rng.integers(1 << 30)))

        def run():
            t0 = perf_counter_ns()
            tally = simulator.run(spec)
            t1 = perf_counter_ns()
            self.sim_ns += t1 - t0
            self.trials += trials
            return tally, simulator.certify_from_tally(tally, e)

        def check(result):
            tally, cert = result
            route = "analytic" if isinstance(cert.report, certify.CertReport) else "general"
            self.routes[route] += 1
            clicks = int(tally.counts[:, 1].sum())
            conf_lo = wilson_lower(int(tally.counts[0, 1]), clicks, 3.0)
            excess = conf_lo - (max(cert.value_interval) + SOUNDNESS_SLACK)
            return math.inf if excess > 0.0 else 0.0

        return Op(kind, run, check)


# ---------------------------------------------------------------------------
# self-check: certify, KKT, and the oracle comparisons of `verify --mode oracle`.
# ---------------------------------------------------------------------------

class SelfCheck:
    """One op is one seeded instance (c, p, eta1): certify_qubit, verify_kkt,
    then brute_guess, brute_confidence without and with the rate, and
    brute_ud, each against its closed form."""

    name = "self-check"
    PER_CYCLE = 8

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cfg = oracle.SearchConfig()

    def cycle(self, k):
        rng = rng_for(self.seed, self.name, k)
        ops = []
        for _ in range(self.PER_CYCLE):
            c = float(rng.uniform(0.05, 0.95))
            p = float(rng.uniform(0.0, 0.9))
            eta1 = float(rng.uniform(0.05, 1.0))
            ops.append(Op("instance", self._runner(c, p, eta1), self._check))
        return ops

    def _runner(self, c, p, eta1):
        cfg = self.cfg

        def run():
            report = certify.certify_qubit(c, p, eta1)
            pure = ensembles.make_pure_pair(ensembles.PairSpec(c))
            noisy = ensembles.make_noisy_pair(ensembles.PairSpec(c, p))
            ok, residuals = certify.verify_kkt(
                noisy, certify.WeightVector((1.0,)), certify.OutcomeRates((eta1,), 1.0 - eta1),
                report.povm, report.dual,
            )
            devs = [
                abs(oracle.brute_guess(noisy, cfg) - strategies.helstrom(noisy).value),
                abs(oracle.brute_confidence(noisy, None, cfg) - strategies.mcm_quantum(c, p).value),
                abs(oracle.brute_ud(pure, cfg) - strategies.ud_quantum(c).value),
                abs(oracle.brute_confidence(noisy, eta1, cfg) - report.value),
            ]
            return ok, residuals, devs

        return run

    @staticmethod
    def _check(result):
        ok, residuals, devs = result
        if not ok:
            return math.inf
        return max(max(residuals.values()) / KKT_TOL, max(devs) / ORACLE_TOL)


def make(name, seed, workdir):
    cls = {w.name: w for w in (QubitSweep, GeneralBracket, TallyCertify, SelfCheck)}[name]
    return cls(seed, workdir)

