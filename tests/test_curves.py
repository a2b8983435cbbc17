"""Array curves against the per-point closed forms they evaluate in one pass:
certify_qubit_curve and nc_certified_curve over eta1 grids, bound_curves
over c and p grids."""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcdisc.certify import certify_qubit, certify_qubit_curve
from mcdisc.ensembles import PairSpec, make_noisy_pair, make_pure_pair
from mcdisc.errors import McdiscError
from mcdisc.ncmodel import BRANCHES, nc_certified, nc_certified_curve
from mcdisc.strategies import (
    bound_curves,
    guess_nc,
    helstrom,
    mcm_noncontextual,
    mcm_quantum,
    ud_noncontextual,
    ud_quantum,
)

EPS = np.finfo(float).eps
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
rates = st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=12)


def branch_edges(c, p):
    """certify_qubit's branch edges (1 -/+ k^2)/2 and their neighbours."""
    k = (1.0 - p) * math.sqrt(c)
    edges = [(1.0 - k * k) / 2.0, (1.0 + k * k) / 2.0]
    return [x for e in edges for x in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0))]


def first_error(points):
    """Run each per-point call in order; the first McdiscError, else None."""
    for point in points:
        try:
            point()
        except McdiscError as err:
            return err
    return None


@settings(max_examples=150, deadline=None)
@given(c=open_unit, p=st.floats(0.0, 1.0, exclude_max=True), extra=rates)
@example(c=0.9999999999999998, p=0.9921875, extra=[0.5])
def test_certify_curve_matches_per_point_calls(c, p, extra):
    grid = np.array(sorted({x for x in branch_edges(c, p) + extra if 0.0 < x <= 1.0}))
    error = first_error([lambda x=x: certify_qubit(c, p, x) for x in grid.tolist()])
    if error is not None:
        # The sweep raises the error of the first rate certify_qubit rejects.
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            certify_qubit_curve(c, p, grid)
        return
    value, branch = certify_qubit_curve(c, p, grid)
    nc = nc_certified_curve(c, p, grid)
    for i, x in enumerate(grid.tolist()):
        report = certify_qubit(c, p, x)
        assert value[i] == report.value
        assert BRANCHES[branch[i]] == report.branch
        assert nc[i] == nc_certified(c, p, x).value


def helstrom_of_pair(c, p):
    return helstrom(make_pure_pair(PairSpec(c)) if p == 0.0 else make_noisy_pair(PairSpec(c, p))).value


PER_POINT = {
    "med": (helstrom_of_pair, lambda c, p: guess_nc(c, p).value),
    "ud": (lambda c, p: ud_quantum(c).value, lambda c, p: ud_noncontextual(c).value),
    "mcm": (lambda c, p: mcm_quantum(c, p).value, lambda c, p: mcm_noncontextual(c, p).value),
}


@settings(max_examples=60, deadline=None)
@given(
    task=st.sampled_from(sorted(PER_POINT)),
    fixed=st.floats(0.0, 1.0),
    grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
    over_c=st.booleans(),
)
def test_bound_curves_match_per_point_calls(task, fixed, grid, over_c):
    xs = np.array(sorted(set(grid + [0.0, 1.0])))
    quantum, nc = bound_curves(task, *((xs, fixed) if over_c else (fixed, xs)))
    to_quantum, to_nc = PER_POINT[task]
    for i, x in enumerate(xs.tolist()):
        c, p = (x, fixed) if over_c else (fixed, x)
        assert nc[i] == to_nc(c, p)
        if task == "med":
            # helstrom takes the eigenvalues of the built pair's matrices,
            # whose rounding can move its last bits; this bound allows for
            # the eps/sqrt(1 - c) that a pair built from acos(sqrt(c)) shows.
            tol = 4.0 * EPS * (1.0 + 1.0 / math.sqrt(max(1.0 - c, EPS * EPS)))
            assert abs(quantum[i] - to_quantum(c, p)) <= tol
        else:
            assert quantum[i] == to_quantum(c, p)


@pytest.mark.parametrize(
    "task, c, p, message",
    [
        ("mcm", np.array([0.2, 0.5, 1.5]), 2.0, "noise p=2.0 outside [0, 1]"),
        ("mcm", np.array([0.2, -0.5, 0.5]), 0.3, "confusability c=-0.5 outside [0, 1]"),
        ("med", 0.4, np.array([0.1, 1.5, -1.0]), "noise p=1.5 outside [0, 1]"),
        ("ud", np.array([0.5, 2.0]), 7.0, "confusability c=2.0 outside [0, 1]"),
    ],
)
def test_bound_curves_raise_for_the_first_bad_point(task, c, p, message):
    # Row by row, with c checked before p as the per-point functions do.
    with pytest.raises(McdiscError, match=f"^{re.escape(message)}$"):
        bound_curves(task, c, p)


def test_ud_curve_ignores_noise():
    cs = np.linspace(0.0, 1.0, 5)
    quantum, nc = bound_curves("ud", cs, 9.0)
    assert quantum.tolist() == [ud_quantum(c).value for c in cs.tolist()]
    assert nc.tolist() == [ud_noncontextual(c).value for c in cs.tolist()]
