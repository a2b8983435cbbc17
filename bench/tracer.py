"""In-memory span tracer that wraps mcdisc's public functions from outside.

Nothing under src/ is touched: `install` rebinds every public function of
each package module, wherever it is bound (including names imported into
other modules, such as `cli.certify_qubit`), plus the dataclass
constructors whose validation costs time, the scipy.optimize entry points
used by `certify`, and `numpy.linalg.eigvalsh`. A wrapper records a span
only while an op is open, so input generation and correctness checks run
untraced even after installation.

A span is (name, start_ns, end_ns, parent_index, op_id). Self time is the
span's duration minus the time covered by its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import types
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("qmath", "ensembles", "strategies", "ncmodel", "certify", "oracle", "simulator", "cli")

# Dataclass constructors that validate their input (eigendecompositions,
# PSD checks); their cost is attributed to the layer that defines them.
CONSTRUCTORS = (
    ("strategies", "Povm"),
    ("ensembles", "DensityMatrix"),
    ("ensembles", "Ensemble"),
)

OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None
        self.counters = defaultdict(float)

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def run_op(self, op_id, fn):
        """Run fn() as the root span of op op_id; returns its result."""
        self.op_id = op_id
        try:
            return self.wrap(OP_SPAN, fn)()
        finally:
            self.op_id = None

    def self_times(self):
        """Per-span self time in ns, aligned with self.spans."""
        child = [0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_n, start, end, _p, _o) in enumerate(self.spans)]

    def write(self, path):
        """Write spans as tab-separated lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{op}\n")


def install(tracer):
    """Rebind mcdisc's public callables to traced wrappers; returns the names wrapped."""
    import numpy as np

    modules = [importlib.import_module(f"mcdisc.{layer}") for layer in LAYERS]
    modules.append(importlib.import_module("mcdisc"))
    wrapped = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.split(".")
            if home[0] != "mcdisc" or len(home) < 2:
                continue
            if id(obj) not in wrapped:
                wrapped[id(obj)] = tracer.wrap(f"{home[1]}.{obj.__name__}", obj)
            setattr(module, attr, wrapped[id(obj)])

    for layer, cls_name in CONSTRUCTORS:
        cls = getattr(importlib.import_module(f"mcdisc.{layer}"), cls_name)
        cls.__post_init__ = tracer.wrap(f"{layer}.{cls_name}", cls.__post_init__)

    def count_nfev(result):
        tracer.counters["scipy.optimize.nfev"] += getattr(result, "nfev", 0)

    certify = importlib.import_module("mcdisc.certify")
    optimize = certify.optimize
    certify.optimize = types.SimpleNamespace(
        minimize=tracer.wrap("scipy.optimize.minimize", optimize.minimize, count_nfev),
        minimize_scalar=tracer.wrap(
            "scipy.optimize.minimize_scalar", optimize.minimize_scalar, count_nfev
        ),
    )
    np.linalg.eigvalsh = tracer.wrap("numpy.linalg.eigvalsh", np.linalg.eigvalsh)
    return sorted({w.__wrapped__.__module__ + "." + w.__name__ for w in wrapped.values()})
