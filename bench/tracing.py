"""Spans around mavar's layers, recorded from outside the package.

install() replaces every public function of the layer modules, and
MeanZeroFrame.operator, with a wrapper that records a span.  It patches
each name where the code looks it up: a function imported by name into
another module (for example mavar.cli.solve_dual_pair or
mavar.ordering.variance_form_reduced) is replaced there too.  The dense
LAPACK entry points mavar calls are wrapped on numpy.linalg and
scipy.linalg as the `linalg` layer.  Spans are kept in memory; the
runner writes them out at the end.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

LAYERS = ("kernel", "poisson", "variational", "ordering", "perturb", "montecarlo",
          "catalog")


def _n(a):
    return np.shape(a)[0] if np.ndim(a) else 0


def _k(b):
    return np.shape(b)[1] if np.ndim(b) > 1 else 1


# nominal flop counts from shapes (Golub & Van Loan); labelled "computed"
LINALG = {
    "eigvals": (np.linalg, lambda a, *_, **__: 10.0 * _n(a) ** 3),
    "eigvalsh": (np.linalg, lambda a, *_, **__: 4.0 / 3.0 * _n(a) ** 3),
    "eigh": (np.linalg, lambda a, *_, **__: 9.0 * _n(a) ** 3),
    "solve": (np.linalg, lambda a, b, *_, **__: 2.0 / 3.0 * _n(a) ** 3
              + 2.0 * _n(a) ** 2 * _k(b)),
    "lu_factor": (scipy.linalg, lambda a, *_, **__: 2.0 / 3.0 * _n(a) ** 3),
    "lu_solve": (scipy.linalg, lambda lu, b, *_, **__: 2.0 * _n(b) ** 2 * _k(b)),
}


def _simulate_steps(P, n_steps, *_, **__):
    return float(n_steps)


WORK = {"montecarlo.simulate": _simulate_steps}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "work")

    def __init__(self, name, start, parent, job, work):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.work = work

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.job, self.work]


class Tracer:
    """Records spans for the job currently set in `job` (None: record nothing)."""

    def __init__(self, error_type=Exception):
        self.spans = []
        self.stack = []
        self.job = None
        self.error_type = error_type
        self.errors = defaultdict(int)  # (job, class name) -> count
        self._patched = []

    def wrap(self, name, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, tracer.stack[-1] if tracer.stack else -1,
                        tracer.job, work(*args, **kwargs) if work else 0.0)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except tracer.error_type as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True  # count each error once, at its first span
                    tracer.errors[(tracer.job, type(exc).__name__)] += 1
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch mavar's layer functions and the LAPACK entry points."""
        replace = {}
        for layer in LAYERS:
            module = sys.modules[f"mavar.{layer}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    replace[id(fn)] = (fn, self.wrap(name, fn, WORK.get(name)))
        for name, module in list(sys.modules.items()):
            if name != "mavar" and not name.startswith("mavar."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        frame = sys.modules["mavar.kernel"].MeanZeroFrame
        self._set(frame, "operator", self.wrap("kernel.operator", frame.operator))
        for attr, (owner, flops) in LINALG.items():
            self._set(owner, attr, self.wrap(f"linalg.{attr}", getattr(owner, attr), flops))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def root(self, name, job, fn, *args, **kwargs):
        """Run fn as the root span of `job`."""
        self.job = job
        try:
            return self.wrap(name, fn)(*args, **kwargs)
        finally:
            self.job = None


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans of one job run on one thread and nest strictly, so children
    never overlap and their durations add.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def outermost(spans):
    """True for spans with no ancestor of the same name, so that inclusive
    time per name counts recursive calls once."""
    flags = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        flags.append(p < 0)
    return flags


def summarize(spans, jobs: int) -> dict:
    """Per-job call counts, inclusive seconds, layer self seconds and work.

    Keys are `<span name>.calls`, `<span name>.s`, `<layer>.self_s` and
    `<span name>.work`, each divided by the number of jobs.
    """
    out = defaultdict(float)
    for span, own, top in zip(spans, self_times(spans), outermost(spans)):
        out[f"{span.name}.calls"] += 1
        if top:
            out[f"{span.name}.s"] += span.end - span.start
        out[f"{span.name.split('.')[0]}.self_s"] += own
        out[f"{span.name}.work"] += span.work
    return {key: value / jobs for key, value in out.items()}
