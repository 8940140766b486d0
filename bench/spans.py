"""Span tracing of obslab from outside the package.

``patched(tracer)`` replaces every public function of every obslab module by a
timing wrapper, in every module namespace that binds it (so a call from
``obslab.inequalities`` to ``assemble_gram`` is caught as well as one from
``obslab.cli``), and wraps ``scipy.linalg.eigh`` and ``eigvalsh`` as the
``inequalities.eigensolve`` span. Private helpers are not wrapped; their time
is self time of the public caller. Everything is restored on exit.

Spans are kept in memory: name, wall start and end, process CPU start and end,
parent span, op id, error flag and computed counts. Self time is a span's
duration minus the durations of its direct children; calls are synchronous,
so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "diophantine", "inequalities", "observation", "spectrum", "states")
EIGENSOLVE = "inequalities.eigensolve"
ROOT = "bench.op"


class Span:
    __slots__ = ("name", "parent", "op", "t0", "t1", "c0", "c1", "error", "counts")

    def __init__(self, name, parent, op, counts):
        self.name = name
        self.parent = parent
        self.op = op
        self.counts = counts
        self.error = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu(self) -> float:
        return self.c1 - self.c0


class Tracer:
    """Collects spans of synchronous calls; one tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def call(self, name, fn, args, kwargs, counter=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.op, counter(*args, **kwargs) if counter else None)
        self._stack.append(span)
        span.c0 = time.process_time()
        span.t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            span.error = True
            raise
        finally:
            span.t1 = time.perf_counter()
            span.c1 = time.process_time()
            self._stack.pop()
            self.spans.append(span)

    def run_op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as the root span of one op."""
        self.op = op_id
        try:
            return self.call(ROOT, fn, args, {})
        finally:
            self.op = None


# ---------------------------------------------------------------------------
# computed counts, from argument sizes


def _gram_counts(spec, mode_set):
    return {"bytes": 16 * (2 * len(mode_set)) ** 2}


def _eigensolve_counts(a, *args, eigvals_only=False, **kwargs):
    n = a.shape[0]
    complex_factor = 4 if a.dtype.kind == "c" else 1
    # Householder tridiagonalisation ~4/3 n^3; with eigenvectors ~9 n^3 in all
    per_n3 = 4.0 / 3.0 if eigvals_only else 9.0
    return {"dim": n, "flops": complex_factor * per_n3 * n**3}


def _eigvalsh_counts(a, *args, **kwargs):
    return _eigensolve_counts(a, eigvals_only=True)


def _oracle_counts(state, spec, resolution):
    # nodes of the tensor Simpson grid the oracle's sum stands for; the strip
    # regions (t, x1, x2) evaluate it through per-axis factors
    nodes = resolution + (resolution % 2) + 1
    kind = type(spec.region).__name__
    if kind in ("VerticalStrip", "HorizontalStrip"):
        points = nodes**3
    elif kind == "CrossStrips":
        points = 3 * nodes**3
    elif kind == "VerticalSegments":
        points = len(spec.region.segments) * nodes**2
    elif kind == "BoundaryGamma0":
        points = 2 * nodes**2
    else:
        points = nodes**2
    return {"grid_points": points}


def _gamma_counts(points, K_max):
    return {"steps": int(K_max) * points.M}


def _gap_counts(frequencies, n, indices=None):
    count = len(frequencies)
    return {"pairs": count * (count - 1) // 2}


COUNTERS = {
    "observation.assemble_gram": _gram_counts,
    "observation.quadrature_oracle": _oracle_counts,
    "diophantine.estimate_gamma": _gamma_counts,
    "spectrum.partial_gap_analysis": _gap_counts,
}


# ---------------------------------------------------------------------------
# patching


def _wrapper(tracer, name, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, counter)

    return traced


def obslab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "obslab" or name.startswith("obslab.")]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap the public obslab functions and the eigensolvers; restore on exit."""
    import scipy.linalg

    saved = []
    wrappers = {}

    def install(namespace, attr, fn, name, counter=None):
        if fn not in wrappers:
            wrappers[fn] = _wrapper(tracer, name, fn, counter)
        saved.append((namespace, attr, fn))
        setattr(namespace, attr, wrappers[fn])

    try:
        for module in obslab_modules():
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__.startswith("obslab.")
                ):
                    name = f"{value.__module__.split('.', 1)[1]}.{value.__name__}"
                    install(module, attr, value, name, COUNTERS.get(name))
        install(scipy.linalg, "eigh", scipy.linalg.eigh, EIGENSOLVE, _eigensolve_counts)
        install(scipy.linalg, "eigvalsh", scipy.linalg.eigvalsh, EIGENSOLVE, _eigvalsh_counts)
        yield tracer
    finally:
        for namespace, attr, fn in reversed(saved):
            setattr(namespace, attr, fn)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> dict:
    """Map each span to (self wall, self cpu): its own minus its children's."""
    child_wall = defaultdict(float)
    child_cpu = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_wall[id(s.parent)] += s.wall
            child_cpu[id(s.parent)] += s.cpu
    return {id(s): (s.wall - child_wall[id(s)], s.cpu - child_cpu[id(s)]) for s in spans}


def aggregate(spans) -> dict:
    """Per-name and per-layer totals: calls, self_s, cpu_s, errors and counts."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        wall, cpu = own[id(s)]
        for key in (s.name, s.layer):
            out[f"{key}.self_s"] += wall
            out[f"{key}.cpu_s"] += cpu
            out[f"{key}.errors"] += int(s.error)
        out[f"{s.name}.calls"] += 1
        for key, value in (s.counts or {}).items():
            if key == "dim":
                out[f"{s.name}.dim"] = max(out[f"{s.name}.dim"], value)
            else:
                out[f"{s.name}.{key}"] += value
    return dict(out)


def op_coverage(spans) -> list:
    """Per op: summed self time of the package layers over the op's wall time."""
    own = self_times(spans)
    layer_self = defaultdict(float)
    wall = {}
    for s in spans:
        if s.name == ROOT:
            wall[s.op] = s.wall
        elif s.layer in LAYERS:
            layer_self[s.op] += own[id(s)][0]
    return [layer_self[op] / wall[op] if wall[op] > 0 else math.nan for op in sorted(wall)]
