"""Span recording at the boundaries between bott modules.

The traced run replaces, in memory only, the module and class attributes
through which one bott module calls into another (the names `bott.cli`
looks up, and the polynomial routines `bott.admissible` imported).  A
wrapper records a span (name, start, end, parent span, op id) only when
the call crosses from one layer into another; calls inside a layer pass
straight through, so each layer's span count is its number of entries.
The untraced run installs none of this.

Layers are the package modules; `cli` includes `config`.  Object
construction from argv (BottMatrix, AdmissibleData, SquareFiberData)
stays in `cli`, and the small polynomial helpers (peval, pmul, Poly2)
that admissible and almostkahler call directly count toward the caller:
only roots_in_interval, lagrange_interpolate and count_roots_open are
measured as `polynomials`.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import Counter, defaultdict
from time import perf_counter


def _n(args):
    return args[0].n


def _m(args):
    return args[0]


def _vertex_systems(args, result):
    n = args[0].n
    return {"fan.vertex_systems": 2 * n * math.comb(2 * n - 1, n - 1)}


def _bisection_steps(args, result):
    """Halvings refine_root(p, lo, hi, tol) needs to bring hi - lo down to tol."""
    lo, hi, tol = args[1:4]
    ratio = (hi - lo) / tol
    steps = (math.ceil(ratio) - 1).bit_length() if ratio > 1 else 0
    return {"polynomials.bisection_steps": steps}


def _roots_found(args, result):
    return {"polynomials.roots_found": len(result)}


# (module, attribute path, layer, size of the call, counts taken from the call)
HOOKS = [
    ("bott.cli", "equivalence_orbit", "core", _n, None),
    ("bott.cli", "twist", "core", _n, None),
    ("bott.cli", "cotwist", "core", _n, None),
    ("bott.cohomology", "ring", "cohomology", _n, None),
    ("bott.cohomology", "topological_twist", "cohomology", _n, None),
    ("bott.cohomology", "CohomologyRing.alpha", "cohomology", _n, None),
    ("bott.cohomology", "CohomologyRing.y", "cohomology", _n, None),
    ("bott.cohomology", "CohomologyRing.chern_total", "cohomology", _n, None),
    ("bott.cohomology", "CohomologyRing.pontrjagin_total", "cohomology", _n, None),
    ("bott.cohomology", "CohomologyRing.stiefel_whitney_2", "cohomology", _n, None),
    ("bott.fan", "demazure_roots", "fan", _n, _vertex_systems),
    ("bott.fan", "is_reductive", "fan", _n, None),
    ("bott.fan", "DemazureRootSet.is_symmetric", "fan", _n, None),
    ("bott.fan", "is_fano", "fan", _n, None),
    ("bott.fan", "kahler_cone", "fan", _n, None),
    ("bott.fan", "kahler_cone_scan", "fan", _n, None),
    ("bott.topology3", "stage3_invariants", "topology3", None, None),
    ("bott.topology3", "twist1_diffeomorphic", "topology3", None, None),
    ("bott.symplectic", "count_compatible", "symplectic", None, None),
    ("bott.symplectic", "enumerate_compatible", "symplectic", None, None),
    ("bott.admissible", "csc_family_solve", "admissible", _m, None),
    ("bott.admissible", "extremal_polynomial", "admissible", None, None),
    ("bott.admissible", "is_csc", "admissible", None, None),
    ("bott.admissible", "is_positive_on_interval", "admissible", None, None),
    ("bott.admissible", "cproj_transform", "admissible", None, None),
    ("bott.almostkahler", "solve_ak", "almostkahler", None, None),
    ("bott.almostkahler", "system_determinant", "almostkahler", None, None),
    ("bott.almostkahler", "check_positivity", "almostkahler", None, None),
    ("bott.almostkahler", "check_integrability", "almostkahler", None, None),
    ("bott.almostkahler", "default_grid", "almostkahler", None, None),
    ("bott.admissible", "roots_in_interval", "polynomials", None, _roots_found),
    ("bott.admissible", "lagrange_interpolate", "polynomials", None, None),
    ("bott.admissible", "count_roots_open", "polynomials", None, None),
    # called inside polynomials, so it only counts: bisection steps computed
    # from the bracket width and the tolerance
    ("bott.polynomials", "refine_root", "polynomials", None, _bisection_steps),
]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Keeps spans in flat lists; span 0 of each op is its `cli` root."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.sizes: list[int | None] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str, size) -> int:
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.sizes.append(size)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self._op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def root(self, op_id: int, call, *args):
        """Run one op as the `cli` root span."""
        self._op = op_id
        index = self._open("cli.run", "cli", None)
        try:
            return call(*args)
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, layer: str, size, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            if tracer.layers[stack[-1]] == layer:
                result = fn(*args, **kwargs)
            else:
                index = tracer._open(name, layer, size(args) if size else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
            if count:
                tracer.counts.update(count(args, result))
            return result

        return wrapper

    def install(self) -> None:
        for module, path, layer, size, count in HOOKS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            name = f"{layer}.{path.rsplit('.', 1)[-1]}"
            setattr(owner, attr, self._wrap(original, name, layer, size, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def _seconds(self, i: int, scales: list[float]) -> float:
        """Span i's duration, times the scale of its op (see speed.py)."""
        return (self.ends[i] - self.starts[i]) * scales[self.op_ids[i]]

    def self_times(self, scales: list[float]) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer self time (span minus direct child spans) and span count."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self._seconds(i, scales)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, layer in enumerate(self.layers):
            self_s[layer] += self._seconds(i, scales) - child[i]
            calls[layer] += 1
        return self_s, calls

    def span_seconds(self, names: set[str], scales: list[float], size=None) -> float:
        return sum(self._seconds(i, scales) for i, name in enumerate(self.names)
                   if name in names and (size is None or self.sizes[i] == size))

    def rows(self) -> list[list]:
        return [[self.op_ids[i], self.names[i], self.parents[i], self.sizes[i],
                 self.starts[i], self.ends[i]] for i in range(len(self.names))]
