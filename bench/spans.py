"""Spans and counters for the traced run, recorded from outside the program.

After each fresh import the tracer replaces the public functions listed in
TARGETS with wrappers.  A module-level function is replaced at every binding
that holds it, so a name imported into another module (for example
``alcove.resolution.reduce_point_to_cone`` or ``alcove.cli.fusion_table_json``)
is traced too; methods are replaced on their class.  A target that the
library no longer has is reported as missing, not fatal.

Each call records a span (name, start, end, parent span, job id).  A span's
self time is its duration minus the durations of its direct children, and a
layer's self time is the sum over its spans.  The pure Fraction helpers
(``pairing``, ``wall_value``) are called millions of times and are not
wrapped: their cost shows in the self time of the spans that call them.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from typing import Callable
from time import perf_counter

LAYERS = ("lie", "affine", "groupring", "fusion", "resolution", "prequant", "intlinalg", "cli")


def _nnz(matrices) -> int:
    return sum(1 for M in matrices.values() for row in M for v in row if v)


def _distinct(name, key):
    def hook(tracer, args, kwargs, result):
        tracer.distinct[name].add(key(*args, **kwargs))
    return hook


def _count(name, amount):
    def hook(tracer, args, kwargs, result):
        tracer.counts[name] += amount(args, result)
    return hook


def _orbit_context(tracer, args, kwargs, result):
    ctx = args[0]
    tracer.contexts[id(ctx)] = ctx


def _truncated(tracer, args, kwargs, result):
    tracer.counts["resolution.basis_cells"] += sum(len(b) for b in result.bases)
    tracer.counts["resolution.matrix_nnz"] += _nnz(result.matrices)


# (layer, "module" or "module.Class", function, hook after a call or None).
# The layer is the module that defines the function.  Besides the functions
# the per-layer metrics name, every function that the benchmark or another
# layer calls is wrapped, so that its time is charged to its own layer.
TARGETS = [
    ("lie", "lie", "build_lie_data", None),
    ("lie", "lie", "face_data", None),
    ("lie", "lie", "weyl_elements", None),
    ("affine", "affine.OrbitContext", "ensure_length", _orbit_context),
    ("affine", "affine", "crossing_length", None),
    ("affine", "affine", "reduce_point_to_cone", None),
    ("affine", "affine", "reduce_point_to_alcove", None),
    ("affine", "affine", "cone_position", None),
    ("affine", "affine", "dominantize_walls", None),
    ("groupring", "groupring", "reskew_to", None),
    ("fusion", "fusion", "weyl_dimension", None),
    ("fusion", "fusion", "dominant_weight_multiplicities",
     _distinct("fusion.dominant_weight_multiplicities.misses",
               lambda data, mu: (str(data.lie_type), tuple(mu)))),
    ("fusion", "fusion", "tensor_decompose",
     _distinct("fusion.tensor_decompose.misses",
               lambda data, lam, mu: (str(data.lie_type),) + tuple(sorted((tuple(lam), tuple(mu)))))),
    ("fusion", "fusion", "quotient_map", None),
    ("fusion", "fusion", "fusion_product", None),
    ("fusion", "fusion", "fusion_table", _count("fusion.constants", lambda a, r: len(r))),
    ("fusion", "fusion", "fusion_table_json", None),
    ("fusion", "fusion", "holomorphic_induction", None),
    ("fusion", "fusion", "ideal_membership", None),
    ("resolution", "resolution.OrbitComplex", "truncated", _truncated),
    ("resolution", "resolution.OrbitComplex", "boundary", None),
    ("resolution", "resolution.OrbitComplex", "homotopy", None),
    ("resolution", "resolution.OrbitComplex", "contract_cycle", None),
    ("resolution", "resolution.OrbitComplex", "random_cycle", None),
    ("resolution", "resolution.OrbitComplex", "homology_report", None),
    ("resolution", "resolution", "certificate_json", None),
    ("resolution", "resolution", "verify_certificate", None),
    ("intlinalg", "intlinalg", "column_reduce",
     _count("intlinalg.column_reduce.cells", lambda a, r: len(a[0]) * a[1])),
    ("intlinalg", "intlinalg", "kernel_basis", None),
    ("intlinalg", "intlinalg", "rank", None),
    ("intlinalg", "intlinalg", "invariant_factors", None),
    ("prequant", "prequant", "prequant_catalog", _count("prequant.classes", lambda a, r: len(r))),
    ("prequant", "prequant", "quantize", None),
    # the CLI writes into the benchmark's in-memory stdout
    ("cli", "cli", "main",
     _count("cli.bytes_out", lambda a, r: len(getattr(sys.stdout, "getvalue", str)().encode()))),
]

# Counters filled by the hooks above; a distinct-argument count is a cache
# miss count, valid because the library's caches never evict.
COUNTERS = (
    "fusion.constants",
    "fusion.dominant_weight_multiplicities.misses",
    "fusion.tensor_decompose.misses",
    "resolution.basis_cells",
    "resolution.matrix_nnz",
    "intlinalg.column_reduce.cells",
    "prequant.classes",
    "cli.bytes_out",
)

# Counts that depend only on the code and the seed; two traced rounds or runs
# must give the same values.
EXACT_COUNTS = (
    "fusion.constants",
    "resolution.basis_cells",
    "resolution.matrix_nnz",
    "affine.orbit_points",
    "intlinalg.column_reduce.calls",
    "fusion.tensor_decompose.calls",
    "fusion.tensor_decompose.misses",
)


class Tracer:
    """Records the spans and counters of one round."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, job)
        self.current = -1
        self.job = None
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.contexts: dict = {}  # OrbitContexts seen, for affine.orbit_points
        self.missing: list[str] = []

    def install(self, lib) -> None:
        """Wrap every target in a freshly imported library."""
        modules = [lib.package] + [getattr(lib, name) for name in lib.modules]
        for layer, owner, func, hook in TARGETS:
            module, _, cls = owner.partition(".")
            holder = getattr(getattr(lib, module, None), cls, None) if cls else getattr(lib, module, None)
            original = getattr(holder, func, None)
            if original is None:
                self.missing.append(f"{owner}.{func}")
                continue
            wrapped = self._wrap(f"{layer}.{func}", original, hook)
            if cls:
                setattr(holder, func, wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _wrap(self, name, fn, hook):
        tracer = self
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            index = len(spans)
            spans.append(None)
            tracer.current = index
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.current = parent
                spans[index] = (name, start, end, parent, tracer.job)
            if hook is not None:
                hook(tracer, args, kwargs, return_value)
            return return_value

        return traced

    def summary(self, seconds: Callable[[float, float], float]) -> dict[str, float]:
        """Per-function calls and self times, per-layer self times, and the
        named counters of the round.  ``seconds(start, end)`` turns a span's
        time points into its duration."""
        durations = [seconds(start, end) for _, start, end, _, _ in self.spans]
        children = [0.0] * len(self.spans)
        for (_, _, _, parent, _), duration in zip(self.spans, durations):
            if parent >= 0:
                children[parent] += duration
        calls: Counter = Counter()
        own: Counter = Counter()
        for (name, *_), duration, inner in zip(self.spans, durations, children):
            calls[name] += 1
            own[name] += duration - inner
            own[name.split(".")[0]] += duration - inner
        out: dict[str, float] = {}
        for layer, owner, func, _ in TARGETS:
            name = f"{layer}.{func}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = own[layer]
        out.update({name: self.counts[name] for name in COUNTERS})
        out.update({name: len(keys) for name, keys in self.distinct.items()})
        # every enumerated orbit point sits in its context's length table
        tables = [getattr(ctx, "_length", None) for ctx in self.contexts.values()]
        if None in tables:
            self.missing.append("affine.OrbitContext._length")
        out["affine.orbit_points"] = sum(len(t) for t in tables if t is not None)
        td_calls = out["fusion.tensor_decompose.calls"]
        out["fusion.tensor_decompose.hit_ratio"] = (
            1 - out["fusion.tensor_decompose.misses"] / td_calls if td_calls else 0.0
        )
        return out
