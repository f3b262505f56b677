"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the engine's modules and rebinds each
wrapper in every ``tannaka_forge.*`` namespace that holds the original, so
calls between modules and inside one module both pass through it.  Every
call records a span (name, start, end, parent, op, size) in memory; the
per-layer metrics are computed from the spans when the run ends.

Hot per-element calls (``RingSpec.add``/``mul``, ``FinModule.reduce``,
``Matrix.apply``) are deliberately not wrapped: their cost shows up as the
self time of their callers.
"""

from __future__ import annotations

import json
import sys
import time


def _cells(args, out):
    return args[0].rows * args[0].cols


def _flat_rank(args, out):
    return out.TR.module.rank


# (module, attribute, span name, size function or None).  A size function
# maps (args, result) to the work count recorded on the span.
TARGETS = [
    ("rings", "ring_make", "rings.ring_make", None),
    ("linalg", "smith", "linalg.smith", _cells),
    ("linalg", "howell", "linalg.howell", None),
    ("linalg", "solve", "linalg.solve", None),
    ("linalg", "kernel", "linalg.kernel", None),
    ("modules", "module_from_presentation", "modules.presentation", _cells),
    ("modules", "map_kernel", "modules.map_kernel", None),
    ("algebra", "tensor_bimodules", "algebra.tensor", _flat_rank),
    ("algebra", "tensor_bim_bmodule", "algebra.tensor", _flat_rank),
    ("algebra", "triple_tensor", "algebra.triple", _flat_rank),
    ("coalgebra", "coalgebra_check", "coalgebra.coalgebra_check", None),
    ("coalgebra", "comodule_check", "coalgebra.comodule_check", None),
    ("coalgebra", "comodule_hom", "coalgebra.comodule_hom", None),
    ("tannaka", "hom_closure", "tannaka.hom_closure", None),
    ("tannaka", "coend", "tannaka.coend", None),
    ("tannaka", "lift_coaction", "tannaka.lift", None),
    ("tannaka", "unit_fully_faithful_check", "tannaka.unit_ff", None),
    ("tannaka", "counit_map", "tannaka.counit", None),
    ("tannaka", "flatness_check", "tannaka.flatness", None),
    ("tannaka", "recognition_check", "tannaka.recognition", None),
    ("mf", "mf_hom", "mf.mf_hom", None),
    ("mf", "mf_to_diagram", "mf.to_diagram", None),
    ("textio", "parse_diagram", "textio.parse", None),
    ("textio", "parse_reconstruct_input", "textio.parse", None),
    ("textio", "parse_mf_objects_spec", "textio.parse", None),
]

# methods wrapped on their class (module, class, method, span name)
METHOD_TARGETS = [
    ("tannaka", "DiagramCategory", "closure_violation", "tannaka.closure_check"),
]

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    """Span recorder; wrappers record only while ``active`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.op = -1
        self.active = False

    def wrap(self, name, fn, size=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, self.op, 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            if size is not None:
                rec[SIZE] = size(args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Bind a wrapper for every target in every loaded engine module."""
        engine = {name: mod for name, mod in sys.modules.items()
                  if name == "tannaka_forge" or name.startswith("tannaka_forge.")}
        for modname, attr, span, size in TARGETS:
            orig = getattr(engine["tannaka_forge." + modname], attr)
            wrapper = self.wrap(span, orig, size)
            for mod in engine.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for modname, cls, meth, span in METHOD_TARGETS:
            klass = getattr(engine["tannaka_forge." + modname], cls)
            orig = klass.__dict__[meth]
            self._restore.append((klass, meth, orig))
            setattr(klass, meth, self.wrap(span, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        self.active = False

    def write(self, path):
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps([i] + rec) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children
    (children of one span never overlap: the run is single-threaded)."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def layer_stats(spans) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans of that
    name only, so recursion is not counted twice), self seconds, summed
    size and largest size."""
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    for i, rec in enumerate(spans):
        st = stats.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "size_sum": 0, "size_max": 0})
        st["calls"] += 1
        st["self_s"] += selfs[i]
        st["size_sum"] += rec[SIZE]
        st["size_max"] = max(st["size_max"], rec[SIZE])
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] != rec[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            st["s"] += rec[END] - rec[START]
    return stats


def time_under(spans, name, ancestor) -> float:
    """Inclusive seconds of spans called ``name`` that run inside a span
    called ``ancestor``."""
    total = 0.0
    for rec in spans:
        if rec[NAME] != name:
            continue
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] != ancestor:
            p = spans[p][PARENT]
        if p >= 0:
            total += rec[END] - rec[START]
    return total


def per_layer_metrics(spans, n_ops: int, ring_builds: int,
                      traced_ops_per_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
    st = layer_stats(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "size_sum": 0, "size_max": 0}

    def g(name, key):
        return st.get(name, zero)[key]

    verify_s = g("coalgebra.coalgebra_check", "s") + g("coalgebra.comodule_check", "s")
    build_s = g("tannaka.coend", "s") - time_under(spans, "coalgebra.coalgebra_check",
                                                   "tannaka.coend")
    return {
        "coalgebra.coalgebra_check_calls": (g("coalgebra.coalgebra_check", "calls"), "count"),
        "coalgebra.coalgebra_check_self_s": (g("coalgebra.coalgebra_check", "self_s"), "s"),
        "coalgebra.comodule_check_calls": (g("coalgebra.comodule_check", "calls"), "count"),
        "coalgebra.comodule_check_s": (g("coalgebra.comodule_check", "s"), "s"),
        "coalgebra.comodule_hom_s": (g("coalgebra.comodule_hom", "s"), "s"),
        "algebra.triple_calls": (g("algebra.triple", "calls"), "count"),
        "algebra.triple_s": (g("algebra.triple", "s"), "s"),
        "algebra.triple_rank_max": (g("algebra.triple", "size_max"), "count"),
        "algebra.tensor_calls": (g("algebra.tensor", "calls"), "count"),
        "algebra.tensor_s": (g("algebra.tensor", "s"), "s"),
        "algebra.tensor_rank_max": (g("algebra.tensor", "size_max"), "count"),
        "linalg.smith_calls": (g("linalg.smith", "calls"), "count"),
        "linalg.smith_s": (g("linalg.smith", "s"), "s"),
        "linalg.smith_cells": (g("linalg.smith", "size_sum"), "count"),
        "linalg.smith_under_triple_s": (time_under(spans, "linalg.smith",
                                                   "algebra.triple"), "s"),
        "linalg.howell_calls": (g("linalg.howell", "calls"), "count"),
        "linalg.howell_s": (g("linalg.howell", "s"), "s"),
        "linalg.solve_calls": (g("linalg.solve", "calls"), "count"),
        "linalg.kernel_calls": (g("linalg.kernel", "calls"), "count"),
        "modules.presentation_calls": (g("modules.presentation", "calls"), "count"),
        "modules.presentation_s": (g("modules.presentation", "s"), "s"),
        "modules.presentation_max_cells": (g("modules.presentation", "size_max"), "count"),
        "modules.map_kernel_s": (g("modules.map_kernel", "s"), "s"),
        "tannaka.closure_check_calls": (g("tannaka.closure_check", "calls"), "count"),
        "tannaka.closure_check_self_s": (g("tannaka.closure_check", "self_s"), "s"),
        "tannaka.hom_closure_s": (g("tannaka.hom_closure", "s"), "s"),
        "tannaka.coend_calls": (g("tannaka.coend", "calls"), "count"),
        "tannaka.coend_self_s": (g("tannaka.coend", "self_s"), "s"),
        "tannaka.lift_s": (g("tannaka.lift", "s"), "s"),
        "tannaka.unit_ff_s": (g("tannaka.unit_ff", "s"), "s"),
        "tannaka.counit_s": (g("tannaka.counit", "s"), "s"),
        "tannaka.flatness_s": (g("tannaka.flatness", "s"), "s"),
        "tannaka.recognition_s": (g("tannaka.recognition", "s"), "s"),
        "tannaka.coend_calls_per_op": (g("tannaka.coend", "calls") / n_ops, "ratio"),
        "tannaka.verify_to_build": (verify_s / build_s if build_s > 0 else 0.0, "ratio"),
        "rings.ring_make_s": (g("rings.ring_make", "s"), "s"),
        "rings.ring_builds": (ring_builds, "count"),
        "mf.mf_hom_calls": (g("mf.mf_hom", "calls"), "count"),
        "mf.mf_hom_s": (g("mf.mf_hom", "s"), "s"),
        "mf.to_diagram_s": (g("mf.to_diagram", "s"), "s"),
        "textio.parse_s": (g("textio.parse", "self_s"), "s"),
        "cli.self_s": (g("cli.main", "self_s"), "s"),
        "bench.traced_ops_per_s": (traced_ops_per_s, "ops/s"),
    }
