"""Span tracing around the public functions of liemap, from outside.

``Tracer.install()`` wraps each function listed in ``SPANS`` at every
binding site: the defining module, every ``liemap`` module that imported it
by name (``maps`` imports ``evaluate`` and ``normal_form`` from ``freelie``),
or the class that owns it.  While ``active`` is set, each call records a span
``(name, start, end, parent, op)`` in memory; the functions in ``COUNTERS``
are only counted.  Worker processes forked by the library keep their own
copies, so work done inside them shows only in the span that forked them.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (span name, module, class or None, attribute)
SPANS = (
    ("maps.engel_solve", "maps", None, "engel_solve"),
    ("maps.central_image_probe", "maps", None, "central_image_probe"),
    ("maps.image_scan", "maps", None, "image_scan"),
    ("maps.engel_image_scan", "maps", None, "engel_image_scan"),
    ("maps.is_identity_sl2", "maps", None, "is_identity_sl2"),
    ("maps.dominance_witness_check", "maps", None, "dominance_witness_check"),
    ("maps.dominance_witness_search", "maps", None, "dominance_witness_search"),
    ("chevalley.ChevalleyAlgebra.init", "chevalley", "ChevalleyAlgebra", "__init__"),
    ("chevalley.center", "chevalley", "ChevalleyAlgebra", "center"),
    ("chevalley.is_central", "chevalley", "ChevalleyAlgebra", "is_central"),
    ("chevalley.find_regular", "chevalley", "ChevalleyAlgebra", "find_regular"),
    ("chevalley.conjugate_into_U", "chevalley", "ChevalleyAlgebra", "conjugate_into_U"),
    ("chevalley.root_automorphism", "chevalley", "ChevalleyAlgebra", "root_automorphism"),
    ("chevalley.bracket", "chevalley", "ChevalleyAlgebra", "bracket"),
    ("chevalley.LieAutomorphism.compose", "chevalley", "LieAutomorphism", "compose"),
    ("chevalley.LieAutomorphism.apply", "chevalley", "LieAutomorphism", "apply"),
    ("linalg.mat_mul", "linalg", None, "mat_mul"),
    ("linalg.mat_vec", "linalg", None, "mat_vec"),
    ("linalg.rref", "linalg", None, "rref"),
    ("linalg.solve", "linalg", None, "solve"),
    ("linalg.kernel_basis", "linalg", None, "kernel_basis"),
    ("matrixrep.Realization.matrix_coords", "matrixrep", "Realization", "matrix_coords"),
    ("matrixrep.char_invariants", "matrixrep", None, "char_invariants"),
    ("matrixrep.theta_separates", "matrixrep", None, "theta_separates"),
    ("freelie.evaluate", "freelie", None, "evaluate"),
    ("freelie.normal_form", "freelie", None, "normal_form"),
    ("freelie.EngelSpec.roots_in", "freelie", "EngelSpec", "roots_in"),
    ("rootsystem.build_root_system", "rootsystem", None, "build_root_system"),
)
# (counter name, module, class, attributes): counted, no span
COUNTERS = (
    ("scalar.FpElement.mul", "scalar", "FpElement", ("__mul__", "__rmul__")),
    ("scalar.FpElement.add", "scalar", "FpElement", ("__add__", "__radd__")),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None            # identifier shared by the spans of one op
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.op)
        return traced

    def _counter(self, name, fn):
        def counted(*args):
            if self.active:
                self.counts[name] += 1
            return fn(*args)
        return counted

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every listed function.  liemap must already be imported."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "liemap" or n.startswith("liemap."))]
        for name, mod, cls, attr in SPANS:
            owner = sys.modules["liemap." + mod]
            if cls is not None:
                owner = getattr(owner, cls)
                self._patch(owner, attr, self._span(name, getattr(owner, attr)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._span(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapped)
        for name, mod, cls, attrs in COUNTERS:
            owner = getattr(sys.modules["liemap." + mod], cls)
            for attr in attrs:
                self._patch(owner, attr, self._counter(name, getattr(owner, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def summarize(spans):
    """Per span name: calls, total seconds and self seconds.  Self time is a
    span's duration minus the durations of its direct children, which never
    overlap because the traced code is single-threaded."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (t1 - t0), own + (t1 - t0) - child[i])
    return out


def nearest_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][3]
    return -1
