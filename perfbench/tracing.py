"""Per-layer tracing: wrappers around the public functions of each layer.

The wrappers are installed only for the traced run. Each call records a
span (function, parent span, start, end) in flat in-memory arrays; when the
run ends the spans are aggregated to calls, self time and total time per
function. Self time is a span's duration minus that of its direct child
spans. Total time counts only the outermost span of a function, so a
function reached again below itself is not counted twice. Private helpers
such as ``holonomy._exp_series`` are not wrapped: their time shows in the
caller's self time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute path) for every wrapped function
TARGETS = (
    ("grassmann.gc_mul", "grassmann", "gc_mul"),
    ("grassmann.merge_sign", "grassmann", "merge_sign"),
    ("lierep.SuperMatrix.matmul", "lierep", "SuperMatrix.__matmul__"),
    ("lierep.fuse_traces", "lierep", "fuse_traces"),
    ("fields.FourierField.evaluate", "fields", "FourierField.evaluate"),
    ("fields.field_obstruction", "fields", "field_obstruction"),
    ("geometry.PLLoop.init", "geometry", "PLLoop.__init__"),
    ("geometry.PLLoop.normal_form", "geometry", "PLLoop.normal_form"),
    ("holonomy.transport", "holonomy", "transport"),
    ("holonomy.insertion_matrix", "holonomy", "insertion_matrix"),
    ("holonomy.gen_transport", "holonomy", "gen_transport"),
    ("holonomy.insertion_derivative", "holonomy", "insertion_derivative"),
    ("holonomy.wilson", "holonomy", "wilson"),
    ("strings.intersections", "strings", "intersections"),
    ("strings.concatenate", "strings", "concatenate"),
    ("strings.string_bracket", "strings", "string_bracket"),
    ("strings.StringCycle.init", "strings", "StringCycle.__init__"),
    ("strings.jacobi_residual", "strings", "jacobi_residual"),
    ("strings.goldman_torus", "strings", "goldman_torus"),
    ("brackets.wilson_field_bracket", "brackets", "wilson_field_bracket"),
    ("brackets.main_theorem_sides", "brackets", "main_theorem_sides"),
    ("brackets.fundamental_identity_check", "brackets", "fundamental_identity_check"),
    ("chords.evaluate_diagram", "chords", "evaluate_diagram"),
    ("phasespace.graded_bracket", "phasespace", "graded_bracket"),
)


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.outermost = array("b")
        self.crossings = 0
        self._stack = [-1]
        self._active = [0] * len(TARGETS)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        outermost, stack, active = self.outermost, self._stack, self._active
        count_crossings = TARGETS[idx][0] == "strings.intersections"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            outermost.append(active[idx] == 0)
            ends.append(0.0)
            active[idx] += 1
            stack.append(span)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
                active[idx] -= 1
            if count_crossings:
                self.crossings += len(out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap each target and rebind it in every stringtop module that binds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items()) if name == "stringtop" or name.startswith("stringtop.")]
        for idx, (_, module, path) in enumerate(TARGETS):
            owner = sys.modules[f"stringtop.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(idx, orig)
            if cls_path:
                self._bind(owner, attr, orig, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._bind(mod, name, orig, wrapper)

    def _bind(self, owner, name: str, orig, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def aggregate(self) -> dict[str, float]:
        """calls, self_s and total_s per wrapped function, plus crossings."""
        count = len(TARGETS)
        names = np.frombuffer(self.names, dtype=np.uint16).astype(np.intp)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(names, minlength=count)
        self_s = np.bincount(names, weights=dur - child, minlength=count)
        total_s = np.bincount(names[outer], weights=dur[outer], minlength=count)
        out: dict[str, float] = {}
        for idx, (prefix, _, _) in enumerate(TARGETS):
            out[f"{prefix}.calls"] = int(calls[idx])
            out[f"{prefix}.self_s"] = float(self_s[idx])
            out[f"{prefix}.total_s"] = float(total_s[idx])
        out["strings.crossings"] = self.crossings  # summed lengths of the intersections results
        return out
