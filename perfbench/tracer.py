"""Span tracer for fidest's layer modules, installed without touching them.

``install`` replaces every public function of the layer modules, and the
``__post_init__`` validation and public methods of their classes, with a
wrapper that records a span (name, start, end, parent, tracemalloc bytes at
entry, peak bytes inside).  Functions are replaced in every fidest module
that binds them (``from .linalg import operator_norm`` makes a second
binding), so calls between layers are seen as well as calls into them.
Spans stay in memory; ``aggregate`` and ``rows`` read them at the end.

A span's self time is its duration minus the durations of its direct child
spans; the self times of a tree therefore add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("linalg", "registers", "states", "block_encoding", "sqrt_extractor",
          "amplitude", "pipeline")

# Span fields, kept as lists for speed.
NAME, START, END, PARENT, BASE, PEAK = range(6)


def _dense(counts, args, kwargs):
    """SVD / eigh / QR entry points: add m n min(m, n) for the m x n operand."""
    shape = np.shape(args[0] if args else next(iter(kwargs.values())))
    if len(shape) == 1:  # complete_unitary orthonormalises a d x d basis
        shape = (shape[0], shape[0])
    m, n = shape
    counts["dense_work"] = counts.get("dense_work", 0) + m * n * min(m, n)
    counts["max_dim"] = max(counts.get("max_dim", 0), m, n)


def _grid(counts, args, kwargs):
    m = args[1] if len(args) > 1 else kwargs["M"]
    counts["grid_points"] = counts.get("grid_points", 0) + int(m)


COUNTERS = {
    "linalg.operator_norm": _dense,
    "linalg.trace_norm": _dense,
    "linalg.eig_hermitian": _dense,
    "linalg.complete_unitary": _dense,
    "amplitude.qae_outcome_distribution": _grid,
}


class Tracer:
    """Records spans; with ``memory`` set also the tracemalloc peak inside each
    span.  tracemalloc slows allocation-heavy Python code several-fold, so
    times and memory peaks come from separate traced rounds."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _enter(self, name: str) -> int:
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                top = self.spans[self._stack[-1]]
                top[PEAK] = max(top[PEAK], peak)
            tracemalloc.reset_peak()
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, cur, cur])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _exit(self, idx: int):
        end = time.perf_counter()
        span = self.spans[idx]
        span[END] = end
        self._stack.pop()
        if self.memory:
            span[PEAK] = max(span[PEAK], tracemalloc.get_traced_memory()[1])
            if self._stack:
                parent = self.spans[self._stack[-1]]
                parent[PEAK] = max(parent[PEAK], span[PEAK])
            tracemalloc.reset_peak()

    def wrap(self, name: str, fn):
        hook = COUNTERS.get(name)
        enter, leave, counts = self._enter, self._exit, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(counts, args, kwargs)
            idx = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return traced

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package: str = "fidest"):
        """Wrap the layer modules of an imported ``package``."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    wrapped[id(val)] = self.wrap(f"{layer}.{attr}", val)
                elif inspect.isclass(val):
                    for meth, fn in list(vars(val).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if meth == "__post_init__":
                            self._patch(val, meth, self.wrap(f"{layer}.{attr}", fn))
                        elif not meth.startswith("_"):
                            self._patch(val, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrapped:
                    self._patch(mod, attr, wrapped[id(val)])
        if self.memory:
            tracemalloc.start()

    def uninstall(self):
        if self.memory:
            tracemalloc.stop()
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def aggregate(self, root: str) -> dict:
        """Per span name: calls, total and self seconds, self seconds spent
        under a ``root`` span, and peak bytes above the entry level."""
        selfs = self.self_times()
        under: list[bool] = []
        names: dict[str, dict] = {}
        root_s = 0.0
        for i, span in enumerate(self.spans):
            inside = span[NAME] == root or (span[PARENT] >= 0 and under[span[PARENT]])
            under.append(inside)
            if span[NAME] == root and not (span[PARENT] >= 0 and under[span[PARENT]]):
                root_s += span[END] - span[START]
            st = names.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                "root_self_s": 0.0, "peak_bytes": 0})
            st["calls"] += 1
            st["total_s"] += span[END] - span[START]
            st["self_s"] += selfs[i]
            if inside:
                st["root_self_s"] += selfs[i]
            st["peak_bytes"] = max(st["peak_bytes"], span[PEAK] - span[BASE])
        return {"names": names, "counts": dict(self.counts), "root_s": root_s}

    def rows(self) -> dict:
        """Every span as [name, start, end, parent, peak bytes above entry]."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return {"fields": ["name", "start_s", "end_s", "parent", "peak_bytes"],
                "spans": [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[PEAK] - s[BASE]]
                          for s in self.spans],
                "counts": self.counts}
