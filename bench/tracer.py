"""Outside-in spans around the package's public layer functions.

:class:`Tracer` wraps each function in :data:`TRACED` and rebinds the
wrapper under every name that holds the original in any loaded
``toricmld`` module, because modules such as ``proof`` and ``pairs`` bind
``convex_hull`` and others at import time.  No source file changes.
:meth:`Tracer.uninstall` puts every original back.

Spans are kept in memory as parallel arrays (function, parent span, row,
start, end, result count) and written out once, when the run ends.  A
span's self time is its duration minus the durations of its direct
children; a function's total time counts only its outermost spans, so a
recursive call is not counted twice.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from functools import wraps
from time import perf_counter_ns

# Layer module -> traced public functions.
TRACED = {
    "geometry": (
        "convex_hull",
        "scale_about",
        "normalized_volume",
        "enumerate_points",
        "any_lattice_point",
    ),
    "pairs": ("compute_mld", "validate_pair", "bound_check"),
    "proof": (
        "prove",
        "build_box",
        "verify_bullets",
        "shrink_to_unique",
        "minkowski_certificate",
        "chain_verify",
    ),
    "lattice": ("matrix_rank", "det", "solve", "smith_normal_form"),
    "families": ("sweep",),
}


# Result counts recorded per call.
RESULT_COUNTS = {
    "geometry.convex_hull": lambda hull: len(hull.vertices),
    "geometry.enumerate_points": len,
    "geometry.any_lattice_point": int,
}


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "toricmld" or name.startswith("toricmld."))
    ]


class Tracer:
    """Records one span per call of a traced function while :attr:`active`."""

    def __init__(self):
        self.names: list[str] = []
        self.active = False
        self.row = -1
        self._rebound: list[tuple[object, str, object]] = []
        self._stack: list[int] = [-1]
        self._open = []  # per function: number of its spans on the stack
        self.fn = array("l")
        self.parent = array("l")
        self.rows = array("l")
        self.start = array("q")
        self.end = array("q")
        self.out = array("q")
        self.nested = array("b")

    def install(self) -> None:
        for layer, fnames in TRACED.items():
            module = sys.modules[f"toricmld.{layer}"]
            for fname in fnames:
                original = getattr(module, fname)
                wrapper = self._wrap(original, f"{layer}.{fname}")
                for m in _package_modules():
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._rebound.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._rebound):
            setattr(m, attr, original)
        self._rebound.clear()

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        self._open.append(0)
        count = RESULT_COUNTS.get(name)
        stack, open_, spans_fn, spans_parent = self._stack, self._open, self.fn, self.parent
        spans_row, spans_start, spans_end = self.rows, self.start, self.end
        spans_out, spans_nested = self.out, self.nested

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans_fn)
            spans_fn.append(fid)
            spans_parent.append(stack[-1])
            spans_row.append(self.row)
            spans_nested.append(open_[fid] > 0)
            spans_end.append(0)
            spans_out.append(-1)
            stack.append(sid)
            open_[fid] += 1
            spans_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[sid] = perf_counter_ns()
                open_[fid] -= 1
                stack.pop()
            if count is not None:
                spans_out[sid] = count(result)
            return result

        return wrapper

    # --- results ---------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total and self nanoseconds, summed result counts."""
        n = len(self.fn)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        stats = {
            name: {"calls": 0, "total_ns": 0, "self_ns": 0, "out": 0}
            for name in self.names
        }
        for i in range(n):
            st = stats[self.names[self.fn[i]]]
            dur = self.end[i] - self.start[i]
            st["calls"] += 1
            st["self_ns"] += dur - child_ns[i]
            if not self.nested[i]:
                st["total_ns"] += dur
            if self.out[i] >= 0:
                st["out"] += self.out[i]
        return stats

    def root_ns(self) -> int:
        """Time inside outermost spans: the traced program time."""
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.fn)) if self.parent[i] < 0
        )

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,parent,row,start_ns,end_ns,out\n")
            for i in range(len(self.fn)):
                fh.write(
                    f"{i},{self.names[self.fn[i]]},{self.parent[i]},{self.rows[i]},"
                    f"{self.start[i]},{self.end[i]},{self.out[i]}\n"
                )
