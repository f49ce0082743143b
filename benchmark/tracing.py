"""In-memory spans around the library's public functions.

Every module of the package that binds one of the traced functions gets its
own wrapper, so a span knows which module made the call: the solver's
``embed_poset`` and the coloring module's ``embed_poset`` are told apart.
A span is a name, a start, an end, the span that was open when it began,
and whether the call returned something other than None.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# layer -> public functions recorded as spans named "<layer>.<function>"
TRACED = {
    "lattice": ("subset_permutation_table", "interval_members"),
    "posets": ("embed_poset",),
    "coloring": ("has_rainbow", "validate"),
    "constructions": ("chain_interval_coloring", "incomparable_traces",
                      "random_chain_family", "chain_family_coloring",
                      "lift3_coloring", "p3_total_coloring", "pk_coloring"),
    "solver": ("solve_min_class", "az_decompose", "greedy_tuples_and_cover"),
    "bounds": ("eq_sweep", "g_of_l", "delta_sequence", "solve_c0", "formula_A2"),
    "verify": ("verify_suite",),
    "cli": ("main",),
}

PACKAGE = "rainbow_lattice"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.found = array("b")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.found.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, found: bool) -> None:
        self.end[idx] = perf_counter()
        self.found[idx] = found
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx, True)

    def wrap(self, fn, name: str):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, result is not None)

        return traced

    # -- analysis ----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds (inclusive
        minus the time covered by child spans) and calls that returned a
        value."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(count):
            row = out.setdefault(self.names[self.name[i]],
                                 {"calls": 0, "s": 0.0, "self_s": 0.0, "found": 0})
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            row["found"] += self.found[i]
        return out

    def write(self, path) -> None:
        data = {"names": self.names, "name": self.name.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "found": self.found.tolist()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding of a traced function, in every loaded module of
    the package, by a wrapper that records "<layer>.<function>@<module>"."""
    originals = {}
    for layer, fns in TRACED.items():
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for fn in fns:
            originals[id(getattr(module, fn))] = f"{layer}.{fn}"
    patched = []
    for module in _package_modules():
        caller = module.__name__.rpartition(".")[2]
        for attr, value in list(vars(module).items()):
            label = originals.get(id(value))
            if label is not None and callable(value):
                setattr(module, attr, tracer.wrap(value, f"{label}@{caller}"))
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
