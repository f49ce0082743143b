"""Partial colorings of B_n, class statistics, and rainbow-copy validation.

A rainbow copy of a forbidden poset is a copy all of whose sets are colored
with pairwise distinct colors; uncolored sets never participate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from . import lattice
from .kernel import RainbowKernel
from .posets import Poset, build_poset, builtin_name, embed_poset

UNCOLORED = 0
_BYTES = bytes(range(256))


@dataclass
class Coloring:
    """Assignment of each subset id to a color in 1..l, or 0 for uncolored:
    `assign` is a bytearray with one byte per set."""

    n: int
    l: int
    assign: bytearray

    def __post_init__(self):
        lattice.check_dimension(self.n)
        lattice.check_colors(self.l)
        if len(self.assign) != 1 << self.n:
            raise ValueError(f"assignment length {len(self.assign)} != 2^{self.n}")
        # the one conversion; deleting the bytes 0..l then leaves nothing iff
        # every color is in range.  Only a rejection scans for the first bad value.
        try:
            self.assign = bytearray(self.assign)
            ok = not self.assign.translate(None, _BYTES[:self.l + 1])
        except (TypeError, ValueError):
            ok = False
        if not ok:
            bad = next(v for v in self.assign if not (isinstance(v, int) and 0 <= v <= self.l))
            raise ValueError(f"color {bad} outside 0..{self.l}")

    @classmethod
    def empty(cls, n: int, l: int) -> "Coloring":
        return cls(n, l, bytes(1 << n))

    def color_of(self, bits: int) -> int:
        return self.assign[bits]

    def is_total(self) -> bool:
        return UNCOLORED not in self.assign

    def colored_ids(self) -> list[int]:
        return [s for s, v in enumerate(self.assign) if v]

    def class_ids(self, color: int) -> list[int]:
        return [s for s, v in enumerate(self.assign) if v == color]

    def copy(self) -> "Coloring":
        return Coloring(self.n, self.l, self.assign)

    def relabeled(self, color_map) -> "Coloring":
        """Apply a permutation of the colors 1..l (dict or sequence of images)."""
        images = bytes([0, *(color_map[v] for v in range(1, self.l + 1))])
        return Coloring(self.n, self.l, self.assign.translate(images + _BYTES[self.l + 1:]))

    def permuted(self, perm) -> "Coloring":
        """Apply a permutation of ground elements (image form over range(n))."""
        out = bytearray(len(self.assign))
        for t, v in zip(lattice.subset_permutation_table(self.n, perm), self.assign):
            out[t] = v
        return Coloring(self.n, self.l, out)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "l": self.l, "colors": list(self.assign)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Coloring":
        """Inverse of to_json_dict; a ValueError names a missing or
        malformed field."""
        if not isinstance(data, dict):
            raise ValueError("a coloring is a JSON object with fields n, l and colors")
        n, l, colors = data.get("n"), data.get("l"), data.get("colors")
        for key, value in (("n", n), ("l", l)):
            if type(value) is not int:  # bool is an int subclass, a float truncates
                raise ValueError(f"coloring field {key!r} is missing or not an integer")
        if not isinstance(colors, list) or not all(type(v) is int for v in colors):
            raise ValueError("coloring field 'colors' is missing or not a list of integers")
        return cls(n, l, colors)


@dataclass(frozen=True)
class ClassStats:
    sizes: tuple[int, ...]
    uncolored: int
    min_size: int


def class_stats(c: Coloring) -> ClassStats:
    """Exact per-class counts; an empty class makes min_size zero."""
    sizes = [c.assign.count(v) for v in range(c.l + 1)]
    per_class = tuple(sizes[1:])
    return ClassStats(per_class, sizes[0], min(per_class))


@dataclass(frozen=True)
class PosetFamily:
    """A nonempty family of forbidden posets plus the copy mode."""

    members: tuple[Poset, ...]
    mode: str = "induced"

    def __post_init__(self):
        if not self.members:
            raise ValueError("forbidden family must be nonempty")
        if self.mode not in ("induced", "weak"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def from_spec(cls, spec: str, mode: str = "induced") -> "PosetFamily":
        """Members separated by the commas outside explicit poset objects,
        as in 'P3,{"size": 2, "relations": [[0, 1]]}'."""
        tokens, depth, start = [], 0, 0
        for i, ch in enumerate(spec):
            depth += (ch in "{[") - (ch in "}]")
            if ch == "," and not depth:
                tokens.append(spec[start:i])
                start = i + 1
        tokens.append(spec[start:])
        return cls(tuple(build_poset(tok) for tok in tokens if tok.strip()), mode)

    def spec_string(self) -> str:
        return ",".join(p.name or f"{{size:{p.size}}}" for p in self.members)

    def within(self, l: int) -> list[tuple[int, Poset]]:
        """The (index, member) pairs an l-coloring can make rainbow: the first
        of each shape (builtin_name, else the labelled poset; A3,A3 reads as
        A3) with at most l elements.  Each member dropped for size warns."""
        kept = {}
        for idx, p in enumerate(self.members):
            if p.size <= l:
                kept.setdefault(builtin_name(p) or p, (idx, p))
            else:
                warnings.warn(f"forbidden poset {p!r} has more elements than colors "
                              f"(l={l}); vacuously avoided", stacklevel=3)
        return list(kept.values())

    def builtin_key(self, l: int) -> tuple[str, ...] | None:
        """The sorted builtin names of the members within(l), or None when
        one of them is no builtin: the key every spelling of a family shares."""
        names = [builtin_name(p) for _, p in self.within(l)]
        return None if None in names else tuple(sorted(names))

    def certified_min(self, c: Coloring, kind: str) -> int | None:
        """The smallest class of c, or None when c has a rainbow copy of a
        member or, for kind "total", an uncolored set."""
        if kind == "total" and not c.is_total() or has_rainbow(c, self):
            return None
        return class_stats(c).min_size


@dataclass(frozen=True)
class RainbowWitness:
    member_index: int
    poset: Poset
    sets: tuple[int, ...]            # ascending subset ids
    embedding: dict = field(compare=False)
    colors: tuple[int, ...] = ()


def has_rainbow(c: Coloring, forbidden: PosetFamily) -> bool:
    """Fast existence check: no witness minimization; warns of a dropped member."""
    members = [p for _, p in forbidden.within(c.l)]
    return bool(members) and RainbowKernel(c.n, c.l, members, forbidden.mode, c.assign).scan()


def _lexmin_sets(poset: Poset, must: int | None, kernel: RainbowKernel):
    """Witness set-tuple that is lexicographically least when sorted
    ascending, or None when poset has no rainbow copy (through must).

    Greedy: the next set is the least x such that some copy uses the sets
    chosen so far, x and must, and otherwise only sets above x, among the
    sets above the last one chosen and not above must until must is chosen.
    Each position is one step the kernel builds once from the required sets
    (those chosen and a pending must) and asks of each candidate (least_using).
    """
    chosen: list[int] = []
    while len(chosen) < poset.size:
        cand = -1 << chosen[-1] + 1 if chosen else -1
        pending = must is not None and must not in chosen
        if pending:
            cand &= (2 << must) - 1
        x = kernel.least_using(poset, chosen + [must] if pending else chosen, cand)
        if x is None:
            if not chosen:
                return None
            raise AssertionError("witness disappeared during minimization")
        chosen.append(x)
    return tuple(chosen)


def _best_witness(c: Coloring, forbidden: PosetFamily, must: int | None) -> RainbowWitness | None:
    mode = forbidden.mode
    members = forbidden.within(c.l)
    if not members:
        return None
    for _, p in members:
        if mode == "weak" and p.is_antichain() and p.size >= 2:
            warnings.warn(f"weak antichain {p!r} is degenerate: any {p.size} distinctly "
                          "colored sets form a copy", stacklevel=2)
    # one kernel for the whole family: its color masks serve every query
    kernel = RainbowKernel(c.n, c.l, [p for _, p in members], mode, c.assign)
    if not (kernel.scan() if must is None else kernel.through(must)):
        return None
    # each member's least sets, ties to the lower index; a member the closure
    # rule clears makes no candidate sweep
    found = [(sets, idx) for (idx, p), shape in zip(members, kernel.shapes)
             if (must is not None or not shape or kernel.closes([shape]))
             and (sets := _lexmin_sets(p, must, kernel)) is not None]
    if not found:
        return None
    sets, idx = min(found)
    p = forbidden.members[idx]
    emb = embed_poset(p, mode, sets)
    return RainbowWitness(idx, p, sets, emb, tuple(c.assign[s] for s in sets))


def validate(c: Coloring, forbidden: PosetFamily) -> RainbowWitness | None:
    """None when no rainbow copy of any member exists; otherwise the witness
    whose ascending set tuple is lexicographically least."""
    return _best_witness(c, forbidden, None)


def validate_incremental(c: Coloring, just_colored: int,
                         forbidden: PosetFamily) -> RainbowWitness | None:
    """Same verdict as validate() when the coloring was valid before
    just_colored received its color: only witnesses through it are searched."""
    if not 0 <= just_colored < len(c.assign):
        raise ValueError(f"set id {just_colored} outside B_{c.n}")
    if c.assign[just_colored] == UNCOLORED:
        raise ValueError(f"set {just_colored} is uncolored")
    return _best_witness(c, forbidden, just_colored)


def canonicalize(c: Coloring) -> Coloring:
    """Lexicographically least coloring in the S_n orbit of c (ground-element
    relabelings only; colors are untouched).  Exact, capped at small n."""
    return Coloring(c.n, c.l, lattice.canonical_assignment(c.n, c.assign))
