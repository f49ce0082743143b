"""Finite posets, builtin families, and copy detection inside set families.

A copy of a poset P inside a family of subsets is an injection of P's
elements onto distinct member sets.  In induced mode the poset order must
coincide with strict inclusion; in weak mode relations only imply it.
"""

from __future__ import annotations

import json
import re
from itertools import permutations

from .lattice import comparable, is_proper_subset, is_subset, submasks_ascending

ISO_CAP = 8  # canonical forms minimize over all relabelings; p! grows fast
MAX_POSET_SIZE = 1024  # the transitive closure takes size^2 steps

_BUILTIN = re.compile(r"^([APVW])([0-9]+)$")


class Poset:
    """A strict partial order on elements 0..size-1, stored transitively closed."""

    __slots__ = ("size", "less", "name", "_degree")

    def __init__(self, size: int, relations=(), name: str | None = None):
        if size < 1:
            raise ValueError("poset must be nonempty")
        if size > MAX_POSET_SIZE:
            raise ValueError(f"poset of {size} elements exceeds the cap of {MAX_POSET_SIZE}")
        below = [set() for _ in range(size)]
        for i, j in relations:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"relation ({i},{j}) outside 0..{size - 1}")
            if i == j:
                raise ValueError(f"reflexive relation ({i},{i})")
            below[j].add(i)
        # Warshall closure, then cycle check.
        for k in range(size):
            for j in range(size):
                if k in below[j]:
                    below[j] |= below[k]
        for j in range(size):
            if j in below[j]:
                raise ValueError("relation has a cycle")
        self.size = size
        self.less = frozenset((i, j) for j in range(size) for i in below[j])
        self.name = name
        self._degree = [0] * size
        for i, j in self.less:
            self._degree[i] += 1
            self._degree[j] += 1

    def is_less(self, i: int, j: int) -> bool:
        return (i, j) in self.less

    def elements_comparable(self, i: int, j: int) -> bool:
        return (i, j) in self.less or (j, i) in self.less

    def degree(self, i: int) -> int:
        """Number of elements comparable to i."""
        return self._degree[i]

    def is_antichain(self) -> bool:
        return not self.less

    def dual(self) -> "Poset":
        """Order reversal; an involution."""
        return Poset(self.size, [(j, i) for i, j in self.less],
                     name=f"dual({self.name})" if self.name else None)

    def components(self) -> list[frozenset[int]]:
        """Partition into classes connected by chains of comparable steps."""
        seen = [False] * self.size
        parts = []
        for start in range(self.size):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = {start}
            while stack:
                v = stack.pop()
                for w in range(self.size):
                    if not seen[w] and self.elements_comparable(v, w):
                        seen[w] = True
                        comp.add(w)
                        stack.append(w)
            parts.append(frozenset(comp))
        return parts

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def canonical_form(self) -> tuple:
        """Relabel-minimal relation tuple; equal iff isomorphic.  p <= 8 only."""
        if self.size > ISO_CAP:
            raise ValueError(f"canonical form capped at {ISO_CAP} elements")
        best = None
        for p in permutations(range(self.size)):
            cand = tuple(sorted((p[i], p[j]) for i, j in self.less))
            if best is None or cand < best:
                best = cand
        return (self.size, best)

    def is_isomorphic_to(self, other: "Poset") -> bool:
        return self.size == other.size and self.canonical_form() == other.canonical_form()

    def __eq__(self, other):
        return isinstance(other, Poset) and self.size == other.size and self.less == other.less

    def __hash__(self):
        return hash((self.size, self.less))

    def __repr__(self):
        if self.name:
            return f"Poset({self.name})"
        return f"Poset(size={self.size}, less={sorted(self.less)})"


def antichain(k: int) -> Poset:
    return Poset(k, (), name=f"A{k}")


def chain(k: int) -> Poset:
    return Poset(k, ((i, i + 1) for i in range(k - 1)), name=f"P{k}")


def vee(k: int) -> Poset:
    """One bottom element below k pairwise incomparable tops."""
    return Poset(k + 1, ((0, i) for i in range(1, k + 1)), name=f"V{k}")


def wedge(k: int) -> Poset:
    """One top element above k pairwise incomparable bottoms."""
    return Poset(k + 1, ((i, 0) for i in range(1, k + 1)), name=f"W{k}")


def diamond() -> Poset:
    """Four elements a < b,c < d with b,c incomparable."""
    return Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="D2")


def disjoint_sum(parts) -> Poset:
    parts = list(parts)
    size = sum(p.size for p in parts)
    rels = []
    base = 0
    for p in parts:
        rels.extend((base + i, base + j) for i, j in p.less)
        base += p.size
    name = "+".join(p.name or "?" for p in parts)
    return Poset(size, rels, name=name)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def build_poset(spec) -> Poset:
    """Builtin name (Ak, Pk, Vk, Wk, D2), a "+"-sum of builtins, or an
    explicit {"size": p, "relations": [[i, j], ...]} object (or its JSON text).
    """
    if isinstance(spec, Poset):
        return spec
    if isinstance(spec, dict):
        size, relations = spec.get("size"), spec.get("relations", [])
        if not _is_int(size):
            raise ValueError(f'poset object needs an integer "size", got {size!r}')
        if not (isinstance(relations, (list, tuple)) and all(
                isinstance(r, (list, tuple)) and len(r) == 2 and all(map(_is_int, r))
                for r in relations)):
            raise ValueError(f'poset "relations" must be a list of [i, j] integer pairs, '
                             f'got {relations!r}')
        return Poset(size, [tuple(r) for r in relations])
    if not isinstance(spec, str):
        raise ValueError(f"cannot build poset from {spec!r}")
    text = spec.strip()
    if text.startswith("{"):
        return build_poset(json.loads(text))
    parts = [tok.strip().upper() for tok in text.split("+")]
    built = []
    for tok in parts:
        if tok == "D2":
            built.append(diamond())
            continue
        m = _BUILTIN.match(tok)
        if not m:
            raise ValueError(f"unknown poset spec {tok!r}")
        kind, k = m.group(1), int(m.group(2))
        if k < 1:
            raise ValueError(f"poset parameter must be positive in {tok!r}")
        built.append({"A": antichain, "P": chain, "V": vee, "W": wedge}[kind](k))
    return built[0] if len(built) == 1 else disjoint_sum(built)


def builtin_name(poset: Poset) -> str | None:
    """Name of the builtin poset isomorphic to this one (Ak, Pk, Vk, Wk or
    D2), or None.  Where builtins coincide the first of A, P, V, W wins:
    A1 = P1 is "A1" and V1 = W1 = P2 is "P2".  Read off the relation count
    and each element's count of smaller elements, so no relabeling is tried.
    """
    k, rels = poset.size, len(poset.less)
    if not rels:
        return f"A{k}"
    if rels == k * (k - 1) // 2:  # every pair comparable
        return f"P{k}"
    below = [0] * k
    for _, j in poset.less:
        below[j] += 1
    if rels == k - 1:
        # every relation meets an element comparable to all others: a fork
        # when it is below them, a join when above
        for e in range(k):
            if poset.degree(e) == k - 1:
                return f"V{k - 1}" if below[e] == 0 else f"W{k - 1}"
    if k == 4 and sorted(below) == [0, 1, 1, 3]:
        # a top above all three others, and two elements above only the bottom
        return "D2"
    return None


def _embedding_order(poset: Poset) -> list[int]:
    # Most-constrained first: decreasing comparability degree, ties by index.
    return sorted(range(poset.size), key=lambda e: (-poset.degree(e), e))


def embed_poset(poset: Poset, mode: str, universe):
    """Search for a copy of poset among the subset ids in `universe`.

    mode "induced": order matches strict inclusion exactly; "weak": relations
    only imply inclusion.  Returns {element: id} or None.  Deterministic:
    elements are placed most-constrained first, candidates tried in
    ascending id order.
    """
    if mode not in ("induced", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    universe = sorted(universe)
    if poset.size > len(universe):
        return None
    uni_set = set(universe)
    order = _embedding_order(poset)
    assigned: dict[int, int] = {}
    used: set[int] = set()
    induced = mode == "induced"

    def consistent(e: int, cand: int) -> bool:
        for q, qid in assigned.items():
            if poset.is_less(q, e):
                if not is_proper_subset(qid, cand):
                    return False
            elif poset.is_less(e, q):
                if not is_proper_subset(cand, qid):
                    return False
            elif induced and comparable(cand, qid):
                return False
        return True

    def candidates(e: int):
        lowers = [assigned[q] for q in assigned if poset.is_less(q, e)]
        uppers = [assigned[q] for q in assigned if poset.is_less(e, q)]
        if not uppers:
            return universe
        lo = 0
        for x in lowers:
            lo |= x
        hi = uppers[0]
        for x in uppers[1:]:
            hi &= x
        if not is_subset(lo, hi):
            return ()
        free = hi & ~lo
        # Enumerate the [lo, hi] cube only when cheaper than scanning.
        if (1 << free.bit_count()) <= 2 * len(universe):
            return [lo | s for s in submasks_ascending(free) if (lo | s) in uni_set]
        return [c for c in universe if is_subset(lo, c) and is_subset(c, hi)]

    def place(idx: int) -> bool:
        if idx == poset.size:
            return True
        e = order[idx]
        for cand in candidates(e):
            if cand in used or not consistent(e, cand):
                continue
            assigned[e] = cand
            used.add(cand)
            if place(idx + 1):
                return True
            del assigned[e]
            used.discard(cand)
        return False

    if place(0):
        return dict(assigned)
    return None


def find_copy(family, poset: Poset, mode: str = "induced"):
    """Embedding of poset into the given family of subset ids, or None."""
    return embed_poset(poset, mode, family)
