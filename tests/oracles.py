"""Independent brute-force oracles the library is checked against.

Everything here is deliberately naive: all-injections search, plain
backtracking for labelled copies, full tuple enumeration, full assignment
enumeration, every chain tried for a chain decomposition.  Nothing imports
the library's search code paths beyond plain data types.
"""

from __future__ import annotations

from itertools import permutations, product

from rainbow_lattice.lattice import (check_dimension, comparable, full_set, is_proper_subset,
                                     is_subset, submasks_ascending)


def _pair_is_copy(poset, induced, a, b, sa, sb) -> bool:
    """Do the images sa of a and sb of b respect the pair's relation?"""
    if poset.is_less(a, b):
        return is_proper_subset(sa, sb)
    if poset.is_less(b, a):
        return is_proper_subset(sb, sa)
    return not (induced and comparable(sa, sb))


def _tuple_is_copy(poset, mode, images) -> bool:
    induced = mode == "induced"
    return all(_pair_is_copy(poset, induced, a, b, images[a], images[b])
               for a in range(poset.size) for b in range(a + 1, poset.size))


def naive_find_copy(family, poset, mode: str) -> bool:
    """All-injections existence check."""
    family = list(family)
    if len(family) < poset.size:
        return False
    for images in permutations(family, poset.size):
        if _tuple_is_copy(poset, mode, images):
            return True
    return False


def copy_tuples(n: int, poset, mode: str) -> list[tuple[int, ...]]:
    """Every ordered tuple of distinct subset ids forming a copy of poset
    (index i holds the image of poset element i)."""
    return [images for images in permutations(range(1 << n), poset.size)
            if _tuple_is_copy(poset, mode, images)]


def rainbow_copy(poset, mode: str, pool, labels, required):
    """A copy of poset among the ids in pool whose images carry pairwise
    distinct labels[id] and use every id in required: {element: id} or None.

    The labelled reference search: plain backtracking over pool, elements
    placed most comparable first, each candidate checked against every
    element already placed.
    """
    pool = sorted(pool)
    required = set(required)
    if not required <= set(pool):
        return None
    induced = mode == "induced"
    order = sorted(range(poset.size), key=lambda e: (-poset.degree(e), e))
    assigned = {}

    def place(idx: int) -> bool:
        used = set(assigned.values())
        if len(required - used) > poset.size - idx:
            return False
        if idx == poset.size:
            return True
        e = order[idx]
        taken = {labels[s] for s in used}
        for cand in pool:
            if cand in used or labels[cand] in taken:
                continue
            if all(_pair_is_copy(poset, induced, e, q, cand, s) for q, s in assigned.items()):
                assigned[e] = cand
                if place(idx + 1):
                    return True
                del assigned[e]
        return False

    return dict(assigned) if place(0) else None


def oracle_rainbow_witnesses(assign, tuples) -> list[tuple[int, ...]]:
    """All witness set-tuples (sorted ascending) among precomputed copy tuples."""
    out = set()
    for images in tuples:
        colors = [assign[s] for s in images]
        if 0 in colors or len(set(colors)) != len(colors):
            continue
        out.add(tuple(sorted(images)))
    return sorted(out)


def oracle_has_rainbow(assign, tuples) -> bool:
    for images in tuples:
        colors = [assign[s] for s in images]
        if 0 not in colors and len(set(colors)) == len(colors):
            return True
    return False


def oracle_least_witness(n: int, l: int, tuple_lists, kind: str):
    """(value, assignment): the max-min class size and the first assignment,
    in itertools.product order, that has no rainbow copy and attains it.

    Returns (-1, None) when no valid assignment exists.  Assignments whose
    smallest class cannot beat the best value so far skip the rainbow check.
    """
    size = 1 << n
    colors = range(1, l + 1) if kind == "total" else range(l + 1)
    best, first = -1, None
    for assign in product(colors, repeat=size):
        counts = [0] * (l + 1)
        for v in assign:
            counts[v] += 1
        low = min(counts[1:])
        if low <= best:
            continue
        if any(oracle_has_rainbow(assign, tuples) for tuples in tuple_lists):
            continue
        best, first = low, list(assign)
    return best, first


def oracle_solve(n: int, l: int, tuple_lists, kind: str) -> int:
    """Max-min class size by full enumeration of all (l+1)^(2^n) assignments.

    tuple_lists: one precomputed copy-tuple list per forbidden member.
    Returns -1 when no valid assignment exists (possible for total colorings
    against one-element posets).
    """
    return oracle_least_witness(n, l, tuple_lists, kind)[0]


def oracle_cone(n: int, f: int, kind: str) -> list[int]:
    out = []
    for h in range(1 << n):
        down = h & ~f == 0
        up = f & ~h == 0
        if (kind == "down" and down) or (kind == "up" and up) or \
                (kind == "incident" and (down or up)):
            out.append(h)
    return out


def oracle_interval_members(n: int, iv) -> list[int]:
    out = []
    for h in range(1 << n):
        if iv.lo & ~h or h & ~iv.hi:
            continue
        if iv.lo_open and h == iv.lo:
            continue
        if iv.hi_open and h == iv.hi:
            continue
        out.append(h)
    return out


def ordered_set_partitions(n: int):
    """All chains from the empty set to the ground set, one per ordered set
    partition of [n]: blocks in ascending submask order, depth first."""
    def rec(remaining):
        if not remaining:
            yield []
            return
        for b in submasks_ascending(remaining):
            if b == 0:
                continue
            for rest in rec(remaining & ~b):
                yield [b] + rest

    for blocks in rec(full_set(n)):
        out = [0]
        for b in blocks:
            out.append(out[-1] | b)
        yield tuple(out)


def oracle_az_decompose(n: int, families):
    """(chain, parts) of the first chain in ordered_set_partitions order that
    houses the families, or None; the same hypothesis check and error text
    as the library.  Every chain is tried in full: each set off the chain
    must lie strictly between its first covering chain set and the one
    before, no interval may hold sets of two families, and intervals no
    family needs go to the first family that needs none, else the first."""
    check_dimension(n)
    families = [sorted(set(f)) for f in families]
    if not families:
        raise ValueError("need at least one family")
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            for fi in families[i]:
                for fj in families[j]:
                    if not comparable(fi, fj):
                        raise ValueError(
                            f"hypothesis violated: families {i + 1} and {j + 1} "
                            f"contain the incomparable pair ({fi}, {fj})")
    for ch in ordered_set_partitions(n):
        t = len(ch) - 1
        needed = [set() for _ in families]
        ok = True
        for fi, fam in enumerate(families):
            for f in fam:
                if f in ch:
                    continue
                h = next((h for h in range(1, t + 1) if is_subset(f, ch[h])), None)
                if h is None or not is_subset(ch[h - 1], f):
                    ok = False
                    break
                needed[fi].add(h)
            if not ok:
                break
        if not ok or sum(len(s) for s in needed) != len(set().union(*needed)):
            continue
        leftovers = set(range(1, t + 1)) - set().union(*needed)
        if leftovers:
            target = next((i for i, s in enumerate(needed) if not s), 0)
            needed[target] |= leftovers
        return ch, tuple(frozenset(s) for s in needed)
    return None
