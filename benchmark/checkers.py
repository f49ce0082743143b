"""Independent checkers for the benchmark's outputs.

Nothing here imports the solver, the generic copy detector
(``posets.embed_poset``) or the library's detectors (``coloring.validate`` /
``has_rainbow``): every verdict is recomputed from plain data -- a list of
colors indexed by subset id and a poset given as its size and its set of
strict relations ``(i, j)`` meaning ``i < j``.

Functions named ``check_*`` return a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import random
from itertools import permutations


def _nested(a: int, b: int) -> bool:
    """a is a proper subset of b."""
    return a != b and a & ~b == 0


def injection_fits(sets, size: int, less, mode: str, perm) -> bool:
    """Whether element perm[t] -> sets[t] is a copy of the poset."""
    k = len(sets)
    for x in range(k):
        for y in range(k):
            if x == y:
                continue
            related = (perm[x], perm[y]) in less
            if related and not _nested(sets[x], sets[y]):
                return False
            if mode == "induced" and not related and _nested(sets[x], sets[y]):
                return False
    return True


def is_rainbow_copy(sets, assign, size: int, less, mode: str = "induced") -> bool:
    """Brute force: the given sets are colored, pairwise distinctly, and some
    injection of the poset's elements onto them is a copy."""
    if len(sets) != size or len(set(sets)) != size:
        return False
    colors = [assign[s] for s in sets]
    if 0 in colors or len(set(colors)) != size:
        return False
    return any(injection_fits(sets, size, less, mode, perm)
               for perm in permutations(range(size)))


def _prefix_fits(sets, size: int, less, mode: str) -> bool:
    """Some injection of the prefix into the poset's elements is consistent
    (the prefix is a copy of an induced/weak subposet)."""
    return any(injection_fits(sets, size, less, mode, perm)
               for perm in permutations(range(size), len(sets)))


class TooExpensive(Exception):
    """The lexicographic enumeration went past its tuple budget."""


def first_rainbow_copy(assign, size: int, less, mode: str = "induced",
                       limit: int | None = None):
    """Lexicographically least ascending tuple of colored subset ids that is a
    rainbow copy of the poset, or None when there is none.

    Tuples are enumerated in lex order; a prefix is abandoned as soon as two
    of its sets share a color or it fits no injection into the poset, which
    cannot change which complete tuple comes first.  ``limit`` bounds the
    number of prefixes visited; past it TooExpensive is raised.
    """
    universe = [s for s, c in enumerate(assign) if c]
    chosen: list[int] = []
    used: set[int] = set()
    visited = 0

    def rec(start: int):
        nonlocal visited
        if len(chosen) == size:
            return tuple(chosen)
        for idx in range(start, len(universe) - (size - len(chosen)) + 1):
            s = universe[idx]
            c = assign[s]
            if c in used:
                continue
            visited += 1
            if limit is not None and visited > limit:
                raise TooExpensive(visited)
            chosen.append(s)
            if _prefix_fits(chosen, size, less, mode):
                used.add(c)
                found = rec(idx + 1)
                used.discard(c)
                if found is not None:
                    return found
            chosen.pop()
        return None

    return rec(0)


def least_rainbow_copy(assign, l: int, members, mode: str = "induced",
                       limit: int | None = None):
    """Least tuple over all members that fit in l colors (Python tuple order,
    as the library's witness order), or None."""
    best = None
    for size, less in members:
        if size > l:
            continue
        found = first_rainbow_copy(assign, size, less, mode, limit)
        if found is not None and (best is None or found < best):
            best = found
    return best


def class_counts(assign, l: int) -> list[int]:
    """Size of each color class 1..l."""
    counts = [0] * (l + 1)
    for c in assign:
        counts[c] += 1
    return counts[1:]


# ---------------------------------------------------------------------------
# planting


def plant_copy(assign, n: int, l: int, size: int, less, rng: random.Random):
    """Recolor a seeded random induced copy of the poset with distinct colors.

    Element e goes to R | B(d_1) | ... | B(d_j) over the elements d below or
    equal to e, where R is a random base set and the B(d) are disjoint,
    nonempty random blocks of ground elements outside R.  Inclusion between
    the images then matches the poset's order exactly.  Returns the new
    assignment and the planted sets in poset-element order.
    """
    if size > l:
        raise ValueError("poset larger than the color count")
    if size > n:
        raise ValueError("poset larger than the ground set")
    elems = list(range(n))
    rng.shuffle(elems)
    blocks = [1 << e for e in elems[:size]]
    base = 0
    for e in elems[size:]:
        r = rng.randrange(size + 2)   # one of the blocks, the base, or no set
        if r < size:
            blocks[r] |= 1 << e
        elif r == size:
            base |= 1 << e
    sets = []
    for e in range(size):
        s = base | blocks[e]
        for d in range(size):
            if (d, e) in less:
                s |= blocks[d]
        sets.append(s)
    colors = rng.sample(range(1, l + 1), size)
    out = list(assign)
    for s, c in zip(sets, colors):
        out[s] = c
    return out, tuple(sets)


# ---------------------------------------------------------------------------
# output checks


def check_valid_coloring(assign, l: int, members, mode: str = "induced") -> list[str]:
    """Exhaustive: no rainbow copy of any member.  Small inputs only."""
    found = least_rainbow_copy(assign, l, members, mode)
    return [] if found is None else [f"rainbow copy {found}"]


def check_classes(assign, l: int, expected) -> list[str]:
    """Recount every class against the expected sizes."""
    got = class_counts(assign, l)
    return [] if got == list(expected) else [f"class sizes {got} != {list(expected)}"]


def check_witness(assign, l: int, members, mode: str, witness_sets,
                  witness_member: int, planted, lex_limit: int | None) -> list[str]:
    """A reported rainbow witness on a planted coloring: a rainbow copy of its
    member by brute force, no later than the planted tuple, and the least
    such tuple when the lex enumeration stays within lex_limit prefixes."""
    problems = []
    size, less = members[witness_member]
    if not is_rainbow_copy(witness_sets, assign, size, less, mode):
        problems.append(f"witness {witness_sets} is not a rainbow copy")
    if tuple(witness_sets) > tuple(sorted(planted)):
        problems.append(f"witness {witness_sets} later than planted {sorted(planted)}")
    try:
        least = least_rainbow_copy(assign, l, members, mode, lex_limit)
    except TooExpensive:
        return problems
    if least != tuple(witness_sets):
        problems.append(f"witness {witness_sets} is not the least copy {least}")
    return problems


def chain_family_recount(n: int, l: int, chains) -> list[int]:
    """Class sizes of the chain-family coloring straight from its definition:
    color (j, i) is the half-open interval (C_j[i-1], C_j[i]] minus every
    interval of an earlier chain."""
    counts = [0] * (l * len(chains))
    for h in range(1, 1 << n):
        for j, ch in enumerate(chains):
            hit = next((i for i in range(1, l + 1)
                        if _nested(ch[i - 1], h) and h & ~ch[i] == 0), None)
            if hit is not None:
                counts[j * l + hit - 1] += 1
                break
    return counts


def chain_interval_sizes(n: int, l: int) -> list[int]:
    """Class sizes of the single-chain interval coloring: an equipartition of
    [n] into a blocks of size floor(n/l) followed by l-a of size floor(n/l)+1;
    class i holds the 2^d_i - 2 interior sets of its interval plus its
    round-robin share of the l+1 chain sets, spread over the first a classes."""
    a = l - n % l if n % l else l
    dims = [n // l] * a + [n // l + 1] * (l - a)
    shares = [sum(1 for t in range(l + 1) if t % a == i) for i in range(l)]
    return [2 ** dims[i] - 2 + shares[i] for i in range(l)]
