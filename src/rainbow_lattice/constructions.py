"""Generators for the explicit lattice colorings, each with an exact class-size
account and the forbidden family it is valid against.

Every generator returns a ConstructionReport; when the dimension is within
the enumeration cap the coloring is materialized so the detector can
re-verify the claim independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .bounds import equipartition_a, formula_A2, m_of_l
from .coloring import Coloring, PosetFamily
from .lattice import (check_colors, check_dimension, full_set, is_proper_subset, is_subset,
                      submasks_ascending, subset_of)
from .posets import antichain, chain, diamond, vee, wedge


@dataclass(frozen=True)
class ChainFamily:
    """k-1 chains from the empty set to the ground set, l+1 sets each."""

    n: int
    k: int
    l: int
    chains: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_dimension(self.n, analytic=True)
        if self.k < 2 or self.l < 2:
            raise ValueError("need k >= 2 and l >= 2")
        if len(self.chains) != self.k - 1:
            raise ValueError(f"expected {self.k - 1} chains, got {len(self.chains)}")
        top = full_set(self.n)
        for ch in self.chains:
            if len(ch) != self.l + 1 or ch[0] != 0 or ch[-1] != top:
                raise ValueError("each chain must run from the empty set to the ground set")
            for a, b in zip(ch, ch[1:]):
                if not is_proper_subset(a, b):
                    raise ValueError("chain is not strictly nested")

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "l": self.l,
                "chains": [list(ch) for ch in self.chains]}


@dataclass
class ConstructionReport:
    """A construction's coloring and its one size account, class_sizes:
    the minimum and the uncolored count follow from it."""

    name: str
    n: int
    l: int
    forbidden: PosetFamily
    certificate: str                 # "structural" or "detector"
    class_sizes: tuple[int, ...]
    coloring: Coloring | None = None
    formula_min: int | None = None   # closed-form value, when one is claimed
    params: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def min_size(self) -> int:
        return min(self.class_sizes)

    @property
    def uncolored(self) -> int:
        return (1 << self.n) - sum(self.class_sizes)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name, "n": self.n, "l": self.l,
            "forbidden": self.forbidden.spec_string(), "mode": self.forbidden.mode,
            "certificate": self.certificate, "claimed_min": self.min_size,
            "formula_min": self.formula_min, "class_sizes": list(self.class_sizes),
            "uncolored": self.uncolored, "params": self.params, "notes": self.notes,
            "coloring": self.coloring.to_json_dict() if self.coloring else None,
        }


def trial_seed(seed: int, index: int) -> int:
    """Per-trial seed; trials can run in any order or in parallel."""
    return seed * 1_000_003 + index


# ---------------------------------------------------------------------------
# fixed-trace construction


def incomparable_traces(n: int, l: int, total: bool = False) -> ConstructionReport:
    """Color sets by their trace on a short prefix of the ground line.

    Partial mode fixes l half-size subsets S_i of [m(l)] and colors F with i
    when F cap [m(l)] = S_i; the classes are pairwise cross-incomparable, so
    rainbow tuples are forced to be antichains.  Total mode uses l-1 trace
    classes over [m(l-1)] plus one class for everything else.

    The declared family is the weak comparable pair in partial mode and the
    induced chain of 3 in total mode (a chain meets at most one trace
    class).  A caller seeding another family, in any spelling, checks the
    coloring against it with the detector.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    check_colors(l)
    if total and l < 3:
        raise ValueError("total trace coloring needs l >= 3 (the l=2 case "
                         "degenerates to an empty remainder class)")
    m = m_of_l(l - 1) if total else m_of_l(l)
    if m > n:
        raise ValueError(f"prefix length m={m} exceeds n={n}")
    check_dimension(n)

    classes = l - 1 if total else l
    traces = [subset_of(c) for c in combinations(range(1, m + 1), m // 2)][:classes]
    trace_color = {t: i + 1 for i, t in enumerate(traces)}
    # the color depends only on the trace h & (2^m - 1): repeat the 2^m prefix
    pattern = bytes(trace_color.get(h, l if total else 0) for h in range(1 << m))
    col = Coloring(n, l, pattern * (1 << (n - m)))
    per = [pattern.count(c) << (n - m) for c in range(1, l + 1)]
    return ConstructionReport(
        name="traces", n=n, l=l, certificate="structural",
        forbidden=(PosetFamily((chain(3),), "induced") if total
                   else PosetFamily((chain(2),), "weak")),
        class_sizes=tuple(per), coloring=col, formula_min=2 ** (n - m),
        params={"total": total, "m": m, "traces": traces},
    )


# ---------------------------------------------------------------------------
# single-chain interval construction


def chain_interval_coloring(n: int, l: int) -> ConstructionReport:
    """Partition-by-chain coloring: class i is the open interval between
    consecutive chain sets, and the l+1 chain sets are spread round-robin
    over the classes whose interval has the small dimension floor(n/l).

    Any two sets colored differently are nested, so no rainbow incomparable
    pair exists.  Requires l*log2(l) <= n.
    """
    formula = formula_A2(n, l)
    if not formula.applicable:
        raise ValueError(formula.condition_note)
    check_dimension(n)
    a = equipartition_a(n, l)
    sets = [0]
    nxt = 1
    for i in range(1, l + 1):
        block = (n + i - 1) // l
        cur = sets[-1]
        for _ in range(block):
            cur |= 1 << (nxt - 1)
            nxt += 1
        sets.append(cur)
    assign = bytearray(1 << n)
    for i in range(1, l + 1):
        lo, gap = sets[i - 1], sets[i] & ~sets[i - 1]
        for s in submasks_ascending(gap):
            assign[lo | s] = i
    for t, cs in enumerate(sets):  # the interval ends
        assign[cs] = (t % a) + 1
    col = Coloring(n, l, assign)
    dims = [(sets[i] & ~sets[i - 1]).bit_count() for i in range(1, l + 1)]
    shares = [sum(1 for t in range(l + 1) if t % a == i) for i in range(l)]
    sizes = tuple((2 ** dims[i] - 2) + shares[i] for i in range(l))
    return ConstructionReport(
        name="chain", n=n, l=l,
        forbidden=PosetFamily((antichain(2),), "induced"), certificate="structural",
        class_sizes=sizes, coloring=col, formula_min=formula.value,
        params={"a": a, "chain": sets, "dims": dims},
        notes="" if min(sizes) == formula.value else
        "closed form exceeds this construction's minimum at this (n, l)",
    )


# ---------------------------------------------------------------------------
# random multi-chain construction


def random_chain_family(n: int, k: int, l: int, seed: int) -> ChainFamily:
    """Grow each of the k-1 chains by promoting every missing element with
    probability 1/(l-i+1) at stage i; the expected stage growth is n/l.

    A chain is redrawn until strictly nested (relevant only at small n).
    Deterministic for a fixed seed.
    """
    if k < 2 or l < 2 or n < l:
        raise ValueError("need k >= 2, l >= 2 and n >= l")
    check_dimension(n, analytic=True)
    check_colors(l * (k - 1))  # before drawing the k - 1 chains
    rng = random.Random(seed)
    top = full_set(n)
    chains = []
    for _ in range(k - 1):
        while True:
            cur = 0
            ch = [0]
            for i in range(1, l):
                p = 1.0 / (l - i + 1)
                grown = cur
                for x in range(n):
                    bit = 1 << x
                    if not cur & bit and rng.random() < p:
                        grown |= bit
                cur = grown
                ch.append(cur)
            ch.append(top)
            if all(is_proper_subset(a, b) for a, b in zip(ch, ch[1:])):
                chains.append(tuple(ch))
                break
    return ChainFamily(n, k, l, tuple(chains))


def _halfopen_remainder_size(lo: int, hi: int, chains, at_lower: bool = True) -> int:
    """|(lo, hi] minus every half-open interval (a, b] of consecutive sets
    of the chains| by exact inclusion-exclusion.  The intervals of one chain
    are pairwise disjoint, so a nonzero term meets each chain at most once:
    pick none or one interval per chain, and drop a branch once lo is not
    below hi.  at_lower says lo is the lower end of a picked interval (or
    of the base), so lo itself is not counted."""
    if not chains:
        return (1 << (hi & ~lo).bit_count()) - at_lower
    total = _halfopen_remainder_size(lo, hi, chains[1:], at_lower)
    for a, b in zip(chains[0], chains[0][1:]):
        cut_lo, cut_hi = lo | a, hi & b
        if is_subset(cut_lo, cut_hi):
            lower = cut_lo == a or cut_lo == lo and at_lower
            total -= _halfopen_remainder_size(cut_lo, cut_hi, chains[1:], lower)
    return total


def chain_family_coloring(cf: ChainFamily, materialize: bool = True) -> ConstructionReport:
    """The l(k-1)-color partial coloring read off a chain family: color
    (j, i) is the half-open interval between consecutive sets of chain j,
    minus every interval of an earlier chain.

    Structural validity: among any k colored sets, two are colored through
    the same chain; if their colors differ they are nested, so no rainbow
    antichain of size k exists.  Class sizes are exact (inclusion-exclusion)
    in both modes; materialization additionally writes out the coloring.
    """
    n, k, l = cf.n, cf.k, cf.l
    colors = l * (k - 1)
    check_colors(colors)
    if materialize:
        check_dimension(n)
    sizes = tuple(_halfopen_remainder_size(ch[i - 1], ch[i], cf.chains[:j])
                  for j, ch in enumerate(cf.chains) for i in range(1, l + 1))
    col = None
    if materialize:
        # chains last to first, so each set keeps the color of its first chain
        assign = bytearray(1 << n)
        for j in range(k - 2, -1, -1):
            ch = cf.chains[j]
            for i in range(1, l + 1):
                lo, color = ch[i - 1], j * l + i
                for s in submasks_ascending(ch[i] & ~lo):
                    if s:
                        assign[lo | s] = color
        col = Coloring(n, colors, assign)
    return ConstructionReport(
        name="congen", n=n, l=colors,
        forbidden=PosetFamily((antichain(k),), "induced"), certificate="structural",
        class_sizes=sizes, coloring=col,
        params={"k": k, "stage_colors": l},
    )


def chain_overlap_check(cf: ChainFamily) -> dict:
    """Evaluate the stage-i chain-overlap inequality
    |C^j_i cap C^j'_i| <= (i-1)(n/l) + (2/3)(n/l) for every stage and chain
    pair, exactly in rationals.  Vacuously passes when there is one chain."""
    n, l = cf.n, cf.l
    checks = []
    for i in range(1, l):
        bound = Fraction(n * (3 * (i - 1) + 2), 3 * l)
        for j in range(cf.k - 1):
            for j2 in range(j + 1, cf.k - 1):
                inter = (cf.chains[j][i] & cf.chains[j2][i]).bit_count()
                checks.append({"i": i, "j": j + 1, "j2": j2 + 1,
                               "intersection": inter, "bound": str(bound),
                               "ok": inter <= bound})
    return {"checks": checks, "pass": all(c["ok"] for c in checks)}


# ---------------------------------------------------------------------------
# colorings lifted from a fixed 3-cube table


# the 8 residues of the 3-cube, paired so that {i} and {i, i+1 mod 3} share
# color i, with the empty set and the full 3-cube in a fourth class
_CUBE3 = {1: 1, 3: 1, 2: 2, 6: 2, 4: 3, 5: 3, 0: 4, 7: 4}


def lift3_coloring(n: int, variant: str = "three_color") -> ConstructionReport:
    """Color F by the 3-cube table applied to F cap {1,2,3}.

    three_color: classes 1..3 (table class 4 stays uncolored), valid against
    induced chains of 3, forks and joins simultaneously.  four_color: the
    total 4-coloring, valid against the induced diamond.  Every class has
    exactly 2^(n-2) sets.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    check_dimension(n)
    if variant not in ("three_color", "four_color"):
        raise ValueError(f"unknown variant {variant!r}")
    four = variant == "four_color"
    l = 4 if four else 3
    # the color depends only on h & 7: repeat the 3-cube table
    table = bytes(c if (four or c < 4) else 0 for c in map(_CUBE3.get, range(8)))
    col = Coloring(n, l, table * (1 << (n - 3)))
    if four:
        forb = PosetFamily((diamond(),), "induced")
    else:
        forb = PosetFamily((chain(3), vee(2), wedge(2)), "induced")
    quarter = 2 ** (n - 2)
    return ConstructionReport(
        name="lift3", n=n, l=l, forbidden=forb, certificate="detector",
        class_sizes=tuple([quarter] * l), coloring=col, formula_min=quarter,
        params={"variant": variant},
    )


def p3_total_coloring(n: int) -> ConstructionReport:
    """Total 3-coloring with no rainbow chain of 3: color 1 holds the sets
    containing element 1 but not 2, color 2 the mirror image, color 3 the
    rest.  Classes 1 and 2 are cross-incomparable, so a chain meets at most
    one of them."""
    if n < 2:
        raise ValueError("need n >= 2")
    check_dimension(n)
    # by h & 3: neither, 1 only, 2 only, both
    col = Coloring(n, 3, bytes((3, 1, 2, 3)) * (1 << (n - 2)))
    quarter = 2 ** (n - 2)
    return ConstructionReport(
        name="p3", n=n, l=3,
        forbidden=PosetFamily((chain(3),), "induced"), certificate="structural",
        class_sizes=(quarter, quarter, 2 ** (n - 1)), coloring=col, formula_min=quarter,
    )


def pk_coloring(n: int, k: int) -> ConstructionReport:
    """k classes of exactly floor(2^n / k) sets with no rainbow chain of k:
    class 1 sits inside {F: 1 in F, 2 not in F}, class 2 inside the mirror,
    so a chain using every color would need both, which are incomparable.
    The 2^n mod k leftover sets stay uncolored."""
    if k < 4:
        raise ValueError("need k >= 4")
    if n < 2:
        raise ValueError("need n >= 2")
    check_dimension(n)
    check_colors(k)  # before the bytes of classes 3..k below
    quota = (1 << n) // k
    if 2 ** (n - 2) < quota:
        raise ValueError("side families too small for the quota")
    # ids below 4 * quota come in fours by h & 3: one of classes 3..k, one of
    # class 1, one of class 2, one of 3..k; above, classes 3..k take every id
    q4 = 4 * quota
    rest = b"".join(bytes([c]) * quota for c in range(3, k + 1)) + bytes((1 << n) - k * quota)
    assign = bytearray(1 << n)
    assign[0:q4:4] = rest[0:2 * quota:2]
    assign[1:q4:4] = b"\x01" * quota
    assign[2:q4:4] = b"\x02" * quota
    assign[3:q4:4] = rest[1:2 * quota:2]
    assign[q4:] = rest[2 * quota:]
    col = Coloring(n, k, assign)
    return ConstructionReport(
        name="pk", n=n, l=k,
        forbidden=PosetFamily((chain(k),), "induced"), certificate="structural",
        class_sizes=tuple([quota] * k), coloring=col, formula_min=quota,
        params={"k": k},
    )
