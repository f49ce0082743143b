"""Bit-encoded subsets, cones, intervals and symmetries of the Boolean lattice.

A subset of {1, .., n} is stored as an integer whose bit i-1 says whether
element i belongs to the set.  All comparability tests are O(1) bit
operations; everything that would enumerate 2^n members is capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

# Enumerating all of B_n is refused above ENUMERATION_CAP; closed-form
# sizes stay exact up to ANALYTIC_CAP (python ints, no overflow).  Orbit
# canonicalization is exact-only, never approximated, hence its own cap.
# A coloring stores one byte per set, so it has at most COLOR_CAP colors.
ENUMERATION_CAP = 20
ANALYTIC_CAP = 63
CANONICAL_CAP = 5
COLOR_CAP = 255


def check_dimension(n, analytic: bool = False) -> None:
    cap = ANALYTIC_CAP if analytic else ENUMERATION_CAP
    if not isinstance(n, int) or not 1 <= n <= cap:
        raise ValueError(f"dimension n={n!r} outside 1..{cap}")


def check_colors(l: int) -> None:
    """Refuse a color count outside 1..COLOR_CAP."""
    if not 1 <= l <= COLOR_CAP:
        raise ValueError(f"color count l={l} outside 1..{COLOR_CAP} (COLOR_CAP: one byte per set)")


def full_set(n: int) -> int:
    """The ground set {1, .., n} as a subset id."""
    return (1 << n) - 1


def check_subset_id(bits, n: int) -> None:
    if not isinstance(bits, int) or not 0 <= bits < (1 << n):
        raise ValueError(f"subset id {bits!r} outside B_{n}")


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def is_proper_subset(a: int, b: int) -> bool:
    return a != b and a & ~b == 0


def comparable(a: int, b: int) -> bool:
    """True iff a and b are nested either way (inclusion order)."""
    ab = a & b
    return ab == a or ab == b


def elements(bits: int) -> list[int]:
    """Ground elements of a subset id, ascending."""
    out = []
    i = 1
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return out


def subset_of(elems) -> int:
    bits = 0
    for e in elems:
        if e < 1:
            raise ValueError(f"ground elements start at 1, got {e}")
        bits |= 1 << (e - 1)
    return bits


def parse_integer(token: str, what: str) -> int:
    """int(token), with a run of more digits than Python converts at once
    an error that says what the token is, not the interpreter's limit."""
    try:
        return int(token)
    except ValueError:
        digits = token.strip().lstrip("+-")
        if digits.isdigit():
            raise ValueError(f"{what} of {len(digits)} digits is out of range") from None
        raise


def parse_subset(value, n: int | None = None) -> int:
    """An integer id or a "{1,3}" literal of elements in 1..n (ANALYTIC_CAP
    without n).  Ids are what we emit."""
    if type(value) is int:  # bool is an int subclass
        bits = value
    elif isinstance(value, str):
        text = value.strip()
        if text.startswith("{") and text.endswith("}"):
            elems = [parse_integer(tok, "element") for tok in text[1:-1].split(",")
                     if tok.strip()]
            if max(elems, default=0) > (cap := ANALYTIC_CAP if n is None else n):
                raise ValueError(f"element {max(elems)} of {value!r} out of range 1..{cap}")
            bits = subset_of(elems)
        else:
            bits = parse_integer(text, "subset id")
    else:
        raise ValueError(f"cannot parse subset literal {value!r}")
    if bits < 0 or (n is not None and bits >= (1 << n)):
        raise ValueError(f"subset {value!r} out of range for n={n}")
    return bits


def format_subset(bits: int) -> str:
    return "{" + ",".join(str(e) for e in elements(bits)) + "}"


def submasks_ascending(mask: int):
    """All submasks of mask in increasing integer order, 0 through mask."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def cone(n: int, f: int, kind: str) -> list[int]:
    """Members of the down-set, up-set or full comparability cone of f.

    kind: "down" = all subsets of f, "up" = all supersets, "incident" =
    their union.  Ascending ids.  Refuses n above the enumeration cap.
    """
    check_dimension(n)
    check_subset_id(f, n)
    if kind == "down":
        return list(submasks_ascending(f))
    if kind == "up":
        return [f | s for s in submasks_ascending(full_set(n) & ~f)]
    if kind == "incident":
        down = list(submasks_ascending(f))
        up = [f | s for s in submasks_ascending(full_set(n) & ~f)]
        return sorted(set(down) | set(up))
    raise ValueError(f"unknown cone kind {kind!r}")


def cone_size(n: int, f: int, kind: str) -> int:
    """Exact cone cardinality without enumeration; valid up to the analytic cap."""
    check_dimension(n, analytic=True)
    check_subset_id(f, n)
    k = f.bit_count()
    if kind == "down":
        return 1 << k
    if kind == "up":
        return 1 << (n - k)
    if kind == "incident":
        return (1 << k) + (1 << (n - k)) - 1
    raise ValueError(f"unknown cone kind {kind!r}")


@dataclass(frozen=True)
class Interval:
    """Sets H with lo <= H <= hi, endpoints excluded when the flag is open."""

    lo: int
    hi: int
    lo_open: bool = False
    hi_open: bool = False


def interval_size(iv: Interval) -> int:
    """Exact member count; no enumeration, so any dimension is fine."""
    if not is_subset(iv.lo, iv.hi):
        return 0
    d = (iv.hi & ~iv.lo).bit_count()
    return max(0, (1 << d) - int(iv.lo_open) - int(iv.hi_open))


def interval_members(iv: Interval) -> list[int]:
    """Enumerated members, ascending.  Error above the enumeration cap."""
    if not is_subset(iv.lo, iv.hi):
        return []
    diff = iv.hi & ~iv.lo
    if diff.bit_count() > ENUMERATION_CAP:
        raise ValueError("interval too large to enumerate; use interval_size")
    out = [iv.lo | s for s in submasks_ascending(diff)]
    if iv.lo_open and out and out[0] == iv.lo:
        out = out[1:]
    if iv.hi_open and out and out[-1] == iv.hi:
        out = out[:-1]
    return out


def subset_permutation_table(n: int, perm) -> list[int]:
    """Table t with t[s] = image of s when ground element i maps to perm[i-1]+1.

    perm is a permutation of range(n) in image form.
    """
    singles = [1 << perm[i] for i in range(n)]
    size = 1 << n
    table = [0] * size
    for s in range(1, size):
        low = (s & -s).bit_length() - 1
        table[s] = table[s & (s - 1)] | singles[low]
    return table


def all_subset_permutation_tables(n: int) -> list[list[int]]:
    """One subset-image table per element permutation; identity comes first."""
    return [subset_permutation_table(n, p) for p in permutations(range(n))]


def canonical_assignment(n: int, values) -> tuple:
    """Lexicographically least relabeling of a length-2^n array under S_n.

    The symmetric group acts on ground elements, hence on subset ids; two
    arrays canonicalize identically iff they are in one orbit.  Exact
    orbit minimization only, so capped at n <= CANONICAL_CAP.
    """
    if n > CANONICAL_CAP:
        raise ValueError(f"orbit canonicalization is exact-only and capped at n <= {CANONICAL_CAP}")
    size = 1 << n
    if len(values) != size:
        raise ValueError(f"assignment length {len(values)} != 2^{n}")
    best = None
    scratch = [0] * size
    for table in all_subset_permutation_tables(n):
        for s in range(size):
            scratch[table[s]] = values[s]
        cand = tuple(scratch)
        if best is None or cand < best:
            best = cand
    return best
