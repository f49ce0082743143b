"""Closed-form extremal values, the entropy-equation scan, and exact
rational inequality checks.

Everything with shrinking margins is exact: the products and sweeps carry
integer numerators and denominators, and a fractions.Fraction is built only
where a function returns one.  Only the entropy/root code uses floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, log2, perm

from .coloring import PosetFamily
from .lattice import check_dimension


@dataclass(frozen=True)
class FormulaValue:
    value: int | float | None
    applicable: bool
    condition_note: str = ""
    source: str = ""


def m_of_l(l: int) -> int:
    """Least m whose central binomial coefficient reaches l."""
    if l < 1:
        raise ValueError("l must be positive")
    m = 0
    while comb(m, m // 2) < l:
        m += 1
    return m


def equipartition_a(n: int, l: int) -> int:
    """The unique 1 <= a <= l with l - a == n (mod l); equivalently the
    number of parts of size floor(n/l) in an equipartition of [n]."""
    r = n % l
    return l - r if r else l


def a2_hypothesis_note(n: int, l: int) -> str:
    """Why (n, l) fails the closed form's hypothesis l*log2(l) <= n (checked
    integer-exactly), or "" when it holds; n is refused beyond ANALYTIC_CAP."""
    check_dimension(n, analytic=True)
    if l < 1:
        raise ValueError(f"color count l={l} must be at least 1")
    # for l >= 2, l > n already gives l^l >= 2^l > 2^n: the powers are
    # computed only when l <= n, so a huge l answers at once
    if l > n or l ** l > 2 ** n:
        return f"requires l*log2(l) <= n; fails for (n={n}, l={l})"
    return ""


def formula_A2(n: int, l: int) -> FormulaValue:
    """Exact max-min class size for l-colorings with no rainbow incomparable
    pair, under the hypothesis l*log2(l) <= n and, for l >= 2, n >= 2l.

    l*log2(l) <= n holds with 2 <= l and n < 2l only at (2, 2), (3, 2) and
    (5, 3), where exhaustive search gives 2 (the closed form would give 1,
    3 and 4); those answer not-applicable."""
    source = "l-color incomparable-pair formula"
    if note := a2_hypothesis_note(n, l):
        return FormulaValue(None, False, note, source=source)
    if l >= 2 and n < 2 * l:
        return FormulaValue(None, False, f"requires n >= 2l; exhaustive search gives 2 "
                            f"at (n={n}, l={l})", source=source)
    a = equipartition_a(n, l)
    return FormulaValue(2 ** (n // l) - 2 + (l + 1) // a, True, f"a={a}", source=source)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0)=H(1)=0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * log2(x) - (1.0 - x) * log2(1.0 - x)


def c0_equation_gap(x: float) -> float:
    """H(x) - (1-x) H((1-2x)/(1-x)) on (0, 1/2); its zeros are the c0 candidates."""
    return binary_entropy(x) - (1.0 - x) * binary_entropy((1.0 - 2.0 * x) / (1.0 - x))


def solve_c0(tol: float = 1e-10) -> dict:
    """Scan (0, 1/2) in steps of 1e-3 for sign changes of the c0 equation
    gap and bisect each bracket to |gap| < tol.

    Returns all roots found plus whether any lies in [1/3, 1/2], the interval
    in which the root is conventionally stated to live.  Finding no sign
    change is reported, not fatal.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    xs = []
    x = 1e-3
    while x < 0.5:
        xs.append(x)
        x += 1e-3
    roots = []
    prev_x, prev_g = xs[0], c0_equation_gap(xs[0])
    for x in xs[1:]:
        g = c0_equation_gap(x)
        if prev_g == 0.0:
            roots.append({"root": prev_x, "residual": 0.0, "bracket": (prev_x, prev_x)})
        elif g != 0.0 and (prev_g < 0) != (g < 0):
            lo, hi = prev_x, x
            glo = prev_g
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                gm = c0_equation_gap(mid)
                if abs(gm) < tol:
                    break
                if (glo < 0) == (gm < 0):
                    lo, glo = mid, gm
                else:
                    hi = mid
            mid = 0.5 * (lo + hi)
            roots.append({"root": mid, "residual": abs(c0_equation_gap(mid)),
                          "bracket": (prev_x, x)})
        prev_x, prev_g = x, g
    first = roots[0] if roots else None
    return {
        "roots": roots,
        "root": first["root"] if first else None,
        "residual": first["residual"] if first else None,
        "bracket": first["bracket"] if first else None,
        "in_stated_interval": any(1.0 / 3.0 <= r["root"] <= 0.5 for r in roots),
        "note": "" if roots else "no sign change of the gap function in (0, 1/2)",
    }


def squared_ratio_product(l: int, i: int) -> Fraction:
    """prod_{h=1..i} ((l-h)/(l-h+1))^2, exactly, for l >= 1 and 0 <= i <= l-1.

    All i factors are multiplied out as integers, the numerators
    l-1 .. l-i as the falling product perm(l-1, i) and the denominators
    l .. l-i+1 as perm(l, i), and reduced once."""
    if l < 1 or not 0 <= i <= l - 1:
        raise ValueError(f"need l >= 1 and 0 <= i <= l-1, got (l={l}, i={i})")
    return Fraction(perm(l - 1, i), perm(l, i)) ** 2


def g_of_l(l: int) -> Fraction:
    """The full telescoping product over all l-1 factors; equals 1/l^2."""
    return squared_ratio_product(l, l - 1)


def _stage_overlap_exceeds(l: int, i: int, num: int, den: int) -> bool:
    """Whether i/l + num/den > 1 - 1/(3l), for den > 0: the stage-overlap
    inequality multiplied through by 3*l*den, in integers."""
    return 3 * (i * den + l * num) > (3 * l - 1) * den


def eq_inequality_check(l: int, i: int) -> dict:
    """Exact rational test of i/l + prod_{h<=i}((l-h)/(l-h+1))^2 <= 1 - 1/(3l)."""
    if l < 2 or not 1 <= i <= l - 1:
        raise ValueError(f"need l >= 2 and 1 <= i <= l-1, got (l={l}, i={i})")
    p = squared_ratio_product(l, i)
    return {"lhs": Fraction(i, l) + p, "rhs": 1 - Fraction(1, 3 * l),
            "holds": not _stage_overlap_exceeds(l, i, p.numerator, p.denominator)}


def delta_l(l: int, i: int) -> Fraction:
    """Step decrement of the per-chain overlap function: strictly decreasing
    in i, which makes the overlap function convex."""
    if l < 2 or not 1 <= i <= l - 1:
        raise ValueError(f"need l >= 2 and 1 <= i <= l-1, got (l={l}, i={i})")
    bracket = 1 - Fraction(l - i, l - i + 1) ** 2
    return bracket * squared_ratio_product(l, i - 1)


def delta_pairs(l: int):
    """delta_l(1..l-1) as positive integer (numerator, denominator) pairs,
    not reduced, with the running product carried along as a reduced
    integer numerator/denominator pair."""
    num = den = 1
    for i in range(1, l):
        a, b = (l - i) ** 2, (l - i + 1) ** 2
        yield (b - a) * num, b * den
        num, den = num * a, den * b
        g = gcd(num, den)
        num, den = num // g, den // g


def delta_sequence(l: int) -> list[Fraction]:
    """All of delta_l(1..l-1), from delta_pairs."""
    return [Fraction(num, den) for num, den in delta_pairs(l)]


def eq_sweep(l_max: int) -> list[tuple[int, int]]:
    """Every (l, i) with 2 <= l <= l_max violating the stage-overlap
    inequality; the product is carried incrementally as a reduced integer
    numerator/denominator pair.  Expected to come back empty.  The test is
    _stage_overlap_exceeds, written inline: it runs once per (l, i)."""
    bad = []
    for l in range(2, l_max + 1):
        num = den = 1
        edge = 3 * l - 1
        for i in range(1, l):
            num, den = num * (l - i) ** 2, den * (l - i + 1) ** 2
            g = gcd(num, den)
            num, den = num // g, den // g
            if 3 * (i * den + l * num) > edge * den:
                bad.append((l, i))
    return bad


def known_value(n: int, l: int, forbidden_spec: str, kind: str = "partial") -> FormulaValue:
    """Exact value when some known theorem covers (n, l, family, kind).

    kind is "partial" (uncolored sets allowed) or "total".  The family may
    be spelled any way PosetFamily.from_spec reads (builtin names in any
    order, "+"-sums, JSON objects, members with more than l elements added):
    it is looked up by its builtin_key(l), and a malformed spec or l < 1 is a
    ValueError.  Values carry a source tag.  Anything uncovered, a member
    that is no builtin or a family with no member left included, comes back
    not-applicable.  n is refused beyond ANALYTIC_CAP.
    """
    check_dimension(n, analytic=True)
    if kind not in ("partial", "total"):
        raise ValueError(f"unknown kind {kind!r}")
    if l < 1:
        raise ValueError(f"color count l={l} must be at least 1")
    key = PosetFamily.from_spec(forbidden_spec).builtin_key(l) or ()
    na = FormulaValue(None, False, "no covering theorem for "
                      f"(n={n}, l={l}, {','.join(key) or forbidden_spec}, {kind})")

    if key == ("A2",):
        if kind == "total":
            return na
        fv = formula_A2(n, l)
        if l == 2 and fv.applicable:
            return FormulaValue(fv.value, True, fv.condition_note,
                                source="two-color incomparable-pair value")
        return fv
    if key == ("P2",) and l == 2 and n >= 2:
        if kind == "partial":
            return FormulaValue(2 ** (n - 2), True, "",
                                source="cross-incomparable pair product bound (Ahlswede-Zhang)")
        return FormulaValue(0, True, "every set compares to the empty set",
                            source="total two-coloring forces one empty class")
    if key == ("P3",) and l == 3 and n >= 2:
        if kind == "total":
            return FormulaValue(2 ** (n - 2), True, "",
                                source="three-color chain-free total value")
        return FormulaValue(None, False, "partial three-color chain-free value is conjectural")
    if key == ("P3", "V2", "W2") and l == 3 and n >= 3 and kind == "partial":
        return FormulaValue(2 ** (n - 2), True, "",
                            source="simultaneous chain/fork/join three-color value")
    if key == ("D2",) and l == 4 and n >= 3:
        return FormulaValue(2 ** (n - 2), True, "",
                            source="four-color diamond-free value (partial and total agree)")
    if len(key) == 1 and key[0].startswith("P") and key[0][1:].isdigit():
        k = int(key[0][1:])
        if k == l and k >= 4 and n >= 2 and kind == "partial":
            return FormulaValue(2 ** n // k, True, "",
                                source="k-color chain-free ceiling, met by a split construction")
    return na
