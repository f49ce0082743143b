"""Closed forms, entropy, the root scan, and the exact rational sweeps."""

import math
import random
import warnings
from fractions import Fraction

import pytest

from rainbow_lattice import bounds
from rainbow_lattice.bounds import (_stage_overlap_exceeds, binary_entropy, c0_equation_gap,
                                    delta_l, delta_sequence, eq_inequality_check, eq_sweep,
                                    formula_A2, g_of_l, known_value, m_of_l,
                                    solve_c0, squared_ratio_product)
from rainbow_lattice.coloring import PosetFamily
from rainbow_lattice.solver import solve_min_class


def test_m_of_l():
    assert m_of_l(1) == 0
    assert m_of_l(2) == 2
    assert m_of_l(3) == 3
    assert m_of_l(6) == 4
    assert m_of_l(7) == 5
    with pytest.raises(ValueError):
        m_of_l(0)


def test_formula_A2_spots():
    assert formula_A2(4, 2).value == 3
    assert formula_A2(6, 3).value == 3
    assert formula_A2(5, 2).value == 5
    fv = formula_A2(4, 3)
    assert not fv.applicable and fv.value is None


def test_formula_A2_matches_two_color_closed_forms():
    for n in range(4, 31, 2):
        assert formula_A2(n, 2).value == 2 ** (n // 2) - 1
    for n in range(5, 31, 2):
        assert formula_A2(n, 2).value == 2 ** (n // 2) + 1


def test_formula_A2_agrees_with_exhaustive_search():
    # the pairs 2 <= l <= n <= 6 with l*log2(l) <= n; where also n < 2l the
    # closed form does not apply and exhaustive search gives 2
    want = {(4, 2): 3, (5, 2): 5, (6, 2): 7, (6, 3): 3,
            (2, 2): None, (3, 2): None, (5, 3): None}
    for n in range(2, 7):
        for l in range(2, n + 1):
            value = want.get((n, l))
            fv = formula_A2(n, l)
            assert (fv.value, fv.applicable) == (value, value is not None), (n, l)
            if (n, l) in want:
                solved = solve_min_class(n, l, PosetFamily.from_spec("A2"))
                assert (solved.status, solved.value) == ("optimal", value or 2), (n, l)


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0 == binary_entropy(1.0)
    assert abs(binary_entropy(1 / 3) - (math.log2(3) - 2 / 3)) < 1e-12
    rng = random.Random(0)
    for _ in range(10_000):
        x = rng.random()
        h = binary_entropy(x)
        assert abs(h - binary_entropy(1 - x)) < 1e-12
        assert 0.0 <= h <= 1.0
    with pytest.raises(ValueError):
        binary_entropy(1.5)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_c0_gap_behavior():
    # positive at 1/3 (the inner argument is exactly 1/2 there) ...
    g_third = c0_equation_gap(1 / 3)
    assert abs(g_third - (binary_entropy(1 / 3) - 2 / 3)) < 1e-12
    assert g_third > 0
    # ... and vanishing toward the left endpoint
    assert abs(c0_equation_gap(1e-6)) < 1e-9


def test_solve_c0_scan():
    out = solve_c0(tol=1e-10)
    assert all(r["residual"] < 1e-10 for r in out["roots"])
    assert isinstance(out["in_stated_interval"], bool)
    # the scan finds no sign change in (0, 1/2): the gap is strictly positive
    assert out["roots"] == [] and out["note"]
    assert not out["in_stated_interval"]
    with pytest.raises(ValueError):
        solve_c0(tol=0)


def test_c0_gap_positive_on_grid():
    x = 1e-3
    while x < 0.5:
        assert c0_equation_gap(x) > 0
        x += 1e-3


def test_eq_inequality_examples():
    out = eq_inequality_check(2, 1)
    assert out["lhs"] == Fraction(3, 4) and out["rhs"] == Fraction(5, 6)
    assert out["holds"]
    for l in (3, 10, 57):
        out = eq_inequality_check(l, l - 1)
        assert out["lhs"] == Fraction(l - 1, l) + Fraction(1, l * l)
    with pytest.raises(ValueError):
        eq_inequality_check(2, 2)
    with pytest.raises(ValueError):
        eq_inequality_check(1, 1)


def test_eq_sweep_l200():
    assert eq_sweep(200) == []
    # the incremental sweep agrees with the point evaluation
    for l, i in ((2, 1), (7, 3), (50, 49)):
        assert eq_inequality_check(l, i)["holds"]


def test_telescoping_l500():
    for l in range(2, 501):
        assert g_of_l(l) == Fraction(1, l * l)


def test_delta_strictly_decreasing_l200():
    for l in range(3, 201):
        vals = delta_sequence(l)
        assert all(a > b for a, b in zip(vals, vals[1:])), l
        assert vals[0] == delta_l(l, 1) and vals[-1] == delta_l(l, l - 1)


def test_delta_consistent_with_eq_differences():
    # f(l,i+1) - f(l,i) = 1/l - delta(i+1), exactly
    for l in (3, 5, 12):
        for i in range(1, l - 1):
            f_i = Fraction(i, l) + squared_ratio_product(l, i)
            f_next = Fraction(i + 1, l) + squared_ratio_product(l, i + 1)
            assert f_next - f_i == Fraction(1, l) - delta_l(l, i + 1)


# Term-by-term Fraction references: one normalised Fraction per factor.

def _ref_squared_ratio_product(l, i):
    out = Fraction(1)
    for h in range(1, i + 1):
        out *= Fraction(l - h, l - h + 1) ** 2
    return out


def _ref_delta_sequence(l):
    out = []
    prod = Fraction(1)
    for i in range(1, l):
        step = Fraction(l - i, l - i + 1) ** 2
        out.append((1 - step) * prod)
        prod *= step
    return out


def test_exact_arithmetic_matches_fraction_reference():
    for l in range(1, 61):
        for i in range(l):
            got = squared_ratio_product(l, i)
            assert type(got) is Fraction and got == _ref_squared_ratio_product(l, i), (l, i)
        assert g_of_l(l) == _ref_squared_ratio_product(l, l - 1)
        if l < 2:
            continue
        ref = _ref_delta_sequence(l)
        got = delta_sequence(l)
        assert all(type(d) is Fraction for d in got) and got == ref, l
        for i in range(1, l):
            assert delta_l(l, i) == ref[i - 1], (l, i)
            lhs = Fraction(i, l) + _ref_squared_ratio_product(l, i)
            rhs = 1 - Fraction(1, 3 * l)
            assert eq_inequality_check(l, i) == {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs}


def test_product_range_checks():
    assert g_of_l(1) == 1 and squared_ratio_product(1, 0) == 1
    assert squared_ratio_product(5, 0) == 1
    for l in (0, -2):
        with pytest.raises(ValueError):
            g_of_l(l)
    for l, i in ((3, 5), (3, 3), (3, -1), (0, 0), (-1, 0)):
        with pytest.raises(ValueError):
            squared_ratio_product(l, i)


def test_stage_overlap_comparison_flags_violations():
    # i/l + num/den against 1 - 1/(3l); at (l, i) = (3, 1) the bound is met
    # with equality by num/den = 5/9
    assert _stage_overlap_exceeds(2, 1, 1, 1)              # 1/2 + 1 > 5/6
    assert not _stage_overlap_exceeds(3, 1, 5, 9)
    assert not _stage_overlap_exceeds(3, 1, 10, 18)        # unreduced pair
    assert _stage_overlap_exceeds(3, 1, 51, 90)
    assert not _stage_overlap_exceeds(3, 1, 49, 90)
    rng = random.Random(0)
    for _ in range(2000):
        l = rng.randint(2, 40)
        i = rng.randint(1, l - 1)
        den = rng.randint(1, 10 ** 6)
        num = rng.randint(0, 2 * den)
        want = Fraction(i, l) + Fraction(num, den) > 1 - Fraction(1, 3 * l)
        assert _stage_overlap_exceeds(l, i, num, den) == want, (l, i, num, den)


def test_eq_sweep_compares_the_exact_product(monkeypatch):
    # the sweep is empty on the real bound, so check what it compares and
    # that whatever the comparison flags is reported.  Its one gcd call per
    # (l, i) sees the unreduced product.  A negative gcd leaves the reduced
    # denominator negative, which reverses the sweep's integer comparison;
    # the bound holds strictly at every pair, so exactly the pairs given
    # one then exceed it
    pairs = [(l, i) for l in range(2, 41) for i in range(1, l)]
    flagged = [(l, i) for l, i in pairs if (l + i) % 3 == 0]
    seen = []

    def reduce(num, den):
        l, i = pairs[len(seen)]
        seen.append((l, i, Fraction(num, den)))
        g = math.gcd(num, den)
        return -g if (den < 0) != ((l, i) in flagged) else g

    monkeypatch.setattr(bounds, "gcd", reduce)
    got = eq_sweep(40)
    assert seen == [(l, i, _ref_squared_ratio_product(l, i)) for l, i in pairs]
    assert got == flagged


def test_known_value_table():
    assert known_value(5, 2, "A2").value == 5
    assert known_value(4, 4, "P4").value == 4
    assert not known_value(7, 3, "V2").applicable
    assert known_value(4, 2, "P2").value == 4
    assert known_value(4, 2, "P2", "total").value == 0
    assert known_value(5, 3, "P3", "total").value == 8
    assert not known_value(5, 3, "P3", "partial").applicable
    assert known_value(3, 3, "W2,P3,V2").value == 2      # order-insensitive key
    assert known_value(6, 4, "D2").value == known_value(6, 4, "D2", "total").value == 16
    for n, l in ((2, 2), (3, 2), (5, 3)):
        assert not known_value(n, l, "A2").applicable
    assert known_value(10, 5, "P5").value == 1024 // 5
    with pytest.raises(ValueError):
        known_value(3, 2, "A2", "half")


def test_known_value_drops_vacuous_members():
    # a member with more than l elements changes nothing; with no member
    # left no theorem applies
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert known_value(4, 4, "P4,A5") == known_value(4, 4, "P4")
        assert known_value(4, 4, "P4,A5").value == 4
        assert known_value(6, 4, "A5,D2", "total") == known_value(6, 4, "D2", "total")
        assert known_value(5, 2, "A2,P3") == known_value(5, 2, "A2")
        assert known_value(3, 3, "P3,V2,W2,A4") == known_value(3, 3, "P3,V2,W2")
        assert not known_value(4, 2, "P3,A3").applicable
    # and a color count below 1 is no family's
    with pytest.raises(ValueError, match="l=0"):
        known_value(3, 0, "A2")


def test_known_value_reads_a_repeated_shape_once():
    # A2 twice is A2, and an explicit chain of two beside P2 is P2
    assert known_value(6, 2, "A2,A2") == known_value(6, 2, "A2")
    assert known_value(6, 2, "A2,A2").value == 7
    p2 = '{"size": 2, "relations": [[0, 1]]}'
    assert known_value(6, 2, f"{p2},P2") == known_value(6, 2, "P2")
    assert known_value(6, 2, f"{p2},P2").value == 16


def test_closed_forms_refuse_n_beyond_the_analytic_cap():
    # both build powers of 2 ** n, so n is capped before any is computed
    assert formula_A2(63, 2).value == 2 ** 31 + 1
    assert known_value(63, 2, "P2").value == 2 ** 61
    for call in (formula_A2, lambda n, l: known_value(n, l, "P2")):
        with pytest.raises(ValueError, match="n=64"):
            call(64, 2)


def test_known_value_reads_any_spelling():
    # members are recognised up to isomorphism, so every spelling of a
    # family keys the same theorem
    p2 = '{"size": 2, "relations": [[0, 1]]}'
    assert known_value(4, 2, p2) == known_value(4, 2, "P2")
    assert known_value(6, 2, p2).value == 16
    d2 = '{"size": 4, "relations": [[3, 1], [3, 2], [1, 0], [2, 0]]}'
    assert known_value(6, 4, d2).value == 16
    assert known_value(3, 3, f'V2, {{"size": 3, "relations": [[2, 0], [0, 1]]}},w2').value == 2
    assert known_value(5, 2, "A1+A1").value == known_value(5, 2, "a2").value == 5
    # a member that is no builtin is covered by no theorem, and the note
    # names the family as given
    fv = known_value(5, 3, "P2+A1")
    assert not fv.applicable and fv.condition_note == \
        "no covering theorem for (n=5, l=3, P2+A1, partial)"
    assert known_value(7, 3, "v2").condition_note == \
        "no covering theorem for (n=7, l=3, V2, partial)"
    for spec in ("X9", "P0", "", '{"size": 2, "relations": [[0, 1], [1, 0]]}', '{"size": 2'):
        with pytest.raises(ValueError):
            known_value(4, 2, spec)
