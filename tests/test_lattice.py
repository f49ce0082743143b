"""Core subset/cone/interval arithmetic against direct enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_lattice.lattice import (CANONICAL_CAP, Interval, canonical_assignment,
                                     comparable, cone, cone_size, format_subset,
                                     full_set, interval_members, interval_size,
                                     parse_subset, subset_of,
                                     subset_permutation_table, submasks_ascending)
from oracles import oracle_cone, oracle_interval_members


def test_comparable_examples():
    assert comparable(0, subset_of([1]))                 # empty set below everything
    assert not comparable(subset_of([1]), subset_of([2]))
    assert comparable(subset_of([1, 3]), subset_of([1, 2, 3]))


def test_comparable_reflexive_symmetric():
    for a in range(16):
        assert comparable(a, a)
        for b in range(16):
            assert comparable(a, b) == comparable(b, a)


def test_cone_examples():
    assert cone(2, subset_of([1]), "incident") == [0, 0b01, 0b11]
    assert cone(5, 0, "down") == [0]
    assert len(cone(3, subset_of([1]), "incident")) == 2 ** 1 + 2 ** 2 - 1


def test_cone_matches_enumeration():
    for n in (1, 2, 3, 4):
        for f in range(1 << n):
            for kind in ("down", "up", "incident"):
                assert cone(n, f, kind) == oracle_cone(n, f, kind)


def test_cone_size_formula_all_f_up_to_n10():
    for n in range(1, 11):
        for f in range(1 << n):
            k = f.bit_count()
            assert cone_size(n, f, "incident") == 2 ** k + 2 ** (n - k) - 1
    # enumerated cross-check at a size where it is still cheap
    for f in range(1 << 10):
        assert cone_size(10, f, "down") == len(list(submasks_ascending(f)))


def test_cone_cap_error():
    with pytest.raises(ValueError):
        cone(21, 0, "down")
    assert cone_size(40, 1, "incident") == 2 + 2 ** 39 - 1


def test_interval_size_examples():
    assert interval_size(Interval(subset_of([1]), subset_of([1, 2, 3]), True, False)) == 3
    assert interval_size(Interval(0, full_set(5))) == 32
    assert interval_size(Interval(subset_of([1, 2]), subset_of([1, 3]), True, False)) == 0


def test_interval_size_matches_enumeration_b6():
    n = 6
    flags = [(False, False), (True, False), (False, True), (True, True)]
    for lo in range(1 << n):
        for hi in range(1 << n):
            for lo_open, hi_open in flags:
                iv = Interval(lo, hi, lo_open, hi_open)
                members = oracle_interval_members(n, iv)
                assert interval_size(iv) == len(members)
                if lo & ~hi == 0:
                    assert interval_members(iv) == members


def test_subset_literals():
    assert parse_subset("{1,3}") == 0b101
    assert parse_subset("{}") == 0
    assert parse_subset(7) == 7
    assert parse_subset(" 12 ") == 12
    assert format_subset(0b101) == "{1,3}"
    assert parse_subset(format_subset(37)) == 37
    with pytest.raises(ValueError):
        parse_subset("{1,3}", n=2)
    with pytest.raises(ValueError):
        parse_subset(-1)
    with pytest.raises(ValueError, match="True"):
        parse_subset(True)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data())
def test_subset_literal_roundtrip_and_range(n, data):
    s = data.draw(st.integers(0, (1 << n) - 1))
    assert parse_subset(format_subset(s), n) == s
    assert parse_subset(str(s), n) == s
    outside = data.draw(st.one_of(st.integers(-(1 << n), -1),
                                  st.integers(1 << n, 1 << (n + 2))))
    for literal in (outside, str(outside)):
        with pytest.raises(ValueError, match="out of range"):
            parse_subset(literal, n)
    if outside > 0:
        with pytest.raises(ValueError, match="out of range"):
            parse_subset(format_subset(outside), n)


def test_permutation_table_is_bijection():
    table = subset_permutation_table(3, (2, 0, 1))
    assert sorted(table) == list(range(8))
    assert table[0b001] == 0b100  # element 1 -> element 3


class TestCanonicalAssignment:
    def test_orbit_constant_exhaustive_n2(self):
        from itertools import permutations, product
        for values in product(range(3), repeat=4):
            canon = canonical_assignment(2, values)
            for perm in permutations(range(2)):
                table = subset_permutation_table(2, perm)
                moved = [0] * 4
                for s, v in enumerate(values):
                    moved[table[s]] = v
                assert canonical_assignment(2, moved) == canon

    def test_orbit_constant_exhaustive_n3(self):
        from itertools import permutations, product
        tables = [subset_permutation_table(3, p) for p in permutations(range(3))]
        for values in product(range(3), repeat=8):
            canon = canonical_assignment(3, values)
            for table in tables:
                moved = [0] * 8
                for s, v in enumerate(values):
                    moved[table[s]] = v
                assert canonical_assignment(3, moved) == canon

    def test_orbit_constant_randomized_n4(self):
        from itertools import permutations
        rng = random.Random(7)
        tables = [subset_permutation_table(4, p) for p in permutations(range(4))]
        for _ in range(150):
            values = [rng.randrange(4) for _ in range(16)]
            canon = canonical_assignment(4, values)
            table = rng.choice(tables)
            moved = [0] * 16
            for s, v in enumerate(values):
                moved[table[s]] = v
            assert canonical_assignment(4, moved) == canon

    def test_idempotent(self):
        rng = random.Random(3)
        for n in (2, 3, 4):
            values = [rng.randrange(3) for _ in range(1 << n)]
            once = canonical_assignment(n, values)
            assert canonical_assignment(n, list(once)) == once

    def test_fixed_points_and_cap(self):
        assert canonical_assignment(3, [0] * 8) == tuple([0] * 8)
        with pytest.raises(ValueError):
            canonical_assignment(CANONICAL_CAP + 1, [0] * (1 << (CANONICAL_CAP + 1)))
