"""Coloring statistics and rainbow validation against the tuple oracle."""

import random
import re
import warnings
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbow_lattice.coloring import (ClassStats, Coloring, PosetFamily, _lexmin_sets,
                                      canonicalize, class_stats, has_rainbow, validate,
                                      validate_incremental)
from rainbow_lattice.constructions import lift3_coloring, p3_total_coloring
from rainbow_lattice.kernel import RainbowKernel, class_masks
from rainbow_lattice.lattice import COLOR_CAP
from rainbow_lattice.posets import build_poset
from oracles import copy_tuples, oracle_has_rainbow, oracle_rainbow_witnesses, rainbow_copy


def test_class_stats_examples():
    c = Coloring(2, 2, [1, 1, 1, 1])
    stats = class_stats(c)
    assert stats.sizes == (4, 0) and stats.min_size == 0 and stats.uncolored == 0

    stats = class_stats(Coloring.empty(3, 3))
    assert stats.sizes == (0, 0, 0) and stats.uncolored == 8

    rep = lift3_coloring(3, "three_color")
    stats = class_stats(rep.coloring)
    assert stats.sizes == (2, 2, 2) and stats.uncolored == 2


def test_class_stats_totals():
    rng = random.Random(1)
    for _ in range(50):
        n, l = rng.choice(((2, 2), (3, 3), (4, 2)))
        c = Coloring(n, l, [rng.randrange(l + 1) for _ in range(1 << n)])
        stats = class_stats(c)
        assert sum(stats.sizes) + stats.uncolored == 1 << n


def test_validate_examples():
    c = Coloring(2, 2, [0, 1, 2, 0])   # {1}->1, {2}->2
    w = validate(c, PosetFamily.from_spec("A2"))
    assert w is not None and w.sets == (1, 2)

    assert validate(Coloring.empty(3, 2), PosetFamily.from_spec("A2,P2,D2")) is None

    rep = p3_total_coloring(4)
    assert validate(rep.coloring, PosetFamily.from_spec("P3")) is None


def test_validate_reports_lexmin_witness():
    rng = random.Random(23)
    members = [build_poset(s) for s in ("A2", "P2", "P3", "V2")]
    tuple_cache = {}
    for _ in range(250):
        n = 3
        l = rng.choice((2, 3))
        c = Coloring(n, l, [rng.randrange(l + 1) for _ in range(1 << n)])
        p = rng.choice(members)
        mode = rng.choice(("induced", "weak"))
        if p.size > l:
            continue
        key = (p.name, mode)
        if key not in tuple_cache:
            tuple_cache[key] = copy_tuples(n, p, mode)
        oracle = oracle_rainbow_witnesses(c.assign, tuple_cache[key])
        got = validate(c, PosetFamily((p,), mode))
        if not oracle:
            assert got is None
        else:
            assert got is not None
            assert got.sets == oracle[0], (c.assign, p.name, mode)
            # the reported embedding is a copy on those sets, colored as reported
            images = tuple(got.embedding[i] for i in range(p.size))
            assert images in tuple_cache[key] and tuple(sorted(images)) == got.sets
            assert got.colors == tuple(c.assign[s] for s in got.sets)


def test_validate_agrees_with_oracle_b4_random():
    rng = random.Random(41)
    specs = ["A2", "A3", "P2", "P3", "V2", "W2", "D2"]
    cache = {}
    for _ in range(400):
        n = 4
        l = rng.choice((3, 4))
        c = Coloring(n, l, [rng.randrange(l + 1) for _ in range(1 << n)])
        spec = rng.choice(specs)
        mode = rng.choice(("induced", "weak"))
        p = build_poset(spec)
        if p.size > l:
            continue
        key = (spec, mode)
        if key not in cache:
            cache[key] = copy_tuples(n, p, mode)
        want = oracle_has_rainbow(c.assign, cache[key])
        assert (validate(c, PosetFamily((p,), mode)) is not None) == want


def test_validate_incremental_examples_and_agreement():
    c = Coloring(2, 2, [0, 1, 0, 0])
    c.assign[2] = 2
    w = validate_incremental(c, 2, PosetFamily.from_spec("A2"))
    assert w is not None and w.sets == (1, 2)

    # random incremental growth stays in agreement with the full validate
    rng = random.Random(77)
    fam = PosetFamily.from_spec("A2,P3")
    checks = 0
    while checks < 10_000:
        c = Coloring.empty(3, 3)
        ids = list(range(8))
        rng.shuffle(ids)
        for s in ids:
            color = rng.randrange(1, 4)
            c.assign[s] = color
            winc = validate_incremental(c, s, fam)
            wfull = validate(c, fam)
            assert (winc is None) == (wfull is None)
            if winc is not None:
                assert winc.sets == wfull.sets
                c.assign[s] = 0  # keep the precondition for the next step
            checks += 1
            if checks >= 10_000:
                break


PINNED_SPECS = ("A2", "A3", "A4", "P2", "P3", "V2", "W2", "D2")


@lru_cache(maxsize=None)
def _tuples(n, spec, mode):
    return copy_tuples(n, build_poset(spec), mode)


@st.composite
def pinned_colorings(draw, max_n):
    """(n, l, assign, s) with the set s colored."""
    n = draw(st.integers(1, max_n))
    l = draw(st.integers(2, 5))
    assign = draw(st.lists(st.integers(0, l), min_size=1 << n, max_size=1 << n))
    s = draw(st.integers(0, (1 << n) - 1))
    assign[s] = draw(st.integers(1, l))
    return n, l, assign, s


@settings(max_examples=300, deadline=None)
@given(pinned_colorings(4), st.sampled_from(PINNED_SPECS), st.sampled_from(("induced", "weak")))
def test_validate_incremental_is_least_witness_through_the_set(case, spec, mode):
    n, l, assign, s = case
    want = oracle_rainbow_witnesses(assign, [t for t in _tuples(n, spec, mode) if s in t])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # oversized members and weak antichains
        got = validate_incremental(Coloring(n, l, assign), s,
                                   PosetFamily((build_poset(spec),), mode))
    assert (None if got is None else got.sets) == (want[0] if want else None)


def _reference_lexmin(c, poset, mode, must):
    """The lexicographically least witness of poset (through must) by the
    same greedy as coloring._lexmin_sets, each step one rainbow_copy search:
    the least x such that some copy uses the sets chosen so far, x and must,
    and otherwise only colored sets above x."""
    universe = c.colored_ids()
    chosen = []
    while len(chosen) < poset.size:
        floor = chosen[-1] if chosen else -1
        for x in universe:
            if x <= floor:
                continue
            req = chosen + [x]
            if must is not None and must not in req:
                if must < x:
                    continue
                req.append(must)
            pool = chosen + [y for y in universe if y >= x]
            if rainbow_copy(poset, mode, pool, c.assign, req) is not None:
                chosen.append(x)
                break
        else:
            assert not chosen, "witness disappeared during minimization"
            return None
    return tuple(chosen)


@settings(max_examples=200, deadline=None)
@given(pinned_colorings(5), st.sampled_from(PINNED_SPECS), st.sampled_from(("induced", "weak")),
       st.booleans())
def test_kernel_minimizer_matches_rainbow_copy_greedy(case, spec, mode, pinned):
    n, l, assign, s = case
    c, poset = Coloring(n, l, assign), build_poset(spec)
    must = s if pinned else None
    kernel = RainbowKernel(n, l, [poset], mode, bytearray(assign))
    assert _lexmin_sets(poset, must, kernel) == _reference_lexmin(c, poset, mode, must)


def _sparse_coloring(rng, n, l, chains, length):
    """A few random chains of B_n, each set colored at random: sparse, yet
    with comparable sets of distinct colors."""
    assign = [0] * (1 << n)
    for _ in range(chains):
        s = 0
        for _ in range(length):
            s |= sum(1 << e for e in rng.sample(range(n), rng.randint(1, 3)))
            assign[s] = rng.randint(1, l)
    return Coloring(n, l, assign)


@pytest.mark.parametrize("n", (14, 20))
def test_validate_above_table_size_matches_rainbow_copy_greedy(n):
    # whole cone tables stop at n = 13; above it the masks are computed on
    # demand, and validate must still report the reference greedy's witness
    rng = random.Random(n)
    specs = ("A3", "P3", "V2", "D2") if n == 14 else ("P3", "D2")
    witnesses = 0
    for spec in specs:
        poset = build_poset(spec)
        c = _sparse_coloring(rng, n, 4, chains=4, length=5)
        for mode in ("induced", "weak"):
            got = validate(c, PosetFamily((poset,), mode))
            want = _reference_lexmin(c, poset, mode, None)
            assert (None if got is None else got.sets) == want, (spec, mode)
            witnesses += want is not None
        must = rng.choice(c.colored_ids())
        got = validate_incremental(c, must, PosetFamily((poset,), "induced"))
        assert (None if got is None else got.sets) == _reference_lexmin(c, poset, "induced", must)
    assert witnesses >= len(specs)


def test_validate_incremental_requires_colored_set():
    with pytest.raises(ValueError):
        validate_incremental(Coloring.empty(2, 2), 1, PosetFamily.from_spec("A2"))


@pytest.mark.parametrize("just_colored", (-2, -1, 4, 5))
def test_validate_incremental_rejects_ids_outside_the_lattice(just_colored):
    c = Coloring(2, 2, [0, 1, 2, 1])
    fam = PosetFamily.from_spec("A2")
    assert validate_incremental(c, 2, fam).sets == (1, 2)
    with pytest.raises(ValueError, match="outside B_2"):
        validate_incremental(c, just_colored, fam)


def test_color_permutation_equivariance():
    rng = random.Random(13)
    fam = PosetFamily.from_spec("A2,V2")
    for _ in range(200):
        l = 3
        c = Coloring(3, l, [rng.randrange(l + 1) for _ in range(8)])
        perm = list(range(1, l + 1))
        rng.shuffle(perm)
        relabeled = c.relabeled({i + 1: perm[i] for i in range(l)})
        assert (validate(c, fam) is None) == (validate(relabeled, fam) is None)
        assert class_stats(c).min_size == min(class_stats(relabeled).sizes)


def test_uncoloring_a_class_preserves_validity():
    rng = random.Random(19)
    fam = PosetFamily.from_spec("A2")
    found = 0
    while found < 50:
        c = Coloring(3, 3, [rng.randrange(4) for _ in range(8)])
        if validate(c, fam) is not None:
            continue
        found += 1
        kill = rng.randrange(1, 4)
        wiped = Coloring(3, 3, [0 if v == kill else v for v in c.assign])
        assert validate(wiped, fam) is None


def test_oversized_member_warns_and_passes():
    c = Coloring(2, 2, [1, 2, 1, 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert validate(c, PosetFamily.from_spec("P3")) is None
    assert any("more elements than colors" in str(w.message) for w in caught)


@pytest.mark.parametrize("l, spec, reduced", [
    (2, "P3,A2", "A2"), (2, "A2,A3,P2", "A2,P2"), (3, "V3,P3,D2", "P3"),
    (3, "D2,A3", "A3")])
def test_vacuous_members_change_no_verdict(l, spec, reduced):
    # a member with more than l elements is dropped: the same verdict and
    # the same witness sets, with member_index still pointing into spec
    rng = random.Random(23)
    fam, small = PosetFamily.from_spec(spec), PosetFamily.from_spec(reduced)
    kept = [i for i, p in enumerate(fam.members) if p.size <= l]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100):
            c = Coloring(3, l, [rng.randrange(l + 1) for _ in range(8)])
            assert has_rainbow(c, fam) == has_rainbow(c, small)
            w, want = validate(c, fam), validate(c, small)
            assert (w is None) == (want is None)
            if w is not None:
                assert w.sets == want.sets and w.colors == want.colors
                assert w.member_index == kept[want.member_index]
                assert w.poset is fam.members[w.member_index]


def test_a_repeated_shape_is_read_once(monkeypatch):
    # the first member of each shape stands for every later one: a witness
    # names it, and the detector searches the shape once
    p2 = '{"size": 2, "relations": [[1, 0]]}'
    fam = PosetFamily.from_spec(f"A2,{p2},P2,A2")
    assert [idx for idx, _ in fam.within(2)] == [0, 1]
    w = validate(Coloring(2, 2, [1, 2, 0, 0]), fam)  # the empty set below {1}
    assert (w.member_index, w.sets) == (1, (0, 1))
    calls = 0
    extend = RainbowKernel._extend

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return extend(self, *args)

    monkeypatch.setattr(RainbowKernel, "_extend", counting)
    c = lift3_coloring(8, "three_color").coloring
    counts = []
    for spec in ("V2", "V2,V2", "P3,V2,W2", "V2,P3,V2,W2,P3"):
        calls = 0
        assert validate(c, PosetFamily.from_spec(spec)) is None
        counts.append(calls)
    assert counts[0] == counts[1] and counts[2] == counts[3]


def test_a_member_dropped_for_size_warns_per_occurrence():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kept = PosetFamily.from_spec("P4,A3,P4,A3").within(3)
    assert [idx for idx, _ in kept] == [1]
    assert [str(w.message).count("Poset(P4) has more elements") for w in caught] == [1, 1]


def test_weak_antichain_warns_degenerate():
    c = Coloring(2, 2, [1, 2, 0, 0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w = validate(c, PosetFamily.from_spec("A2", mode="weak"))
    assert w is not None  # any two distinctly colored sets qualify
    assert any("degenerate" in str(m.message) for m in caught)


def test_has_rainbow_matches_validate():
    rng = random.Random(3)
    fam = PosetFamily.from_spec("P2,A2")
    for _ in range(200):
        c = Coloring(3, 2, [rng.randrange(3) for _ in range(8)])
        assert has_rainbow(c, fam) == (validate(c, fam) is not None)


def test_json_roundtrip():
    c = Coloring(3, 2, [0, 1, 2, 0, 1, 2, 0, 1])
    assert Coloring.from_json_dict(c.to_json_dict()) == c


@st.composite
def _colorings(draw):
    n, l = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    low = 1 if draw(st.booleans()) else 0   # total or partial
    assign = draw(st.lists(st.integers(low, l), min_size=1 << n, max_size=1 << n))
    return Coloring(n, l, assign)


@settings(max_examples=200, deadline=None)
@given(_colorings())
def test_json_roundtrip_random(c):
    assert Coloring.from_json_dict(c.to_json_dict()) == c


@settings(max_examples=200, deadline=None)
@given(_colorings(), st.data())
def test_out_of_range_color_names_first_bad_value(c, data):
    size = 1 << c.n
    bad = st.one_of(st.integers(-5, -1), st.integers(c.l + 1, c.l + 5))
    spots = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4,
                               unique=True))
    assign = list(c.assign)
    for s in spots:
        assign[s] = data.draw(bad)
    first = assign[min(spots)]
    with pytest.raises(ValueError, match=f"^color {first} outside 0..{c.l}$"):
        Coloring(c.n, c.l, assign)


@st.composite
def mixed_assignments(draw):
    """(n, l, assign): colors in 0..l and True, and in half the draws also
    1.0, negatives, l + 1, 255 and 256; l up to COLOR_CAP and beyond."""
    n = draw(st.integers(1, 4))
    l = draw(st.sampled_from((1, 2, 254, 255, 256, 300)))
    value = st.one_of(st.integers(0, l), st.just(True))
    if draw(st.booleans()):
        value = st.one_of(value, st.sampled_from((1.0, l + 1, 255, 256)), st.integers(-3, -1))
    return n, l, draw(st.lists(value, min_size=1 << n, max_size=1 << n))


@settings(max_examples=300, deadline=None)
@given(mixed_assignments())
@example((2, 256, [0, 1, 2, 3]))
@example((2, 3, [0, 1.0, 2, 3]))
@example((2, 3, [0, 1, -1, 3]))
def test_range_check_agrees_with_the_set_of_values(case):
    n, l, assign = case
    if l > COLOR_CAP:
        with pytest.raises(ValueError, match=f"outside 1..{COLOR_CAP} \\(COLOR_CAP"):
            Coloring(n, l, assign)
    elif all(isinstance(v, int) and 0 <= v <= l for v in assign):
        got = Coloring(n, l, assign).assign
        assert type(got) is bytearray and list(got) == assign
    else:
        first = next(v for v in assign if not (isinstance(v, int) and 0 <= v <= l))
        with pytest.raises(ValueError, match=f"^color {re.escape(str(first))} outside 0..{l}$"):
            Coloring(n, l, assign)


@st.composite
def byte_colorings(draw):
    """(Coloring, its colors as a list, a permutation of 1..l): n <= 6, l up
    to COLOR_CAP."""
    n = draw(st.integers(1, 6))
    l = draw(st.one_of(st.integers(1, 5), st.sampled_from((254, COLOR_CAP))))
    assign = draw(st.lists(st.integers(0, l), min_size=1 << n, max_size=1 << n))
    return Coloring(n, l, assign), assign, draw(st.permutations(range(1, l + 1)))


@settings(max_examples=200, deadline=None)
@given(byte_colorings())
def test_byte_format_agrees_with_per_set_loops(case):
    c, assign, images = case
    masks = [0] * (c.l + 1)
    for s, v in enumerate(assign):
        if v:
            masks[v] |= 1 << s
    assert class_masks(c.assign, c.l) == masks
    sizes = [sum(1 for v in assign if v == color) for color in range(c.l + 1)]
    assert class_stats(c) == ClassStats(tuple(sizes[1:]), sizes[0], min(sizes[1:]))
    color_map = dict(zip(range(1, c.l + 1), images))
    got = c.relabeled(color_map)
    assert type(got.assign) is bytearray
    assert list(got.assign) == [color_map[v] if v else 0 for v in assign]


def test_canonicalize_coloring():
    c1 = Coloring(2, 1, [0, 1, 0, 0])   # {1} colored
    c2 = Coloring(2, 1, [0, 0, 1, 0])   # {2} colored
    assert canonicalize(c1) == canonicalize(c2)
    empty = Coloring.empty(3, 2)
    assert canonicalize(empty) == empty
    # exhaustive orbit constancy at n = 2
    from itertools import product
    for values in product(range(3), repeat=4):
        c = Coloring(2, 2, list(values))
        assert canonicalize(canonicalize(c)) == canonicalize(c)
        swapped = c.permuted((1, 0))
        assert canonicalize(swapped) == canonicalize(c)


def test_coloring_validation_errors():
    with pytest.raises(ValueError):
        Coloring(2, 2, [0, 1, 2])
    with pytest.raises(ValueError):
        Coloring(2, 2, [0, 1, 3, 0])
    with pytest.raises(ValueError):
        Coloring(2, 0, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        PosetFamily((), "induced")
