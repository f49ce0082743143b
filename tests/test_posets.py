"""Poset construction, duality, components and copy detection vs oracles."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_lattice.lattice import full_set, subset_of
from rainbow_lattice.posets import Poset, build_poset, find_copy
from oracles import naive_find_copy

POSET_SPECS = ["A2", "A3", "P2", "P3", "V2", "W2", "D2"]


def test_builtin_examples():
    a3 = build_poset("A3")
    assert a3.size == 3 and not a3.less
    d2 = build_poset("D2")
    assert d2.less == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    s = build_poset("V1+A2")
    assert s.size == 4
    assert len(s.less) == 1
    assert len(s.components()) == 3


def test_explicit_specs():
    p = build_poset({"size": 3, "relations": [[0, 1], [1, 2]]})
    assert p.is_less(0, 2)  # closure
    q = build_poset('{"size": 2, "relations": [[0, 1]]}')
    assert q.is_isomorphic_to(build_poset("P2"))


def test_malformed_and_cyclic():
    with pytest.raises(ValueError):
        build_poset("Q3")
    with pytest.raises(ValueError):
        build_poset("A0")
    with pytest.raises(ValueError):
        build_poset({"size": 2, "relations": [[0, 1], [1, 0]]})
    with pytest.raises(ValueError):
        build_poset({"size": 1, "relations": [[0, 0]]})


# JSON values an explicit poset object may carry, with small integers
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.floats(-2, 5),
                     st.text(max_size=2))
_JSON = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(["size", "relations", "name"]),
                       st.one_of(_JSON, st.lists(st.lists(_SCALARS, max_size=3), max_size=3)),
                       max_size=3),
       st.booleans())
def test_malformed_objects_raise_value_error(obj, as_text):
    # any explicit object builds a poset or raises ValueError, never a
    # KeyError or TypeError: bad input is the caller's error, not a crash
    spec = json.dumps(obj) if as_text else obj
    try:
        p = build_poset(spec)
    except ValueError:
        return
    assert p.size == obj["size"] and len(p.less) >= len(set(map(tuple, obj.get("relations", []))))


@pytest.mark.parametrize("spec", [
    '{"relations": []}', '{"size": 2, "relations": [[0, "1"]]}',
    '{"size": 2, "relations": 5}', '{"size": "2"}', '{"size": 2, "relations": [[0, 1, 1]]}',
    '{"size": true}', '{"size": 2.0}', '{"size": 2, "relations": [[0, 1.5]]}', '{"size": 2',
])
def test_malformed_object_examples(spec):
    with pytest.raises(ValueError):
        build_poset(spec)


def test_closure_irreflexive_for_all_builtins():
    for spec in POSET_SPECS + ["V3", "W4", "P5", "V1+A2", "P2+P3"]:
        p = build_poset(spec)
        for i, j in p.less:
            assert i != j
            for j2, k in p.less:
                if j2 == j:
                    assert (i, k) in p.less


def test_dual():
    assert build_poset("V2").dual().is_isomorphic_to(build_poset("W2"))
    a4 = build_poset("A4")
    assert a4.dual() == a4
    assert build_poset("P3").dual().is_isomorphic_to(build_poset("P3"))
    for spec in POSET_SPECS:
        p = build_poset(spec)
        assert p.dual().dual() == p


def test_components():
    assert len(build_poset("P3").components()) == 1
    assert len(build_poset("V1+A2").components()) == 3
    assert len(build_poset("A4").components()) == 4
    assert build_poset("D2").is_connected()


def test_find_copy_examples():
    b2 = [0, 0b01, 0b10, 0b11]
    assert find_copy(b2, build_poset("D2")) is not None
    chain3 = [0, 0b001, 0b011]
    assert find_copy(chain3, build_poset("A2")) is None
    assert find_copy(chain3, build_poset("V2")) is None
    emb = find_copy(chain3, build_poset("P3"))
    assert emb is not None
    assert emb[0] == 0 and emb[2] == 0b011


def test_find_copy_embedding_is_valid():
    rng = random.Random(11)
    for _ in range(300):
        family = rng.sample(range(16), rng.randint(1, 6))
        p = build_poset(rng.choice(POSET_SPECS))
        mode = rng.choice(("induced", "weak"))
        emb = find_copy(family, p, mode)
        if emb is None:
            continue
        assert len(set(emb.values())) == p.size
        for a in range(p.size):
            for b in range(p.size):
                if p.is_less(a, b):
                    assert emb[a] != emb[b] and emb[a] & ~emb[b] == 0
                elif mode == "induced" and a < b and not p.is_less(b, a):
                    x, y = emb[a], emb[b]
                    assert x & ~y and y & ~x  # incomparable


def test_induced_implies_weak():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.choice((3, 4))
        family = rng.sample(range(1 << n), rng.randint(1, 6))
        p = build_poset(rng.choice(POSET_SPECS))
        if find_copy(family, p, "induced") is not None:
            assert find_copy(family, p, "weak") is not None


def test_complement_duality():
    rng = random.Random(9)
    for _ in range(400):
        n = rng.choice((3, 4))
        family = rng.sample(range(1 << n), rng.randint(1, 6))
        complemented = [full_set(n) ^ f for f in family]
        p = build_poset(rng.choice(POSET_SPECS))
        for mode in ("induced", "weak"):
            a = find_copy(family, p, mode) is not None
            b = find_copy(complemented, p.dual(), mode) is not None
            assert a == b


def test_against_all_injections_oracle_exhaustive_b3():
    """Every family of size <= 6 in B_3, every builtin, both modes."""
    posets = [build_poset(s) for s in POSET_SPECS]
    universe = list(range(8))
    for size in range(1, 7):
        for family in combinations(universe, size):
            for p in posets:
                for mode in ("induced", "weak"):
                    got = find_copy(list(family), p, mode) is not None
                    want = naive_find_copy(family, p, mode)
                    assert got == want, (family, p.name, mode)


def test_vee_wedge_shapes():
    from rainbow_lattice.posets import is_vee_shape, is_wedge_shape
    assert is_vee_shape(build_poset("V3"))
    assert is_vee_shape(build_poset("P2"))     # V1 is the comparable pair
    assert is_wedge_shape(build_poset("P2"))
    assert not is_vee_shape(build_poset("D2"))
    assert not is_wedge_shape(build_poset("P3"))
    assert not is_vee_shape(build_poset("A3"))


def test_poset_repr_and_names():
    assert "V2" in repr(build_poset("V2"))
    assert build_poset("a2").size == 2  # case-insensitive


def test_subset_of_rejects_bad_elements():
    with pytest.raises(ValueError):
        subset_of([0])
    assert Poset(1).size == 1
