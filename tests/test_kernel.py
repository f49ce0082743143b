"""The bitset rainbow kernel against the labelled reference search and the
brute-force oracles, both in tests/oracles.py."""

import random
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rainbow_lattice import kernel
from rainbow_lattice.coloring import PosetFamily, validate
from rainbow_lattice.constructions import lift3_coloring
from rainbow_lattice.kernel import (_TABLE_BITS, RainbowKernel, _copy_plans, antichain_reach,
                                    class_masks, completion_plans, mask_tables)
from rainbow_lattice.lattice import ENUMERATION_CAP, comparable, is_subset
from rainbow_lattice.posets import build_poset
from oracles import copy_tuples, oracle_has_rainbow, rainbow_copy

SPECS = ("A2", "A3", "A4", "P2", "P3", "P4", "V2", "W2", "D2", "P2+A1",
         '{"size": 4, "relations": [[0, 2], [1, 2], [1, 3]]}')


@lru_cache(maxsize=None)
def _tuples(n, spec, mode):
    return copy_tuples(n, build_poset(spec), mode)


@st.composite
def partial_colorings(draw):
    n = draw(st.integers(1, 4))
    l = draw(st.integers(1, 5))
    assign = draw(st.lists(st.integers(0, l), min_size=1 << n, max_size=1 << n))
    return n, l, assign


@settings(max_examples=300, deadline=None)
@given(partial_colorings(), st.sampled_from(SPECS), st.sampled_from(("induced", "weak")),
       st.one_of(st.none(), st.integers(0, 15)))
def test_kernel_agrees_with_rainbow_copy_and_oracle(coloring, spec, mode, containing):
    n, l, assign = coloring
    if containing is not None:
        containing %= 1 << n
    poset = build_poset(spec)
    kernel = RainbowKernel(n, l, [poset], mode, bytearray(assign))
    if containing is None:
        got = kernel.scan()
    elif assign[containing]:
        got = kernel.through(containing)
    else:
        got = False
    colored = [s for s, v in enumerate(assign) if v]
    required = () if containing is None else (containing,)
    ref = rainbow_copy(poset, mode, colored, assign, required)
    tuples = _tuples(n, spec, mode)
    if containing is not None:
        tuples = [t for t in tuples if containing in t]
    assert got == (ref is not None) == oracle_has_rainbow(assign, tuples)


@settings(max_examples=100, deadline=None)
@given(partial_colorings(), st.sets(st.sampled_from(SPECS), min_size=2, max_size=4),
       st.sampled_from(("induced", "weak")))
def test_kernel_family_is_any_member(coloring, specs, mode):
    n, l, assign = coloring
    specs = sorted(specs)
    kernel = RainbowKernel(n, l, [build_poset(s) for s in specs], mode, bytearray(assign))
    want = any(oracle_has_rainbow(assign, _tuples(n, s, mode)) for s in specs)
    assert kernel.scan() == want


@st.composite
def copy_using_cases(draw):
    n, l, assign = draw(partial_colorings())
    spec = draw(st.sampled_from(SPECS))
    mode = draw(st.sampled_from(("induced", "weak")))
    colored = [s for s, v in enumerate(assign) if v]
    assume(colored)
    x = draw(st.sampled_from(colored))
    # half the time the required sets come from a rainbow copy through x:
    # its sets below x and some above, so that the answer is often yes
    rainbow = [t for t in _tuples(n, spec, mode) if x in t and oracle_has_rainbow(assign, [t])]
    if rainbow and draw(st.booleans()):
        t = sorted(draw(st.sampled_from(rainbow)))
        above = t[t.index(x) + 1:]
        others = t[:t.index(x)]
        if above:
            others += draw(st.lists(st.sampled_from(above), max_size=2, unique=True))
    else:
        others = draw(st.lists(st.sampled_from(colored), max_size=2, unique=True))
    return n, l, assign, spec, mode, x, [s for s in others if s != x][:2]


@settings(max_examples=500, deadline=None)
@given(copy_using_cases())
# the one image left is the required set
@example((2, 2, [1, 2, 0, 0], "P2", "induced", 0, [1]))
# copies through x exist, but none holds every required set: one left for
# the last image, and two left with two images to place
@example((4, 4, [2, 1, 0, 4, 1, 2, 3, 0, 2, 3, 4, 2, 0, 2, 1, 3], "P3", "weak", 10, [5]))
@example((4, 5, [0, 4, 2, 0, 0, 1, 0, 2, 0, 5, 5, 2, 3, 4, 5, 3], "W2", "induced", 12, [9, 11]))
def test_copy_using_agrees_with_oracle(case):
    # one step of the least-witness search: a rainbow copy holding x and the
    # required sets, every other set above x; with zero to two required sets
    # besides x the last image is tested with and without one still required
    n, l, assign, spec, mode, x, others = case
    poset = build_poset(spec)
    kernel = RainbowKernel(n, l, [poset], mode, bytearray(assign))
    req = {x, *others}
    tuples = [t for t in _tuples(n, spec, mode)
              if req <= set(t) and all(s > x for s in set(t) - req)]
    found = kernel.least_using(poset, set(others), 1 << x) == x
    assert found == oracle_has_rainbow(assign, tuples)


# seeded n = 5 colorings, about 40% of the sets colored; P2+A1 in weak mode
# leaves the last image unrelated to the one before it.  The strings are the
# results of the top-level _extend calls made by scan() and then through(s)
# for every colored s, in call order, recorded from a search that placed
# every image one by one.  The D2, V2 and W2 strings dropped the calls of
# the plans that only relabel an earlier one; each returned what its kept
# twin returned.  At n = 5 the closure rule settles D2 in scan(), so the D2
# strings hold only the calls of through(s): the earlier strings less their
# first 13 and 11 characters, the calls scan() made.
N5_CASES = {
    (0, "D2", "induced", 4): "00000000000000000010000100001000001",
    (0, "P3", "induced", 3): "00000000001000100000000000000000000001001",
    (0, "V2", "induced", 3): "00000000001001000100000000000001",
    (0, "W2", "induced", 3): "00000000001010101000101010000011",
    (0, "P2+A1", "weak", 3): "0000000000000011110111101001101",
    (1, "D2", "induced", 4): "110101000010000000101001001",
    (1, "P3", "induced", 3): "000011111010000000100000100101001",
    (1, "V2", "induced", 3): "00000111110101110101010101",
    (1, "W2", "induced", 3): "000010001010010001010111011",
    (1, "P2+A1", "weak", 3): "0000000011111111110101101",
}


@pytest.mark.parametrize("seed, spec, mode, l", N5_CASES)
def test_n5_scan_and_through_match_oracle(seed, spec, mode, l, monkeypatch):
    rng = random.Random(seed)
    assign = [rng.randint(1, l) if rng.random() < 0.4 else 0 for _ in range(32)]
    calls = []
    extend = RainbowKernel._extend

    def recording(self, steps, k, imgs, free, need):
        found = extend(self, steps, k, imgs, free, need)
        if k == 0:
            calls.append("1" if found else "0")
        return found

    monkeypatch.setattr(RainbowKernel, "_extend", recording)
    kernel = RainbowKernel(5, l, [build_poset(spec)], mode, bytearray(assign))
    tuples = _tuples(5, spec, mode)
    assert kernel.scan() == oracle_has_rainbow(assign, tuples)
    for s, c in enumerate(assign):
        if c:
            want = oracle_has_rainbow(assign, [t for t in tuples if s in t])
            assert kernel.through(s) == want
    assert "".join(calls) == N5_CASES[seed, spec, mode, l]


@pytest.mark.parametrize("spec", ["P2+A1", "A2"])
def test_color_masks_stay_the_class_masks(spec, monkeypatch):
    # the masks are built once from the bytes: a scan that stops at the
    # first copy writes none of them, and a toggle pair restores them.  Both
    # members take the copy search, which pins sets through `through`
    rng = random.Random(7)
    assign = bytearray([1, 2, 1, 0] + [rng.randint(0, 3) for _ in range(59)] + [3])
    want = class_masks(assign, 3)
    mode = "weak" if spec == "P2+A1" else "induced"
    kernel = RainbowKernel(6, 3, [build_poset(spec)], mode, assign)
    assert kernel.color_mask == want
    pinned = []
    through = RainbowKernel.through

    def recording(self, pos, newest=False):
        pinned.append(pos)
        return through(self, pos, newest)

    monkeypatch.setattr(RainbowKernel, "through", recording)
    assert kernel.scan()
    # a weak P2+A1 takes three colors, first met at {1, 2} (id 6, color 3),
    # which lies above the empty set; {1} and {2} are incomparable
    assert pinned == ([0, 1, 2, 4, 5, 6] if spec == "P2+A1" else [0, 1, 2])
    assert kernel.color_mask == want
    for s in (1, 63):
        kernel.toggle(s)
        assert kernel.color_mask != want
        kernel.toggle(s)
        assert kernel.color_mask == want


def test_copy_search_calls_on_the_four_color_lift3(monkeypatch):
    # a valid coloring makes the search try everything; an x that leaves the
    # next image no candidate is skipped without a call.  scan settles D2 by
    # its closure rule and makes no call, so the copy search is counted on
    # through(s) for every set s, which runs all three plans
    calls = 0
    extend = RainbowKernel._extend

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return extend(self, *args)

    rep = lift3_coloring(10, "four_color")
    kernel = RainbowKernel(10, 4, [build_poset("D2")], "induced", rep.coloring.assign)
    monkeypatch.setattr(RainbowKernel, "_extend", counting)
    assert validate(rep.coloring, PosetFamily.from_spec("D2")) is None
    assert calls == 0
    assert not any(kernel.through(s) for s in range(1 << 10))
    assert calls == 42_438


# the members the closure rules serve: chains in either mode, and the
# induced fork, join and diamond
CLOSURE_SPECS = [*((f"P{k}", mode) for k in range(2, 6) for mode in ("induced", "weak")),
                 ("V2", "induced"), ("W2", "induced"), ("D2", "induced")]


@lru_cache(maxsize=None)
def _closure_tuples(n, spec, mode):
    if (n, spec) == (5, "P5"):  # every P5 in B_5 tops a P4 with one more set
        return [t + (s,) for t in _tuples(5, "P4", mode) for s in range(32)
                if is_subset(t[-1], s) and s != t[-1]]
    return _tuples(n, spec, mode)


@st.composite
def closure_cases(draw):
    # random partial colorings, half the time thinned out to about half the
    # sets, and half the time with a rainbow copy planted on top
    spec, mode = draw(st.sampled_from(CLOSURE_SPECS))
    size = build_poset(spec).size
    n = draw(st.integers(1, 5))
    l = draw(st.integers(size, size + 2))
    assign = draw(st.lists(st.integers(0, l), min_size=1 << n, max_size=1 << n))
    if draw(st.booleans()):
        keep = draw(st.integers(0, (1 << (1 << n)) - 1))
        assign = [c if keep >> s & 1 else 0 for s, c in enumerate(assign)]
    tuples = _closure_tuples(n, spec, mode)
    if tuples and draw(st.booleans()):
        planted = draw(st.sampled_from(tuples))
        for s, c in zip(planted, draw(st.permutations(range(1, l + 1)))):
            assign[s] = c
    return n, l, spec, mode, assign


@settings(max_examples=500, deadline=None)
@given(closure_cases())
def test_closure_rules_agree_with_oracle(case):
    # the rules whatever n is, scan takes them only where they pay
    n, l, spec, mode, assign = case
    kernel = RainbowKernel(n, l, [build_poset(spec)], mode, bytearray(assign))
    want = oracle_has_rainbow(assign, _closure_tuples(n, spec, mode))
    assert kernel.closes([spec]) == want


@pytest.mark.parametrize("spec, mode, n, l, shape", [
    ("P3", "induced", 5, 3, None), ("P3", "weak", 6, 3, "P3"), ("V2", "induced", 6, 3, "V2"),
    ("V2", "weak", 6, 3, None), ("D2", "induced", 3, 4, "D2"), ("P2+A1", "induced", 8, 3, None),
    # P4 under four colors closes 14 masks: more than the 8 sets of B_3
    ("P4", "induced", 3, 4, None), ("P4", "induced", 4, 4, "P4"), ("A3", "induced", 8, 3, None)])
def test_scan_takes_a_closure_rule_where_it_pays(spec, mode, n, l, shape):
    kernel = RainbowKernel(n, l, [build_poset(spec)], mode, bytearray(1 << n))
    assert kernel.shapes == (shape,)
    assert not kernel.scan()


@st.composite
def antichain_cases(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(2, 5))
    l = draw(st.integers(k - 1, k + 2))
    assign = draw(st.lists(st.integers(0, l), min_size=1 << n, max_size=1 << n))
    return n, k, l, assign


@settings(max_examples=400, deadline=None)
@given(antichain_cases())
def test_antichain_search_agrees_with_oracle(case):
    # l = k - 1 has too few colors; l > k lets the search leave colors unused
    n, k, l, assign = case
    kernel = RainbowKernel(n, l, [build_poset(f"A{k}")], "induced", bytearray(assign))
    tuples = _tuples(n, f"A{k}", "induced")
    assert kernel.scan() == oracle_has_rainbow(assign, tuples)
    for s, c in enumerate(assign):
        if c:
            assert kernel.through(s) == oracle_has_rainbow(assign, [t for t in tuples if s in t])


@settings(max_examples=300, deadline=None)
@given(antichain_cases(), st.integers(1, 4), st.integers(0, (1 << 16) - 1))
def test_antichain_reach_is_the_union_over_cliques(case, need, target):
    # every choice of need sets from distinct colors, pairwise incomparable:
    # the target sets incomparable to all of them
    n, _, l, assign = case
    size = 1 << n
    target &= (1 << size) - 1
    classes = [[s for s in range(size) if assign[s] == c] for c in range(1, l + 1)]
    classes = [cls for cls in classes if cls]
    want = 0
    for chosen in combinations(classes, need):
        for sets in product(*chosen):
            if all(not comparable(a, b) for a, b in combinations(sets, 2)):
                want |= sum(1 << t for t in range(size) if target >> t & 1
                            and all(not comparable(t, x) for x in sets))
    masks = [sum(1 << s for s in cls) for cls in classes]
    assert antichain_reach(masks, need, target, mask_tables(n).incomp) == want


@settings(max_examples=300, deadline=None)
@given(antichain_cases(), st.integers(1, 4), st.integers(0, (1 << 16) - 1))
def test_antichain_reach_is_linear_in_its_target(case, need, target):
    # the walk on a target is the walk on every set, cut to the target: the
    # solver keeps one walk per (set, masks) and reuses it for any target
    n, _, l, assign = case
    size = 1 << n
    target &= (1 << size) - 1
    masks = [m for c in range(1, l + 1)
             if (m := sum(1 << s for s in range(size) if assign[s] == c))]
    incomp = mask_tables(n).incomp
    everything = antichain_reach(masks, need, (1 << size) - 1, incomp)
    assert antichain_reach(masks, need, target, incomp) == target & everything


@pytest.mark.parametrize("spec", ["P2", "A2", "P3", "A3", "V2", "W2", "P2+A1", "A4", "A6", "D2"])
@pytest.mark.parametrize("induced", [True, False])
def test_domain_rules_reach_only_later_sets(spec, induced):
    # the solver places sets in ascending id order and catches a copy when
    # its second-largest set s is placed: the role b of the later set t is
    # never below the role a of s, and no other element lies above either,
    # so the steps place the others among the earlier sets
    poset = build_poset(spec)
    t = mask_tables(3)
    plans = completion_plans(poset, induced, 3)
    assert plans
    seen = set()
    for steps, cuts in plans:
        assert len(steps) == poset.size - 2 and len(cuts) == poset.size - 1
        # t lies below no image: b is not below a, nor below any other element
        assert t.down not in cuts
        for k, step in enumerate(steps):
            assert all(j <= k for _, j in step)  # only images placed already
            # the others lie below s or apart from it: no element is above a
            assert all(x is not t.up or j for x, j in step)
        key = tuple(tuple((id(x), j) for x, j in step) for step in steps), tuple(map(id, cuts))
        assert key not in seen  # relabelings are kept once
        seen.add(key)
    if spec in ("P2", "P3", "A3"):
        assert len(plans) == 1
    if spec == "P2":
        assert plans == (((), (t.up,)),)
    if spec == "P3":
        steps = (((t.down, 0),),)  # the bottom below s, then t above both
        assert plans == ((steps, (t.up, t.up)),)
    if spec == "A3":
        cut = t.incomp if induced else None
        step = ((t.incomp, 0),) if induced else ()
        assert plans == (((step,), (cut, cut)),)
    # a one-element member has no pair of roles: the solver empties the domains
    assert completion_plans(build_poset("A1"), induced, 3) == ()


@pytest.mark.parametrize("induced", [True, False])
def test_copy_plans_keep_one_plan_per_relabeling(induced, monkeypatch):
    # (plans, maximal plans): a fork's tops, a join's bottoms and the
    # diamond's middles each pin one search, which scan and through run once
    counts = {spec: (len(plans), sum(maximal for maximal, _ in plans))
              for spec in ("V2", "V3", "W2", "W3", "D2", "P3", "P2+A1")
              for plans in [_copy_plans(build_poset(spec), induced, 4)]}
    assert counts == {"V2": (2, 1), "V3": (2, 1), "W2": (2, 1), "W3": (2, 1),
                      "D2": (3, 1), "P3": (3, 1), "P2+A1": (3, 2)}
    # both plan builders key a plan by the one helper
    keyed, plan_key = [], kernel._plan_key

    def recording(*plan):
        keyed.append(len(plan))
        return plan_key(*plan)

    monkeypatch.setattr(kernel, "_plan_key", recording)
    v2 = build_poset("V2")
    _copy_plans.__wrapped__(v2, induced, 4)
    assert keyed == [1, 1, 1]  # steps, for each of the three elements pinned first
    completion_plans.__wrapped__(v2, induced, 4)
    assert keyed[3:] and set(keyed[3:]) == {2}  # steps and cuts


@pytest.mark.parametrize("n", [*range(1, 7), 13, 14, 20])
def test_mask_tables_match_comparable(n):
    # every pair up to n = 6; above, sampled sets: n = 13 is the largest
    # whole table, n = 14 a lazy store, and n = 20 looks up more sets than
    # its store holds, so the store empties itself on the way
    t = mask_tables(n)
    size = 1 << n
    if n <= 6:
        sets, others = range(size), range(size)
    else:
        rng = random.Random(n)
        sets = [0, size - 1] + rng.sample(range(size), 150)
        others = [0, size - 1] + rng.sample(range(size), 30)
    for s in sets:
        masks = t.down[s], t.up[s], t.incomp[s]
        assert max(masks).bit_length() <= size
        for u in others:
            assert (masks[0] >> u & 1) == is_subset(u, s)
            assert (masks[1] >> u & 1) == is_subset(s, u)
            assert (masks[2] >> u & 1) == (not comparable(s, u))
        if n == 20:
            assert s in t.down  # the store keeps what it computed
    assert isinstance(t.incomp, tuple) == (n <= 13)
    if n > 13:
        assert len(t.down) <= _TABLE_BITS >> n


def test_mask_tables_capped():
    # one detector up to the enumeration cap, none beyond it
    with pytest.raises(ValueError, match="outside 1..20"):
        mask_tables(ENUMERATION_CAP + 1)
