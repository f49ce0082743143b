"""Exact solver vs full enumeration, chain decomposition, product bound,
and the greedy tuple/cover diagnostics."""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_lattice import kernel, solver
from rainbow_lattice.coloring import Coloring, PosetFamily, class_stats, validate
from rainbow_lattice.lattice import (all_subset_permutation_tables, canonical_assignment,
                                     comparable, full_set, interval_members, Interval)
from rainbow_lattice.posets import build_poset
from rainbow_lattice.solver import (az_decompose, cross_sperner_check,
                                    greedy_tuples_and_cover, solve_min_class)
from rainbow_lattice.verify import (max_cross_sperner_product_exhaustive,
                                    random_cross_comparable_families,
                                    random_valid_coloring)
from oracles import (copy_tuples, oracle_az_decompose, oracle_least_witness, oracle_solve,
                     ordered_set_partitions)


# every poset of at most three elements: the members the search forward-checks
SMALL_SHAPES = ("A1", "A2", "P2", "A3", "P3", "V2", "W2", "P2+A1")


def _agrees_with_oracle(n, l, specs, mode, kind):
    """The search's value and witness at the optimum are the oracle's: the
    first valid assignment attaining it, with or without orbit pruning."""
    posets = [build_poset(s) for s in specs]
    value, first = oracle_least_witness(
        n, l, [copy_tuples(n, p, mode) for p in posets if p.size <= l], kind)
    if kind == "partial":
        # the lemma behind the search's partial cap, checked on the oracle
        assert all(first.count(c) == value for c in range(1, l + 1)), (n, l, specs, mode)
    for sym_prune in (True, False):
        got = solve_min_class(n, l, PosetFamily(tuple(posets), mode), kind=kind,
                              use_construction_seed=False, sym_prune=sym_prune)
        assert (got.value, got.witness and got.witness.assign) == (value, first), \
            (n, l, specs, mode, kind, sym_prune)


def _full_prefix_lex_leader(invs, assign, pos):
    """Reference check: no permutation maps the first pos positions to a
    lexicographically smaller image, compared up to the first position the
    image does not fully determine."""
    for inv in invs:
        for t in range(pos):
            q = inv[t]
            if q >= pos:
                break
            if assign[q] != assign[t]:
                if assign[q] < assign[t]:
                    return False
                break
    return True


class TestSolveKnownValues:
    def test_f_4_2_A2(self):
        res = solve_min_class(4, 2, PosetFamily.from_spec("A2"))
        assert res.value == 3 and res.status == "optimal"

    def test_f_4_2_P2(self):
        res = solve_min_class(4, 2, PosetFamily.from_spec("P2"))
        assert res.value == 4 and res.status == "optimal"

    def test_theorem_n3_values(self):
        assert solve_min_class(3, 3, PosetFamily.from_spec("P3,V2,W2")).value == 2
        assert solve_min_class(3, 4, PosetFamily.from_spec("D2"), kind="total").value == 2
        assert solve_min_class(3, 4, PosetFamily.from_spec("D2")).value == 2

    def test_f_4_4_P4_via_construction_and_cap(self):
        res = solve_min_class(4, 4, PosetFamily.from_spec("P4"))
        assert res.value == 4 and res.status == "optimal"
        assert res.nodes_explored == 0 and res.seed_source == "construction:pk"

    @pytest.mark.parametrize("spec,nodes,source,witness", [
        ("P3", 687, "construction:p3", [3, 1, 2, 3] * 4),
        ("V2", 476, "search", [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4),
    ], ids=["P3", "V2"])
    def test_search_pinned_n4(self, spec, nodes, source, witness):
        # exact node counts and witnesses: a detector change must not move the
        # search, and a sound prune moves only the node count
        res = solve_min_class(4, 3, PosetFamily.from_spec(spec))
        assert res.value == 4 and res.status == "optimal"
        assert res.nodes_explored == nodes
        assert res.seed_source == source and res.witness.assign == witness
        # the search's own lexicographically least witness at the optimum
        plain = solve_min_class(4, 3, PosetFamily.from_spec(spec),
                                use_construction_seed=False)
        assert plain.seed_source == "search"
        assert plain.witness.assign == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4

    @pytest.mark.parametrize("kind,n,l,spec,value,nodes,witness", [
        ("partial", 4, 4, "A3", 3, 2722, [1, 0, 1, 0, 1, 0, 2, 0, 3, 4, 4, 2, 4, 2, 3, 3]),
        ("total", 4, 4, "A3", 2, 631, [1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 3, 4, 4, 3]),
        ("partial", 5, 5, "A5", 6, 3490,
         [0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 4, 4, 3, 5, 2, 5, 3, 3, 4,
          5, 3, 5, 4, 5, 5, 4, 4]),
    ], ids=["partial-4-4-A3", "total-4-4-A3", "partial-5-5-A5"])
    def test_search_pinned_antichains(self, kind, n, l, spec, value, nodes, witness):
        # the antichain detector decides only yes/no, so a faster one must
        # leave the node count and the search's witness exactly as they are;
        # A3 is forward-checked by its completion plan, A5 by the clique walk
        # (340,776 nodes when A5 took a copy search after every placement)
        res = solve_min_class(n, l, PosetFamily.from_spec(spec), kind=kind)
        assert res.value == res.upper == value and res.status == "optimal"
        assert res.nodes_explored == nodes
        assert res.seed_source == "search" and res.witness.assign == witness

    @pytest.mark.parametrize("spec,nodes,witness", [
        ("V3", 690, [1, 1, 2, 1, 2, 1, 3, 4, 2, 3, 3, 4, 3, 4, 4, 2]),
        ("P3+A1", 1305, [1, 1, 2, 3, 2, 4, 2, 3, 4, 2, 4, 3, 3, 4, 1, 1]),
    ], ids=["V3", "P3+A1"])
    def test_search_pinned_four_elements(self, spec, nodes, witness):
        # four-element members are forward-checked by their completion
        # plans: 10,230 and 29,503 nodes with a copy search per placement,
        # and the same least witness
        res = solve_min_class(4, 4, PosetFamily.from_spec(spec))
        assert (res.value, res.upper, res.status, res.seed_source) == (4, 4, "optimal", "search")
        assert res.nodes_explored == nodes and res.witness.assign == witness

    def test_F_5_5_A5_within_budget(self):
        # forward-checked, the total solve needs 3,171 nodes (269,502 with a
        # copy search per placement) and finds the same least witness
        res = solve_min_class(5, 5, PosetFamily.from_spec("A5"), kind="total",
                              budget=20_000)
        assert (res.value, res.upper, res.status, res.seed_source) == (6, 6, "optimal", "search")
        assert res.witness.assign == [1] * 8 + [2] * 5 + [3, 3, 4, 4, 3, 5, 2, 5, 3, 3, 4,
                                                          5, 3, 5, 4, 5, 5, 4, 4]

    def test_weak_antichain_root_bound(self):
        # a weak A_k with k <= l leaves at most k - 1 classes nonempty, so the
        # value is 0 at the root: the partial solve keeps its empty seed and
        # the total one stops at its first leaf, all in color 1
        total = solve_min_class(4, 4, PosetFamily.from_spec("A4", "weak"), kind="total",
                                budget=50_000)
        assert (total.value, total.upper, total.status) == (0, 0, "optimal")
        assert total.seed_source == "search" and total.witness.assign == [1] * 16
        assert total.nodes_explored == 16
        partial = solve_min_class(4, 3, PosetFamily.from_spec("A3", "weak"), budget=50_000)
        assert (partial.value, partial.upper, partial.status) == (0, 0, "optimal")
        assert partial.seed_source == "empty" and partial.witness.assign == [0] * 16
        assert partial.nodes_explored == 0
        # the bound needs k <= l: a larger weak antichain is vacuous
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vacuous = solve_min_class(3, 2, PosetFamily.from_spec("A3", "weak"))
        assert (vacuous.value, vacuous.seed_source) == (4, "trivial-cap")

    @pytest.mark.parametrize("spec,value", [("A2", 5), ("P2", 8)])
    def test_n5_two_colors_proven(self, spec, value):
        # the exact n = 5 values within 200k nodes, from the construction
        # seed and from the search's own least witness
        fam = PosetFamily.from_spec(spec)
        for seeded in (True, False):
            res = solve_min_class(5, 2, fam, budget=200_000, use_construction_seed=seeded)
            assert (res.value, res.upper, res.status) == (value, value, "optimal")
            assert class_stats(res.witness).min_size == value
            assert validate(res.witness, fam) is None
        assert res.seed_source == "search"

    @pytest.mark.parametrize("spec", ["A2", "P2"])
    def test_n5_prunes_keep_value_and_witness(self, spec):
        # the S_5 lex-leader prune must not move the value, the bracket or
        # the witness, with or without the construction seed
        fam = PosetFamily.from_spec(spec)
        for seeded in (True, False):
            on, off = (solve_min_class(5, 2, fam, use_construction_seed=seeded, sym_prune=sym)
                       for sym in (True, False))
            assert (on.value, on.upper, on.status, on.seed_source, on.witness.assign) == \
                (off.value, off.upper, off.status, off.seed_source, off.witness.assign)
            assert on.nodes_explored < off.nodes_explored and on.prunes["symmetry"] > 0
            assert off.prunes["symmetry"] == 0

    def test_f_5_3_A3_witness_replays(self):
        # f(5,3,A3) = 7 takes 1.29M nodes to prove unseeded; its witness
        # alone is cheap
        value, assign = solver.WITNESSES[(5, 3, "A3", "partial")]
        col = Coloring(5, 3, list(assign))
        assert validate(col, PosetFamily.from_spec("A3")) is None
        assert value == 7 and class_stats(col).sizes == (7, 7, 7)

    @pytest.mark.parametrize("key", sorted(solver.WITNESSES),
                             ids=lambda key: solver.instance_label(*key))
    def test_witness_table_replays(self, key):
        # every entry is valid, attains its value, and seeds its instance
        (n, l, spec, kind), (value, assign) = key, solver.WITNESSES[key]
        fam = PosetFamily.from_spec(spec)
        col = Coloring(n, l, list(assign))
        assert validate(col, fam) is None and class_stats(col).min_size == value
        assert kind == "partial" or col.is_total()
        seed = solver._construction_seed(n, l, fam, kind)
        assert seed[0] == value and seed[1].assign == list(assign)
        assert seed[2] == f"witness:{solver.instance_label(n, l, spec, kind)}"
        # use_construction_seed=False turns the table off too
        off = solve_min_class(n, l, fam, kind=kind, budget=0, use_construction_seed=False)
        assert not off.seed_source.startswith("witness:")

    def test_prune_counters_pinned(self):
        # every node the search cuts is counted once, under the first bound
        # that cuts it: a color's own count, Hall, then the S_n lex-leader
        res = solve_min_class(4, 4, PosetFamily.from_spec("A3"))
        assert res.nodes_explored == 2722
        assert res.prunes == {"count": 619, "hall": 947, "symmetry": 282}
        assert res.to_json_dict()["prunes"] == res.prunes
        plain = solve_min_class(4, 4, PosetFamily.from_spec("A3"), sym_prune=False)
        assert plain.prunes["symmetry"] == 0 and plain.witness.assign == res.witness.assign
        trivial = solve_min_class(4, 4, PosetFamily.from_spec("P4"))
        assert trivial.prunes == {"count": 0, "hall": 0, "symmetry": 0}

    def test_explicit_member_in_spec(self):
        # a spec splits on the commas outside explicit objects only
        obj = '{"size": 2, "relations": [[0, 1]]}'
        fam = PosetFamily.from_spec(obj)
        assert fam.members == (build_poset("P2"),)
        assert solve_min_class(3, 2, fam).value == \
            solve_min_class(3, 2, PosetFamily.from_spec("P2")).value == 2
        mixed = PosetFamily.from_spec(f"A3,{obj}, V2").members
        assert mixed == tuple(map(build_poset, ("A3", "P2", "V2")))

    def test_small_n_exhaustive_arbiter(self):
        # the solver, not the closed form, decides the n=2 and n=3 values
        assert solve_min_class(2, 2, PosetFamily.from_spec("A2")).value == 2
        assert solve_min_class(3, 2, PosetFamily.from_spec("A2")).value == 2


class TestSolveOracle:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l,specs", [(2, ["A2", "P2"]),
                                         (3, ["A2", "A3", "P2", "P3", "V2", "W2"])])
    def test_matches_full_enumeration(self, n, l, specs):
        for spec in specs:
            p = build_poset(spec)
            tuples = [copy_tuples(n, p, "induced")]
            for kind in ("partial", "total"):
                want = oracle_solve(n, l, tuples, kind)
                got = solve_min_class(n, l, PosetFamily((p,), "induced"), kind=kind)
                assert got.value == want, (n, l, spec, kind)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l,specs", [(2, ["A1", "A2", "P2"]), (3, SMALL_SHAPES)])
    @pytest.mark.parametrize("kind", ["partial", "total"])
    def test_witness_is_least_in_product_order(self, n, l, specs, kind):
        for spec in specs:
            for mode in ("induced", "weak"):
                _agrees_with_oracle(n, l, [spec], mode, kind)

    @pytest.mark.parametrize("mode", ["induced", "weak"])
    @pytest.mark.parametrize("kind", ["partial", "total"])
    def test_four_colors_and_mixed_families(self, kind, mode):
        # four colors leave two to lose a three-element copy's third set;
        # D2 takes its completion plan beside the three-element ones
        for spec in SMALL_SHAPES:
            _agrees_with_oracle(2, 4, [spec], mode, kind)
        for n, l, specs in ((3, 3, ("P3", "V2", "W2")), (3, 3, ("A2", "A3")),
                            (2, 4, ("P3", "D2")), (3, 4, ("A2", "D2"))):
            _agrees_with_oracle(n, l, specs, mode, kind)

    @pytest.mark.parametrize("kind", ["partial", "total"])
    def test_antichains_of_four_and_five(self, kind):
        # induced A4 and A5 take the antichain domain rule with no copy
        # search, weak ones the root bound; B_3 holds no induced A4, so there
        # the rule must clear nothing the other members do not
        for n, l, specs in ((2, 4, ("A4",)), (3, 4, ("A4",)), (2, 5, ("A5",)),
                            (2, 5, ("A4", "A5")), (3, 4, ("A4", "P2")),
                            (3, 4, ("A4", "D2")), (3, 4, ("A2", "A4"))):
            _agrees_with_oracle(n, l, specs, "induced", kind)
        for l, specs in ((4, ("A4",)), (5, ("A5",)), (4, ("A4", "P2")), (4, ("A4", "D2")),
                         (4, ("A2", "A4"))):
            _agrees_with_oracle(2, l, specs, "weak", kind)

    def test_induced_antichains_need_no_copy_search(self, monkeypatch):
        # every member is forward-checked, so the search never asks the
        # kernel for a copy: induced antichains, four-element posets and
        # their mixtures alike
        calls = []
        through = kernel.RainbowKernel.through

        def counting(self, pos, newest=False):
            calls.append(pos)
            return through(self, pos, newest)

        monkeypatch.setattr(kernel.RainbowKernel, "through", counting)
        for n, l, spec in ((4, 5, "A5"), (3, 4, "D2"), (3, 4, "A4,D2"), (3, 4, "P4"),
                           (3, 4, "V3")):
            members = list(PosetFamily.from_spec(spec).members)
            search = solver._MaxMinSearch(n, l, members, "induced", True, 10 ** 6, 0,
                                          (1 << n) // l)
            assert search.run(0) and search.nodes > 0 and search.best is not None
            assert calls == [], spec

    @pytest.mark.parametrize("specs,l", [
        (("A4",), 4), (("A4",), 6), (("A5",), 5), (("A4", "A5"), 5),
        *(((spec,), 3) for spec in SMALL_SHAPES), (("P2+A1",), 4), (("A3",), 4),
        (("D2",), 4), (("P4",), 5), (("V3",), 4), (("P3+A1",), 4),
        (("P3", "V2", "W2"), 3), (("A2", "D2"), 4), (("A4", "D2"), 5), (("A3", "P4"), 4)])
    def test_antichain_domains_are_exact(self, specs, l):
        # sets placed in id order at n = 4, where B_4 holds induced A4 and
        # A5: every color's domain above the newest set is exactly the sets
        # that would complete no rainbow copy with the sets placed so far
        # (whose other sets are colored, so placed, so below x)
        members = [build_poset(s) for s in specs]
        for mode in ("induced", "weak"):
            copies = {tuple(sorted(t)) for p in members for t in copy_tuples(4, p, mode)}
            rng = random.Random(l)
            for _ in range(6):
                search = solver._MaxMinSearch(4, l, members, mode, True, 0, 0, 0)
                assign = search.assign
                for pos in range(16):
                    c = rng.randrange(l + 1)
                    if c and search.allowed[c] >> pos & 1:
                        assign[pos] = c
                        search.color_mask[c] |= 1 << pos
                        search._shrink(pos, c)
                    # lost[x]: the colors that x would complete a copy in
                    lost = {x: set() for x in range(pos + 1, 16)}
                    for t in copies:
                        x, rest = t[-1], {assign[u] for u in t[:-1]}
                        if x > pos and 0 not in rest and len(rest) == len(t) - 1:
                            lost[x] |= set(range(1, l + 1)) - rest
                    for d in range(1, l + 1):
                        for x in range(pos + 1, 16):
                            want = d not in lost[x]
                            assert (search.allowed[d] >> x & 1) == want, (mode, pos, d, x)

    def test_least_partial_witness_fills_every_class_exactly(self):
        # the lemma behind the partial cap: uncoloring a set keeps a valid
        # assignment valid and makes it smaller, so the least one with every
        # class >= m has every class exactly m; from the construction seed
        # or none, each partial witness the search finds must show it
        checked = 0
        grid = [(n, l, (spec,)) for n in (2, 3)
                for l, specs in ((2, ("A1", "A2", "P2")), (3, SMALL_SHAPES), (4, SMALL_SHAPES))
                for spec in specs]
        grid += [(3, 3, ("P3", "V2", "W2")), (3, 3, ("A2", "A3")), (2, 4, ("P3", "D2")),
                 (3, 4, ("A2", "D2")), (3, 4, ("A4", "P2")), (2, 5, ("A4", "A5"))]
        for n, l, specs in grid:
            for mode in ("induced", "weak"):
                fam = PosetFamily(tuple(map(build_poset, specs)), mode)
                for seeded in (True, False):
                    res = solve_min_class(n, l, fam, use_construction_seed=seeded)
                    if res.seed_source == "search":
                        assert class_stats(res.witness).sizes == (res.value,) * l, \
                            (n, l, specs, mode, seeded)
                        checked += 1
        assert checked > 50

    def test_hall_bound_cuts_on_the_oracle_grid(self):
        # the oracle comparisons above run with the Hall bound on; it must
        # actually cut there for them to cover it
        fired = 0
        for spec in SMALL_SHAPES:
            for kind in ("partial", "total"):
                res = solve_min_class(3, 3, PosetFamily.from_spec(spec), kind=kind,
                                      use_construction_seed=False)
                fired += res.prunes["hall"]
        assert fired > 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_tie_lists_match_full_prefix_check(self, n):
        # the incremental lex-leader check prunes exactly the prefixes the
        # full-prefix check prunes, and backtracking restores its tie lists
        search = solver._MaxMinSearch(n, 3, [build_poset("A3")], "induced", True, 0, True, 0)
        size = search.size
        invs = [inv for inv, _ in search.waiting[0]]
        assert len(invs) == len(all_subset_permutation_tables(n)) - 1
        start = [list(bucket) for bucket in search.waiting]
        rng = random.Random(n)
        pruned = 0
        for trial in range(300):
            values = [rng.choice((0, 0, 1, 2)) for _ in range(size)]
            if trial % 3:
                # lex-leaders, some with one set recolored: long tied prefixes
                values = list(canonical_assignment(n, values))
                if trial % 3 == 2:
                    values[rng.randrange(size)] = rng.randrange(3)
            stack = []
            for pos in range(1, size):
                search.assign[pos - 1] = values[pos - 1]
                moved = search._untie(pos - 1)
                assert (moved is not None) == _full_prefix_lex_leader(invs, values, pos), \
                    (values, pos)
                if moved is None:
                    pruned += 1
                    break
                stack.append(moved)
            for moved in reversed(stack):
                for w in moved:
                    search.waiting[w].pop()
            assert search.waiting == start
        assert 0 < pruned < 300

    def test_weak_mode_against_oracle(self):
        for spec in ("P2", "P3", "V2"):
            p = build_poset(spec)
            tuples = [copy_tuples(3, p, "weak")]
            want = oracle_solve(3, 3, tuples, "partial")
            got = solve_min_class(3, 3, PosetFamily((p,), "weak"))
            assert got.value == want, spec

    def test_weak_antichain_is_degenerate(self):
        # a weak antichain copy has no order constraints, so a second color
        # can never appear; both kinds land at zero
        p = build_poset("A2")
        tuples = [copy_tuples(2, p, "weak")]
        for kind in ("partial", "total"):
            want = oracle_solve(2, 2, tuples, kind)
            got = solve_min_class(2, 2, PosetFamily((p,), "weak"), kind=kind)
            assert got.value == want == 0, kind

    def test_multi_member_family_against_oracle(self):
        p3, v2, w2 = (build_poset(s) for s in ("P3", "V2", "W2"))
        tuples = [copy_tuples(3, q, "induced") for q in (p3, v2, w2)]
        want = oracle_solve(3, 3, tuples, "partial")
        got = solve_min_class(3, 3, PosetFamily((p3, v2, w2), "induced"))
        assert got.value == want == 2


class TestSolveContract:
    def test_witness_soundness_and_cap(self):
        for n, l, spec, kind in [(3, 2, "A2", "partial"), (3, 3, "A3", "total"),
                                 (3, 2, "P2", "partial"), (2, 2, "P2", "total")]:
            res = solve_min_class(n, l, PosetFamily.from_spec(spec), kind=kind)
            assert res.value <= (1 << n) // l
            assert class_stats(res.witness).min_size >= res.value
            assert validate(res.witness, PosetFamily.from_spec(spec)) is None
            if kind == "total":
                assert res.witness.is_total()

    def test_budget_downgrades_status(self):
        res = solve_min_class(4, 2, PosetFamily.from_spec("A2"), budget=50)
        assert res.status == "lower_bound_only"
        assert res.value == 3  # the construction seed is already optimal here
        assert class_stats(res.witness).min_size >= res.value

    def test_budget_keeps_proven_upper_bound(self):
        # lo = 3 from the chain construction, cap = 8.  The single pass
        # refutes m = 4 in 221 nodes; one node fewer proves nothing above
        # the incumbent, so upper stays at the cap.
        fam = PosetFamily.from_spec("A2")
        res = solve_min_class(4, 2, fam, budget=100)
        assert (res.status, res.value, res.upper) == ("lower_bound_only", 3, 8)
        assert res.nodes_explored == 100
        assert res.to_json_dict()["upper"] == 8
        done = solve_min_class(4, 2, fam, budget=221)
        assert (done.status, done.value, done.upper) == ("optimal", 3, 3)
        cut = solve_min_class(4, 2, fam, budget=220)
        assert (cut.status, cut.value, cut.upper) == ("lower_bound_only", 3, 8)
        # budget 0 is a set-up call: no node, no error
        none = solve_min_class(4, 2, fam, budget=0)
        assert (none.status, none.value, none.nodes_explored) == ("lower_bound_only", 3, 0)
        with pytest.raises(ValueError, match="budget"):
            solve_min_class(4, 2, fam, budget=-1)

    def test_oversized_family_trivial_cap(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = solve_min_class(3, 2, PosetFamily.from_spec("P3"))
        assert res.value == 4 and res.seed_source == "trivial-cap"
        assert any("vacuously" in str(w.message) for w in caught)
        total = solve_min_class(3, 2, PosetFamily.from_spec("P3"), kind="total")
        assert total.value == 4 and total.witness.is_total()

    def test_total_infeasible_one_element_poset(self):
        res = solve_min_class(2, 2, PosetFamily.from_spec("A1"), kind="total")
        assert res.value == -1 and res.witness is None and res.status == "optimal"
        partial = solve_min_class(2, 2, PosetFamily.from_spec("A1"))
        assert partial.value == 0 and class_stats(partial.witness).uncolored == 4

    def test_sym_prune_agrees_with_plain_search(self):
        for n, l, spec, kind in [(3, 2, "A2", "partial"), (3, 3, "P3", "total"),
                                 (2, 2, "A2", "total"), (3, 3, "V2", "partial")]:
            fam = PosetFamily.from_spec(spec)
            a = solve_min_class(n, l, fam, kind=kind, sym_prune=True,
                                use_construction_seed=False)
            b = solve_min_class(n, l, fam, kind=kind, sym_prune=False,
                                use_construction_seed=False)
            assert a.value == b.value
            assert a.witness.assign == b.witness.assign

    _D2 = '{"size": 4, "relations": [[3, 1], [3, 2], [1, 0], [2, 0]]}'
    _P3 = '{"size": 3, "relations": [[2, 0], [0, 1]]}'

    @pytest.mark.parametrize("n, l, kind, spellings, source, budget", [
        (4, 4, "partial", ["D2", _D2], "construction:lift3", 10 ** 9),
        (4, 3, "total", ["P3", _P3], "construction:p3", 10 ** 9),
        (4, 4, "partial", ["P4", '{"size": 4, "relations": [[3, 0], [1, 3], [2, 1]]}'],
         "construction:pk", 10 ** 9),
        (4, 3, "partial", ["P3,V2,W2", "W2,P3,V2", '{"size": 3, "relations": [[1, 0], [1, 2]]}'
                           f',{_P3},W2'], "construction:lift3", 10 ** 9),
        # budget 0: the seed alone, without the 431,969-node refutation of 8
        (5, 3, "partial", ["A3", "A2+A1", '{"size": 3, "relations": []}'],
         "witness:f(5,3,A3)", 0),
    ])
    def test_every_spelling_solves_alike(self, n, l, kind, spellings, source, budget):
        # members are recognised up to isomorphism: the same seed, search
        # and witness whatever the spelling
        runs = [solve_min_class(n, l, PosetFamily.from_spec(spec), kind=kind,
                                budget=budget).to_json_dict() for spec in spellings]
        assert runs[0]["seed_source"] == source
        assert all(run == runs[0] for run in runs[1:])

    def test_json_shape(self):
        res = solve_min_class(2, 2, PosetFamily.from_spec("A2"))
        data = res.to_json_dict()
        assert data["value"] == 2 and data["witness"]["colors"]


class TestOrderedSetPartitions:
    def test_counts(self):
        assert len(list(ordered_set_partitions(3))) == 13
        assert len(list(ordered_set_partitions(4))) == 75
        assert len(list(ordered_set_partitions(5))) == 541

    def test_chains_are_chains(self):
        for ch in ordered_set_partitions(3):
            assert ch[0] == 0 and ch[-1] == full_set(3)
            for a, b in zip(ch, ch[1:]):
                assert a != b and a & ~b == 0


class TestAzDecompose:
    def test_example_b3(self):
        f1 = [0b001, 0b010]        # {1}, {2}
        f2 = [0b011]               # {1,2}
        dec = az_decompose(3, [f1, f2])
        assert dec is not None
        assert dec.chain == (0, 0b011, 0b111)
        assert 1 in dec.parts[0]
        assert set().union(*dec.parts) == {1, 2}
        assert not (dec.parts[0] & dec.parts[1])

    def test_hypothesis_violation(self):
        with pytest.raises(ValueError, match="incomparable pair"):
            az_decompose(3, [[0b001], [0b010]])

    def test_id_outside_the_lattice_is_an_error(self):
        with pytest.raises(ValueError, match=r"^subset id 9 outside B_3$"):
            az_decompose(3, [[9]])
        with pytest.raises(ValueError, match=r"^subset id -1 outside B_2$"):
            az_decompose(2, [[-1]])

    def test_single_family(self):
        dec = az_decompose(3, [[0b001, 0b010, 0b101]])
        assert dec is not None
        assert dec.parts[0] == frozenset(range(1, len(dec.chain)))

    def _check_contract(self, n, families, dec):
        t = len(dec.chain) - 1
        assert set().union(*dec.parts) == set(range(1, t + 1)) if t else True
        for part_a in range(len(dec.parts)):
            for part_b in range(part_a + 1, len(dec.parts)):
                assert not (dec.parts[part_a] & dec.parts[part_b])
        chainset = set(dec.chain)
        for fam, part in zip(families, dec.parts):
            allowed = set(chainset)
            for h in part:
                allowed |= set(interval_members(
                    Interval(dec.chain[h - 1], dec.chain[h], True, True)))
            assert set(fam) <= allowed

    def test_random_systems_never_fail(self):
        rng = random.Random(4242)
        for _ in range(500):
            fams = random_cross_comparable_families(4, rng.randint(1, 4), rng)
            dec = az_decompose(4, fams)
            assert dec is not None
            self._check_contract(4, fams, dec)

    def test_late_first_chain_at_n12(self):
        # {12} fits no chain before the first whose first block is {12}: far
        # out of reach of trying every chain in order
        dec = az_decompose(12, [[2048]])
        assert dec.chain == (0, 2048, *((2048 | (1 << k) - 1) for k in range(1, 12)))
        assert dec.parts == (frozenset(range(1, 13)),)


def _outcome(fn, n, families):
    """(chain, parts), None, or the ValueError text."""
    try:
        dec = fn(n, families)
    except ValueError as exc:
        return str(exc)
    return dec if dec is None or isinstance(dec, tuple) else (dec.chain, dec.parts)


@st.composite
def housed_families(draw):
    """(n, families): random_cross_comparable_families at n <= 5 with the
    empty set, the ground set or one set of another family mixed in."""
    n = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    fams = random_cross_comparable_families(n, draw(st.integers(1, 4)), rng)
    i = draw(st.integers(0, len(fams) - 1))
    extra = draw(st.sampled_from(("none", "empty", "ground", "shared")))
    if extra == "empty":
        fams[i].append(0)
    elif extra == "ground":
        fams[i].append(full_set(n))
    elif extra == "shared" and len(fams) > 1:
        donor = fams[(i + 1) % len(fams)]
        if donor:
            fams[i].append(draw(st.sampled_from(donor)))
    return n, fams


@st.composite
def raw_families(draw):
    """(n, families): one to three lists of arbitrary ids at n <= 5, a few
    of them outside B_n."""
    n = draw(st.integers(1, 5))
    ids = st.lists(st.integers(-2, full_set(n) + 2), max_size=4)
    return n, draw(st.lists(ids, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.one_of(housed_families(), raw_families()))
def test_az_decompose_is_the_oracles_first_chain(case):
    # the oracle assumes ids inside B_n; one outside is an error naming the
    # first, in family order and ascending within a family
    n, families = case
    outside = [f for fam in families for f in sorted(set(fam)) if not 0 <= f <= full_set(n)]
    want = (f"subset id {outside[0]} outside B_{n}" if outside
            else _outcome(oracle_az_decompose, n, families))
    assert _outcome(az_decompose, n, families) == want


class TestCrossSperner:
    def test_example_pair_attains_bound(self):
        out = cross_sperner_check(3, [0b001, 0b011], [0b100, 0b110])
        assert out.is_cross_sperner and out.product == 4 and out.bound_ok

    def test_empty_set_breaks(self):
        out = cross_sperner_check(3, [0], [0b010])
        assert not out.is_cross_sperner
        assert out.violating_pair == (0, 0b010)

    def test_exhaustive_max_b3(self):
        assert max_cross_sperner_product_exhaustive(3) == 2 ** (2 * 3 - 4)

    def test_bound_flag_is_exact(self):
        out = cross_sperner_check(1, [], [])
        assert out.is_cross_sperner and out.product == 0 and out.bound_ok


class TestGreedyTuplesAndCover:
    def test_example(self):
        c = Coloring(3, 3, [0] * 8)
        c.assign[0b001] = 1
        c.assign[0b010] = 2
        c.assign[0] = 3
        rep = greedy_tuples_and_cover(c, 2)
        assert rep.tuples.tuples == ((0b001, 0b010),)
        assert rep.leftover_clean and rep.cover_ok

    def test_chain_classes_no_tuples(self):
        c = Coloring(3, 3, [0] * 8)
        for s, col in ((0, 1), (0b001, 1), (0b011, 2), (0b111, 3)):
            c.assign[s] = col
        rep = greedy_tuples_and_cover(c, 2)
        assert rep.tuples.tuples == ()
        assert rep.leftover_clean and rep.cover_ok

    def test_precondition_rejects_rainbow_antichain(self):
        c = Coloring(2, 3, [0, 1, 2, 0])
        c.assign[0] = 3
        # {1},{2} incomparable but only 2 of the 3 needed sets; fine for k=2?
        # ({1},{2},emptyset) is not an antichain, so the precondition holds.
        rep = greedy_tuples_and_cover(c, 2)
        assert rep.cover_ok
        bad = Coloring(3, 3, [0] * 8)
        bad.assign[0b001] = 1
        bad.assign[0b010] = 2
        bad.assign[0b100] = 3
        with pytest.raises(ValueError, match="rainbow antichain"):
            greedy_tuples_and_cover(bad, 2)

    def test_needs_enough_colors(self):
        with pytest.raises(ValueError):
            greedy_tuples_and_cover(Coloring.empty(2, 2), 2)

    def test_coordinate_disjointness_and_membership(self):
        rng = random.Random(99)
        fam = PosetFamily.from_spec("A3")
        for _ in range(100):
            n = rng.choice((3, 4))
            c = random_valid_coloring(n, 3, fam, rng)
            rep = greedy_tuples_and_cover(c, 2)
            assert rep.cover_ok and rep.leftover_clean
            for i, used in enumerate(rep.tuples.used_per_color):
                assert len(set(used)) == len(used)
                for s in used:
                    assert c.color_of(s) == i + 1
            for t in rep.tuples.tuples:
                assert not comparable(t[0], t[1])
