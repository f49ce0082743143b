"""Every generator: exact class sizes, validity, refusals, determinism."""

import random
from itertools import combinations

import pytest

from rainbow_lattice.coloring import PosetFamily, class_stats, validate
from rainbow_lattice.constructions import (ChainFamily, chain_family_coloring,
                                           chain_interval_coloring, chain_overlap_check,
                                           incomparable_traces, lift3_coloring,
                                           p3_total_coloring, pk_coloring,
                                           random_chain_family, trial_seed)
from rainbow_lattice.experiments import CONSTRUCTIONS, build_construction
from rainbow_lattice.lattice import comparable, full_set, subset_of


class TestTraces:
    def test_partial_n4_l2(self):
        rep = incomparable_traces(4, 2)
        assert rep.class_sizes == (4, 4)
        assert rep.params["traces"] == [subset_of([1]), subset_of([2])]
        assert validate(rep.coloring, rep.forbidden) is None
        assert rep.coloring.color_of(subset_of([1, 3])) == 1

    def test_partial_n3_l3(self):
        rep = incomparable_traces(3, 3)
        assert rep.params["m"] == 3
        assert rep.class_sizes == (1, 1, 1)

    def test_total_n4_l3(self):
        rep = incomparable_traces(4, 3, total=True)
        assert rep.min_size == 4
        assert rep.coloring.is_total()
        assert validate(rep.coloring, rep.forbidden) is None

    def test_cross_incomparable_exhaustive(self):
        for n, l in ((4, 2), (5, 3), (8, 2), (8, 6)):
            rep = incomparable_traces(n, l)
            col = rep.coloring
            ids = col.colored_ids()
            for a, b in combinations(ids, 2):
                if col.color_of(a) != col.color_of(b):
                    assert not comparable(a, b)

    def test_refusals(self):
        with pytest.raises(ValueError):
            incomparable_traces(4, 2, total=True)   # l=2 total degenerates
        with pytest.raises(ValueError):
            incomparable_traces(2, 4)               # m(4)=4 > n

    def test_certified_families_accepted(self):
        # the declared families, and others the detector finds no copy of
        rep = incomparable_traces(4, 2)
        assert (rep.forbidden.spec_string(), rep.forbidden.mode) == ("P2", "weak")
        rep = incomparable_traces(4, 3, total=True)
        assert (rep.forbidden.spec_string(), rep.forbidden.mode) == ("P3", "induced")
        # two non-singleton components cannot appear either
        for spec in ("D2,P3", "P2+P2"):
            assert validate(rep.coloring, PosetFamily.from_spec(spec)) is None
        # and the detector does find what the trace argument cannot exclude
        assert validate(rep.coloring, PosetFamily.from_spec("V2")) is not None
        assert validate(incomparable_traces(4, 2).coloring, PosetFamily.from_spec("A2")) is not None


class TestChainInterval:
    @pytest.mark.parametrize("n,l,want", [(4, 2, 3), (5, 2, 5), (6, 2, 7), (6, 3, 3)])
    def test_values(self, n, l, want):
        rep = chain_interval_coloring(n, l)
        stats = class_stats(rep.coloring)
        assert stats.min_size == rep.min_size == rep.formula_min == want
        assert validate(rep.coloring, rep.forbidden) is None

    def test_small_n_divergence(self):
        # at (3,2) the closed form does not apply; the construction still
        # meets the exhaustive value 2
        rep = chain_interval_coloring(3, 2)
        assert (rep.min_size, rep.formula_min, rep.notes) == (2, None, "")
        assert class_stats(rep.coloring).min_size == 2
        assert validate(rep.coloring, rep.forbidden) is None
        # at (11,4) the closed form exceeds the construction's minimum
        rep = chain_interval_coloring(11, 4)
        assert (rep.min_size, rep.formula_min) == (6, 7)
        assert "exceeds" in rep.notes

    def test_precondition(self):
        with pytest.raises(ValueError):
            chain_interval_coloring(4, 3)  # 3*log2(3) > 4

    def test_single_color(self):
        rep = chain_interval_coloring(4, 1)
        assert rep.class_sizes == (16,)


class TestRandomChainFamily:
    def test_endpoints_and_determinism(self):
        cf = random_chain_family(8, 3, 3, seed=5)
        for ch in cf.chains:
            assert ch[0] == 0 and ch[-1] == full_set(8)
        assert cf == random_chain_family(8, 3, 3, seed=5)
        assert cf != random_chain_family(8, 3, 3, seed=6)

    def test_strict_nesting_small_n(self):
        for seed in range(30):
            cf = random_chain_family(3, 2, 3, seed=seed)
            for ch in cf.chains:
                for a, b in zip(ch, ch[1:]):
                    assert a != b and a & ~b == 0

    def test_stage_size_concentration(self):
        # stage-1 sets have expected size n/l; check the mean over many seeds
        n, l, trials = 40, 2, 100
        total = 0
        count = 0
        for t in range(trials):
            cf = random_chain_family(n, 3, l, seed=trial_seed(123, t))
            for ch in cf.chains:
                total += ch[1].bit_count()
                count += 1
        mean = total / count
        assert 19.0 <= mean <= 21.0

    def test_chain_family_invariants(self):
        with pytest.raises(ValueError):
            ChainFamily(3, 3, 2, ((0, 1, 7),))            # wrong chain count
        with pytest.raises(ValueError):
            ChainFamily(3, 2, 2, ((0, 0, 7),))            # not strict
        with pytest.raises(ValueError):
            ChainFamily(3, 2, 2, ((0, 1, 3),))            # does not reach top


class TestChainFamilyColoring:
    def test_analytic_equals_materialized(self):
        for n, k, l in ((6, 3, 2), (7, 3, 3), (8, 4, 2), (10, 3, 2)):
            for t in range(5):
                cf = random_chain_family(n, k, l, seed=trial_seed(n * 100 + k, t))
                rep = chain_family_coloring(cf, materialize=True)
                stats = class_stats(rep.coloring)
                assert tuple(stats.sizes) == rep.class_sizes
                assert stats.uncolored == rep.uncolored

    def test_one_interval_per_chain_matches_class_stats(self):
        # the size account takes at most one interval of each earlier chain
        rng = random.Random(7)
        for _ in range(60):
            n, k, l = rng.randint(6, 10), rng.randint(4, 6), rng.randint(2, 3)
            cf = random_chain_family(n, k, l, seed=rng.randrange(10 ** 6))
            rep = chain_family_coloring(cf, materialize=True)
            assert class_stats(rep.coloring).sizes == rep.class_sizes, (n, k, l, cf.chains)
            assert chain_family_coloring(cf, materialize=False).class_sizes == rep.class_sizes

    def test_single_chain_sizes_closed_form(self):
        # k=2: nothing to subtract, classes are half-open interval sizes
        cf = random_chain_family(7, 2, 3, seed=2)
        rep = chain_family_coloring(cf, materialize=False)
        ch = cf.chains[0]
        want = tuple((1 << (ch[i] & ~ch[i - 1]).bit_count()) - 1 for i in range(1, 4))
        assert rep.class_sizes == want

    def test_validates_against_antichain(self):
        for seed in range(5):
            cf = random_chain_family(8, 3, 2, seed=seed)
            rep = chain_family_coloring(cf, materialize=True)
            assert validate(rep.coloring, rep.forbidden) is None

    def test_accounting(self):
        cf = random_chain_family(9, 4, 3, seed=11)
        rep = chain_family_coloring(cf, materialize=False)
        assert sum(rep.class_sizes) + rep.uncolored == 1 << 9

    def test_analytic_mode_respects_enumeration_cap(self):
        cf = random_chain_family(30, 3, 2, seed=0)
        rep = chain_family_coloring(cf, materialize=False)
        assert rep.coloring is None
        assert sum(rep.class_sizes) + rep.uncolored == 1 << 30
        with pytest.raises(ValueError):
            chain_family_coloring(cf, materialize=True)


def _random_chains(rng, n, count, l):
    """count strictly nested chains from the empty set to [n], l+1 sets each."""
    chains = []
    for _ in range(count):
        order = rng.sample(range(n), n)
        cuts = [0] + sorted(rng.sample(range(1, n), l - 1)) + [n]
        chains.append(tuple(sum(1 << e for e in order[:c]) for c in cuts))
    return tuple(chains)


def _in_halfopen(h, lo, hi):
    return h != lo and h & lo == lo and h | hi == hi


class TestMaterializedByDefinition:
    """Materialized colorings against a per-set reading of each definition,
    written with plain bit tests."""

    def test_chain_family_coloring(self):
        rng = random.Random(2024)
        for n in range(4, 13):
            for k in (2, 3, 4):
                for l in (2, 3):
                    for _ in range(3):
                        chains = _random_chains(rng, n, k - 1, l)
                        got = chain_family_coloring(ChainFamily(n, k, l, chains)).coloring
                        want = [next((j * l + i for j, ch in enumerate(chains)
                                      for i in range(1, l + 1)
                                      if _in_halfopen(h, ch[i - 1], ch[i])), 0)
                                for h in range(1 << n)]
                        assert list(got.assign) == want, (n, k, l, chains)

    def test_chain_interval_coloring(self):
        for n in range(4, 13):
            for l in (2, 3):
                if l ** l > 2 ** n:
                    continue
                ends, used = [0], 0
                for i in range(1, l + 1):
                    used += (n + i - 1) // l
                    ends.append((1 << used) - 1)
                a = l - n % l if n % l else l  # parts of the smaller size
                want = []
                for h in range(1 << n):
                    if h in ends:
                        want.append(ends.index(h) % a + 1)
                    else:
                        want.append(next((i for i in range(1, l + 1)
                                          if _in_halfopen(h, ends[i - 1], ends[i])), 0))
                assert list(chain_interval_coloring(n, l).coloring.assign) == want, (n, l)

    def test_traces(self):
        for n in range(4, 13):
            for l, total in ((2, False), (3, False), (4, False), (3, True), (4, True)):
                rep = incomparable_traces(n, l, total=total)
                m = rep.params["m"]
                traces = [subset_of(c) for c in combinations(range(1, m + 1), m // 2)]
                traces = traces[:l - 1 if total else l]
                want = [traces.index(h & full_set(m)) + 1 if h & full_set(m) in traces
                        else l if total else 0 for h in range(1 << n)]
                assert list(rep.coloring.assign) == want, (n, l, total)

    def test_lift3(self):
        def color(h, four):
            r = h & 7
            if r in (0, 7):
                return 4 if four else 0
            # {i} and {i, i+1 mod 3} take color i
            return next(i for i in (1, 2, 3)
                        if r in (1 << (i - 1), 1 << (i - 1) | 1 << (i % 3)))

        for n in range(3, 13):
            for four in (False, True):
                rep = lift3_coloring(n, "four_color" if four else "three_color")
                want = [color(h, four) for h in range(1 << n)]
                assert list(rep.coloring.assign) == want, (n, four)

    def test_p3_total(self):
        for n in range(2, 13):
            want = [1 if h & 1 and not h & 2 else 2 if h & 2 and not h & 1 else 3
                    for h in range(1 << n)]
            assert list(p3_total_coloring(n).coloring.assign) == want, n

    def test_pk(self):
        for n in range(4, 13):
            for k in (4, 5, 7):
                quota = (1 << n) // k
                want = [0] * (1 << n)
                for h in [h for h in range(1 << n) if h & 1 and not h & 2][:quota]:
                    want[h] = 1
                for h in [h for h in range(1 << n) if h & 2 and not h & 1][:quota]:
                    want[h] = 2
                rest = [h for h in range(1 << n) if not want[h]]
                for c in range(3, k + 1):
                    for h in rest[(c - 3) * quota:(c - 2) * quota]:
                        want[h] = c
                assert list(pk_coloring(n, k).coloring.assign) == want, (n, k)


class TestChainOverlapCheck:
    def test_single_chain_vacuous(self):
        cf = random_chain_family(6, 2, 2, seed=1)
        out = chain_overlap_check(cf)
        assert out["pass"] and out["checks"] == []

    def test_disjoint_stage_sets_pass(self):
        cf = ChainFamily(4, 3, 2, ((0, 0b0011, 0b1111), (0, 0b1100, 0b1111)))
        out = chain_overlap_check(cf)
        assert out["pass"]
        assert out["checks"][0]["intersection"] == 0

    def test_reports_violation(self):
        cf = ChainFamily(4, 3, 2, ((0, 0b0111, 0b1111), (0, 0b0111, 0b1111)))
        out = chain_overlap_check(cf)
        assert not out["pass"]


class TestLift3:
    def test_three_color_n3(self):
        rep = lift3_coloring(3, "three_color")
        assert rep.min_size == 2
        assert rep.coloring.color_of(0b111) == 0   # the full 3-cube stays uncolored
        assert validate(rep.coloring, rep.forbidden) is None

    def test_four_color_n4(self):
        rep = lift3_coloring(4, "four_color")
        assert rep.class_sizes == (4, 4, 4, 4)
        assert rep.coloring.is_total()
        assert validate(rep.coloring, rep.forbidden) is None

    def test_range_and_errors(self):
        for n in range(3, 8):
            for variant in ("three_color", "four_color"):
                rep = lift3_coloring(n, variant)
                assert rep.min_size == 2 ** (n - 2)
        with pytest.raises(ValueError):
            lift3_coloring(2)
        with pytest.raises(ValueError):
            lift3_coloring(4, "five_color")


class TestP3Total:
    def test_n4(self):
        rep = p3_total_coloring(4)
        assert rep.class_sizes == (4, 4, 8)
        assert rep.coloring.color_of(subset_of([1, 2])) == 3
        assert validate(rep.coloring, rep.forbidden) is None

    def test_total_everywhere(self):
        for n in range(2, 8):
            rep = p3_total_coloring(n)
            assert rep.coloring.is_total()
            assert class_stats(rep.coloring).sizes == rep.class_sizes


class TestPk:
    def test_n4_k4(self):
        rep = pk_coloring(4, 4)
        assert rep.class_sizes == (4, 4, 4, 4)
        assert rep.uncolored == 0
        assert validate(rep.coloring, rep.forbidden) is None

    def test_n4_k5(self):
        rep = pk_coloring(4, 5)
        assert rep.class_sizes == (3, 3, 3, 3, 3)
        assert rep.uncolored == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            pk_coloring(4, 3)
        with pytest.raises(ValueError):
            pk_coloring(1, 4)


def test_every_materialized_report_validates_n_up_to_8():
    reports = []
    for n in range(3, 9):
        reports.append(lift3_coloring(n, "three_color"))
        reports.append(lift3_coloring(n, "four_color"))
        reports.append(p3_total_coloring(n))
        reports.append(pk_coloring(n, 4))
        reports.append(incomparable_traces(n, 2))
    for n, l in ((4, 2), (5, 2), (6, 2), (6, 3), (8, 2), (8, 4)):
        reports.append(chain_interval_coloring(n, l))
    rng = random.Random(0)
    for _ in range(5):
        cf = random_chain_family(8, 3, 2, seed=rng.randrange(10 ** 6))
        reports.append(chain_family_coloring(cf))
    for rep in reports:
        assert validate(rep.coloring, rep.forbidden) is None, rep.name
        assert class_stats(rep.coloring).min_size >= rep.min_size, rep.name


# parameters for each construction type; a (type, n) they do not apply to is skipped
CONSTRUCTION_PARAMS = {
    "traces": [{"l": l, "total": total} for l in (2, 3, 4, 6) for total in (False, True)
               if l >= 3 or not total],
    "chain": [{"l": l} for l in (2, 3, 4)],
    "congen": [{"k": 3, "l": 2, "seed": 1}, {"k": 4, "l": 3, "seed": 2}],
    "lift3": [{"variant": v} for v in ("three_color", "four_color")],
    "p3": [{}],
    "pk": [{"k": k} for k in (4, 5, 7)],
}


def test_uncolored_count_matches_the_materialized_coloring():
    # a report's uncolored count follows from its class sizes: both must match
    # what the generator places
    assert set(CONSTRUCTION_PARAMS) == set(CONSTRUCTIONS)
    for kind, cases in CONSTRUCTION_PARAMS.items():
        built = 0
        for n in range(1, 13):
            for params in cases:
                try:
                    rep = build_construction(kind, n, params)
                except ValueError:
                    continue
                built += 1
                assert rep.uncolored == rep.coloring.assign.count(0), (kind, n, params)
                assert sum(rep.class_sizes) + rep.uncolored == 1 << n, (kind, n, params)
                assert class_stats(rep.coloring).sizes == rep.class_sizes, (kind, n, params)
        assert built >= 10, kind
