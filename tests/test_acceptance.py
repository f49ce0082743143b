"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` for the per-criterion readout.
The root-interval scan is reported, never hard-asserted; everything else is
asserted at its stated tolerance.
"""

import random
import time
from itertools import combinations

from rainbow_lattice.bounds import formula_A2, m_of_l, solve_c0
from rainbow_lattice.coloring import Coloring, PosetFamily, class_stats, validate
from rainbow_lattice.constructions import (chain_family_coloring, chain_interval_coloring,
                                           incomparable_traces, lift3_coloring,
                                           p3_total_coloring, pk_coloring,
                                           random_chain_family, trial_seed)
from rainbow_lattice.posets import build_poset, find_copy
from rainbow_lattice.solver import (az_decompose, greedy_tuples_and_cover,
                                    solve_min_class)
from rainbow_lattice.verify import (_congen_trend_claim, _delta_claim, _eq_sweep_claim,
                                    _telescoping_claim,
                                    max_cross_sperner_product_exhaustive,
                                    random_cross_comparable_families,
                                    random_valid_coloring)
from oracles import copy_tuples, naive_find_copy, oracle_has_rainbow

ACCEPTANCE_SEED = 1


def _report(cid, ok, elapsed, budget, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {verdict} ({elapsed:.1f}s of {budget}s budget) {detail}")
    assert ok, f"{cid} failed: {detail}"
    assert elapsed <= budget, f"{cid} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_c1_exact_values_hard():
    start = time.time()
    checks = []
    for n, l, spec, kind, want, limit in [
        (4, 2, "A2", "partial", 3, 60),
        (4, 2, "P2", "partial", 4, 60),
        (3, 3, "P3,V2,W2", "partial", 2, 10),
        (3, 4, "D2", "total", 2, 10),
        (3, 4, "D2", "partial", 2, 10),
    ]:
        t0 = time.time()
        res = solve_min_class(n, l, PosetFamily.from_spec(spec), kind=kind)
        took = time.time() - t0
        checks.append(res.value == want and res.status == "optimal" and took <= limit)
    # f(4,4,P4): witnessed lower bound equals the trivial ceiling, no search
    t0 = time.time()
    res = solve_min_class(4, 4, PosetFamily.from_spec("P4"))
    instant = time.time() - t0
    checks.append(res.value == 4 and res.status == "optimal"
                  and res.nodes_explored == 0 and instant < 1.0)
    _report("C1 exact-values", all(checks), time.time() - start, 150,
            f"per-value results {checks}")


def test_c2_small_incomparable_pair_values():
    # where l*log2(l) <= n but n < 2l the closed form does not apply, and
    # exhaustive search gives 2
    start = time.time()
    failures = []
    for n, l in ((2, 2), (3, 2), (5, 3)):
        res = solve_min_class(n, l, PosetFamily.from_spec("A2"))
        if formula_A2(n, l).applicable or (res.status, res.value) != ("optimal", 2):
            failures.append((n, l, res.status, res.value))
    _report("C2 small-n incomparable pair", not failures, time.time() - start, 30,
            f"failures={failures}")


def test_c3_construction_suite():
    start = time.time()
    failures = []

    def check(rep, want_min):
        stats = class_stats(rep.coloring)
        if validate(rep.coloring, rep.forbidden) is not None:
            failures.append((rep.name, rep.n, rep.l, "invalid"))
        elif not (stats.min_size == rep.min_size == want_min):
            failures.append((rep.name, rep.n, rep.l, stats.min_size, want_min))

    for (n, l), want in {(4, 2): 3, (5, 2): 5, (6, 2): 7, (6, 3): 3}.items():
        check(chain_interval_coloring(n, l), want)
    for n in range(3, 9):
        check(lift3_coloring(n, "three_color"), 2 ** (n - 2))
        check(lift3_coloring(n, "four_color"), 2 ** (n - 2))
    for n in range(2, 9):
        check(p3_total_coloring(n), 2 ** (n - 2))
    for n in range(2, 9):
        for l in (2, 3, 6):
            if m_of_l(l) <= n:
                check(incomparable_traces(n, l), 2 ** (n - m_of_l(l)))
    for n in range(4, 9):
        for k in (4, 5):
            check(pk_coloring(n, k), 2 ** n // k)
    for seed in range(3):
        rep = chain_family_coloring(random_chain_family(8, 3, 2, seed))
        check(rep, rep.min_size)
    _report("C3 construction-suite", not failures, time.time() - start, 60,
            f"failures={failures}")


def test_c4_order_properties():
    start = time.time()
    values = {}
    for n in (2, 3):
        for k in (2, 3, 4):
            fam = PosetFamily.from_spec(f"A{k}")
            values[("f", n, k)] = solve_min_class(n, k, fam).value
            values[("F", n, k)] = solve_min_class(n, k, fam, kind="total").value
        for l in (3, 4):
            values[("fA2", n, l)] = solve_min_class(
                n, l, PosetFamily.from_spec("A2")).value
    violations = []
    counterexamples = []
    for n in (2, 3):
        for k in (2, 3, 4):
            if values[("F", n, k)] > values[("f", n, k)]:
                violations.append(("F<=f", n, k))
            if values[("f", n, k)] > 2 ** n // k:
                violations.append(("cap", n, k))
        for k in (2, 3):
            if values[("f", n, k)] > values[("F", n, k + 1)]:
                # B_2 has no antichain of size 3, so F(2,3,A3) is just the
                # ceiling floor(4/3)=1 while the exhaustive f(2,2,A2) is 2
                (counterexamples if (n, k) == (2, 2) else violations).append(
                    ("sandwich", n, k,
                     values[("f", n, k)], values[("F", n, k + 1)]))
        seq = [values[("f", n, 2)], values[("fA2", n, 3)], values[("fA2", n, 4)]]
        if any(a < b for a, b in zip(seq, seq[1:])):
            violations.append(("monotone-l", n, seq))
    assert counterexamples == [("sandwich", 2, 2, 2, 1)]
    _report("C4 order-properties", not violations, time.time() - start, 60,
            f"violations={violations}; n = 2 counterexample={counterexamples}")


def test_c5_detector_oracle_equivalence():
    start = time.time()
    specs = ["A2", "A3", "P2", "P3", "V2", "W2", "D2"]
    posets = {s: build_poset(s) for s in specs}
    disagreements = 0

    # exhaustive: every family of size <= 6 in B_3, both modes
    for size in range(1, 7):
        for family in combinations(range(8), size):
            for s in specs:
                for mode in ("induced", "weak"):
                    got = find_copy(list(family), posets[s], mode) is not None
                    if got != naive_find_copy(family, posets[s], mode):
                        disagreements += 1

    # 10^4 random cases in B_4: half copy detection, half rainbow validation
    rng = random.Random(ACCEPTANCE_SEED)
    for _ in range(5000):
        family = rng.sample(range(16), rng.randint(1, 6))
        s = rng.choice(specs)
        mode = rng.choice(("induced", "weak"))
        got = find_copy(family, posets[s], mode) is not None
        if got != naive_find_copy(family, posets[s], mode):
            disagreements += 1
    small = ["A2", "A3", "P2", "P3", "V2", "W2"]
    cache = {}
    for _ in range(5000):
        s = rng.choice(small)
        mode = rng.choice(("induced", "weak"))
        p = posets[s]
        l = rng.choice((3, 4))
        if p.size > l:
            continue
        c = Coloring(4, l, [rng.randrange(l + 1) for _ in range(16)])
        key = (s, mode)
        if key not in cache:
            cache[key] = copy_tuples(4, p, mode)
        want = oracle_has_rainbow(c.assign, cache[key])
        got = validate(c, PosetFamily((p,), mode)) is not None
        if got != want:
            disagreements += 1
    _report("C5 detector-oracle", disagreements == 0, time.time() - start, 300,
            f"disagreements={disagreements}")


def test_c6_cross_sperner_exhaustive():
    start = time.time()
    best = max_cross_sperner_product_exhaustive(3)
    _report("C6 cross-sperner", best == 2 ** (2 * 3 - 4), time.time() - start, 60,
            f"max product={best}")


def test_c7_az_decomposition():
    start = time.time()
    rng = random.Random(ACCEPTANCE_SEED)
    failures = 0
    for _ in range(1000):
        fams = random_cross_comparable_families(4, rng.randint(1, 4), rng)
        if az_decompose(4, fams) is None:
            failures += 1
    _report("C7 az-decomposition", failures == 0, time.time() - start, 120,
            f"failures={failures} of 1000")


def test_c8_greedy_cover():
    start = time.time()
    rng = random.Random(ACCEPTANCE_SEED)
    fam = PosetFamily.from_spec("A3")
    violations = 0
    for _ in range(1000):
        n = rng.choice((3, 4))
        c = random_valid_coloring(n, 3, fam, rng)
        rep = greedy_tuples_and_cover(c, 2)
        if not (rep.cover_ok and rep.leftover_clean):
            violations += 1
    _report("C8 greedy-cover", violations == 0, time.time() - start, 300,
            f"violations={violations} of 1000")


def test_c9_random_chain_construction():
    start = time.time()
    problems = []

    # structural freeness, detector-checked, 100 seeded trials at n=10
    for t in range(100):
        cf = random_chain_family(10, 3, 2, trial_seed(ACCEPTANCE_SEED, t))
        rep = chain_family_coloring(cf, materialize=True)
        if validate(rep.coloring, rep.forbidden) is not None:
            problems.append(("rainbow", t))

    # analytic sizes equal materialized counts up to n=10
    for n, k, l in ((6, 3, 2), (8, 3, 3), (10, 3, 2), (10, 4, 3)):
        for t in range(5):
            cf = random_chain_family(n, k, l, trial_seed(1000 + n, t))
            rep = chain_family_coloring(cf, materialize=True)
            stats = class_stats(rep.coloring)
            if tuple(stats.sizes) != rep.class_sizes or stats.uncolored != rep.uncolored:
                problems.append(("sizes", n, k, l, t))

    # the overlap-condition pass rate does not fall from n=30 to 45 to 60:
    # paired trials (one seed per trial at every n) and a one-sided exact
    # McNemar test per step, which 100-trial sampling noise cannot flip
    _, trend_ok, _, trend_note = _congen_trend_claim(ACCEPTANCE_SEED, True, None)
    if not trend_ok:
        problems.append(("trend", trend_note))
    _report("C9 random-chains", not problems, time.time() - start, 300,
            f"problems={problems} trend: {trend_note}")


def test_c10_numeric():
    start = time.time()
    problems = []
    # the numeric/* claims of the verify battery, each expecting () of problems
    for claim in (_eq_sweep_claim, _telescoping_claim, _delta_claim):
        expected, computed, _, _ = claim(ACCEPTANCE_SEED, False, None)
        if expected != computed:
            problems.append((claim.__name__, computed))
    scan = solve_c0(tol=1e-10)
    if any(r["residual"] >= 1e-10 for r in scan["roots"]):
        problems.append(("c0-residual", scan))
    flag_recorded = isinstance(scan["in_stated_interval"], bool)
    if not flag_recorded:
        problems.append(("c0-flag", scan))
    detail = (f"problems={problems}; c0 roots={len(scan['roots'])}, "
              f"in-[1/3,1/2] flag={scan['in_stated_interval']}")
    _report("C10 numeric", not problems, time.time() - start, 10, detail)
