"""Reproducible verification battery: every known exact value, construction
claim and numeric inequality as a computed check.

Claims are hard (a mismatch fails the suite) or flagged-informational
(reported only; used for the root-interval discrepancy).
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import bounds
from .coloring import Coloring, PosetFamily, class_stats, has_rainbow
from .constructions import (chain_family_coloring, chain_interval_coloring,
                            chain_overlap_check, incomparable_traces, lift3_coloring,
                            p3_total_coloring, pk_coloring, random_chain_family,
                            trial_seed)
from .kernel import RainbowKernel, mask_tables
from .lattice import Interval, interval_members
from .solver import (WITNESSES, az_decompose, cross_sperner_check, greedy_tuples_and_cover,
                     instance_label, solve_min_class)


@dataclass
class ClaimResult:
    claim_id: str
    source: str
    expected: object
    computed: object
    status: str          # MATCH | MISMATCH | SKIPPED-budget | LOWER-BOUND-ONLY
    hard: bool
    seconds: float
    note: str = ""

    def to_json_dict(self, include_runtime: bool = True) -> dict:
        out = {"claim_id": self.claim_id, "source": self.source,
               "expected": repr(self.expected), "computed": repr(self.computed),
               "status": self.status, "hard": self.hard, "note": self.note}
        if include_runtime:
            out["seconds"] = round(self.seconds, 4)
        return out


@dataclass
class VerificationReport:
    profile: str
    seed: int
    entries: list[ClaimResult]

    @property
    def ok(self) -> bool:
        return not any(e.hard and e.status == "MISMATCH" for e in self.entries)

    def to_json_dict(self, include_runtime: bool = True) -> dict:
        return {"profile": self.profile, "seed": self.seed, "ok": self.ok,
                "entries": [e.to_json_dict(include_runtime) for e in self.entries]}

    def render_text(self) -> str:
        width = max(len(e.claim_id) for e in self.entries) + 2
        lines = [f"verification profile={self.profile} seed={self.seed}"]
        for e in self.entries:
            tag = "" if e.hard else " [flagged]"
            lines.append(f"{e.claim_id:<{width}} {e.status:<17} "
                         f"expected={e.expected!r} computed={e.computed!r} "
                         f"({e.seconds:.2f}s){tag}  [{e.source}]")
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL (hard mismatch)"))
        return "\n".join(lines)


def _sub_seed(seed: int, label: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# reusable sample generators


def random_valid_coloring(n: int, l: int, forbidden: PosetFamily,
                          rng: random.Random) -> Coloring:
    """Greedy randomized valid coloring: visit sets in random order, try up
    to two random colors on each and keep the first that creates no rainbow
    copy."""
    c = Coloring.empty(n, l)
    kernel = RainbowKernel(n, l, [p for _, p in forbidden.within(l)], forbidden.mode, c.assign)
    ids = list(range(1 << n))
    rng.shuffle(ids)
    for s in ids:
        colors = rng.sample(range(1, l + 1), min(2, l))
        for col in colors:
            c.assign[s] = col
            kernel.toggle(s)
            if not kernel.through(s):
                break
            kernel.toggle(s)
            c.assign[s] = 0
    return c


def random_cross_comparable_families(n: int, m: int, rng: random.Random):
    """Families guaranteed pairwise cross-comparable: drawn from the open
    intervals of a random chain (one owner family per interval) plus chain
    sets assigned freely."""
    elems = list(range(n))
    rng.shuffle(elems)
    cut_count = rng.randint(0, n - 1)
    cuts = sorted(rng.sample(range(1, n), cut_count))
    chain = [0]
    prev = 0
    for cut in cuts + [n]:
        block = 0
        for e in elems[prev:cut]:
            block |= 1 << e
        chain.append(chain[-1] | block)
        prev = cut
    families = [set() for _ in range(m)]
    for h in range(1, len(chain)):
        owner = rng.randrange(m)
        for x in interval_members(Interval(chain[h - 1], chain[h], True, True)):
            if rng.random() < 0.5:
                families[owner].add(x)
    for cs in chain:
        if rng.random() < 0.7:
            families[rng.randrange(m)].add(cs)
    return [sorted(f) for f in families]


def max_cross_sperner_product_exhaustive(n: int) -> int:
    """Brute-force maximum of |F1||F2| over cross-incomparable family pairs:
    for each of the 2^(2^n) choices of F1, the largest mate is the set of
    ids incomparable to all of F1."""
    size = 1 << n
    incomp = mask_tables(n).incomp
    best = 0
    for mask in range(1, 1 << size):
        pool = (1 << size) - 1
        count = 0
        ms = mask
        while ms:
            s = (ms & -ms).bit_length() - 1
            pool &= incomp[s]
            count += 1
            ms &= ms - 1
        best = max(best, count * pool.bit_count())
    return best


# ---------------------------------------------------------------------------
# claim runners


def _certified_min(rep, kind):
    """The smallest class of a construction's coloring, measured on the
    coloring: "invalid" unless it has no rainbow copy, its class sizes equal
    the report's and, for kind "total", no set is uncolored."""
    value = rep.forbidden.certified_min(rep.coloring, kind)
    if value is None or class_stats(rep.coloring).sizes != rep.class_sizes:
        return "invalid"
    return value


def _construct_claim(build, cases, full_cases=()):
    """A hard claim that each construction build(*args) attains the known
    value of f (kind "partial") or F ("total") for the family it declares,
    or its own formula_min where no theorem covers the instance.  The full
    profile also runs full_cases."""
    def run(seed, full, budget):
        want, got = [], []
        for args, kind in cases + (full_cases if full else ()):
            rep = build(*args)
            known = bounds.known_value(rep.n, rep.l, rep.forbidden.spec_string(), kind)
            want.append(known.value if known.applicable else rep.formula_min)
            got.append(_certified_min(rep, kind))
        return tuple(want), tuple(got), None, ""
    return run


def _over_n(lo, hi, *params, kind="partial"):
    """Construct-claim cases ((n, *params), kind) for n in lo..hi."""
    return tuple(((n, *params), kind) for n in range(lo, hi + 1))


def _two_color_formula_claim(seed, full, budget):
    bad = []
    for n in range(4, 31):
        fv = bounds.formula_A2(n, 2)
        want = 2 ** (n // 2) - 1 if n % 2 == 0 else 2 ** (n // 2) + 1
        if fv.value != want:
            bad.append(n)
    return (), tuple(bad), None, ""


def _eq_sweep_claim(seed, full, budget):
    spot = bounds.eq_inequality_check(2, 1)
    bad = tuple(bounds.eq_sweep(200))
    if not spot["holds"]:
        bad = (("spot", 2, 1),) + bad
    return (), bad, None, ""


def _telescoping_claim(seed, full, budget):
    bad = [l for l in range(2, 501) if bounds.g_of_l(l) != Fraction(1, l * l)]
    return (), tuple(bad), None, ""


def _delta_claim(seed, full, budget):
    bad = []
    for l in range(3, 201):
        pairs = list(bounds.delta_pairs(l))
        if Fraction(*pairs[0]) != bounds.delta_l(l, 1):
            bad.append((l, "mismatch"))
        if any(a * d <= c * b for (a, b), (c, d) in zip(pairs, pairs[1:])):
            bad.append(l)
    return (), tuple(bad), None, ""


def _c0_claim(seed, full, budget):
    out = bounds.solve_c0(tol=1e-10)
    residuals_ok = all(r["residual"] < 1e-10 for r in out["roots"])
    computed = {"roots_found": len(out["roots"]),
                "in_stated_interval": out["in_stated_interval"],
                "residuals_below_tol": residuals_ok}
    expected = {"in_stated_interval": True}
    status = "MATCH" if out["in_stated_interval"] else "MISMATCH"
    return expected, computed, status, out["note"]


def _entropy_claim(seed, full, budget):
    checks = [abs(bounds.binary_entropy(0.5) - 1.0) < 1e-15,
              bounds.binary_entropy(0.0) == 0.0,
              abs(bounds.binary_entropy(1 / 3) - (math.log2(3) - 2 / 3)) < 1e-12]
    return (True, True, True), tuple(checks), None, ""


def _m_of_l_claim(seed, full, budget):
    return (2, 3, 4), (bounds.m_of_l(2), bounds.m_of_l(3), bounds.m_of_l(6)), None, ""


def _formula_spots_claim(seed, full, budget):
    vals = (bounds.formula_A2(4, 2).value, bounds.formula_A2(6, 3).value,
            bounds.formula_A2(5, 2).value, bounds.formula_A2(4, 3).applicable)
    return (3, 3, 5, False), vals, None, ""


def _witness_table_claim(seed, full, budget):
    """Each solver.WITNESSES entry, replayed: its value where the coloring
    has no rainbow copy (and no uncolored set for a total entry), else
    "invalid"."""
    want, got = {}, {}
    for (n, l, spec, kind), (value, assign) in WITNESSES.items():
        label = instance_label(n, l, spec, kind)
        least = PosetFamily.from_spec(spec).certified_min(Coloring(n, l, assign), kind)
        want[label], got[label] = value, "invalid" if least is None else least
    return want, got, None, ""


def _sperner_claim(seed, full, budget):
    best = max_cross_sperner_product_exhaustive(3)
    spot = cross_sperner_check(3, [0b001, 0b011], [0b100, 0b110])
    ok = spot.is_cross_sperner and spot.product == 4 and spot.bound_ok
    return (4, True), (best, ok), None, "bound 2^(2n-4) attained in B_3"


def _az_claim(seed, full, budget):
    trials = 1000 if full else 200
    rng = random.Random(_sub_seed(seed, "az"))
    failures = 0
    for _ in range(trials):
        fams = random_cross_comparable_families(4, rng.randint(1, 4), rng)
        if az_decompose(4, fams) is None:
            failures += 1
    return 0, failures, None, f"trials={trials}"


def _cover_claim(seed, full, budget):
    trials = 1000 if full else 100
    rng = random.Random(_sub_seed(seed, "cover"))
    fam = PosetFamily.from_spec("A3")
    violations = 0
    for t in range(trials):
        n = rng.choice((3, 4))
        c = random_valid_coloring(n, 3, fam, rng)
        rep = greedy_tuples_and_cover(c, 2)
        if not (rep.cover_ok and rep.leftover_clean):
            violations += 1
    return 0, violations, None, f"trials={trials}"


def _order_grid():
    values = {}
    for n in (2, 3):
        for k in (2, 3, 4):
            fam = PosetFamily.from_spec(f"A{k}")
            values[("f", n, k)] = solve_min_class(n, k, fam, kind="partial").value
            values[("F", n, k)] = solve_min_class(n, k, fam, kind="total").value
        for l in (3, 4):
            values[("fA2", n, l)] = solve_min_class(
                n, l, PosetFamily.from_spec("A2"), kind="partial").value
    return values


def _order_properties_claim(seed, full, budget):
    # The sandwich fails at (n=2, k=2); order/sandwich-n2 checks that pair.
    vals = _order_grid()
    violations = []
    for n in (2, 3):
        for k in (2, 3, 4):
            if vals[("F", n, k)] > vals[("f", n, k)]:
                violations.append(("F<=f", n, k))
            if vals[("f", n, k)] > 2 ** n // k:
                violations.append(("cap", n, k))
        for k in (2, 3):
            if (n, k) != (2, 2) and vals[("f", n, k)] > vals[("F", n, k + 1)]:
                violations.append(("sandwich", n, k))
        a2 = [vals[("f", n, 2)], vals[("fA2", n, 3)], vals[("fA2", n, 4)]]
        if any(x < y for x, y in zip(a2, a2[1:])):
            violations.append(("monotone-l", n))
    return (), tuple(violations), None, "grid n<=3, l<=4"


def _sandwich_n2_claim(seed, full, budget):
    f22 = solve_min_class(2, 2, PosetFamily.from_spec("A2"), kind="partial").value
    big23 = solve_min_class(2, 3, PosetFamily.from_spec("A3"), kind="total").value
    note = ("(f(2,2,A2), F(2,3,A3)): no antichain of size 3 exists in B_2, so "
            "every total 3-coloring is valid and the ceiling floor(4/3)=1 caps "
            "the total value below the partial value 2")
    return (2, 1), (f22, big23), None, note


def _congen_sizes_claim(seed, full, budget):
    grid = [(10, 3, 2), (10, 4, 3), (8, 4, 2), (6, 3, 3)] if full else [(6, 3, 2)]
    seeds = 20 if full else 3
    bad = []
    for n, k, l in grid:
        for t in range(seeds):
            cf = random_chain_family(n, k, l, trial_seed(_sub_seed(seed, "congen"), t))
            rep = chain_family_coloring(cf, materialize=True)
            if tuple(class_stats(rep.coloring).sizes) != rep.class_sizes:
                bad.append((n, k, l, t))
    return (), tuple(bad), None, f"grid={grid} seeds={seeds}"


def _congen_freeness_claim(seed, full, budget):
    n, trials = (10, 100) if full else (8, 10)
    base = _sub_seed(seed, "freeness")
    bad = 0
    for t in range(trials):
        cf = random_chain_family(n, 3, 2, trial_seed(base, t))
        rep = chain_family_coloring(cf, materialize=True)
        bad += has_rainbow(rep.coloring, rep.forbidden)
    return 0, bad, None, f"n={n} trials={trials}"


TREND_ALPHA = 0.001  # one-sided level of the trend claim, fixed before any batch is drawn


def _binomial_upper_tail(trials: int, k: int) -> Fraction:
    """P(X >= k) for X ~ Binomial(trials, 1/2), exactly."""
    return Fraction(sum(math.comb(trials, i) for i in range(k, trials + 1)), 2 ** trials)


def _congen_trend_claim(seed, full, budget):
    # Paired batches: trial t draws its chains from one seed at every n.
    # Between consecutive n the claim fails only when the trials that pass
    # at the smaller n and fail at the larger one outnumber the reverse
    # beyond a one-sided exact binomial margin (McNemar's test at level
    # TREND_ALPHA), so 100-trial sampling noise (~0.03 per rate) cannot flip
    # the verdict for some seeds, while a real drop in the pass rate does.
    base = _sub_seed(seed, "trend")
    sizes = (30, 45, 60)
    passed = {n: [chain_overlap_check(random_chain_family(n, 3, 2, trial_seed(base, t)))["pass"]
                  for t in range(100)] for n in sizes}
    tails = []
    for a, b in zip(sizes, sizes[1:]):
        down = sum(x and not y for x, y in zip(passed[a], passed[b]))
        up = sum(y and not x for x, y in zip(passed[a], passed[b]))
        tails.append(_binomial_upper_tail(down + up, down))
    ok = all(p >= TREND_ALPHA for p in tails)
    rates = [sum(passed[n]) / 100 for n in sizes]
    note = (f"rates={rates}; one-sided McNemar tails="
            f"{[round(float(p), 4) for p in tails]} against alpha={TREND_ALPHA}")
    return True, ok, None, note


@dataclass(frozen=True)
class _ClaimSpec:
    claim_id: str
    source: str
    hard: bool
    full_only: bool
    runner: object


_KV = bounds.known_value


def _solver_claim(n, l, spec, kind="partial", full_only=False, value=None, source=None):
    """A hard claim that the solver finds the value of f (partial) or F
    (total) for the family spec: the known value, or `value` from `source`
    where no theorem gives one."""
    if value is None:
        known = _KV(n, l, spec, kind)
        value, source = known.value, known.source
    name = f"solve/{instance_label(n, l, spec, kind)}"

    def run(seed, full, budget):
        fam = PosetFamily.from_spec(spec)
        res = solve_min_class(n, l, fam, kind=kind, budget=budget)
        status = "LOWER-BOUND-ONLY" if res.status == "lower_bound_only" else None
        return value, res.value, status, f"nodes={res.nodes_explored}"
    return _ClaimSpec(name, source, True, full_only, run)


_LEX_HALL = ("exhaustive search, lex-leader pruning under element and color "
             "permutations + Hall bound")
_SMALL_A2 = "exhaustive search; the closed form needs n >= 2l"


_CLAIMS: list[_ClaimSpec] = [
    _ClaimSpec("numeric/m-of-l", "central binomial threshold", True, False, _m_of_l_claim),
    _ClaimSpec("numeric/formulaA2-spots", _KV(4, 2, "A2").source, True, False, _formula_spots_claim),
    _ClaimSpec("numeric/two-color-agreement", _KV(6, 2, "A2").source, True, False,
               _two_color_formula_claim),
    _ClaimSpec("numeric/entropy", "binary entropy identities", True, False, _entropy_claim),
    _ClaimSpec("numeric/eq-sweep", "stage-overlap inequality, exact rationals", True, False,
               _eq_sweep_claim),
    _ClaimSpec("numeric/telescoping", "squared-ratio telescoping product", True, False,
               _telescoping_claim),
    _ClaimSpec("numeric/delta-decreasing", "overlap step decrement monotone", True, False,
               _delta_claim),
    _ClaimSpec("numeric/c0-root-interval", "entropy-equation root scan", False, False, _c0_claim),
    _solver_claim(2, 2, "P2"),
    _solver_claim(3, 3, "P3,V2,W2"),
    _solver_claim(3, 4, "D2", "total"),
    _solver_claim(3, 4, "D2"),
    _solver_claim(4, 4, "P4"),
    _solver_claim(2, 2, "A2", value=2, source=_SMALL_A2),
    _solver_claim(3, 2, "A2", value=2, source=_SMALL_A2),
    _solver_claim(5, 3, "A2", full_only=True, value=2, source=_SMALL_A2),
    _solver_claim(5, 2, "A2"),
    _solver_claim(4, 2, "A2"),
    _solver_claim(4, 2, "P2"),
    _solver_claim(5, 2, "P2"),
    _solver_claim(5, 3, "A3", full_only=True, value=7, source=_LEX_HALL),
    _solver_claim(5, 3, "P3", full_only=True, value=8, source=_LEX_HALL),
    _ClaimSpec("solve/witness-table", "the search's least witnesses, checked in", True, True,
               _witness_table_claim),
    _ClaimSpec("construct/chain-values", _KV(4, 2, "A2").source, True, False,
               _construct_claim(chain_interval_coloring,
                                (((4, 2), "partial"), ((5, 2), "partial"), ((6, 2), "partial"),
                                 ((6, 3), "partial")))),
    _ClaimSpec("construct/lift3-three", _KV(3, 3, "P3,V2,W2").source, True, False,
               _construct_claim(lift3_coloring, _over_n(3, 6, "three_color"),
                                _over_n(7, 8, "three_color"))),
    _ClaimSpec("construct/lift3-four", _KV(3, 4, "D2").source, True, False,
               _construct_claim(lift3_coloring, _over_n(3, 6, "four_color", kind="total"),
                                _over_n(7, 8, "four_color", kind="total"))),
    _ClaimSpec("construct/p3-total", _KV(4, 3, "P3", "total").source, True, False,
               _construct_claim(p3_total_coloring, _over_n(2, 6, kind="total"),
                                _over_n(7, 8, kind="total"))),
    _ClaimSpec("construct/pk", _KV(4, 4, "P4").source, True, False,
               _construct_claim(pk_coloring,
                                (((4, 4), "partial"), ((4, 5), "partial"), ((5, 4), "partial")))),
    _ClaimSpec("construct/traces", "fixed-trace cross-incomparable classes", True, False,
               _construct_claim(incomparable_traces,
                                (((4, 2), "partial"), ((3, 3), "partial"), ((6, 4), "partial"),
                                 ((4, 3, True), "total")))),
    _ClaimSpec("sperner/B3-max", "cross-incomparable pair product bound (Ahlswede-Zhang)",
               True, False, _sperner_claim),
    _ClaimSpec("az/random-systems", "chain decomposition of cross-comparable families",
               True, False, _az_claim),
    _ClaimSpec("cover/greedy-tuples", "incidence-cone cover of the extra class",
               True, False, _cover_claim),
    _ClaimSpec("order/properties", "total<=partial, sandwich, monotone, ceiling",
               True, False, _order_properties_claim),
    _ClaimSpec("order/sandwich-n2", "sandwich counterexample at n = 2", True, False,
               _sandwich_n2_claim),
    _ClaimSpec("congen/sizes", "interval class sizes by inclusion-exclusion",
               True, False, _congen_sizes_claim),
    _ClaimSpec("congen/freeness", "same-chain colors are nested", True, False,
               _congen_freeness_claim),
    _ClaimSpec("congen/overlap-trend", "stage-overlap pass rate vs n", True, True,
               _congen_trend_claim),
]


DEFAULT_SEED = 1


def verify_suite(profile: str = "quick", seed: int = DEFAULT_SEED,
                 budget: int = 10 ** 9) -> VerificationReport:
    """Run the whole battery.  Deterministic for a fixed (profile, seed);
    full-only claims appear as SKIPPED-budget in the quick profile."""
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    if budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")
    full = profile == "full"
    entries = []
    for spec in _CLAIMS:
        if spec.full_only and not full:
            entries.append(ClaimResult(spec.claim_id, spec.source, None, None,
                                       "SKIPPED-budget", spec.hard, 0.0,
                                       "full profile only"))
            continue
        start = time.perf_counter()
        expected, computed, status, note = spec.runner(seed, full, budget)
        elapsed = time.perf_counter() - start
        if status is None:
            status = "MATCH" if expected == computed else "MISMATCH"
        entries.append(ClaimResult(spec.claim_id, spec.source, expected, computed,
                                   status, spec.hard, elapsed, note))
    return VerificationReport(profile, seed, entries)
