"""Exact max-min color-class search plus the chain-decomposition,
cross-incomparability and greedy-cover diagnostics.

The solver finds the largest m such that a valid (partial or total)
l-coloring with every class of size >= m exists, in one depth-first pass
over subset ids with first-use color symmetry breaking and, up to
n = CANONICAL_CAP, exact S_n orbit pruning by an incremental lex-leader
check at every depth.  Every forbidden member is forward-checked: each
color keeps a domain mask of the sets it may still take, so a color that
would complete a rainbow copy is never tried and no copy search is needed,
and the pass backs up once some color can no longer reach m, alone or, by
Hall's condition, together with other short colors.  A partial pass never
gives a color more than m sets: the least valid assignment with every class
>= m has every class exactly m.
The pass starts one above the best seed's value and raises m past each
valid assignment it meets, so refuting the last m is the whole proof.  The
seeds are the constructions' colorings and, for frontier instances, the
search's own least witnesses checked in as WITNESSES, which leave only
opt + 1 to refute.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .coloring import Coloring, PosetFamily, class_stats, has_rainbow, validate
from .constructions import (chain_interval_coloring, incomparable_traces,
                            lift3_coloring, p3_total_coloring, pk_coloring)
from .kernel import antichain_reach, complete, completion_plans, mask_tables
from .lattice import (CANONICAL_CAP, all_subset_permutation_tables, check_dimension,
                      check_subset_id, comparable, full_set, submasks_ascending)
from .posets import antichain, builtin_name


class BudgetExceeded(Exception):
    pass


@dataclass
class SolveResult:
    value: int
    upper: int                   # proven upper bound; equals value when optimal
    witness: Coloring | None
    status: str                  # "optimal" | "lower_bound_only"
    nodes_explored: int
    cap: int
    seed_source: str = "none"
    # nodes cut by each bound: per-color count, Hall, S_n lex-leader
    prunes: dict = field(default_factory=lambda: {"count": 0, "hall": 0, "symmetry": 0})

    def to_json_dict(self) -> dict:
        return {"value": self.value, "upper": self.upper, "status": self.status,
                "nodes_explored": self.nodes_explored, "cap": self.cap,
                "seed_source": self.seed_source, "prunes": self.prunes,
                "witness": self.witness.to_json_dict() if self.witness else None}


class _MaxMinSearch:
    """One depth-first pass over the assignments in lexicographic order.

    It asks every leaf for all classes >= m.  A leaf that qualifies becomes
    the incumbent (`best`) and raises m to its smallest class + 1, so the
    pass ends with m - 1 as the optimum and `best` as the least valid
    assignment that attains it (or None when no leaf qualified).

    Every member is forward-checked: `allowed[c]` holds the sets that color
    c may still take without completing a rainbow copy with the sets
    already placed, so no placement ever completes one.  Placing s removes
    the later sets that complete a copy whose second-largest set is s (see
    kernel.completion_plans and kernel.antichain_reach); a one-element
    member leaves no set to any color.

    A color still short of m by d sets needs d of the sets left in its
    domain, and by Hall's condition every set of two or more short colors
    needs the union of their domains to hold the sum of their deficits.
    With `sym` on, the pass visits only lex-leaders: assignments that no
    element permutation maps to a lexicographically smaller one.  Each
    permutation still tied with the prefix waits in `waiting[w]` for the
    position w that its next comparison reads; placing w advances only
    those, prunes when one maps the prefix below itself and drops one that
    maps it above.  The least valid assignment at any bound is the least
    of its orbit, so neither prune changes the value or the witness.
    The prunes by reason are counted in `count_prunes`, `hall_prunes` and
    `sym_prunes`.

    A partial pass skips color c wherever counts[c] >= m, reading the
    current m, which a child may have raised.  This moves only the node and
    prune counts.  Uncoloring a colored set gives a lexicographically
    smaller assignment that is still valid, so the least valid assignment
    with every class >= m has every class exactly m, and the capped pass
    still reaches it; each incumbent is that least assignment for the m of
    its time, and the next one lies later in lexicographic order.  The set
    of such assignments is closed under element and color permutations, so
    neither the lex-leader prune nor first-use symmetry removes its least
    member.  Total passes cannot uncolor, so they take no cap."""

    def __init__(self, n, l, members, mode, partial, budget, sym, cap):
        self.size = 1 << n
        self.l = l
        self.cap = cap
        self.partial = partial
        self.budget = budget
        self.nodes = 0
        self.count_prunes = self.hall_prunes = self.sym_prunes = 0
        self.sym = bool(sym)
        # waiting[w]: (inv, t) for a permutation whose image of the prefix
        # equals it before position t; inv[t] is the set the image puts at t.
        # The tables are used as the inverses: the list is closed under
        # inversion, and the prune test does not depend on queue order.
        self.waiting = [[] for _ in range(self.size)]
        if self.sym:
            self.waiting[0] = [(inv, 0) for inv in all_subset_permutation_tables(n)[1:]]
        self.assign = [0] * self.size
        self.counts = [0] * (l + 1)
        self.color_mask = [0] * (l + 1)  # the placed sets of each color; [0] stays 0
        self.m = 0
        self.best: list[int] | None = None
        self.incomp = mask_tables(n).incomp
        induced = mode == "induced"
        cliques = [p for p in members if induced and p.is_antichain() and p.size >= 4]
        self.needs = tuple(sorted({p.size - 2 for p in cliques}))
        self.plans = tuple(plan for p in members if p not in cliques
                           for plan in completion_plans(p, induced, n))
        self.full = (1 << self.size) - 1
        self.allowed = [0 if any(p.size == 1 for p in members) else self.full] * (l + 1)

    def run(self, m: int) -> bool:
        """Search from bound m until m passes the cap or the tree is
        exhausted; False when the node budget runs out first."""
        self.m = m
        try:
            self._dfs(0, 0)
        except BudgetExceeded:
            return False
        return True

    def _untie(self, p: int) -> list[int] | None:
        """Advance the permutations waiting on position p, just placed.
        Returns the positions they now wait on, for the caller to pop on
        backtrack, or None when one maps the prefix below itself."""
        assign, waiting = self.assign, self.waiting
        moved = []
        for inv, t in waiting[p]:
            while True:
                q = inv[t]
                w = q if q > t else t
                if w > p:
                    waiting[w].append((inv, t))
                    moved.append(w)
                    break
                b, a = assign[q], assign[t]
                if b > a:
                    break
                if b < a:
                    for v in moved:
                        waiting[v].pop()
                    return None
                t += 1
        return moved

    def _shrink(self, s: int, c: int) -> list[int]:
        """Take from the other colors' domains every set that would complete
        a rainbow copy with s, just placed in color c, and the sets placed
        before it.  Returns the domains as they were."""
        allowed, color_mask, l = self.allowed, self.color_mask, self.l
        saved = allowed.copy()
        above = self.full & (-2 << s)
        for steps, cuts in self.plans:
            first = cuts[0]
            target = above & first[s] if first is not None else above
            if target:
                complete(steps, cuts, [s], 1 << c, target, color_mask, allowed)
        if self.needs:
            # an induced A_k: each other color d loses the sets above s that
            # complete a clique with s and k - 2 placed sets of colors other
            # than c and d
            incomp = self.incomp
            inc = incomp[s]
            placed = [(b, m) for b, cm in enumerate(color_mask)
                      if b != c and (m := cm & inc)]  # color 0 has no sets
            for need in self.needs:
                if len(placed) < need:
                    break
                for d in range(1, l + 1):
                    target = allowed[d] & inc & above if d != c else 0
                    if target:
                        others = [m for b, m in placed if b != d]
                        allowed[d] &= ~antichain_reach(others, need, target, incomp)
        return saved

    def _dfs(self, pos: int, used: int) -> bool:
        # True stops the pass: the incumbent reached the cap
        if pos == self.size:
            low = min(self.counts[1:])
            if low < self.m:
                return False
            self.best = list(self.assign)
            self.m = low + 1
            return self.m > self.cap
        if self.nodes >= self.budget:
            raise BudgetExceeded(self.nodes)
        self.nodes += 1
        m, counts, allowed = self.m, self.counts, self.allowed
        deficit = 0
        short = []
        for c in range(1, self.l + 1):
            d = m - counts[c]
            if d > 0:
                # color c reaches m only through the sets it may still take
                free = allowed[c] >> pos
                if free.bit_count() < d:
                    self.count_prunes += 1
                    return False
                deficit += d
                short.append((free, d))
        if deficit > self.size - pos:
            self.count_prunes += 1
            return False
        if len(short) > 1:
            # Hall: each union of two or more short colors' domains holds
            # their deficits; unions of the first colors are extended by
            # the next one, so l short colors take 2^l - l - 1 ORs
            unions = short[:1]
            for free, d in short[1:]:
                for i in range(len(unions)):
                    u, need = unions[i]
                    u |= free
                    need += d
                    if u.bit_count() < need:
                        self.hall_prunes += 1
                        return False
                    unions.append((u, need))
                unions.append((free, d))
        moved = None
        if self.sym and pos:
            moved = self._untie(pos - 1)
            if moved is None:
                self.sym_prunes += 1
                return False
        if self.partial:
            if self._dfs(pos + 1, used):
                return True
        assign, color_mask, partial = self.assign, self.color_mask, self.partial
        top = used + 1 if used < self.l else self.l
        bit = 1 << pos
        for c in range(1, top + 1):
            # self.m, not m: a child may have raised the bound
            if not allowed[c] & bit or partial and counts[c] >= self.m:
                continue
            assign[pos] = c
            counts[c] += 1
            color_mask[c] |= bit
            saved = self._shrink(pos, c)
            if self._dfs(pos + 1, used if c <= used else c):
                return True
            allowed[:] = saved
            counts[c] -= 1
            color_mask[c] &= ~bit
        assign[pos] = 0
        if moved:
            waiting = self.waiting
            for w in moved:
                waiting[w].pop()
        return False


def _equal_split_coloring(n: int, l: int, kind: str) -> Coloring:
    size = 1 << n
    cap = size // l
    assign = [0] * size
    if kind == "total":
        for h in range(size):
            assign[h] = h % l + 1
    else:
        for h in range(cap * l):
            assign[h] = h % l + 1
    return Coloring(n, l, assign)


# (n, colors, builtin_name of the one induced member, kind) -> (value, the
# search's own least witness at that optimum, as an unseeded solve finds it).
# Seeded with one, a solve has only opt + 1 left to refute.
WITNESSES = {
    (5, 3, "A3", "partial"): (7, (1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 2, 0, 2, 0, 2, 3,
                                  1, 0, 2, 0, 2, 0, 3, 3, 2, 0, 3, 3, 3, 3, 1, 1)),
    (5, 4, "A4", "partial"): (7, (0, 1, 1, 0, 1, 0, 0, 2, 1, 2, 2, 2, 2, 2, 2, 3,
                                  3, 1, 1, 4, 1, 4, 4, 3, 4, 4, 4, 3, 4, 3, 3, 3)),
    (5, 4, "A4", "total"): (7, (1, 1, 1, 2, 1, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 3,
                                3, 1, 1, 2, 4, 4, 4, 3, 4, 4, 4, 3, 4, 3, 3, 3)),
}


def instance_label(n: int, l: int, spec: str, kind: str) -> str:
    return f"{'F' if kind == 'total' else 'f'}({n},{l},{spec.replace(',', '+')})"


def _construction_seed(n: int, l: int, forbidden: PosetFamily, kind: str):
    """Best valid lower-bound witness any generator or WITNESSES entry
    provides, or None.  Induced members are recognised by builtin_name, so
    every spelling of a family (builtin names in any order, "+"-sums, JSON
    objects) gets the same seed.  A candidate is kept only when has_rainbow
    finds no copy of the family in it: that is the one validity check."""
    mems = forbidden.members
    induced = forbidden.mode == "induced"
    names = sorted(builtin_name(p) or "?" for p in mems) if induced else []
    candidates = []

    def attempt(fn, *args):
        try:
            report = fn(*args)
        except ValueError:
            return
        candidates.append((report.coloring, f"construction:{report.name}"))

    if induced and kind == "partial" and all(p.is_antichain() and p.size >= 2 for p in mems):
        attempt(chain_interval_coloring, n, l)
    if names == ["D2"] and l == 4:
        attempt(lift3_coloring, n, "four_color")
    if names == ["P3"] and l == 3:
        attempt(p3_total_coloring, n)
    if names == [f"P{l}"] and l >= 4:
        attempt(pk_coloring, n, l)
    if names == ["P3", "V2", "W2"] and l == 3 and kind == "partial":
        attempt(lift3_coloring, n, "three_color")
    attempt(incomparable_traces, n, l)
    if kind == "total":
        attempt(incomparable_traces, n, l, True)
    if len(names) == 1 and (key := (n, l, names[0], kind)) in WITNESSES:
        candidates.append((Coloring(n, l, list(WITNESSES[key][1])),
                           f"witness:{instance_label(*key)}"))

    best = None
    for col, source in candidates:
        if kind == "total" and not col.is_total():
            continue
        if has_rainbow(col, forbidden):
            continue
        value = class_stats(col).min_size
        if best is None or value > best[0]:
            best = (value, col, source)
    return best


def solve_min_class(n: int, l: int, forbidden: PosetFamily, kind: str = "partial",
                    budget: int = 10 ** 9, use_construction_seed: bool = True,
                    sym_prune: bool | None = None) -> SolveResult:
    """Largest m such that some valid coloring keeps every class at size >= m.

    kind "partial" admits uncolored sets, "total" does not.  The answer never
    exceeds floor(2^n / l), and it is 0 when a weak antichain of 2..l
    elements is forbidden: any k distinctly colored sets form a weak A_k,
    so at most k - 1 classes are nonempty.  Exceeding the node budget
    downgrades the status to lower_bound_only; it never yields a wrong
    "optimal", `value` keeps the best class size found so far and `upper`
    is that root bound, since a pass cut short proves nothing above its
    incumbent.  Budget 0 runs the set-up and seeding only; a negative
    budget is an error.  Witnesses found by search are the lexicographically least
    valid assignment at the optimum; a witness taken straight from a
    construction or from WITNESSES is reported via seed_source, and
    use_construction_seed=False turns both seeds off.
    The search forward-checks rainbow copies with the kernel's cone masks
    at every n.
    """
    check_dimension(n)
    if l < 1:
        raise ValueError("need at least one color")
    if budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")
    if kind not in ("partial", "total"):
        raise ValueError(f"unknown kind {kind!r}")
    size = 1 << n
    cap = size // l
    members = [p for p in forbidden.members if p.size <= l]
    if len(members) < len(forbidden.members):
        warnings.warn("forbidden members larger than the color count are "
                      "vacuously avoided", stacklevel=2)
    if not members:
        return SolveResult(cap, cap, _equal_split_coloring(n, l, kind), "optimal",
                           0, cap, "trivial-cap")

    lo, witness, source = -1, None, "none"
    if use_construction_seed:
        seeded = _construction_seed(n, l, forbidden, kind)
        if seeded:
            lo, witness, source = seeded
    if witness is None and kind == "partial":
        lo, witness, source = 0, Coloring.empty(n, l), "empty"
    weak_antichain = forbidden.mode == "weak" and any(
        p.is_antichain() and p.size >= 2 for p in members)
    upper = 0 if weak_antichain else cap
    if lo >= upper:
        return SolveResult(upper, upper, witness, "optimal", 0, cap, source)

    if sym_prune is None:
        sym_prune = n <= CANONICAL_CAP
    search = _MaxMinSearch(n, l, members, forbidden.mode, kind == "partial",
                           budget, sym_prune, upper)
    # with no witness yet (total colorings may be infeasible outright, for
    # 1-element members) the pass starts at m = 0 and takes any valid leaf
    finished = search.run(lo + 1)
    lo = search.m - 1
    prunes = {"count": search.count_prunes, "hall": search.hall_prunes,
              "symmetry": search.sym_prunes}
    if search.best is not None:
        witness, source = Coloring(n, l, search.best), "search"
    # a pass cut short proves nothing above its incumbent; with no witness
    # lo is -1, and a finished pass proves no valid coloring exists
    status, hi = ("optimal", lo) if finished else ("lower_bound_only", upper)
    if witness is None:
        if finished:
            source = "infeasible"
    elif class_stats(witness).min_size < lo or has_rainbow(witness, forbidden):
        raise AssertionError("internal error: unsound witness")
    elif kind == "total" and not witness.is_total():
        raise AssertionError("internal error: partial witness for a total solve")
    return SolveResult(lo, hi, witness, status, search.nodes, cap, source, prunes)


# ---------------------------------------------------------------------------
# chain decomposition of pairwise cross-comparable families


@dataclass(frozen=True)
class ChainDecomposition:
    chain: tuple[int, ...]               # prefix unions, empty set to ground set
    parts: tuple[frozenset[int], ...]    # partition of 1..t, one block per family


def az_decompose(n: int, families) -> ChainDecomposition | None:
    """Chain plus interval assignment housing pairwise cross-comparable
    families (Ahlswede-Zhang style): family i lives on the chain itself plus
    the open intervals indexed by its part.

    A subset id outside 0..2^n - 1 is an error naming it.  The hypothesis
    (every cross pair of sets from two distinct families is comparable) is
    checked next; a violation is an error naming the pair.  When the
    hypothesis holds a decomposition always exists.

    The chains (one per ordered set partition of [n]; tops prev | b for the
    nonempty submasks b of the rest, ascending) are searched depth first.
    Every set not placed yet contains prev, and one inside top lies on the
    chain or in (prev, top), which its family then owns.  A set neither
    inside nor above top fails every chain through the prefix (the chain set
    before its first one above contains top, so is not inside it), as does a
    second family owning one interval; so pruning there keeps the first
    chain that houses the families.  Unowned intervals go to the first
    family owning none, else to the first.
    """
    check_dimension(n)
    families = [sorted(set(f)) for f in families]
    if not families:
        raise ValueError("need at least one family")
    for fam in families:
        for f in fam:
            check_subset_id(f, n)
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            for fi in families[i]:
                for fj in families[j]:
                    if not comparable(fi, fj):
                        raise ValueError(
                            f"hypothesis violated: families {i + 1} and {j + 1} "
                            f"contain the incomparable pair ({fi}, {fj})")
    full = full_set(n)
    # the empty set lies on every chain
    waiting = [(f, i) for i, fam in enumerate(families) for f in fam if f]
    # owners[h - 1]: the family owning (chain[h - 1], chain[h]), or -1
    chain, owners = [0], []

    def extend(prev: int, waiting) -> bool:
        if prev == full:
            return True
        for b in submasks_ascending(full & ~prev):
            if not b:
                continue
            top, owner, rest = prev | b, -1, []
            for f, i in waiting:
                if not f & ~top:
                    if f != top:
                        if owner not in (-1, i):
                            break
                        owner = i
                elif top & ~f:
                    break
                else:
                    rest.append((f, i))
            else:
                chain.append(top)
                owners.append(owner)
                if extend(top, rest):
                    return True
                chain.pop()
                owners.pop()
        return False

    if not extend(0, waiting):
        return None
    parts = [{h for h, o in enumerate(owners, 1) if o == i} for i in range(len(families))]
    target = next((i for i, s in enumerate(parts) if not s), 0)
    parts[target] |= {h for h, o in enumerate(owners, 1) if o == -1}
    return ChainDecomposition(tuple(chain), tuple(map(frozenset, parts)))


# ---------------------------------------------------------------------------
# cross-incomparable pair product bound


@dataclass(frozen=True)
class CrossSpernerResult:
    is_cross_sperner: bool
    product: int
    bound_ok: bool
    violating_pair: tuple[int, int] | None = None


def cross_sperner_check(n: int, f1, f2) -> CrossSpernerResult:
    """Whether every cross pair is incomparable, and whether the family-size
    product respects 2^(2n-4) (compared integer-exactly)."""
    f1, f2 = sorted(set(f1)), sorted(set(f2))
    violating = None
    for a in f1:
        for b in f2:
            if comparable(a, b):
                violating = (a, b)
                break
        if violating:
            break
    product = len(f1) * len(f2)
    return CrossSpernerResult(violating is None, product,
                              16 * product <= 1 << (2 * n), violating)


# ---------------------------------------------------------------------------
# greedy tuple extraction and the incidence-cone cover diagnostic


@dataclass(frozen=True)
class TupleSequence:
    tuples: tuple[tuple[int, ...], ...]
    used_per_color: tuple[tuple[int, ...], ...]   # coordinate-disjointness ledger


@dataclass(frozen=True)
class GreedyCoverReport:
    tuples: TupleSequence
    leftover_clean: bool
    cover_ok: bool
    uncovered: tuple = ()


def _least_antichain_tuple(avail):
    k = len(avail)
    chosen: list[int] = []

    def rec(i: int) -> bool:
        if i == k:
            return True
        for x in avail[i]:
            if all(not comparable(x, y) for y in chosen):
                chosen.append(x)
                if rec(i + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if rec(0) else None


def greedy_tuples_and_cover(c: Coloring, k: int) -> GreedyCoverReport:
    """Extract a maximal sequence of pairwise-incomparable k-tuples, one set
    per color 1..k with no set reused in its coordinate, then test that
    every class-(k+1) set is comparable to some member of every tuple.

    Each extracted tuple is the lexicographically least available one.
    Requires l >= k+1 and a coloring with no rainbow antichain of size k+1.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if c.l < k + 1:
        raise ValueError(f"coloring has l={c.l} < k+1={k + 1} colors")
    w = validate(c, PosetFamily((antichain(k + 1),), "induced"))
    if w is not None:
        raise ValueError(f"coloring admits a rainbow antichain of size {k + 1}: {w.sets}")
    avail = [c.class_ids(i) for i in range(1, k + 1)]
    tuples = []
    while True:
        t = _least_antichain_tuple(avail)
        if t is None:
            break
        tuples.append(t)
        for i, x in enumerate(t):
            avail[i].remove(x)
    leftover_clean = _least_antichain_tuple(avail) is None
    uncovered = []
    for f in c.class_ids(k + 1):
        for t in tuples:
            if not any(comparable(f, x) for x in t):
                uncovered.append((f, t))
    seq = TupleSequence(tuple(tuples),
                        tuple(tuple(t[i] for t in tuples) for i in range(k)))
    return GreedyCoverReport(seq, leftover_clean, not uncovered, tuple(uncovered))
