"""Exact max-min color-class search plus the chain-decomposition,
cross-incomparability and greedy-cover diagnostics.

The solver finds the largest m such that a valid (partial or total)
l-coloring with every class of size >= m exists, in a depth-first climb
over subset ids with first-use color symmetry breaking and, up to
n = CANONICAL_CAP, pruning under element and color permutations by an
incremental lex-leader check at every depth.  Every forbidden member is
forward-checked: each color keeps a domain mask of the sets it may still
take, so a color that would complete a rainbow copy is never tried and no
copy search is needed, and the pass backs up once some color can no longer
reach m, alone or, by Hall's condition, together with other short colors.  A partial pass never
gives a color more than m sets: the least valid assignment with every class
>= m has every class exactly m.
The climb starts one above the best seed's value and raises m past each
valid assignment it meets, so refuting the last m is the whole proof.  The
seeds are the constructions' colorings and, for frontier instances, the
search's own least witnesses checked in as WITNESSES, which leave only
opt + 1 to refute.  A seeded solve first runs the same search over the sets
in rank order (size, then id), capped at seed + 1: that order refutes in
far fewer nodes, and when it finds no leaf the seed is optimal.  Only when
it finds one does the id-order climb run from the seed, so a finished
solve's value and least witness are the climb's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .coloring import Coloring, PosetFamily, class_stats, validate
from .constructions import (chain_interval_coloring, incomparable_traces,
                            lift3_coloring, p3_total_coloring, pk_coloring)
from .kernel import (antichain_reach, complete, completion_plans, mask_tables, rank_order,
                     rank_positions, rank_tables)
from .lattice import (CANONICAL_CAP, all_subset_permutation_tables, check_colors,
                      check_dimension, check_subset_id, comparable, full_set,
                      submasks_ascending)
from .posets import antichain


class BudgetExceeded(Exception):
    pass


# clique walks a search keeps before it empties its memo
WALK_MEMO_LIMIT = 1 << 16


@dataclass
class SolveResult:
    value: int
    upper: int                   # proven upper bound; equals value when optimal
    witness: Coloring | None
    status: str                  # "optimal" | "lower_bound_only"
    nodes_explored: int
    cap: int
    seed_source: str = "none"
    # nodes cut by each bound: per-color count, Hall, lex-leader under
    # element and color permutations
    prunes: dict = field(default_factory=lambda: {"count": 0, "hall": 0, "symmetry": 0})
    # nodes of each pass: the rank-order refutation of a seed, the id-order climb
    passes: dict = field(default_factory=lambda: {"refute": 0, "climb": 0})

    def to_json_dict(self) -> dict:
        return {"value": self.value, "upper": self.upper, "status": self.status,
                "nodes_explored": self.nodes_explored, "cap": self.cap,
                "seed_source": self.seed_source, "prunes": self.prunes,
                "passes": self.passes,
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
    member leaves no set to any color.  The clique walk of an induced A_k is
    linear in its target, so `walks` keeps, for each (s, need, *masks), the
    complement of the walk on every set above s, and the same masks met
    again, in another subtree or for another color, cost one lookup.  The
    memo empties itself once it holds WALK_MEMO_LIMIT walks, so its memory
    is bounded; `walks_made` and `walks_reused` count its misses and hits.

    A color still short of m by d sets needs d of the sets left in its
    domain, and by Hall's condition every set of two or more short colors
    needs the union of their domains to hold the sum of their deficits.
    With `sym` on, the pass visits only lex-leaders under element and color
    permutations: assignments that no element permutation, with the image's
    colors renamed in order of first use as the search numbers its own,
    maps to a lexicographically smaller one.  Each permutation still tied
    with the prefix waits in `waiting[w]` for the position w that its next
    comparison reads; placing w advances only those, prunes when one maps
    the prefix below itself and drops one that maps it above.  The least
    valid assignment at any bound is the least of its orbit, so neither
    prune changes the value or the witness.
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
    member.  Total passes cannot uncolor, so they take no cap.

    With `rank` the positions are the sets in rank_order(n), not in id
    order: the cone masks, completion plans and permutation tables are
    conjugated to match, and `best` is mapped back to ids.  Every argument
    above needs only that no set comes after a superset, so the pass
    decides the same bounds; its leaves are least in rank order instead."""

    def __init__(self, n, l, members, mode, partial, budget, sym, cap, rank=False):
        self.size = 1 << n
        self.l = l
        self.cap = cap
        self.partial = partial
        self.budget = budget
        self.nodes = 0
        self.count_prunes = self.hall_prunes = self.sym_prunes = 0
        self.sym = bool(sym)
        # waiting[w]: (inv, t, rho, k) for a permutation whose image of the
        # prefix, its colors renamed by rho, equals it before position t;
        # inv[t] is the set the image puts at t.  The tables are used as the
        # inverses: the list is closed under inversion, and the prune test
        # does not depend on queue order.
        self.waiting = [[] for _ in range(self.size)]
        if self.sym:
            unnamed = (0,) + (l + 1,) * l
            self.waiting[0] = [(inv, 0, unnamed, 0) for inv in _permutation_tables(n, rank)]
        # where[s]: the position of set s, when positions are not ids
        self.where = rank_positions(n) if rank else None
        self.assign = [0] * self.size
        self.counts = [0] * (l + 1)
        self.color_mask = [0] * (l + 1)  # the placed sets of each color; [0] stays 0
        self.m = 0
        self.best: list[int] | None = None
        self.incomp = (rank_tables(n) if rank else mask_tables(n)).incomp
        induced = mode == "induced"
        cliques = [p for p in members if induced and p.is_antichain() and p.size >= 4]
        self.needs = tuple(sorted({p.size - 2 for p in cliques}))
        # (s, need, *masks) -> ~ the sets above s that complete a clique
        self.walks = {}
        self.walks_made = self.walks_reused = 0
        self.plans = tuple(plan for p in members if p not in cliques
                           for plan in completion_plans(p, induced, n, rank))
        self.full = (1 << self.size) - 1
        self.allowed = [0 if any(p.size == 1 for p in members) else self.full] * (l + 1)

    def run(self, m: int) -> bool:
        """Search from bound m until m passes the cap or the tree is
        exhausted; False when the node budget or Python's recursion limit
        (one frame per set) runs out first.  Either way the pass keeps its
        incumbent."""
        self.m = m
        try:
            self._dfs(0, 0)
        except (BudgetExceeded, RecursionError):
            return False
        return True

    def _untie(self, p: int) -> list[int] | None:
        """Advance the permutations waiting on position p, just placed.
        Returns the positions they now wait on, for the caller to pop on
        backtrack, or None when one maps the prefix below itself.  The
        image's colors are renamed in order of first use, as the prefix's
        own are: the k names given so far are 1..k, rho[c] is the name of
        raw color c, and it is l + 1 while c is unseen (0 stays 0)."""
        assign, waiting = self.assign, self.waiting
        moved = []
        for inv, t, rho, k in waiting[p]:
            while True:
                q = inv[t]
                w = q if q > t else t
                if w > p:
                    waiting[w].append((inv, t, rho, k))
                    moved.append(w)
                    break
                c, a = assign[q], assign[t]
                b = rho[c]
                if b > k:
                    # c is unseen and takes the next name
                    b = k + 1
                    if b == a:
                        rho = rho[:c] + (b,) + rho[c + 1:]
                        k = b
                if b != a:
                    if b < a:
                        for v in moved:
                            waiting[v].pop()
                        return None
                    break
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
            # than c and d: one walk on all of them per (s, need, masks),
            # kept in `walks`
            incomp, walks = self.incomp, self.walks
            inc = incomp[s]
            later = inc & above
            placed = [(b, m) for b, cm in enumerate(color_mask)
                      if b != c and (m := cm & inc)]  # color 0 has no sets
            for need in self.needs:
                if len(placed) < need:
                    break
                for d in range(1, l + 1):
                    if d != c and allowed[d] & later:
                        others = [m for b, m in placed if b != d]
                        if len(others) >= need:
                            key = (s, need, *others)
                            keep = walks.get(key)
                            if keep is None:
                                if len(walks) >= WALK_MEMO_LIMIT:
                                    walks.clear()
                                keep = walks[key] = ~antichain_reach(others, need, later, incomp)
                                self.walks_made += 1
                            else:
                                self.walks_reused += 1
                            allowed[d] &= keep
        return saved

    def _dfs(self, pos: int, used: int) -> bool:
        # True stops the pass: the incumbent reached the cap
        if pos == self.size:
            low = min(self.counts[1:])
            if low < self.m:
                return False
            assign, where = self.assign, self.where
            self.best = list(assign) if where is None else [assign[p] for p in where]
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
        room = self.size - pos
        if deficit > room:
            self.count_prunes += 1
            return False
        if len(short) > 1:
            # Hall: each union of two or more short colors' domains holds
            # their deficits; unions of the first colors are extended by
            # the next one, so l short colors take 2^l - l - 1 ORs
            (u, need), *rest = short
            unions, needs = [u], [need]
            for free, d in rest:
                for i in range(len(unions)):
                    u = unions[i] | free
                    need = needs[i] + d
                    if u.bit_count() < need:
                        self.hall_prunes += 1
                        return False
                    unions.append(u)
                    needs.append(need)
                unions.append(free)
                needs.append(d)
        moved = None
        if self.sym and pos:
            moved = self._untie(pos - 1)
            if moved is None:
                self.sym_prunes += 1
                return False
        # left uncolored, pos must leave room for the deficit, or the child
        # fails its count bound at once
        if self.partial and deficit < room:
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


@lru_cache(maxsize=None)  # one entry per n <= CANONICAL_CAP and order, built on first use
def _permutation_tables(n: int, rank: bool) -> tuple[tuple[int, ...], ...]:
    """The S_n tables but the identity, over ids, or with rank over
    rank-order positions: position p goes to the position of its set's
    image."""
    if not rank:
        return tuple(map(tuple, all_subset_permutation_tables(n)[1:]))
    order, where = rank_order(n), rank_positions(n)
    return tuple(tuple(map(where.__getitem__, map(table.__getitem__, order)))
                 for table in _permutation_tables(n, False))


def _equal_split_coloring(n: int, l: int, kind: str) -> Coloring:
    """Set h takes color h % l + 1; a partial coloring leaves the last
    2^n mod l sets uncolored."""
    cycle, (reps, left) = bytes(range(1, l + 1)), divmod(1 << n, l)
    return Coloring(n, l, cycle * reps + (cycle[:left] if kind == "total" else bytes(left)))


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


def _seed_candidates(n: int, l: int, forbidden: PosetFamily, kind: str):
    """The (coloring, source) pairs the generators and WITNESSES offer as
    seeds, valid or not.  Induced families are recognised by their
    builtin_key, so every spelling of a family (builtin names in any order,
    "+"-sums, JSON objects, members with more than l elements added) gets
    the same candidates."""
    mems = forbidden.members
    induced = forbidden.mode == "induced"
    key = forbidden.builtin_key(l) if induced else None
    candidates = []

    def attempt(fn, *args):
        try:
            report = fn(*args)
        except ValueError:
            return
        candidates.append((report.coloring, f"construction:{report.name}"))

    if induced and kind == "partial" and all(p.is_antichain() and p.size >= 2 for p in mems):
        attempt(chain_interval_coloring, n, l)
    if key == ("D2",) and l == 4:
        attempt(lift3_coloring, n, "four_color")
    if key == ("P3",) and l == 3:
        attempt(p3_total_coloring, n)
    if key == (f"P{l}",) and l >= 4:
        attempt(pk_coloring, n, l)
    if key == ("P3", "V2", "W2") and l == 3 and kind == "partial":
        attempt(lift3_coloring, n, "three_color")
    attempt(incomparable_traces, n, l)
    if kind == "total":
        attempt(incomparable_traces, n, l, True)
    if key and len(key) == 1 and (entry := (n, l, key[0], kind)) in WITNESSES:
        candidates.append((Coloring(n, l, WITNESSES[entry][1]),
                           f"witness:{instance_label(*entry)}"))
    return candidates


def _construction_seed(n: int, l: int, forbidden: PosetFamily, kind: str):
    """(value, coloring, source) of the first best candidate the family
    certifies, or None.  certified_min is the one validity check, and a
    candidate whose smallest class cannot beat the best certified one is
    not checked."""
    best = None
    for col, source in _seed_candidates(n, l, forbidden, kind):
        if best is None or class_stats(col).min_size > best[0]:
            value = forbidden.certified_min(col, kind)
            if value is not None:
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
    incumbent.  The budget covers both passes, the rank-order refutation
    of a seed and the id-order climb; `passes` counts the nodes of each.
    Budget 0 runs the set-up and seeding only; a negative budget is an
    error.  The search takes one stack frame per set, so from n = 10 a pass
    can reach Python's recursion limit; it then stops as one out of budget
    does, keeping its incumbent: f(13,2,P2) at budget 100,000 gives
    lower_bound_only, value 2048 and upper 4096 from construction:traces.
    Witnesses found by search are the lexicographically least valid
    assignment at the optimum; a witness taken straight from a construction
    or from WITNESSES is reported via seed_source, and
    use_construction_seed=False turns both seeds off.
    The search forward-checks rainbow copies with the kernel's cone masks
    at every n.
    """
    check_dimension(n)
    check_colors(l)
    if budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")
    if kind not in ("partial", "total"):
        raise ValueError(f"unknown kind {kind!r}")
    size = 1 << n
    cap = size // l
    kept = forbidden.within(l)
    if not kept:
        return SolveResult(cap, cap, _equal_split_coloring(n, l, kind), "optimal",
                           0, cap, "trivial-cap")
    # the seeds, the weak-antichain bound and the final check read these members
    forbidden = PosetFamily(tuple(p for _, p in kept), forbidden.mode)
    members = forbidden.members

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
    prunes = {"count": 0, "hall": 0, "symmetry": 0}

    def run(rank: bool, ceiling: int, nodes: int):
        search = _MaxMinSearch(n, l, members, forbidden.mode, kind == "partial", nodes,
                               sym_prune, ceiling, rank)
        finished = search.run(lo + 1)
        for reason, count in zip(prunes, (search.count_prunes, search.hall_prunes,
                                          search.sym_prunes)):
            prunes[reason] += count
        return search, finished

    # A construction or WITNESSES seed is often optimal, and then refuting
    # lo + 1 is the whole proof, which rank order makes in far fewer nodes.
    # Only when that pass finds a leaf does the id-order climb run, from the
    # same seed, so a finished solve's value and witness are the climb's own.
    refute = climb = None
    if source not in ("empty", "none"):
        refute, finished = run(True, lo + 1, budget)
    if refute is None or refute.best is not None:
        # with no witness yet (total colorings may be infeasible outright,
        # for 1-element members) the pass starts at m = 0 and takes any
        # valid leaf
        climb, finished = run(False, upper, budget - (refute.nodes if refute else 0))
    passes = {"refute": refute.nodes if refute else 0, "climb": climb.nodes if climb else 0}
    # the best incumbent, the climb's on a tie: a climb cut short may not
    # have reached the leaf that beat the seed
    search = max(filter(None, (climb, refute)), key=lambda search: search.m)
    lo = search.m - 1
    if search.best is not None:
        witness, source = Coloring(n, l, search.best), "search"
    # a pass cut short proves nothing above its incumbent; with no witness
    # lo is -1, and a finished pass proves no valid coloring exists
    status, hi = ("optimal", lo) if finished else ("lower_bound_only", upper)
    # a seed's witness was certified when it was chosen
    if witness is None:
        if finished:
            source = "infeasible"
    elif source == "search" and ((got := forbidden.certified_min(witness, kind)) is None
                                 or got < lo):
        raise AssertionError("internal error: unsound witness")
    return SolveResult(lo, hi, witness, status, sum(passes.values()), cap, source, prunes,
                       passes)


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
    uncovered = []
    for f in c.class_ids(k + 1):
        for t in tuples:
            if not any(comparable(f, x) for x in t):
                uncovered.append((f, t))
    seq = TupleSequence(tuple(tuples),
                        tuple(tuple(t[i] for t in tuples) for i in range(k)))
    # leftover_clean holds by construction: extraction ends when no tuple is left
    return GreedyCoverReport(seq, leftover_clean=True, cover_ok=not uncovered,
                             uncovered=tuple(uncovered))
