"""Bitset rainbow-copy detection over B_n.

A family of subsets is one integer whose bit s says whether subset id s
belongs to it.  Per-set masks of the down-set, the up-set and the
incomparable sets turn each order constraint of a copy into one AND, so the
candidates for the image of a poset element are a single mask: the colored
sets of the colors not used yet, cut by the cones of the images already
placed.  Masks have 2^n bits: whole tables up to n = 13, on demand above.
The same cones let the solver forward-check every forbidden member: the
sets that would complete a rainbow copy with the sets already placed come
from one walk over each member's completion plans (completion_plans,
complete), or from the clique walk for induced antichains of four or more
elements (antichain_reach).

A whole scan for a chain, or for an induced fork, join or diamond, closes
whole-lattice masks instead of searching copies through each set: the sets
above (below) some set of a family mask take one shift-OR per element of
the ground set.  A chain takes one such closure per set of colors that can
top it, a fork, join or diamond a spread of a few masks per colored set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, permutations
from math import comb

from .lattice import check_dimension
from .posets import Poset, builtin_name

_TABLE_BITS = 1 << 27  # mask bits kept per kind; a whole table takes 4^n, so n <= 13
_ZEROS = b"0" * 256


def class_masks(assign, l: int) -> list[int]:
    """0, then the sets of each color 1..l of the bytes assign as a mask:
    translating color c to "1" and every other byte to "0" in the reversed
    bytes writes the mask's binary digits, highest id first."""
    reverse = assign[::-1]
    return [0] + [int(reverse.translate(_ZEROS[:c] + b"1" + _ZEROS[c + 1:]), 2)
                  for c in range(1, l + 1)]


@dataclass(frozen=True)
class MaskTables:
    """down[s], up[s] and incomp[s]: the ids t with t <= s, with s <= t, and
    with neither, as bitmasks over B_n (s itself is in down[s] and up[s])."""

    down: tuple[int, ...] | _ConeStore
    up: tuple[int, ...] | _ConeStore
    incomp: tuple[int, ...] | _ConeStore


class _ConeStore(dict):
    """Masks of one kind by set id, computed by `cone` on a miss.  It
    empties itself once it holds `limit` masks, so its memory is bounded."""

    def __init__(self, cone, limit: int):
        self.cone, self.limit = cone, limit

    def __missing__(self, s: int) -> int:
        if len(self) >= self.limit:
            self.clear()
        mask = self[s] = self.cone(s)
        return mask


def _down(s: int) -> int:
    """The subsets of s: each element bit `low` of s adds a copy of those
    found so far, `low` ids higher (the product of 1 + x^low over s)."""
    d = 1
    while s:
        low = s & -s
        d |= d << low
        s ^= low
    return d


@lru_cache(maxsize=None)  # one entry per n <= ENUMERATION_CAP
def mask_tables(n: int) -> MaskTables:
    """Cone masks for every set of B_n: down(s) from _down, up(s) as the
    subsets of the complement shifted s ids up, incomp(s) as the rest.
    Tuples where a whole table fits _TABLE_BITS, bounded stores above."""
    check_dimension(n)
    size = 1 << n
    full, everything, limit = size - 1, (1 << size) - 1, _TABLE_BITS >> n
    if size * size <= _TABLE_BITS:
        down = tuple(map(_down, range(size)))
        up = tuple(down[full ^ s] << s for s in range(size))
        incomp = tuple(everything ^ (d | u) for d, u in zip(down, up))
    else:
        down = _ConeStore(_down, limit)
        up = _ConeStore(lambda s: _down(full ^ s) << s, limit)
        incomp = _ConeStore(lambda s: everything ^ (_down(s) | _down(full ^ s) << s), limit)
    return MaskTables(down, up, incomp)


@lru_cache(maxsize=None)
def rank_order(n: int) -> tuple[int, ...]:
    """The ids of B_n by size, then by id.  Like ascending ids, rank order
    puts every set after its subsets, so a search may place sets in either."""
    check_dimension(n)
    return tuple(sorted(range(1 << n), key=lambda s: (s.bit_count(), s)))


@lru_cache(maxsize=None)
def rank_positions(n: int) -> tuple[int, ...]:
    """The position of each id in rank_order(n): its inverse permutation."""
    order = rank_order(n)
    return tuple(sorted(range(len(order)), key=order.__getitem__))


@lru_cache(maxsize=None)  # one entry per n, built on first use
def rank_tables(n: int) -> MaskTables:
    """mask_tables(n) in rank order: index p and bit p of every mask stand
    for the set rank_order(n)[p].  Where mask_tables keeps whole tables, a
    set's down-set is itself plus the down-sets of the sets one element
    smaller, which come before it, and its up-set likewise from the sets one
    element larger; above, bounded stores move each id-order cone's bits."""
    order, where, size = rank_order(n), rank_positions(n), 1 << n
    full, everything = size - 1, (1 << size) - 1
    if size * size > _TABLE_BITS:
        ids = mask_tables(n)

        def store(table):
            def cone(p: int) -> int:
                bits = format(table[order[p]], f"0{size}b")[::-1]  # bits[s]: id s
                return int("".join(map(bits.__getitem__, order))[::-1], 2)
            return _ConeStore(cone, _TABLE_BITS >> n)
        return MaskTables(store(ids.down), store(ids.up), store(ids.incomp))
    down, up = [0] * size, [0] * size
    for p, s in enumerate(order):
        cone, rest = 1 << p, s
        while rest:
            low = rest & -rest
            cone |= down[where[s ^ low]]
            rest ^= low
        down[p] = cone
    for p in range(size - 1, -1, -1):
        s = order[p]
        cone, rest = 1 << p, full ^ s
        while rest:
            low = rest & -rest
            cone |= up[where[s | low]]
            rest ^= low
        up[p] = cone
    return MaskTables(tuple(down), tuple(up),
                      tuple(everything ^ (d | u) for d, u in zip(down, up)))


@lru_cache(maxsize=None)  # one entry per n
def _spread_steps(n: int) -> tuple[tuple[int, int], ...]:
    """(clear, bit) for each element of the ground set, bit = 2^i for
    element i: clear holds the ids of B_n without i, so (F & clear) << bit
    adds i to those sets of a family mask F and (F >> bit) & clear takes it
    from them.  clear is a block of bit ones every 2 * bit ids, which one
    division writes out."""
    ones = (1 << (1 << n)) - 1
    return tuple((ones // ((1 << 2 * bit) - 1) * ((1 << bit) - 1), bit)
                 for bit in (1 << i for i in range(n)))


def _above(family: int, steps) -> int:
    """The sets above some set of family, those sets included."""
    for clear, bit in steps:
        family |= (family & clear) << bit
    return family


def _below(family: int, steps) -> int:
    """The sets below some set of family, those sets included."""
    for clear, bit in steps:
        family |= family >> bit & clear
    return family


def _relation(poset: Poset, x: int, y: int, induced: bool, tables: MaskTables):
    """The table T with image(y) in T[image(x)] in every copy of poset, or
    None when the pair constrains nothing (incomparable, weak mode)."""
    if poset.is_less(x, y):
        return tables.up
    if poset.is_less(y, x):
        return tables.down
    return tables.incomp if induced else None


def _steps(poset: Poset, placed: list[int], rest: list[int], induced: bool,
           tables: MaskTables):
    """Steps that place the elements of rest after those of placed, and the
    order in which they end up.  Step k places one more element; it lists
    (table, j) pairs meaning the candidate must lie in that table's mask
    (up, down or incomp over B_n) of the image placed j-th.  Elements are
    placed most-constrained first: most comparabilities to the elements
    placed so far, then highest degree, then lowest index."""
    placed, rest = list(placed), list(rest)
    steps = []
    while rest:
        e = min(rest, key=lambda x: (-sum(poset.elements_comparable(x, q) for q in placed),
                                     -poset.degree(x), x))
        rest.remove(e)
        steps.append(tuple((table, j) for j, q in enumerate(placed)
                           if (table := _relation(poset, q, e, induced, tables)) is not None))
        placed.append(e)
    return tuple(steps), placed


def _plan_key(steps, cuts=()):
    """What makes two plans the same search: each step's tables and image
    indices, and the cuts; tables by identity, as empty lazy stores are equal."""
    return tuple(tuple((id(t), j) for t, j in step) for step in steps), tuple(map(id, cuts))


@lru_cache(maxsize=256)
def _copy_plans(poset: Poset, induced: bool, n: int):
    """For each element e0 pinned first: (e0 is maximal, steps placing the
    others, see _steps), once per _plan_key, so a fork's two tops pin one
    search.  Equal steps agree on maximal: e0 is iff no step holds (up, 0)."""
    tables = mask_tables(n)
    plans = {}
    for e0 in range(poset.size):
        steps, _ = _steps(poset, [e0], [e for e in range(poset.size) if e != e0],
                          induced, tables)
        maximal = not any(poset.is_less(e0, q) for q in range(poset.size))
        plans.setdefault(_plan_key(steps), (maximal, steps))
    return tuple(plans.values())


@lru_cache(maxsize=256)
def completion_plans(poset: Poset, induced: bool, n: int, rank: bool = False):
    """How a search that places sets in ascending id order (in rank order,
    over rank_tables, with rank) catches every rainbow copy of poset when
    its second-largest set s is placed: one (steps, cuts) per pair of roles
    (a, b), s the image of a and the later set t the image of b.  b is never
    below a, and no other element lies above a or b, since the other images
    precede s: both orders put every set after its subsets.

    The steps place the other elements among the earlier sets, after a
    (see _steps); t must lie in cuts[j][image j] for every image j, a None
    cut constraining nothing (incomparable, weak mode).  Plans are kept once
    per _plan_key, as in _copy_plans.  A one-element poset has none.
    """
    tables = rank_tables(n) if rank else mask_tables(n)
    plans = {}
    for a, b in permutations(range(poset.size), 2):
        if any(poset.is_less(b, e) or e != b and poset.is_less(a, e)
               for e in range(poset.size)):
            continue
        steps, order = _steps(poset, [a], [e for e in range(poset.size) if e not in (a, b)],
                              induced, tables)
        cuts = tuple(_relation(poset, q, b, induced, tables) for q in order)
        plans.setdefault(_plan_key(steps, cuts), (steps, cuts))
    return tuple(plans.values())


@lru_cache(maxsize=256)
def _scan_plans(members: tuple[Poset, ...], induced: bool, n: int, l: int):
    """How a kernel treats a family under l colors: (antichain sizes,
    steps, newest, shapes).  steps are those of every member's copy plans,
    for through; newest those of the plans pinning a maximal element of the
    members scan searches copies of.  shapes[i] is the builtin name of
    member i when a closure rule settles it in scan instead, else None.

    A rule serves a chain in either mode (every copy of a chain is induced)
    and an induced V2, W2 or D2.  It is taken where it scans faster than
    the copy search on a valid coloring: from n = 6 for members of at most
    three elements, whose copy search costs no more than closing every
    class mask below that, and from n = 3 for larger ones.  The chain rule
    closes one mask per color set of fewer than k colors, so it is kept to
    at most 2^n of those."""
    steps, newest, shapes = [], [], []
    for p in members:
        name, k, shape = builtin_name(p), p.size, None
        if name and n >= (6 if k <= 3 else 3):
            if name[0] == "P" and sum(comb(l, j) for j in range(1, k)) <= 1 << n:
                shape = name
            elif induced and name in ("V2", "W2", "D2"):
                shape = name
        shapes.append(shape)
        if not p.is_antichain():
            plans = _copy_plans(p, induced, n)
            steps += [plan for _, plan in plans]
            if not shape:
                newest += [plan for maximal, plan in plans if maximal]
    sizes = tuple(sorted({p.size for p in members if p.is_antichain()}))
    return sizes, tuple(steps), tuple(newest), tuple(shapes)


def complete(steps, cuts, imgs: list[int], colors: int, target: int, color_mask,
             allowed: list[int]) -> None:
    """Take from the color domains in allowed the sets of target that would
    complete a rainbow copy.

    imgs holds the images placed so far, s first, and colors their colors
    as a bitmask; steps[len(imgs) - 1:] remain, each image taken from the
    placed sets in color_mask whose color is not used yet.  target is cut by each
    image's cut as it is placed, and a branch ends once it is empty.  What
    is left at a full copy leaves allowed[d] for every color d outside the
    copy's.  The last image is not placed one by one: the cuts of a color's
    candidates are ORed, then cut target once."""
    k = len(imgs) - 1
    if k == len(steps):
        _take(allowed, colors, target)
        return
    cand = -1
    for table, j in steps[k]:
        cand &= table[imgs[j]]
    cut = cuts[k + 1]
    last = k + 1 == len(steps)
    for b, cm in enumerate(color_mask):
        m = cm & cand
        if not m or colors >> b & 1:
            continue
        key = colors | 1 << b
        if last:
            if cut is None:
                reach = target
            else:
                reach = 0
                while m:
                    low = m & -m
                    reach |= cut[low.bit_length() - 1]
                    m ^= low
                reach &= target
            if reach:
                _take(allowed, key, reach)
            continue
        while m:
            low = m & -m
            x = low.bit_length() - 1
            hit = target & cut[x] if cut is not None else target
            if hit:
                imgs.append(x)
                complete(steps, cuts, imgs, key, hit, color_mask, allowed)
                imgs.pop()
            m ^= low


def _take(allowed: list[int], colors: int, sets: int) -> None:
    """Remove sets from the domain of every color outside colors."""
    keep = ~sets
    for d, a in enumerate(allowed):
        if not colors >> d & 1:
            allowed[d] = a & keep


class RainbowKernel:
    """Rainbow copies of a poset family through one pinned set.

    `assign` is a live view of the coloring's bytearray (read, never written);
    `color_mask[c]` holds the sets of color c the search may use, every
    colored set of `assign` when the kernel is built and after that changed
    only by toggle(); color_mask[0] stays 0.  Induced antichains take
    the clique walk of antichain_reach, weak ones a count of the colors in
    use (any k distinctly colored sets form a weak copy of A_k), every other
    member the generic copy search.  scan settles chains and the induced
    V2, W2 and D2 by closure rules instead (closes: _chain, _pair) where
    those pay, by n, l and the member's size (_scan_plans); shapes[i] is
    then the builtin name of member i, else None.
    """

    def __init__(self, n: int, l: int, members, mode: str, assign):
        self.n = n
        self.l = l
        self.assign = assign
        self.color_mask = class_masks(assign, l)
        self.incomp = mask_tables(n).incomp
        self.induced = mode == "induced"
        self.antichain_sizes, self.plans, self.newest, self.shapes = _scan_plans(
            tuple(members), self.induced, n, l)

    def toggle(self, s: int) -> None:
        """Make the colored set s available, or unavailable if it is: the
        caller colors or uncolors s in `assign` and toggles it to match."""
        self.color_mask[self.assign[s]] ^= 1 << s

    def scan(self) -> bool:
        """Whether `assign` has a rainbow copy: the members in shapes by
        their closure rules, then each colored set searched through in
        ascending id order, with only the sets up to it, until a copy turns
        up."""
        if any(self.shapes) and self.closes([shape for shape in self.shapes if shape]):
            return True
        if not (self.antichain_sizes or self.newest):
            return False
        ids = compress(range(len(self.assign)), self.assign)  # the colored sets, at C speed
        return any(self.through(s, newest=True) for s in ids)

    def closes(self, shapes) -> bool:
        """Whether a rainbow copy of some member in shapes (the builtin
        names of members with a closure rule) exists: each chain by _chain,
        the forks, joins and diamonds by one _pair sweep.  Both take Up of
        every color class, made once here."""
        steps = _spread_steps(self.n)
        pairs = [shape for shape in shapes if shape[0] != "P"]
        ups = None
        if any(shape != "W2" for shape in shapes):
            ups = [_above(m, steps) if m else 0 for m in self.color_mask]
        return (any(self._chain(int(shape[1:]), ups) for shape in shapes if shape[0] == "P")
                or bool(pairs) and self._pair(pairs, ups))

    def through(self, pos: int, newest: bool = False) -> bool:
        """A rainbow copy of some member that uses the colored set pos.

        newest is scan's sweep: only the available sets with ids up to pos
        are used, the masks cut to them, and only the members without a
        closure rule.  Proper supersets have larger ids, so pos can then
        only be the image of a maximal element, and the others need not be
        tried.
        """
        base = self.assign[pos]
        upto = (2 << pos) - 1 if newest else -1
        if self.antichain_sizes:
            others = [m for c, m in enumerate(self.color_mask) if c != base]
            for k in self.antichain_sizes:
                if self._antichain(others, (pos,), pos, k, upto):
                    return True
        plans = self.newest if newest else self.plans
        if not plans:
            return False
        free = 0
        for c in range(1, self.l + 1):
            if c != base:
                free |= self.color_mask[c] & upto
        for steps in plans:
            if self._extend(steps, 0, [pos], free, 0):
                return True
        return False

    def copy_using(self, poset: Poset, x: int, required) -> bool:
        """A rainbow copy of poset that uses every set of `required`
        (colored sets, x among them) and otherwise only available sets with
        ids above x: one step of the lexicographically least witness search.

        Each required set's color is cut down to that set and every other
        color to its sets above x, so no other set of a required color is
        ever a candidate.
        """
        req = set(required)
        colors = {self.assign[s] for s in req}
        if len(req) > poset.size or len(colors) < len(req):
            return False
        above = -1 << (x + 1)
        others = [m & above for c, m in enumerate(self.color_mask) if c not in colors]
        if poset.is_antichain():
            return self._antichain(others, req, x, poset.size)
        need = 0
        for s in req:
            if s != x:
                need |= 1 << s
        free = need
        for m in others:
            free |= m
        return any(self._extend(steps, 0, [x], free, need)
                   for _, steps in _copy_plans(poset, self.induced, self.n))

    def _extend(self, steps, k: int, imgs: list[int], free: int, need: int) -> bool:
        """Place steps[k:] given the images so far; `free` holds the
        available sets of the colors not used yet and `need` the required
        sets not placed yet.  Candidates x are taken one color class cm at
        a time, ascending within it, and the next image takes from
        free less cm.  The cones include their apex, yet the relations stay
        strict: an image's color has left `free`, so no image is placed
        twice.

        When as many sets are required as images remain, only they are
        candidates.  So with one step left any candidate completes a copy
        (steps is never empty: a member here has two or more elements).
        Otherwise the next image's cut by the images before x is built
        once, and its candidates after x lie in (cut less cm) & link[x],
        link being the next step's table relative to x (no constraint when
        they are unrelated, weak mode).  An x that leaves this empty is
        skipped without a call.  With two steps left that is the whole
        test: x completes a copy iff it is nonempty and the required sets
        left after x are none or the last image."""
        if need:
            if need.bit_count() > len(steps) - k:
                return False
            if need.bit_count() == len(steps) - k:  # every image left is required
                free &= need
        cand = free
        for table, j in steps[k]:
            cand &= table[imgs[j]]
        if not cand or k + 1 == len(steps):
            return bool(cand)
        last = k + 2 == len(steps)
        cut, link = free, None
        for table, j in steps[k + 1]:
            if j > k:  # the image x, which step k places
                link = table
            else:
                cut &= table[imgs[j]]
        for cm in self.color_mask:
            m = cand & cm
            if not m:
                continue
            rest = cut ^ (cut & cm)  # not cut & ~cm, whose cost is the whole of cm
            if not rest:
                continue
            if not last:
                child_free = free ^ (free & cm)
            while m:
                low = m & -m
                x = low.bit_length() - 1
                hit = rest if link is None else rest & link[x]
                if hit:
                    # need is 0 outside copy_using: skip a big-int ~low per candidate
                    left = need & ~low if need else 0
                    if last:
                        if not left or hit & left:
                            return True
                    else:
                        imgs.append(x)
                        if self._extend(steps, k + 1, imgs, child_free, left):
                            return True
                        imgs.pop()
                m ^= low
        return False

    def _chain(self, k: int, ups: list[int]) -> bool:
        """A rainbow chain of k >= 2 sets, given ups[c] = Up(class c).
        top[S], the sets that top a rainbow chain colored exactly S, is the
        OR over c in S of class c & Up(top[S - c]), and top[{c}] is class c.
        Up keeps each set of top[S - c], yet the step is strict: a set of
        class c has no color of S - c."""
        steps = _spread_steps(self.n)
        tops = {1 << c: m for c, m in enumerate(self.color_mask) if m}
        for size in range(2, k + 1):
            grown = {}
            for colors, top in tops.items():
                up = ups[colors.bit_length() - 1] if size == 2 else _above(top, steps)
                for c, m in enumerate(self.color_mask):
                    if colors >> c & 1 or not (hit := m & up):
                        continue
                    if size == k:
                        return True
                    key = colors | 1 << c
                    grown[key] = grown.get(key, 0) | hit
            tops = grown
        return False

    def _pair(self, shapes, ups: list[int] | None) -> bool:
        """An induced rainbow copy of a shape of shapes (V2, W2, D2), given
        ups[c] = Up(class c) unless shapes is W2 alone.  Each is two
        incomparable sets b and c of colors beta and gamma, with an
        alpha-set below both (V2, D2) and a delta-set above both (W2, D2),
        the colors distinct.  Below both means inside b & c and above both
        containing b | c, as b and c are incomparable.  So for each colored
        b, the sets c whose meet with b contains an alpha-set are
        Up(class alpha) & down[b] spread over the elements outside b, and
        those whose join with b lies in a delta-set are Down(class delta) &
        up[b] spread down over the elements of b.  c is taken above b in id
        order, as the shapes are symmetric in b and c, and a spread is made
        only while some candidate c lies above an alpha-set (below a
        delta-set) at all."""
        vee, wedge, diamond = "V2" in shapes, "W2" in shapes, "D2" in shapes
        l, cm, steps = self.l, self.color_mask, _spread_steps(self.n)
        tables = mask_tables(self.n)
        colored = 0
        for m in cm:
            colored |= m
        others = [colored ^ m for m in cm]
        downs = [_below(m, steps) if m else 0 for m in cm] if wedge or diamond else None
        for b in compress(range(len(self.assign)), self.assign):
            beta = self.assign[b]
            cands = tables.incomp[b] >> b + 1 << b + 1 & others[beta]
            if not cands:
                continue
            meets = []  # (alpha, the candidates c with an alpha-set inside b & c)
            if vee or diamond:
                for a in range(1, l + 1):
                    if a == beta or not (x := cands & ups[a] & others[a]):
                        continue
                    if not (meet := ups[a] & tables.down[b]):
                        continue
                    for clear, bit in steps:
                        if not b & bit:
                            meet |= (meet & clear) << bit
                    if x := x & meet:
                        if vee:
                            return True
                        meets.append((a, x))
            if not (wedge or meets):
                continue
            for d in range(1, l + 1):
                if d == beta or not (y := cands & downs[d] & others[d]):
                    continue
                if not wedge:  # a diamond needs c among the meets of another color
                    near = 0
                    for a, x in meets:
                        if a != d:
                            near |= x
                    if not (y := y & near):
                        continue
                if not (join := downs[d] & tables.up[b]):
                    continue
                for clear, bit in steps:
                    if b & bit:
                        join |= join >> bit & clear
                if y & join:
                    return True
        return False

    def _antichain(self, others: list[int], required, x: int, size: int, upto: int = -1) -> bool:
        """A rainbow antichain of size elements made of the sets of required
        (x among them) and one set from each of size - len(required) masks
        of others, the available sets of the colors not in required, cut to
        upto: pairwise incomparable (induced), or any that many nonempty
        masks (weak)."""
        need = size - len(required)
        if not self.induced:
            return sum(1 for m in others if m & upto) >= need
        inc = upto
        for s in required:
            if not inc >> s & 1:  # s is comparable to a required set, or beyond upto
                return False
            inc &= self.incomp[s]
        if not need:
            return True
        cut = [m for cm in others if (m := cm & inc)]
        # the masks lie in incomp[x], so x is reached iff a clique exists
        return bool(antichain_reach(cut, need, 1 << x, self.incomp))


def antichain_reach(masks: list[int], need: int, target: int, incomp) -> int:
    """The sets of target that complete a rainbow clique: the union of
    target & incomp[x1] & ... & incomp[x_need] over every choice of need
    pairwise incomparable sets from need distinct masks.  Every mask is
    nonzero.

    A clique search over a multipartite graph with forward checking:
    branch on the color with the fewest candidates, walk them in ascending
    order, and after placing x cut every other mask to incomp[x], dropping
    the colors left empty, and target to incomp[x].  A color may go unused
    only while more colors remain than sets are needed.  A branch ends once
    its target is empty, the search once the union covers target; only the
    sets not yet reached are searched for.  With the masks cut to incomp[x]
    and target 1 << x, the result is nonzero iff some clique exists.
    """
    reach = 0
    if need == 1:  # any set of any mask
        cand = 0
        for m in masks:
            cand |= m
        while cand:
            low = cand & -cand
            reach |= target & incomp[low.bit_length() - 1]
            if reach == target:
                break
            cand ^= low
        return reach
    if len(masks) < need:
        return 0
    cand = min(masks, key=int.bit_count)
    rest = masks.copy()
    rest.remove(cand)
    while cand:
        low = cand & -cand
        inc = incomp[low.bit_length() - 1]
        hit = target & inc & ~reach
        if hit:
            cut = [m for r in rest if (m := r & inc)]
            reach |= antichain_reach(cut, need - 1, hit, incomp)
            if reach == target:
                return reach
        cand ^= low
    if len(rest) >= need:
        reach |= antichain_reach(rest, need, target & ~reach, incomp)
    return reach
