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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, permutations

from .lattice import check_dimension
from .posets import Poset

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


@lru_cache(maxsize=256)
def _copy_plans(poset: Poset, induced: bool, n: int):
    """For each element e0 pinned first: (e0 is maximal, steps placing the
    others, see _steps)."""
    tables = mask_tables(n)
    plans = []
    for e0 in range(poset.size):
        steps, _ = _steps(poset, [e0], [e for e in range(poset.size) if e != e0],
                          induced, tables)
        maximal = not any(poset.is_less(e0, q) for q in range(poset.size))
        plans.append((maximal, steps))
    return tuple(plans)


@lru_cache(maxsize=256)
def completion_plans(poset: Poset, induced: bool, n: int):
    """How a search that places sets in ascending id order catches every
    rainbow copy of poset when its second-largest set s is placed: one
    (steps, cuts) per pair of roles (a, b), s the image of a and the later
    set t the image of b.  b is never below a, and no other element lies
    above a or b, since the other images precede s.

    The steps place the other elements among the earlier sets, after a
    (see _steps); t must lie in cuts[j][image j] for every image j, a None
    cut constraining nothing (incomparable, weak mode).  Plans that differ
    only by a relabeling are kept once.  A one-element poset has none.
    """
    tables = mask_tables(n)
    plans = {}
    for a, b in permutations(range(poset.size), 2):
        if any(poset.is_less(b, e) or e != b and poset.is_less(a, e)
               for e in range(poset.size)):
            continue
        steps, order = _steps(poset, [a], [e for e in range(poset.size) if e not in (a, b)],
                              induced, tables)
        cuts = tuple(_relation(poset, q, b, induced, tables) for q in order)
        # tables compare by identity: two lazy stores are equal dicts while empty
        key = tuple((tuple((id(t), j) for t, j in step) for step in steps)), tuple(map(id, cuts))
        plans.setdefault(key, (steps, cuts))
    return tuple(plans.values())


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
    member the generic copy search.
    """

    def __init__(self, n: int, l: int, members, mode: str, assign):
        self.n = n
        self.l = l
        self.assign = assign
        self.color_mask = class_masks(assign, l)
        self.incomp = mask_tables(n).incomp
        self.induced = mode == "induced"
        self.antichain_sizes = sorted({p.size for p in members if p.is_antichain()})
        self.plans = [plan for p in members if not p.is_antichain()
                      for plan in _copy_plans(p, self.induced, n)]

    def toggle(self, s: int) -> None:
        """Make the colored set s available, or unavailable if it is: the
        caller colors or uncolors s in `assign` and toggles it to match."""
        self.color_mask[self.assign[s]] ^= 1 << s

    def scan(self) -> bool:
        """Whether `assign` has a rainbow copy: each colored set is searched
        through in ascending id order, with only the sets up to it, until a
        copy turns up."""
        ids = compress(range(len(self.assign)), self.assign)  # the colored sets, at C speed
        return any(self.through(s, newest=True) for s in ids)

    def through(self, pos: int, newest: bool = False) -> bool:
        """A rainbow copy of some member that uses the colored set pos.

        newest says to use only the available sets with ids up to pos: the
        masks are cut to them.  Proper supersets have larger ids, so pos can
        then only be the image of a maximal element, and the others need not
        be tried.
        """
        base = self.assign[pos]
        upto = (2 << pos) - 1 if newest else -1
        if self.antichain_sizes:
            others = [m for c, m in enumerate(self.color_mask) if c != base]
            for k in self.antichain_sizes:
                if self._antichain(others, (pos,), pos, k, upto):
                    return True
        if not self.plans:
            return False
        free = 0
        for c in range(1, self.l + 1):
            if c != base:
                free |= self.color_mask[c] & upto
        for maximal, steps in self.plans:
            if (maximal or not newest) and self._extend(steps, 0, [pos], free, 0):
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
