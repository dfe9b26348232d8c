"""Finite length-3 lattices: validation, generation ranks, and fence extraction.

A length-3 lattice has bottom, top, and only atoms and coatoms in between.
Two atoms can never lie under the same two coatoms (their join would sit
strictly between), which is exactly why comparability graphs of non-bound
elements contain no K22 copy; chordless paths in such graphs are fences.
The lattice axioms thus rule out that K22 once length 3 holds, so the
extraction pipeline checks only length 3, generates the lattice from a
finite set, ranks elements by generation level, grows the tree of
one-meet-or-join-per-step sequences, and searches the deepest branches for
chordless paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CoverageError,
    InvalidInputError,
    LatticeAxiomError,
    ResourceLimitError,
    StructuralError,
)
from .graphs import (
    Graph,
    find_chordless_positions,
    find_k22,
    is_chordless_positions,
    iter_bits,
)


def _order_error(axiom: str, witness: tuple) -> LatticeAxiomError:
    return LatticeAxiomError(
        "not a bounded partial order: %s %r" % (axiom, witness), axiom, witness
    )


def _order_masks(n: int, leq_pairs):
    """``(below, above)`` of a bounded partial order: ``below[x]`` is the
    bitmask of {z : z <= x} and ``above[x]`` that of {z : x <= z}, both
    including x.  Raises LatticeAxiomError for the first violated axiom.

    Reflexivity is decided from the pairs alone, before any table is built,
    so a huge n fails before anything n-sized is allocated.  Each other axiom
    is decided in bulk on the rows; only a failed one walks the pairs or rows
    again, to name the witness.
    """
    if n < 1:
        raise _order_error("nonempty", ())
    pairs = set(leq_pairs)
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise InvalidInputError("relation pair %r outside 0..%d" % ((x, y), n - 1))
    loops = {x for x, y in pairs if x == y}
    if len(loops) < n:
        x = next(x for x in range(n) if x not in loops)
        raise _order_error("reflexive", (x,))
    below = [0] * n
    above = [0] * n
    for x, y in pairs:
        below[y] |= 1 << x
        above[x] |= 1 << y
    if not all(b & a == 1 << x for x, (b, a) in enumerate(zip(below, above))):
        x, y = next((x, y) for x, y in pairs if x != y and (below[x] >> y) & 1)
        raise _order_error("antisymmetric", (x, y))
    # transitive: x <= y puts everything below x below y
    if any(below[x] & ~below[y] for x, y in pairs):
        for x, bx in enumerate(below):
            acc = 0
            for z in iter_bits(bx):
                acc |= below[z]
            extra = acc & ~bx
            if extra:
                w = (extra & -extra).bit_length() - 1
                z = next(z for z in iter_bits(bx) if (below[z] >> w) & 1)
                raise _order_error("transitive", (w, z, x))
    full = (1 << n) - 1
    if not any(above[x] == full for x in range(n)):
        raise _order_error("bottom-exists", ())
    if not any(below[x] == full for x in range(n)):
        raise _order_error("top-exists", ())
    return below, above


def _missing_meet_or_join(below, above):
    """The first pair x < y, row by row, that lacks a meet or a join, or None.

    The common lower bounds of x and y form a down-set, which has a greatest
    element g exactly when it equals ``below[g]``; ``below`` masks are
    distinct by antisymmetry, so each meet is one set lookup.  Joins work the
    same way with ``above``.  Returns ``(kind, (x, y))`` for the least y in
    the first failing row, with ``"meet"`` checked before ``"join"``; row x
    starts at x + 1, since meets and joins are symmetric and every earlier
    row already passed.
    """
    downs, ups = set(below), set(above)
    for x, (bx, ax) in enumerate(zip(below, above)):
        if {bx & b for b in below[x + 1:]} <= downs and {ax & a for a in above[x + 1:]} <= ups:
            continue
        for y in range(x + 1, len(below)):
            if bx & below[y] not in downs:
                return "meet", (x, y)
            if ax & above[y] not in ups:
                return "join", (x, y)
    return None


def _length3_missing_meet_or_join(poset):
    """``_missing_meet_or_join``'s answer on a length-3 order, by the K22
    kernel instead of the pairwise scan.

    Below a coatom lie only bottom and atoms, so the common lower bounds of
    two coatoms are bottom and their common atoms: a meet exactly when they
    share at most one atom.  Every other pair has a meet, since an atom's
    down-set is bottom and itself.  Dually, only two atoms under two common
    coatoms lack a join, so a missing meet and a missing join come together,
    as one K22 read from either side.  ``find_k22`` returns the least pair of
    each kind, and the lesser of the two is the scan's first failing pair (no
    pair lacks both; a tie would go to the meet, as in the scan).
    """
    meet = check_no_double_cover(poset)
    if meet is None:
        return None
    atoms, coatoms = poset.atom_mask, poset.coatom_mask
    join = find_k22(
        [a & coatoms if (atoms >> x) & 1 else 0 for x, a in enumerate(poset.above)],
        poset.below,
    )
    if join[2:] < meet[2:]:
        return "join", join[2:]
    return "meet", meet[2:]


class BoundedPoset:
    """Validated partial order with bottom and top over elements 0..n-1."""

    def __init__(self, n: int, leq_pairs):
        """Decide the order axioms, then store ``below`` and ``above``, the
        bounds, and the masks of the atoms and of the coatoms; the elements
        comparable to x are ``below[x] | above[x]``.  A failed axiom raises
        LatticeAxiomError.

        ``leq_pairs`` holds ``(x, y)`` 2-tuples of ints, one per ``x <= y``;
        they are used as given.  The CLI's loader,
        ``formats.lattice_from_json_obj``, hands over exact ints only."""
        below, above = _order_masks(n, leq_pairs)
        self.n = n
        self.below, self.above = below, above
        full = (1 << n) - 1
        self.bottom = next(x for x in range(n) if above[x] == full)
        self.top = next(x for x in range(n) if below[x] == full)
        bottom, top = 1 << self.bottom, 1 << self.top
        inner = full & ~(bottom | top)
        self.atom_mask = inner & sum(1 << x for x in range(n) if below[x] == 1 << x | bottom)
        self.coatom_mask = inner & sum(1 << x for x in range(n) if above[x] == 1 << x | top)

    def is_bound(self, x: int) -> bool:
        return x == self.bottom or x == self.top

    def atoms(self):
        """Non-bound elements with nothing strictly between them and bottom."""
        return list(iter_bits(self.atom_mask))

    def coatoms(self):
        return list(iter_bits(self.coatom_mask))

    def covers(self):
        """Cover pairs (x, y): x < y with nothing strictly between."""
        out = []
        for y in range(self.n):
            strict = self.below[y] & ~(1 << y)
            for x in iter_bits(strict):
                between = strict & self.above[x] & ~(1 << x)
                if between == 0:
                    out.append((x, y))
        return sorted(out)

    def leq_pairs(self):
        return sorted(
            (x, y) for y in range(self.n) for x in iter_bits(self.below[y])
        )


# The pairwise meet/join scan of an order that is not length 3 grows as n
# cubed: on spurred_fence_lattice(k) under one new least element (length 4)
# it took 0.10, 0.64, 4.7 and 45.4 s at 1,005, 2,005, 4,005 and 8,005
# elements (2-CPU Xeon, Python 3.11.7; other runs there took up to 1.7 times
# as long), so this bound allows about 5 s of scan.
MAX_GENERAL_SCAN_ELEMENTS = 4096


class FiniteLattice(BoundedPoset):
    """Bounded poset whose meets and joins all exist.

    An order that is not length 3 and has more than
    ``MAX_GENERAL_SCAN_ELEMENTS`` elements raises ResourceLimitError once the
    order axioms pass, before its meets and joins are scanned."""

    def __init__(self, n: int, leq_pairs):
        super().__init__(n, leq_pairs)
        if check_length3(self):
            missing = _length3_missing_meet_or_join(self)
        elif n > MAX_GENERAL_SCAN_ELEMENTS:
            raise ResourceLimitError(
                "meet/join scan of %d elements (not length 3) exceeds the limit of %d"
                % (n, MAX_GENERAL_SCAN_ELEMENTS)
            )
        else:
            missing = _missing_meet_or_join(self.below, self.above)
        if missing is not None:
            kind, pair = missing
            raise LatticeAxiomError(
                "not a lattice: pair %r lacks a %s" % (pair, kind), kind + "-exists", pair
            )


def check_length3(lat: FiniteLattice) -> bool:
    """True iff the length is at most 3: each non-bound element is an atom or a coatom."""
    bounds = (1 << lat.bottom) | (1 << lat.top)
    return lat.atom_mask | lat.coatom_mask | bounds == (1 << lat.n) - 1


def check_no_double_cover(poset: BoundedPoset):
    """Two atoms x < y under two coatoms u < v, as ``(x, y, u, v)``, or None.

    No genuine length-3 lattice has one: on a length-3 order
    ``FiniteLattice.__init__`` calls this and returns only once it found
    None, so ``lattice verify`` reports that answer without a second call.
    It is the K22 kernel's answer on rows that hold, for
    each coatom, the atoms below it, and nothing for any other element: the
    least coatom pair with two common atoms, and its least two.  ``above``
    serves as their transpose: its extra bits fall on elements with no row.
    """
    atoms, coatoms = poset.atom_mask, poset.coatom_mask
    return find_k22(
        [b & atoms if (coatoms >> u) & 1 else 0 for u, b in enumerate(poset.below)],
        poset.above,
    )


# ---------------------------------------------------------------------------
# Generation closure, ranks, and the derivation tree


@dataclass(frozen=True)
class RankTable:
    """An element's rank is the first closure round that generates it."""

    levels: tuple  # levels[k] = bitmask of the elements of rank k


def _reach_bound(lows, highs, over, twice) -> bool:
    """True when two members of a length-3 level meet in bottom.

    ``lows`` and ``highs`` are the level's atoms and coatoms, ``over[a]``
    the elements above a, and ``twice`` the atoms under two or more of
    ``highs``.  Two inner elements meet in bottom unless they are
    comparable or two coatoms over a common atom: so the level holds two
    atoms, or an atom and a coatom not above it, or, with no atom, two
    coatoms with no common atom.  Two coatoms share at most one atom, so
    the coatom pairs that share one are counted atom by atom, and some pair
    shares none exactly when the count falls short of all pairs.  With the
    order reversed the same test tells when a level joins to top.
    """
    if lows & (lows - 1):
        return True
    if lows:
        return highs & ~over[lows.bit_length() - 1] != 0
    shared = 0
    for a in iter_bits(twice):
        k = (over[a] & highs).bit_count()
        shared += k * (k - 1) // 2
    m = highs.bit_count()
    return shared < m * (m - 1) // 2


def closure_and_rank(lat: FiniteLattice, generators) -> RankTable:
    """Iterate meets and joins from the generators until a fixpoint.

    Elements are ranked by the first level that contains them; reaching a
    fixpoint short of the whole lattice is a coverage error naming the
    unreached elements.  Only length-3 lattices are accepted.

    There two incomparable inner elements meet in their one common atom,
    or else in bottom, and joins are dual; a comparable pair gives back its
    own members.  So a round adds the atoms under two coatoms of the level,
    the coatoms over two of its atoms, and each bound once ``_reach_bound``
    finds a pair that gives it.  The atoms under one and under two or more
    of the level's coatoms are kept as the masks ``once`` and ``twice``, and
    each coatom is folded into them once, in the round that follows its
    arrival; ``ups_once`` and ``ups_twice`` do the same for atoms.  An element
    that is both an atom and a coatom folds in only itself, which no other
    member shares, so it counts only towards the bounds.
    """
    _require_length3(lat)
    gens = sorted(set(int(g) for g in generators))
    if not gens:
        raise InvalidInputError("generator set must be nonempty")
    if any(g < 0 or g >= lat.n for g in gens):
        raise InvalidInputError("generators outside the lattice: %r" % (gens,))
    below, above = lat.below, lat.above
    atoms, coatoms = lat.atom_mask, lat.coatom_mask
    bottom, top = 1 << lat.bottom, 1 << lat.top
    once = twice = ups_once = ups_twice = 0
    current = added = sum(1 << g for g in gens)
    levels = [added]
    while True:
        for c in iter_bits(added & coatoms):
            down = below[c] & atoms
            twice |= once & down
            once |= down
        for a in iter_bits(added & atoms):
            up = above[a] & coatoms
            ups_twice |= ups_once & up
            ups_once |= up
        new = current | twice | ups_twice
        if ~current & (bottom | top):
            lows, highs = current & atoms, current & coatoms
            if _reach_bound(lows, highs, above, twice):
                new |= bottom
            if _reach_bound(highs, lows, below, ups_twice):
                new |= top
        if new == current:
            break
        added = new & ~current
        levels.append(added)
        current = new
    if current != (1 << lat.n) - 1:
        unreached = [x for x in range(lat.n) if not (current >> x) & 1]
        raise CoverageError(
            "generators do not generate the lattice; unreached: %r" % (unreached,),
            unreached=unreached,
        )
    return RankTable(levels=tuple(levels))


@dataclass(frozen=True)
class GenTree:
    """Derivation tree: level i holds sequences ending in a rank-i element.

    A node is stored as its last entry and the index of its prefix in the
    level before, and its tuple is built only when asked for.
    """

    levels: tuple  # levels[i][j] = last entry of node j of level i
    parents: tuple  # parents[i][j] = index of its prefix in level i - 1 (i >= 1)

    def node(self, i: int, j: int) -> tuple:
        """Node j of level i, as the tuple of its i + 1 entries."""
        entries = [self.levels[i][j]]
        for k in range(i, 0, -1):
            j = self.parents[k][j]
            entries.append(self.levels[k - 1][j])
        return tuple(reversed(entries))

    def branches_by_depth(self):
        """All nodes, deepest level first, lexicographic within a level."""
        for i in reversed(range(len(self.levels))):
            for j in range(len(self.levels[i])):
                yield self.node(i, j)


# Tree nodes `build_tree` makes before it refuses; this bounds the branch scan
# of `find_fences`.  At PG(2, 13)'s 169,732 nodes `lattice fences` takes 0.16 s
# and 22 MB peak RSS, a scan of every long branch 5.0 s (2-CPU Xeon, Python 3.11).
MAX_TREE_NODES = 200_000


def _require_length3(lat: FiniteLattice) -> None:
    if not check_length3(lat):
        raise InvalidInputError("fence extraction needs a length-3 lattice")


def build_tree(lat: FiniteLattice, ranks: RankTable) -> GenTree:
    """All derivation sequences, to the last rank; structural checks included.

    A node extends a shorter one by one element of the next rank obtained as
    a meet or join with something of strictly lower rank.  Nodes never touch
    bottom or top.

    Only length-3 lattices are accepted, and there no meet or join is read.
    A non-bound x of rank i >= 1 is new in round i, so it is the meet of two
    coatoms over it (or the join of two atoms under it) of lower rank.  For a
    node ending at e < x or e > x, one of the two differs from e and with e
    gives x again, since nothing lies strictly between x and e.  So the node
    extends by exactly the elements of rank i comparable to e.

    The table is checked in O(levels): no element sits at two ranks, and
    every non-bound element of rank i ends some node of level i, found by
    one OR of the rows of level i - 1's last entries.  A failure is a
    structural error in the rank table.  With disjoint rank masks the
    per-node properties hold by construction: entries are distinct and each
    lies within its rank's bound, consecutive entries are comparable (taken
    from ``below | above``), and two distinct comparable inner elements of a
    length-3 lattice are one atom and one coatom, so entries alternate.
    """
    _require_length3(lat)
    seen = 0
    for i, mask in enumerate(ranks.levels):
        twice = seen & mask
        if twice:
            raise StructuralError(
                "rank table puts element %d at two ranks, again at rank %d"
                % ((twice & -twice).bit_length() - 1, i)
            )
        seen |= mask
    below, above, inner = lat.below, lat.above, lat.atom_mask | lat.coatom_mask
    levels = [tuple(iter_bits(ranks.levels[0] & inner))]
    parents = [()]
    total = len(levels[0])
    for i in range(1, len(ranks.levels)):
        targets = ranks.levels[i] & inner
        reached = 0
        for e in iter_bits(ranks.levels[i - 1] & inner):
            reached |= below[e] | above[e]
        missed = targets & ~reached
        if missed:
            raise StructuralError(
                "element %d (rank %d) is not reachable in the tree"
                % ((missed & -missed).bit_length() - 1, i)
            )
        # prefixes are in order and x ascends within each, so the level is too
        level, links = [], []
        for j, e in enumerate(levels[i - 1]):
            for x in iter_bits((below[e] | above[e]) & targets):
                level.append(x)
                links.append(j)
        total += len(level)
        if total > MAX_TREE_NODES:
            raise ResourceLimitError("derivation tree exceeds %d nodes" % MAX_TREE_NODES)
        levels.append(tuple(level))
        parents.append(tuple(links))
    return GenTree(levels=tuple(levels), parents=tuple(parents))


def _check_elements(lat: BoundedPoset, elems) -> None:
    for e in elems:
        if not 0 <= e < lat.n:
            raise InvalidInputError("element %d outside 0..%d" % (e, lat.n - 1))


def comparability_graph(lat: FiniteLattice, elems) -> Graph:
    """Graph on the given elements with edges exactly at comparabilities.

    Each element's row walks only its comparable members.
    """
    elems = tuple(int(e) for e in elems)
    if len(set(elems)) != len(elems):
        raise InvalidInputError("elements must be distinct")
    _check_elements(lat, elems)
    for e in elems:
        if lat.is_bound(e):
            raise InvalidInputError("element %d is a lattice bound" % e)
    pos = {e: i for i, e in enumerate(elems)}
    members = sum(1 << e for e in elems)
    comps = [(lat.below[e] | lat.above[e]) & members & ~(1 << e) for e in elems]
    rows = [sum(1 << pos[f] for f in iter_bits(c)) for c in comps]
    return Graph(rows, elems)


# ---------------------------------------------------------------------------
# Fences


def validate_fence(lat: FiniteLattice, seq) -> bool:
    """True iff ``seq`` has an even number of elements, is a chordless path
    of the comparability graph, and each even entry lies below both of its
    neighbours: x0 < x1 > x2 < ... > x_{2k} < x_{2k+1}."""
    seq = tuple(seq)
    _check_elements(lat, seq)
    below, above = lat.below, lat.above
    rows = {x: (below[x] | above[x]) & ~(1 << x) for x in seq}
    if not seq or len(seq) % 2 or not is_chordless_positions(rows, seq):
        return False
    evens, odds = seq[::2], seq[1::2]
    return all((above[x] >> y) & 1 for x, y in zip(evens, odds)) and all(
        (above[x] >> y) & 1 for x, y in zip(evens[1:], odds)
    )


def find_fences(lat: FiniteLattice, generators, target_n: int):
    """Extract a fence x0 < x1 > x2 < ... with ``target_n + 1`` elements, as a
    tuple, through the tree pipeline.

    Builds the derivation tree to its full depth (the closure checks length
    3 before anything else), then searches the comparability graph of each
    sufficiently long branch, deepest first, for a chordless path; oriented
    to start at an atom and checked by ``validate_fence``, it is the fence.
    Returns None when no branch is long enough or none yields a chordless
    path of the target size.

    Nothing checks for a K22 or a cograph.  A branch's comparability graph is
    connected (consecutive entries are comparable), bipartite (atoms against
    coatoms) and K22-free: a K22 would put two atoms under two coatoms, whose
    join would lie strictly between them.  A connected cograph has a
    disconnected complement, so it joins two sides by every edge between
    them; with no triangle neither side holds an edge, and with no K22 one
    side is a single vertex: a star.  A branch of four or more entries holds
    the disjoint edges x0 x1 and x2 x3, so it is no cograph, the cotree
    pre-pass of ``find_chordless_path`` would never answer, and the DFS runs
    directly.
    """
    if target_n < 1 or target_n % 2 == 0:
        raise InvalidInputError("fence length must be odd and >= 1")
    tree = build_tree(lat, closure_and_rank(lat, generators))
    want = target_n + 1
    for branch in tree.branches_by_depth():
        if len(branch) < want:
            break  # branches are visited deepest first
        found = find_chordless_positions(comparability_graph(lat, branch).rows, want)
        if found is None:
            continue
        seq = tuple(branch[i] for i in found)
        if not (lat.atom_mask >> seq[0]) & 1:
            seq = tuple(reversed(seq))
        if not validate_fence(lat, seq):
            raise StructuralError("pipeline produced a non-fence: %r" % (seq,))
        return seq
    return None


# ---------------------------------------------------------------------------
# Stock families


def _fence_pairs(m: int, n: int) -> set:
    """Order pairs on 0..n-1 with bottom 0, top n - 1 and the fence
    x_0 < x_1 > x_2 < ... on codes 1..m (x_i is i + 1, so odd codes are the
    lower ends of their fence edges)."""
    pairs = {(x, x) for x in range(n)}
    pairs.update((0, x) for x in range(n))
    pairs.update((x, n - 1) for x in range(n))
    pairs.update((c, c + 1) if c % 2 else (c + 1, c) for c in range(1, m))
    return pairs


def fence_lattice(fence_n: int):
    """Fence x0 .. x_{fence_n} with bounds; returns (lattice, generators).

    Element codes: 0 is bottom, fence element x_i is i + 1, top is last.
    Canonical generators: both fence ends plus every odd-position element
    (interior even positions arrive as meets of their neighbours).  All
    generation ranks in this family are 0 or 1: interior elements are only
    derivable from both their fence neighbours, so no generating set makes
    the derivation tree deep.
    """
    if fence_n < 1 or fence_n % 2 == 0:
        raise InvalidInputError("fence length must be odd and >= 1")
    m = fence_n + 1  # number of fence elements
    n = m + 2
    lat = FiniteLattice(n, _fence_pairs(m, n))
    gens = {1, m}  # both fence ends
    gens.update(range(2, m + 1, 2))  # x_i, code i + 1, for every odd i
    if fence_n == 1:
        gens.update((0, n - 1))  # a 4-chain: bounds are underivable
    return lat, tuple(sorted(gens))


def spurred_fence_lattice(fence_n: int):
    """A fence with one pendant generator per interior element, plus bounds.

    Each interior fence element gains a private neighbour on the other side
    (a pendant coatom over every interior atom, a pendant atom under every
    interior coatom).  With generators {x0, x1} plus the pendants, rank grows
    by one along the fence, so the derivation tree contains the whole fence
    as a branch; this is the family where the extraction pipeline reaches
    arbitrarily long fences.  Returns (lattice, generators, fence_codes).
    """
    if fence_n < 3 or fence_n % 2 == 0:
        raise InvalidInputError("fence length must be odd and >= 3")
    m = fence_n + 1
    pend_evens = list(range(2, fence_n, 2))  # interior atoms: pendant coatom above
    pend_odds = list(range(3, fence_n + 1, 2))  # non-first coatoms: pendant atom below
    n = m + len(pend_evens) + len(pend_odds) + 2
    pend = {i: code for code, i in enumerate(pend_evens + pend_odds, m + 1)}
    pairs = _fence_pairs(m, n)
    pairs.update((i + 1, pend[i]) for i in pend_evens)  # x_i below its pendant coatom
    pairs.update((pend[i], i + 1) for i in pend_odds)  # pendant atom below x_i
    lat = FiniteLattice(n, pairs)
    gens = [1, 2] + list(pend.values())
    return lat, tuple(sorted(gens)), tuple(range(1, m + 1))
