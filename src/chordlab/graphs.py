"""Core graph representation, the chordless-path search and the K22 kernel.

Graphs are finite, undirected and simple, with an ordered vertex list.  The
stored order doubles as the candidate tracing function: a graph is traceable
when consecutive vertices of the list are adjacent.  All search operations
return the lexicographically least witness with respect to the stored order,
so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError, ResourceLimitError, StructuralError


def iter_bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


class Graph:
    """Immutable undirected simple graph over integer vertices.

    ``rows[i]`` is the neighbour bitmask of ``vertices[i]``, by default the
    vertex ``i``.  Unchecked precondition: the vertices are distinct naturals,
    and the rows are symmetric and loop-free and set no bit at or above
    ``len(rows)``.  A graph file is checked by ``formats.graph_from_json_obj``.
    """

    __slots__ = ("vertices", "rows")

    def __init__(self, rows, vertices=None):
        self.vertices = tuple(range(len(rows)) if vertices is None else vertices)
        self.rows = tuple(rows)

    def __len__(self):
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (len(self.vertices), self.edge_count())


def check_traceable(g: Graph) -> bool:
    """True when consecutive vertices of the stored order are adjacent."""
    rows = g.rows
    return all(rows[i] >> (i + 1) & 1 for i in range(len(rows) - 1))


def is_chordless_positions(rows, p) -> bool:
    """True iff positions ``p`` are distinct and form a path in ``rows`` with
    no edge between non-consecutive positions: each one's row meets ``p``
    exactly in its path neighbours."""
    members = 0
    for v in p:
        members |= 1 << v
    if members.bit_count() != len(p):
        return False
    for i, v in enumerate(p):
        links = (1 << p[i - 1] if i else 0) | (1 << p[i + 1] if i + 1 < len(p) else 0)
        if rows[v] & members != links:
            return False
    return True


# Extension steps one chordless-path search may take: about 20 s at the
# 2.1-2.5M steps/s measured on a 2-CPU Xeon with Python 3.11.
MAX_CHORDLESS_STEPS = 50_000_000


def find_chordless_positions(masks, n: int):
    """Chordless ``n``-vertex path over raw adjacency bitmasks, or None.

    Depth-first search over positions ``0..len(masks)-1``; a candidate
    extension must be adjacent to the current endpoint and non-adjacent to
    every earlier vertex, which prunes chords as the path grows.  The first
    path found is the lexicographically least one.  The search keeps an
    explicit stack, one frame per path vertex, so Python's recursion limit
    does not bound the path length.

    On a chordless path ... x, y, z the vertex z is adjacent to y and outside
    N[x], so a vertex that must still be followed lies in ``onward`` of its
    predecessor: the neighbours of x with a neighbour outside N[x].  The prune
    cuts only dead branches, so it never changes the path found.  Past
    ``MAX_CHORDLESS_STEPS`` extension steps the search raises ResourceLimitError.
    """
    size = len(masks)
    if n > size:  # the path needs n distinct positions
        return None
    if n == 1:
        return (0,)
    onward = []
    for x in range(size):
        row = masks[x]
        outside = ~(row | 1 << x)
        keep = 0
        rest = row
        while rest:
            bit = rest & -rest
            rest ^= bit
            if masks[bit.bit_length() - 1] & outside:
                keep |= bit
        onward.append(keep)
    # The stack: at depth d, path[d] is a path vertex, cands[d] its untried
    # extensions and blocked[d] the positions path[d + 1] may not take (the
    # path up to d and the neighbours of path[:d]).
    path = [0] * n
    cands = [0] * n
    blocked = [0] * n
    last = n - 2  # the depth whose extension completes the path
    steps = MAX_CHORDLESS_STEPS
    for start in range(size):
        path[0] = start
        cands[0] = masks[start] & onward[start] if last else masks[start]
        blocked[0] = 1 << start
        d = 0
        while d >= 0:
            cand = cands[d]
            if not cand:
                d -= 1
                continue
            steps -= 1
            if steps < 0:
                raise ResourceLimitError(
                    "chordless %d-path search passed %d steps" % (n, MAX_CHORDLESS_STEPS)
                )
            bit = cand & -cand
            cands[d] = cand ^ bit
            nxt = bit.bit_length() - 1
            if d == last:
                path[d + 1] = nxt
                return tuple(path)
            ban = blocked[d] | masks[path[d]]
            d += 1
            path[d] = nxt
            cand = masks[nxt] & ~ban
            if d < last:
                cand &= onward[nxt]
            cands[d] = cand
            blocked[d] = ban
    return None


def _pieces(masks, part: int, co: bool) -> list:
    """The components of the positions in ``part``, as bitmasks; with ``co``,
    the components of its complement."""
    pieces = []
    while part:
        piece = frontier = part & -part
        while frontier:
            bits = bin(frontier)[:1:-1]  # bits[j] is bit j of frontier
            j = bits.find("1")
            if co:
                common = -1
                while j >= 0:
                    common &= masks[j]
                    j = bits.find("1", j + 1)
                reach = ~common
            else:
                reach = 0
                while j >= 0:
                    reach |= masks[j]
                    j = bits.find("1", j + 1)
            frontier = reach & part & ~piece
            piece |= frontier
        pieces.append(piece)
        part &= ~piece
    return pieces


def is_cograph(masks) -> bool:
    """True iff the positions ``0..len(masks)-1`` hold no chordless 4-path.

    Those graphs are the cographs: every induced subgraph on two or more
    vertices is disconnected or has a disconnected complement (Seinsche 1974;
    Corneil, Lerchs and Stewart Burlingham, "Complement reducible graphs",
    1981).  The vertex set is split into components, each component into
    co-components, and so on down the cotree.  The pieces of a split are
    connected (co-connected after a co-split), so each needs only the other
    split; a piece of two or more vertices that it leaves whole is connected
    and co-connected, and holds a chordless 4-path.
    """
    stack = [(p, True) for p in _pieces(masks, (1 << len(masks)) - 1, False)]
    while stack:
        part, co = stack.pop()
        if part & (part - 1):  # two or more vertices
            pieces = _pieces(masks, part, co)
            if len(pieces) == 1:
                return False
            stack.extend((p, not co) for p in pieces)
    return True


def find_chordless_path(g: Graph, n: int):
    """Lexicographically least chordless path on exactly ``n`` vertices, or None.

    For ``n >= 4`` a cograph answers None without the DFS.  The first four
    vertices of a chordless n-path form a chordless 4-path, which a cograph
    does not have, so the cotree split of ``is_cograph`` proves the same
    negative the search would, and a host with a witness still goes to the
    search.  On the staged hosts, which are cographs, the split costs a
    small fraction of the search.  A found path is checked chordless before
    it is returned; a failed check raises StructuralError.
    """
    if n < 1:
        raise InvalidInputError("path length must be >= 1, got %d" % n)
    if n >= 4 and is_cograph(g.rows):
        return None
    found = find_chordless_positions(g.rows, n)
    if found is None:
        return None
    path = tuple(g.vertices[i] for i in found)
    if not is_chordless_positions(g.rows, found):
        raise StructuralError("path search produced a chorded path: %r" % (path,))
    return path


def find_k22(rows, cols):
    """The least pair of positions ``r < s`` with two common neighbours, and
    the least two of those neighbours ``p < q``, as ``(p, q, r, s)``; or None.

    Such a pair is a K22 copy, with r and s on one side and p and q on the
    other.  ``rows`` need not be symmetric: the neighbours of r are the bits
    of ``rows[r]`` other than r itself.  ``cols[p]`` is a mask holding every
    r whose row holds p, so a symmetric ``rows`` is its own ``cols``; extra
    bits cost one check each and never change the answer.

    Every later s that shares a neighbour p with r is a bit of ``cols[p]``,
    so one OR per neighbour of r collects the s met once (``seen``) and
    those met twice (``dup``): the wedge count of Chiba and Nishizeki
    ("Arboricity and subgraph listing algorithms", 1985).  The candidates
    in ``dup`` are checked in order, so the first that holds is the least s.
    """
    for r, mr in enumerate(rows):
        mr &= ~(1 << r)
        if not mr & (mr - 1):
            continue  # fewer than two neighbours
        start = r + 1
        seen = dup = 0
        rest = mr
        while rest:
            bit = rest & -rest
            rest ^= bit
            hit = cols[bit.bit_length() - 1] >> start
            dup |= seen & hit
            seen |= hit
        while dup:
            bit = dup & -dup
            dup ^= bit
            s = start + bit.bit_length() - 1
            common = mr & rows[s] & ~(1 << s)
            if common & (common - 1):
                p = (common & -common).bit_length() - 1
                common &= common - 1
                return (p, (common & -common).bit_length() - 1, r, s)
    return None


# Pattern graphs.  Three fixed bipartite families are supported: K22, the
# truncated half-graph A(k) with edges a_n - b_m exactly when n <= m, and the
# complete bipartite truncation Kkk(k).


@dataclass(frozen=True)
class Pattern:
    kind: str  # "K22" | "A" | "Kkk"
    k: int

    def __post_init__(self):
        if self.kind not in ("K22", "A", "Kkk"):
            raise InvalidInputError("unknown pattern kind %r" % (self.kind,))
        if self.kind == "K22" and self.k != 2:
            raise InvalidInputError("K22 has fixed size 2")
        if self.k < 1:
            raise InvalidInputError("pattern size must be >= 1")

    @property
    def vertex_names(self):
        return tuple("a%d" % i for i in range(self.k)) + tuple(
            "b%d" % i for i in range(self.k)
        )

    def edges(self):
        """Pattern edges as index pairs (n, m): a_n is joined to b_m."""
        if self.kind == "A":
            return [(n, m) for n in range(self.k) for m in range(n, self.k)]
        return [(n, m) for n in range(self.k) for m in range(self.k)]

    def __str__(self):
        return "K22" if self.kind == "K22" else "%s(%d)" % (self.kind, self.k)


K22 = Pattern("K22", 2)


@dataclass(frozen=True)
class Embedding:
    """Injective, edge-preserving map from a pattern into a host graph;
    ``image[i]`` is the host vertex of ``pattern.vertex_names[i]``."""

    pattern: Pattern
    image: tuple

    @property
    def assignment(self) -> dict:
        """Host vertex of each pattern vertex name, in ``vertex_names`` order."""
        return dict(zip(self.pattern.vertex_names, self.image))


def embedding_is_valid(rows, emb: Embedding) -> bool:
    """True iff the image holds 2k distinct positions of ``rows``, one per
    pattern vertex, and ``rows`` joins the image of every pattern edge."""
    image = emb.image
    k = emb.pattern.k
    if len(image) != 2 * k or len(set(image)) != len(image):
        return False
    if not all(0 <= p < len(rows) for p in image):
        return False
    return all(rows[image[n]] >> image[k + m] & 1 for n, m in emb.pattern.edges())
