"""Finite dichotomy for traceable graphs: a K22 copy or a chordless n-path.

The proof-shaped pipeline fixes, for every vertex pair of a traceable host, a
minimal-length increasing path (automatically chordless), colors every
ascending 4-subset by which fixed-path vertices see an edge across the two
pairs, searches for a monochromatic subset, and extracts a witness from it:
a K22 copy from a pair-color class, or a chordless path by a greedy walk over
concatenated fixed paths from the residual class.  Guaranteed success needs
Ramsey-scale hosts, so the practical entry point is :func:`dichotomy`, a
direct search; the pipeline is validated for soundness on small hosts.

The pipeline runs on positions ``0..size-1`` of the host's stored vertex
order, which is required to be a tracing function here, and on its bitmask
rows; all orderings ("increasing", "x < y") refer to those positions.  Vertex
names appear only in what :func:`proof_pipeline` reports.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import (
    ExtractionError,
    InvalidInputError,
    ResourceLimitError,
    StructuralError,
)
from .graphs import (
    K22,
    Embedding,
    Graph,
    check_traceable,
    embedding_is_valid,
    find_chordless_path,
    find_chordless_positions,
    find_k22,
    is_chordless_positions,
    iter_bits,
)


def _require_traceable(g: Graph) -> None:
    if not check_traceable(g):
        raise InvalidInputError("host is not traceable in its stored order")


def build_increasing_paths(g: Graph) -> dict:
    """Fixed-path table ``{(x, y): path}`` over positions x < y of a traceable host.

    ``path`` is the lexicographically least among the minimal-length strictly
    increasing paths from x to y.  A minimal-length increasing path is
    necessarily chordless: a chord would shortcut it.  So on a host with no
    chordless n-path no pair needs more than ``n - 2`` edges.
    """
    if len(g) < 2:
        raise InvalidInputError("need at least 2 vertices")
    _require_traceable(g)
    size = len(g)
    rows = g.rows
    paths = {}
    for y in range(size):
        # dist[v]: fewest increasing edges from v up to y; layers[d]: the v at d.
        dist = [None] * size
        layers = [1 << y]
        seen = 1 << y
        while layers[-1]:
            below = 0
            for w in iter_bits(layers[-1]):
                dist[w] = len(layers) - 1
                below |= rows[w] & ((1 << w) - 1)
            layers.append(below & ~seen)
            seen |= below
        # x's path steps to the lowest w above x one layer nearer to y, then
        # follows w's path, built just before.
        tails = {y: (y,)}
        # The host is traceable, so x -> x+1 -> ... -> y reaches every x.
        for x in range(y - 1, -1, -1):
            step = rows[x] & layers[dist[x] - 1] & ~((2 << x) - 1)
            tails[x] = paths[x, y] = (x,) + tails[(step & -step).bit_length() - 1]
    return paths


RESIDUAL = "K"  # color of 4-subsets matched by no (i, j) pair


@dataclass(frozen=True)
class FourColoring:
    """Color of every ascending position 4-subset: a least (i, j) pair, or residual.

    A 4-subset (x, y, u, v) carries (i, j) when the fixed paths are long
    enough (``N(x,y) >= i``, ``N(u,v) >= j``) and the host joins the i-th
    vertex of path(x, y) to the j-th vertex of path(u, v).  For the n given
    to ``build_coloring`` the color count is min(n-1, size)^2 + 1.

    ``masks[a, b, u]``, for exactly the ascending triples with
    ``u < size - 1``, maps each color present to the nonzero bitmask of the
    v > u whose 4-subset (a, b, u, v) has it; the masks of a triple partition
    the positions u+1..size-1.  Triples may share one dict, so the dicts are
    read-only, and the order of the keys carries no meaning.  ``assignment``
    reads the masks as ``{4-subset: color}`` in ``itertools.combinations``
    order, only for the tests and perfbench's ``len(r.assignment)`` count of
    colored 4-subsets.
    """

    size: int
    masks: dict

    @property
    def assignment(self) -> Mapping:
        return _QuadColors(self.size, self.masks)


class _QuadColors(Mapping):
    """Read-only ``{4-subset: color}`` view of per-triple color masks, in
    ``itertools.combinations`` order."""

    def __init__(self, size: int, masks: dict):
        self._size, self._masks = size, masks

    def __getitem__(self, quad):
        if isinstance(quad, tuple) and len(quad) == 4 and quad[2] < quad[3] < self._size:
            for color, mask in self._masks[quad[:3]].items():
                if mask >> quad[3] & 1:
                    return color
        raise KeyError(quad)

    def __len__(self) -> int:
        return math.comb(self._size, 4)

    def __iter__(self):
        return itertools.combinations(range(self._size), 4)


# 4-subsets one coloring may hold; hosts of up to 84 vertices fit.  At n = 5 a
# coloring takes 6 ms and 3.6 MB (tracemalloc peak) on the 43-vertex staged
# host, 27-30 ms and 16-18 MB on the 69- and 72-vertex ones, 27 ms and 14 MB
# on K84 and 44-82 ms and 22-38 MB on random 84-vertex hosts (2-CPU Xeon,
# Python 3.11), so the cap bounds neither time nor memory tightly.
MAX_COLORED_QUADS = 2_000_000


def _check_coloring_budget(size: int) -> None:
    quads = math.comb(size, 4)
    if quads > MAX_COLORED_QUADS:
        raise ResourceLimitError(
            "coloring %d vertices needs %d 4-subsets, over the budget of %d"
            % (size, quads, MAX_COLORED_QUADS)
        )


def build_coloring(rows, paths, n: int) -> FourColoring:
    """Color every ascending 4-subset into per-triple color masks.

    The work runs a triple at a time, with every v > u at once as a bitmask.
    For each u, ``first[a]`` lists pairs (j, f): f is the mask of the v whose
    path(u, v) meets N(a) first at its j-th vertex, j < n - 1.  ``seen[a]`` is
    the union of those f.  A triple (x, y, u) walks the first n-1 vertices of
    path(x, y) in order, holding the mask ``left`` of the v not yet colored:
    the i-th vertex a gives each ``f & left`` the color (i, j), then clears
    ``seen[a]`` from ``left``.  What stays in ``left`` is residual.  Every
    path(x, y) starts at x, so when ``seen[x]`` holds every v > u, all
    (x, y, u) get one dict, shared read-only.  No color with an empty mask is
    stored.
    """
    if n < 1:
        raise InvalidInputError("path length must be >= 1, got %d" % n)
    size = len(rows)
    _check_coloring_budget(size)
    side = min(n - 1, size)  # no fixed path has more vertices than the host
    classes = [tuple((i, j) for j in range(side)) for i in range(side)]
    heads = {pair: path[:side] for pair, path in paths.items()}
    masks = {}
    for u in range(2, size - 1):
        window = (1 << size) - (2 << u)  # bits u+1..size-1
        below = (1 << u) - 1
        groups = [{} for _ in range(side)]  # groups[j][w]: the v with w j-th on path(u, v)
        for v in range(u + 1, size):
            for j, w in enumerate(heads[u, v]):
                groups[j][w] = groups[j].get(w, 0) | 1 << v
        hits = [[0] * side for _ in range(u)]  # hits[a][j]: groups[j][w] over w in N(a)
        for j, group in enumerate(groups):
            for w, vs in group.items():
                for a in iter_bits(rows[w] & below):
                    hits[a][j] |= vs
        first, seen = [], []
        for row_hits in hits:
            parts, cover = [], 0
            for j, hit in enumerate(row_hits):
                if hit & ~cover:
                    parts.append((j, hit & ~cover))
                    cover |= hit
            first.append(parts)
            seen.append(cover)
        for x in range(u - 1):
            if seen[x] == window:
                shared = {classes[0][j]: f for j, f in first[x]}
                for y in range(x + 1, u):
                    masks[x, y, u] = shared
                continue
            for y in range(x + 1, u):
                by_color = masks[x, y, u] = {}
                left = window
                for i, a in enumerate(heads[x, y]):
                    if left & seen[a]:
                        for j, f in first[a]:
                            if f & left:
                                by_color[classes[i][j]] = f & left
                        left &= ~seen[a]
                        if not left:
                            break
                if left:
                    by_color[RESIDUAL] = left
    return FourColoring(size=size, masks=masks)


# Search nodes one homogeneous search may visit.  At q = 8 the staged hosts of
# T = 12, 14, 16 and 17 (43, 57, 69, 72 vertices) need 3,573, 8,322, 1,634,848
# and 2,209,792; at about 2.5 microseconds a node it is used up in about 10 s.
HOMOGENEOUS_BUDGET = 4_000_000


@dataclass(frozen=True)
class HomogeneousCertificate:
    subset: tuple  # positions inside the pipeline, vertex names in its trace
    color: object


def find_homogeneous(coloring: FourColoring, q: int):
    """Exact ordered backtracking search for a q-subset of positions
    ``0..coloring.size-1`` monochromatic on 4-subsets.

    Vertices are tried in increasing order, so the certificate is the
    lexicographically least one, or None.  Once four chosen vertices fix the
    color c, the search carries the mask of the vertices that would keep every
    chosen triple in c: choosing v ANDs in ``masks[a, b, v][c]`` for each
    chosen pair (a, b).  Each vertex taken from a level's candidate mask is one
    search node; visiting more than ``HOMOGENEOUS_BUDGET`` of them raises
    ResourceLimitError.
    """
    if q < 4:
        raise InvalidInputError("homogeneous size must be >= 4, got %d" % q)
    size, masks = coloring.size, coloring.masks
    if size < q:
        return None
    chosen = []
    nodes, budget = 0, HOMOGENEOUS_BUDGET

    def search(start: int, cand: int, color):
        """The class color once ``chosen`` is completed to q from ``cand``, else None."""
        nonlocal nodes
        k = len(chosen)
        if k == q:
            return color
        end = size - (q - k) + 1
        # Once v has fixed the color, each chosen pair narrows the next level.
        pairs = tuple(itertools.combinations(chosen, 2)) if 3 <= k < q - 1 else ()
        window = ((1 << end) - 1) >> start << start  # positions start..end-1
        for v in iter_bits(cand & window):
            nodes += 1
            if nodes > budget:
                raise ResourceLimitError(
                    "homogeneous %d-subset search passed its budget of %d "
                    "search nodes" % (q, budget)
                )
            c, grown = color, cand
            if k == 3:  # v fixes the color, and the chosen triple's mask of it
                for c, grown in masks[tuple(chosen)].items():
                    if grown >> v & 1:
                        break
            for a, b in pairs:
                grown &= masks[a, b, v].get(c, 0)
            chosen.append(v)
            found = search(v + 1, grown, c)
            if found is not None:
                return found
            chosen.pop()
        return None

    color = search(0, (1 << size) - 1, None)
    if color is None:
        return None
    subset = tuple(chosen)
    if not all(masks[quad[:3]].get(color, 0) >> quad[3] & 1
               for quad in itertools.combinations(subset, 4)):
        raise StructuralError("homogeneous search produced an invalid certificate")
    return HomogeneousCertificate(subset=subset, color=color)


def extract_k22(cert: HomogeneousCertificate, g: Graph, paths: dict) -> Embedding:
    """A K22 copy from the first 8 positions of a pair-colored certificate.

    The four image vertices come from fixed paths inside four disjoint
    position intervals, so a collision indicates corrupt inputs; it is
    reported rather than papered over.  So is a certificate that is not
    pair-colored or has fewer than 8 elements: inside the pipeline it can only
    come from ``find_homogeneous``.
    """
    if cert.color == RESIDUAL or not isinstance(cert.color, tuple):
        raise ExtractionError("certificate color must be a pair class")
    if len(cert.subset) < 8:
        raise ExtractionError(
            "need at least 8 homogeneous elements, have %d" % len(cert.subset)
        )
    verts = g.vertices

    def path_vertex(x, y, i):
        p = paths[x, y]
        if i >= len(p):
            raise ExtractionError(
                "fixed path %r has only %d edges" % ((verts[x], verts[y]), len(p) - 1)
            )
        return p[i]

    i, j = cert.color
    x1, x2, x3, x4, x5, x6, x7, x8 = cert.subset[:8]
    a0, a1 = path_vertex(x1, x2, i), path_vertex(x3, x4, i)
    b0, b1 = path_vertex(x5, x6, j), path_vertex(x7, x8, j)
    image = tuple(verts[p] for p in (a0, a1, b0, b1))
    if len({a0, a1, b0, b1}) != 4:
        raise ExtractionError("extracted vertices collide: %r" % (image,))
    rows = g.rows
    if not all(rows[a] >> b & 1 for a in (a0, a1) for b in (b0, b1)):
        raise ExtractionError("extracted vertices do not form a K22 copy: %r" % (image,))
    return Embedding(K22, image)


def concatenated_path(cert: HomogeneousCertificate, paths: dict, n: int):
    """Fixed paths x0 -> x1 -> ... -> xn joined into one increasing path."""
    xs = cert.subset[: n + 1]
    out = list(paths[xs[0], xs[1]])
    for a, b in zip(xs[1:], xs[2:]):
        out.extend(paths[a, b][1:])
    return tuple(out)


def extract_chordless(cert: HomogeneousCertificate, g: Graph, paths: dict, n: int):
    """Greedy chordless n-path, in vertex names, from a residual-colored certificate.

    Walk the concatenated fixed path taking, from each vertex, the furthest
    path vertex it sees: the highest bit of its row on the walk.  Skipping to
    the furthest neighbour is what makes the result chordless; a stalled or
    exhausted walk signals a certificate or table bug and is raised as an
    extraction failure, as is a certificate of another color or with fewer
    than n + 1 elements.
    """
    if cert.color != RESIDUAL:
        raise ExtractionError("certificate color must be the residual class")
    if len(cert.subset) < n + 1:
        raise ExtractionError(
            "need at least %d homogeneous elements, have %d" % (n + 1, len(cert.subset))
        )
    rows = g.rows
    verts = g.vertices
    walk = concatenated_path(cert, paths, n)
    walk_mask = 0
    for w in walk:
        walk_mask |= 1 << w
    ys = [walk[0]]
    while len(ys) < n:
        cur = ys[-1]
        best = (rows[cur] & walk_mask).bit_length() - 1
        if best <= cur:
            raise ExtractionError(
                "greedy walk stalled at %r after %d vertices" % (verts[cur], len(ys))
            )
        ys.append(best)
    result = tuple(verts[y] for y in ys)
    if not is_chordless_positions(rows, ys):
        raise ExtractionError("greedy result %r is not chordless" % (result,))
    return result


@dataclass(frozen=True)
class DichotomyWitness:
    kind: str  # "chordless_path" | "k22" | "neither"
    path: tuple | None = None
    embedding: Embedding | None = None


def dichotomy(g: Graph, n: int) -> DichotomyWitness:
    """Chordless n-path if one exists, else a K22 copy, else neither.

    Neither is legal only when the host is smaller than the true threshold
    for ``n``.
    """
    _require_traceable(g)
    p = find_chordless_path(g, n)
    if p is not None:
        return DichotomyWitness(kind="chordless_path", path=p)
    found = find_k22(g.rows, g.rows)
    if found is None:
        return DichotomyWitness(kind="neither")
    p, q, r, s = found
    emb = Embedding(K22, tuple(g.vertices[i] for i in (r, s, p, q)))
    if not embedding_is_valid(g.rows, Embedding(K22, (r, s, p, q))):
        raise StructuralError("K22 search produced an invalid embedding: %r" % (emb,))
    return DichotomyWitness(kind="k22", embedding=emb)


@dataclass
class PipelineTrace:
    """Step-by-step record of the proof-shaped pipeline on one host."""

    n: int
    q: int
    outcome: str
    path: tuple | None = None
    embedding: Embedding | None = None
    certificate: HomogeneousCertificate | None = None
    table_pairs: int = 0
    colors_used: int = 0
    notes: list = field(default_factory=list)


def homogeneous_size_for(n: int) -> int:
    """Homogeneous size the pipeline requests: one more than the path, min 8."""
    return max(n + 1, 8)


def proof_pipeline(g: Graph, n: int) -> PipelineTrace:
    _require_traceable(g)
    q = homogeneous_size_for(n)
    trace = PipelineTrace(n=n, q=q, outcome="")
    direct = find_chordless_path(g, n)
    if direct is not None:
        trace.outcome = "chordless_path"
        trace.path = direct
        trace.notes.append("host already contains a chordless %d-path" % n)
        return trace
    _check_coloring_budget(len(g))
    paths = build_increasing_paths(g)
    trace.table_pairs = len(paths)
    coloring = build_coloring(g.rows, paths, n)
    trace.colors_used = len(set().union(*coloring.masks.values()))
    cert = find_homogeneous(coloring, q)
    if cert is None:
        trace.outcome = "no_homogeneous_set"
        trace.notes.append(
            "no monochromatic %d-subset; host is below Ramsey scale" % q
        )
        return trace
    trace.certificate = HomogeneousCertificate(
        subset=tuple(g.vertices[x] for x in cert.subset), color=cert.color
    )
    if cert.color == RESIDUAL:
        path = extract_chordless(cert, g, paths, n)
        trace.outcome = "chordless_path"
        trace.path = path
    else:
        emb = extract_k22(cert, g, paths)
        trace.outcome = "k22"
        trace.embedding = emb
    return trace


# ---------------------------------------------------------------------------
# Exact threshold search by hereditary extension


@dataclass(frozen=True)
class SizeCount:
    size: int
    graphs: int
    neither: int
    example: tuple | None  # edge list of the neither instance with least chord bits


@dataclass(frozen=True)
class MnReport:
    n: int
    sizes: tuple
    largest_neither: int | None

    @property
    def empirical_lower_bound(self):
        if self.largest_neither is None:
            return None
        return self.largest_neither + 1

    @property
    def exact_threshold(self):
        """m(n) when the search reached an empty level, else None.

        An empty level stays empty at every larger size, so the threshold is
        one past the last non-empty level.
        """
        if self.sizes[-1].neither:
            return None
        return (self.largest_neither or 0) + 1


# Join candidates one search may examine: m(7) needs 6,101 of them, and an
# n = 8 search runs out of it at size 11, within seconds.
EXTENSION_BUDGET = 50_000
# The report prints 2^((s-1)(s-2)/2) for every size s up to the bound.
MAX_SIZE_BOUND = 64


def estimate_min_m(n: int, size_bound: int) -> MnReport:
    """Count, per size, the traceable hosts with neither witness for ``n``.

    Hosts are labelled: the path 0 - 1 - ... - size-1 plus any chord set, so
    there are 2^((size-1)(size-2)/2) of them.  Deleting either end vertex of
    a neither instance leaves a neither instance, so level s+1 is exactly the
    K22-free joins of level s with itself (:func:`_k22_free_joins`) that close
    no chordless n-path.  Once a level is empty every larger one is, which
    makes the threshold exact.
    """
    if n < 1:
        raise InvalidInputError("path length must be >= 1, got %d" % n)
    if size_bound < 1:
        raise InvalidInputError("size bound must be >= 1, got %d" % size_bound)
    if size_bound > MAX_SIZE_BOUND:
        raise ResourceLimitError(
            "size bound %d exceeds the report limit (max %d)"
            % (size_bound, MAX_SIZE_BOUND)
        )
    budget = EXTENSION_BUDGET
    level = [(0,)] if n > 1 else []  # one vertex holds only a 1-path
    counts = []
    largest = None
    for size in range(1, size_bound + 1):
        if size > 1:
            grown = []
            for rows in _k22_free_joins(level):
                budget -= 1
                if budget < 0:
                    raise ResourceLimitError(
                        "m(%d) search passed its budget of %d candidate "
                        "extensions at size %d" % (n, EXTENSION_BUDGET, size)
                    )
                if find_chordless_positions(rows, n) is None:
                    grown.append(rows)
            level = grown
        example = None
        if level:
            largest = size
            example = _verified_example(level, n)
        counts.append(
            SizeCount(
                size=size,
                graphs=1 << ((size - 1) * (size - 2) // 2),
                neither=len(level),
                example=example,
            )
        )
    return MnReport(n=n, sizes=tuple(counts), largest_neither=largest)


def _k22_free_joins(level):
    """Rows of every K22-free host on s+1 vertices whose prefix (drop s) and
    shifted suffix (drop 0) are both in ``level``, a list of s-vertex hosts.

    A is joined with each B whose first s-1 rows, on bits 0..s-2, are A's
    last s-1 rows shifted down; vertex s takes B's last row shifted up, and
    the chord (0, s) is tried both ways (at s = 1 it is the path edge).  A
    new K22 copy holds both 0 and s: opposite, they share two neighbours;
    adjacent, a neighbour of s other than 0 is adjacent to one of 0.
    """
    if not level:
        return
    s = len(level[0])
    low = (1 << (s - 1)) - 1
    suffixes = {}
    for b in level:
        suffixes.setdefault(tuple(r & low for r in b[:-1]), []).append(b)
    new_bit = 1 << s
    for a in level:
        for b in suffixes.get(tuple(r >> 1 for r in a[1:]), ()):
            last = b[-1] << 1
            common = a[0] & last
            if common & (common - 1):
                continue
            rows = tuple(row | new_bit if last >> v & 1 else row for v, row in enumerate(a))
            if s > 1:
                yield rows + (last,)
            if not any(a[0] & a[p] for p in iter_bits(last)):
                yield (a[0] | new_bit,) + rows[1:] + (last | 1,)


def _verified_example(level, n: int):
    """Edges of the instance with the least chord bitmask, re-checked.

    The bitmask numbers chords (i, j), j > i + 1, row by row, so a chord
    outranks every chord of a lower row: the least bitmask has the least
    chord rows ``rows[i] >> (i + 2)``, read from the last row down.
    """
    size = len(level[0])
    best = min(level, key=lambda rows: [rows[i] >> (i + 2) for i in reversed(range(size))])
    if find_chordless_positions(best, n) is not None or find_k22(best, best):
        raise StructuralError(
            "m(%d) example on %d vertices is not a neither instance" % (n, size)
        )
    return tuple(
        (i, j) for i in range(size) for j in range(i + 1, size) if best[i] >> j & 1
    )


# ---------------------------------------------------------------------------
# Tower function


def tower(k: int):
    """t_k with t_1 = 2 and t_k = 2^t_{k-1}; None above 64 bits."""
    if k < 1:
        raise InvalidInputError("tower height must be >= 1")
    value = 2
    for _ in range(k - 1):
        if value >= 64:
            return None
        value = 1 << value
    return value
