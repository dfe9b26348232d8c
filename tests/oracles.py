"""Independent brute-force oracles and input generators for the test suite.

Everything here recomputes results the dumb way (permutations, full subset
scans, literal definition loops) so the optimized implementations have
something honest to be compared against.
"""

import functools
import itertools
import json
import random

from hypothesis import strategies as st

from chordlab.construction import run
from chordlab.formats import write_parts
from chordlab.graphs import Graph, find_chordless_path, find_chordless_positions
from chordlab.lattices import FiniteLattice, build_tree, check_length3, closure_and_rank
from chordlab.ramsey import FourColoring
from chordlab.errors import (
    CoverageError,
    InvalidInputError,
    LatticeAxiomError,
    StructuralError,
)


def graph(vertices, edges):
    """Graph with the stored order ``vertices`` and the edge list ``edges``,
    each edge in either orientation; bad input raises InvalidInputError."""
    verts = tuple(int(v) for v in vertices)
    if len(set(verts)) != len(verts):
        raise InvalidInputError("duplicate vertices: %r" % (verts,))
    if any(v < 0 for v in verts):
        raise InvalidInputError("vertices must be natural numbers")
    pos = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for u, v in edges:
        if u == v:
            raise InvalidInputError("self-loop at %r" % (u,))
        if u not in pos or v not in pos:
            raise InvalidInputError("edge endpoint outside vertex set: %r" % ((u, v),))
        i, j = pos[u], pos[v]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(rows, verts)


@functools.lru_cache(maxsize=8)
def _positions(g):
    """``{vertex: position}`` of ``g``; a Graph hashes by identity."""
    return {v: i for i, v in enumerate(g.vertices)}


def position(g, v):
    """The position of vertex ``v`` in the stored order of ``g``; KeyError if
    ``v`` is not a vertex."""
    return _positions(g)[v]


def has_edge(g, u, v):
    """True iff ``u`` and ``v`` are adjacent vertices of ``g``."""
    try:
        i, j = position(g, u), position(g, v)
    except KeyError:
        return False
    return (g.rows[i] >> j) & 1 == 1


def embedding_is_valid_by_names(g, emb):
    """``graphs.embedding_is_valid`` on an image of vertex names: one distinct
    vertex of ``g`` per pattern vertex, and every pattern edge an edge of ``g``."""
    image = emb.image
    if len(image) != 2 * emb.pattern.k or len(set(image)) != len(image):
        return False
    if any(v not in g.vertices for v in image):
        return False
    place = emb.assignment
    return all(has_edge(g, place["a%d" % n], place["b%d" % m]) for n, m in emb.pattern.edges())


def leq(lat, x, y):
    """x <= y in the order of ``lat``."""
    return (lat.below[y] >> x) & 1 == 1


def comparable(lat, x, y):
    """x <= y or y <= x in the order of ``lat``."""
    return leq(lat, x, y) or leq(lat, y, x)


def blocks(history, s):
    """The blocks of stage ``s`` as ranges; block j spans (coding[j-1], coding[j]]."""
    out = []
    lo = 0
    for c in history.coding_at(s):
        out.append(range(lo, c + 1))
        lo = c + 1
    return out


def _check_path_input(g, p) -> None:
    if len(set(p)) != len(p):
        raise InvalidInputError("path has duplicate vertices: %r" % (list(p),))
    for v in p:
        if v not in g.vertices:
            raise InvalidInputError("path vertex %r not in graph" % (v,))


def is_chordless(g, p):
    """True iff ``p`` is a path in ``g`` with no edges between non-consecutive
    vertices: two of its vertices are adjacent exactly when consecutive."""
    _check_path_input(g, p)
    return all(
        has_edge(g, p[i], p[j]) == (j == i + 1)
        for i in range(len(p))
        for j in range(i + 1, len(p))
    )


def brute_chordless_path(g, n):
    """First chordless n-path by scanning every vertex permutation."""
    for p in itertools.permutations(g.vertices, n):
        if not all(has_edge(g, p[i], p[i + 1]) for i in range(n - 1)):
            continue
        if any(
            has_edge(g, p[i], p[j])
            for i in range(n)
            for j in range(i + 2, n)
        ):
            continue
        return p
    return None


def brute_embedding_exists(g, pattern):
    """Scan every injection of the pattern vertices into the host."""
    names = pattern.vertex_names
    k = pattern.k
    edges = pattern.edges()
    for image in itertools.permutations(g.vertices, len(names)):
        if all(has_edge(g, image[n], image[k + m]) for n, m in edges):
            return dict(zip(names, image))
    return None


def brute_homogeneous(coloring, vertices, q):
    """First monochromatic q-subset by scanning all combinations."""
    for subset in itertools.combinations(sorted(vertices), q):
        colors = {coloring.assignment[quad] for quad in itertools.combinations(subset, 4)}
        if len(colors) == 1:
            return subset, colors.pop()
    return None


def coloring_from_assignment(size, assignment):
    """A ``FourColoring`` holding ``assignment``, a ``{4-subset: color}`` dict
    over positions ``0..size-1``."""
    masks = {}
    for (a, b, u, v), color in assignment.items():
        by_color = masks.setdefault((a, b, u), {})
        by_color[color] = by_color.get(color, 0) | 1 << v
    return FourColoring(size=size, masks=masks)


def dict_homogeneous_search(assignment, size, q):
    """The ordered homogeneous search with one ``{4-subset: color}`` lookup
    per (chosen triple, candidate vertex), unbounded.

    Returns ``(certificate, nodes)``: the least monochromatic q-subset and its
    color as ``(subset, color)``, or None, and the search nodes visited, one
    for every vertex the search recursed into.
    """
    chosen = []
    nodes = 0

    def search(start, color):
        nonlocal nodes
        if len(chosen) == q:
            return color
        for v in range(start, size - (q - len(chosen)) + 1):
            c = color
            for trip in itertools.combinations(chosen, 3):
                got = assignment[trip + (v,)]
                if c is None:
                    c = got
                elif got != c:
                    break
            else:
                nodes += 1
                chosen.append(v)
                found = search(v + 1, c)
                if found is not None:
                    return found
                chosen.pop()
        return None

    color = search(0, None)
    return (None if color is None else (tuple(chosen), color)), nodes


def quadwise_coloring(rows, paths, n):
    """``FourColoring`` of every ascending 4-subset, built one 4-subset at a time.

    For each triple (x, y, u) and each v > u in turn, the 4-subset's i is the
    first of the first n-1 vertices of path(x, y) whose row meets the first
    n-1 vertices of path(u, v), and its j the index of the lowest vertex met,
    the least because paths ascend; a 4-subset no row meets is residual.
    """
    size = len(rows)
    side = min(n - 1, size)
    far = {}  # (u, v) -> (mask of the first n-1 vertices of path(u, v), index of each)
    for pair, path in paths.items():
        index = {w: j for j, w in enumerate(path[:side])}
        far[pair] = sum(1 << w for w in index), index
    masks = {}
    for x, y in itertools.combinations(range(size), 2):
        near = [rows[a] for a in paths[x, y][:side]]
        for u in range(y + 1, size - 1):
            by_color = masks[x, y, u] = {}
            for v in range(u + 1, size):
                far_mask, index = far[u, v]
                color = "K"
                for i, row in enumerate(near):
                    hit = row & far_mask
                    if hit:
                        color = (i, index[(hit & -hit).bit_length() - 1])
                        break
                by_color[color] = by_color.get(color, 0) | 1 << v
    return FourColoring(size=size, masks=masks)


def naive_fixed_path(g, x, y):
    """Least minimal increasing path from x to y in the stored order, found by
    scanning the in-between vertex subsets by size, in order."""
    verts = g.vertices
    inner = verts[verts.index(x) + 1:verts.index(y)]
    for k in range(len(inner) + 1):
        for mid in itertools.combinations(inner, k):
            p = (x,) + mid + (y,)
            if all(has_edge(g, a, b) for a, b in zip(p, p[1:])):
                return p
    return None


def naive_four_coloring(g, n):
    """Colour of every 4-subset x, y, u, v in stored order, keyed by vertex names.

    The least (i, j), i and j below n - 1 and within the fixed paths of (x, y)
    and (u, v), whose i-th and j-th path vertices are adjacent; else "K".
    """
    paths = {}
    for x, y in itertools.combinations(g.vertices, 2):
        paths[x, y] = naive_fixed_path(g, x, y)
    colors = {}
    for quad in itertools.combinations(g.vertices, 4):
        pxy, puv = paths[quad[:2]], paths[quad[2:]]
        colors[quad] = next(
            ((i, j) for i in range(min(n - 1, len(pxy)))
             for j in range(min(n - 1, len(puv)))
             if has_edge(g, pxy[i], puv[j])),
            "K",
        )
    return colors


def literal_stage_rule(f, stages):
    """The construction kept as block lists and an edge set, both cases spelled out.

    Returns ``(rows, codings)``: neighbour bitmask rows of the final graph
    and one coding tuple per stage, as ``StagedHistory`` keeps them.
    """
    blocks = [[0]]
    edges = set()
    k = 0
    codings = [(0,)]
    for s in range(stages):
        n = f[s]
        coding = [block[-1] for block in blocks]
        if n > s:
            # One fresh singleton block, adjacent to every coding vertex.
            k += 1
            edges.update((c, k) for c in coding)
            blocks.append([k])
        else:
            # Blocks n..s and the fresh vertex k+1 merge into one block whose
            # coding vertex is k+1, adjacent to the whole block; s+1-n fresh
            # singleton blocks follow, and all coding vertices are pairwise
            # adjacent.
            top = k + 1
            merged = [x for block in blocks[n:] for x in block] + [top]
            fresh = [[top + 1 + i] for i in range(s + 1 - n)]
            blocks = blocks[:n] + [merged] + fresh
            k = top + s + 1 - n
            edges.update((x, top) for x in merged[:-1])
            edges.update(itertools.combinations([block[-1] for block in blocks], 2))
        codings.append(tuple(block[-1] for block in blocks))
    rows = [0] * (k + 1)
    for x, y in edges:
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    return rows, codings


def naive_stage_lemmas(history, s):
    """The five stage invariants of stage ``s``, written as literal loops.

    Returns ``(lemma, witness)`` failures; every lemma that fails has its
    lexicographically least witness among them.
    """
    block_list = [list(b) for b in blocks(history, s)]
    coding = history.coding_at(s)
    k = coding[-1]
    g = history.state(s)
    failures = []
    for j, block in enumerate(block_list):
        c = coding[j]
        for x in block:
            if x > c:
                failures.append(("greatest", (j, x, c)))
            if x != c and not has_edge(g, x, c):
                failures.append(("greatest", (j, x, c)))
    for i, j in itertools.combinations(range(len(coding)), 2):
        if not has_edge(g, coding[i], coding[j]):
            failures.append(("codeconnection", (coding[i], coding[j])))
    for d in range(k):
        if not has_edge(g, d, d + 1):
            failures.append(("tracing", (d, d + 1)))
    block_of = {}
    for j, block in enumerate(block_list):
        for x in block:
            block_of[x] = j
    coding_set = set(coding)
    edges = sorted_edge_pairs(g)
    for x, y in edges:
        if block_of[x] != block_of[y] and x not in coding_set:
            failures.append(("components", (x, y)))
    # Each block is scanned once per vertex x below it, from x's first edge
    # into it; later edges (x, y') would repeat the same misses with a larger y'.
    scanned = set()
    for x, y in edges:
        j = block_of[y]
        if block_of[x] == j or (x, j) in scanned:
            continue
        scanned.add((x, j))
        for z in block_list[j]:
            if z != x and not has_edge(g, x, z):
                failures.append(("goup", (x, y, z)))
    return failures


def least_failures(failures):
    """The lexicographically least witness of each failing lemma, by name."""
    least = {}
    for name, witness in failures:
        least[name] = min(least.get(name, witness), witness)
    return least


def _bits(mask):
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def middle_edge_4path(rows, k):
    """A chordless 4-path on positions 0..k, or None, by a middle-edge scan.

    Enumerates every ordered middle edge (x1, x2) and matches endpoint
    candidates with bit operations; complete, but its witness is not the
    lexicographically least one.
    """
    for x1 in range(k + 1):
        a1 = rows[x1]
        for x2 in _bits(a1):
            a2 = rows[x2]
            c0 = a1 & ~a2 & ~(1 << x2)
            c3 = a2 & ~a1 & ~(1 << x1)
            if not (c0 and c3):
                continue
            for x0 in _bits(c0):
                rest = c3 & ~rows[x0] & ~(1 << x0)
                if rest:
                    return (x0, x1, x2, (rest & -rest).bit_length() - 1)
    return None


def all_pairs_k22(rows):
    """``graphs.find_k22`` by pairing every position r with every later s."""
    for r, mr in enumerate(rows):
        mr &= ~(1 << r)
        if mr & (mr - 1):  # two or more neighbours
            for s in range(r + 1, len(rows)):
                common = mr & rows[s] & ~(1 << s)
                if common & (common - 1):
                    p = (common & -common).bit_length() - 1
                    common &= common - 1
                    return (p, (common & -common).bit_length() - 1, r, s)
    return None


def extension_levels(n, size_bound):
    """``levels[s - 1]``: every neither instance for ``n`` on s vertices, for
    s = 1..size_bound, each grown from the level below one host at a time.

    Deleting the last vertex of a neither instance leaves one, so level s+1
    is the K22-free extensions of level s by a vertex s, joined to s-1 and a
    subset of 0..s-2, that close no chordless n-path.
    """
    level = [(0,)] if n > 1 else []  # one vertex holds only a 1-path
    levels = [level]
    for _ in range(1, size_bound):
        level = [
            ext
            for rows in level
            for ext in _k22_free_extensions(rows)
            if find_chordless_positions(ext, n) is None
        ]
        levels.append(level)
    return levels


def _k22_free_extensions(rows):
    """Rows of every K22-free host adding vertex s = len(rows) to ``rows``.

    A C4 through the new vertex pairs it with a vertex holding two of its
    neighbours, so the extension stays K22-free exactly when no two of its
    neighbours share a neighbour.  Neighbours are added in increasing order,
    each one banning every vertex it shares a neighbour with.
    """
    s = len(rows)
    reach = [0] * s  # reach[v]: every vertex sharing a neighbour with v
    for v, row in enumerate(rows):
        for w in _bits(row):
            reach[v] |= rows[w]
    new_bit = 1 << s
    stack = [(0, 1 << (s - 1), reach[s - 1])]
    while stack:
        start, nbrs, banned = stack.pop()
        yield tuple(
            row | new_bit if nbrs >> v & 1 else row for v, row in enumerate(rows)
        ) + (nbrs,)
        for v in range(start, s - 1):
            if not banned >> v & 1:
                stack.append((v + 1, nbrs | 1 << v, banned | reach[v]))


def per_stage_no_chordless4(history):
    """"No chordless 4-path at any stage", scanning every stage on its own."""
    rows = history._rows
    for coding in history._codings:
        k = coding[-1]
        mask = (1 << (k + 1)) - 1
        if middle_edge_4path([r & mask for r in rows[: k + 1]], k) is not None:
            return False
    return True


def edges_from_rows(rows):
    """(x, y) pairs with x < y, in order, read off each row's binary string."""
    out = []
    for x, row in enumerate(rows):
        bits = bin(row)[:1:-1]  # bits[y] is bit y of row
        y = bits.find("1", x + 1)
        while y >= 0:
            out.append((x, y))
            y = bits.find("1", y + 1)
    return out


def sorted_edge_pairs(g):
    """Edges (u, v) with u < v, sorted, read off the set bits of ``g.rows``."""
    verts = g.vertices
    pairs = [(verts[i], verts[j]) for i, j in edges_from_rows(g.rows)]
    return sorted((u, v) if u < v else (v, u) for u, v in pairs)


def json_dumps_graph(g):
    """Graph JSON through the standard encoder: the bytes graph_json_parts must yield."""
    obj = {
        "vertices": sorted(g.vertices),
        "edges": [[u, v] for u, v in sorted_edge_pairs(g)],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dot_by_lines(g, name="G"):
    """DOT text joined from one line per vertex and per edge."""
    lines = ["graph %s {" % name]
    for v in sorted(g.vertices):
        lines.append("  %d;" % v)
    for u, v in sorted_edge_pairs(g):
        lines.append("  %d -- %d;" % (u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_from_json_obj_by_edge_list(obj):
    """Graph JSON loader that collects the edge list, then builds a Graph from it.

    The reference for the validation order and messages of graph_from_json_obj.
    """

    def entry(value, what):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidInputError("%s must be an integer: %r" % (what, value))
        return value

    def json_list(value):
        if not isinstance(value, list):
            raise InvalidInputError("expected a JSON list, got %r" % (value,))
        return value

    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise InvalidInputError("graph JSON needs 'vertices' and 'edges'")
    vertices = [entry(v, "graph JSON vertex") for v in json_list(obj["vertices"])]
    if vertices != sorted(set(vertices)):
        raise InvalidInputError("graph JSON vertices must be ascending, no duplicates")
    edges = []
    seen = set()
    for pair in json_list(obj["edges"]):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InvalidInputError("graph JSON edge must be a pair: %r" % (pair,))
        u = entry(pair[0], "graph JSON edge entry")
        v = entry(pair[1], "graph JSON edge entry")
        if not u < v:
            raise InvalidInputError("graph JSON edges must satisfy u < v: %r" % (pair,))
        if (u, v) in seen:
            raise InvalidInputError("duplicate edge %r" % (pair,))
        seen.add((u, v))
        edges.append((u, v))
    return graph(vertices, edges)


def naive_lattice_axioms(n, leq_pairs):
    """Partial order, bounds, meet/join existence by triple loops."""
    leq = set(leq_pairs)

    def le(a, b):
        return (a, b) in leq

    for x in range(n):
        if not le(x, x):
            return ("reflexive", (x,))
    for x in range(n):
        for y in range(n):
            if x != y and le(x, y) and le(y, x):
                return ("antisymmetric", (x, y))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if le(x, y) and le(y, z) and not le(x, z):
                    return ("transitive", (x, y, z))
    if not any(all(le(b, x) for x in range(n)) for b in range(n)):
        return ("bottom-exists", ())
    if not any(all(le(x, t) for x in range(n)) for t in range(n)):
        return ("top-exists", ())
    for x in range(n):
        for y in range(n):
            lower = [z for z in range(n) if le(z, x) and le(z, y)]
            if not any(all(le(w, g) for w in lower) for g in lower):
                return ("meet-exists", (x, y))
            upper = [z for z in range(n) if le(x, z) and le(y, z)]
            if not any(all(le(g, w) for w in upper) for g in upper):
                return ("join-exists", (x, y))
    return None


def meet_join_tables(lat):
    """Full n x n meet and join tables, ``meet[x][y]`` and ``join[x][y]``.

    The common lower bounds of x and y form a down-set whose greatest
    element g, if any, has exactly that down-set as ``below[g]``, so each
    entry is one dict lookup; joins use ``above``.  None marks a pair with
    no meet (or join).
    """
    greatest = {mask: g for g, mask in enumerate(lat.below)}.get
    least = {mask: g for g, mask in enumerate(lat.above)}.get
    meet = [[greatest(bx & b) for b in lat.below] for bx in lat.below]
    join = [[least(ax & a) for a in lat.above] for ax in lat.above]
    return meet, join


def naive_closure_and_rank(lat, generators):
    """Closure levels by recombining every pair of members per round."""
    meet, join = meet_join_tables(lat)
    current = 0
    for g in generators:
        current |= 1 << g
    levels = [current]
    while True:
        new = current
        members = [x for x in range(lat.n) if (current >> x) & 1]
        for x, y in itertools.combinations_with_replacement(members, 2):
            new |= 1 << meet[x][y]
            new |= 1 << join[x][y]
        if new == current:
            break
        levels.append(new)
        current = new
    return tuple(levels)


def rank_masks(levels):
    """Cumulative closure levels, as ``naive_closure_and_rank`` gives them,
    turned into the mask of each round's new elements, as ``RankTable`` keeps
    them."""
    return tuple(level & ~prev for level, prev in zip(levels, (0,) + levels[:-1]))


def naive_tree_levels(lat, ranks, depth):
    """Derivation-tree levels as node tuples, with producer sets from a
    literal triple loop.

    An element's rank is the index of the rank mask holding it.
    """
    meet, join = meet_join_tables(lat)
    rank = [
        next(k for k, level in enumerate(ranks.levels) if (level >> x) & 1)
        for x in range(lat.n)
    ]
    levels = [
        tuple((x,) for x in range(lat.n) if rank[x] == 0 and not lat.is_bound(x))
    ]
    for i in range(1, depth + 1):
        targets = [
            x for x in range(lat.n) if rank[x] == i and not lat.is_bound(x)
        ]
        lower = [a for a in range(lat.n) if rank[a] < i]
        producers = {x: set() for x in targets}
        for x in targets:
            for a in lower:
                for e in range(lat.n):
                    if meet[e][a] == x or join[e][a] == x:
                        producers[x].add(e)
        nodes = [
            node + (x,)
            for node in levels[i - 1]
            for x in targets
            if node[-1] in producers[x]
        ]
        levels.append(tuple(sorted(nodes)))
    return tuple(levels)


def tree_levels(tree):
    """``tree_levels(tree)[i]``: the nodes of level i as tuples, in order; every
    node is built, so this takes memory in the total length of the nodes."""
    levels = [tuple((x,) for x in tree.levels[0])]
    for lasts, parents in zip(tree.levels[1:], tree.parents[1:]):
        prefixes = levels[-1]
        levels.append(tuple(prefixes[j] + (x,) for x, j in zip(lasts, parents)))
    return tuple(levels)


def tree_nodes(tree):
    """Every node of a derivation tree as a tuple, level by level, in order."""
    for i, lasts in enumerate(tree.levels):
        for j in range(len(lasts)):
            yield tree.node(i, j)


def assert_tree_properties(lat, ranks, tree):
    """Raise StructuralError unless every node of ``tree`` has distinct
    entries, consecutive entries comparable and alternating atom/coatom, and
    its i-th entry at most the largest element of rank i, and unless every
    non-bound element of some rank ends a node.  Every node is checked whole,
    without trusting that its prefix is a checked node."""
    atoms, coatoms = lat.atom_mask, lat.coatom_mask
    bounds = [ranks.levels[i].bit_length() - 1 for i in range(len(tree.levels))]
    reached = 0
    for node in tree_nodes(tree):
        if len(set(node)) != len(node):
            raise StructuralError("tree node has repeated entries: %r" % (node,))
        for a, b in zip(node, node[1:]):
            if not comparable(lat, a, b):
                raise StructuralError(
                    "consecutive tree entries incomparable: %r in %r" % ((a, b), node)
                )
            if not ((atoms >> a) & (coatoms >> b) | (coatoms >> a) & (atoms >> b)) & 1:
                raise StructuralError(
                    "tree entries do not alternate atom/coatom: %r" % (node,)
                )
        for i, b in enumerate(node):
            if b > bounds[i]:  # the largest element of rank i
                raise StructuralError(
                    "node entry %d exceeds the rank-%d bound %d" % (b, i, bounds[i])
                )
        reached |= 1 << node[-1]
    for i in range(len(ranks.levels)):
        missed = ranks.levels[i] & (atoms | coatoms) & ~reached
        if missed:
            raise StructuralError(
                "element %d (rank %d) is not reachable in the tree"
                % ((missed & -missed).bit_length() - 1, i)
            )


def _order_error(axiom, witness):
    return LatticeAxiomError(
        "not a bounded partial order: %s %r" % (axiom, witness), axiom, witness
    )


def reference_order_masks(n, leq_pairs):
    """``lattices._order_masks`` by per-pair and per-row loops: the same
    ``(below, above)``, or the same first failed axiom and witness.  The
    antisymmetric witness is the first failing pair in the iteration order
    of the pair set, which is built here as it is there."""
    if n < 1:
        raise _order_error("nonempty", ())
    pairs = set((int(x), int(y)) for x, y in leq_pairs)
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise InvalidInputError("relation pair %r outside 0..%d" % ((x, y), n - 1))
    loops = set(x for x, y in pairs if x == y)
    if len(loops) < n:
        x = next(x for x in itertools.count() if x not in loops)
        raise _order_error("reflexive", (x,))
    below = [0] * n
    above = [0] * n
    for x, y in pairs:
        below[y] |= 1 << x
        above[x] |= 1 << y
    for x, y in pairs:
        if x != y and (below[x] >> y) & 1:
            raise _order_error("antisymmetric", (x, y))
    for x in range(n):
        # transitive: anything below a z below x must be below x
        acc = 0
        for z in _bits(below[x]):
            acc |= below[z]
        extra = acc & ~below[x]
        if extra:
            w = (extra & -extra).bit_length() - 1
            z = next(z for z in _bits(below[x]) if (below[z] >> w) & 1)
            raise _order_error("transitive", (w, z, x))
    full = (1 << n) - 1
    if not any(above[x] == full for x in range(n)):
        raise _order_error("bottom-exists", ())
    if not any(below[x] == full for x in range(n)):
        raise _order_error("top-exists", ())
    return below, above


# ---------------------------------------------------------------------------
# Input generators


def random_graph(rng, size, p=0.4):
    edges = [e for e in itertools.combinations(range(size), 2) if rng.random() < p]
    return graph(range(size), edges)


def path_graph(n):
    """The plain path 0 - 1 - ... - (n-1)."""
    return graph(range(n), [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return graph(range(n), itertools.combinations(range(n), 2))


def pattern_graph(pattern):
    """The pattern itself as a Graph (a-side on 0..k-1, b-side on k..2k-1)."""
    k = pattern.k
    return graph(range(2 * k), [(n, k + m) for n, m in pattern.edges()])


@st.composite
def vertices_and_edges(draw):
    """Distinct naturals in any order (gaps and huge names included, 41 never),
    and edges among them in either orientation."""
    verts = draw(st.lists(st.integers(0, 40) | st.integers(2**64, 2**70), unique=True,
                          max_size=9))
    pairs = list(itertools.combinations(verts, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return verts, [draw(st.sampled_from([(u, v), (v, u)])) for u, v in edges]


def graphs():
    """Graphs over ``vertices_and_edges`` with the vertices sorted, since the
    writers take ascending vertices only."""
    return vertices_and_edges().map(lambda case: graph(sorted(case[0]), case[1]))


@st.composite
def graph_json_objects(draw):
    """Decoded graph JSON, mostly well shaped, often with errors that compete.

    Vertices may be negative, unsorted or not integers; edge pairs may be
    misshapen, reversed, repeated or reach outside the vertex list; a key
    may be missing.  Each odd shape is drawn only now and then, so most
    objects get deep into the edge list.
    """
    odd = st.integers(-2, 6) | st.sampled_from([True, 1.0, "1", None, []])

    def sometimes(usual, *rare):
        return draw(st.one_of(*rare) if draw(st.integers(0, 5)) == 5 else usual)

    vertices = sometimes(
        st.lists(st.integers(-1, 6), unique=True, max_size=7).map(sorted),
        st.lists(st.integers(-2, 6), max_size=6),
        st.lists(odd, max_size=5),
        odd,
    )
    edges = []
    for _ in range(draw(st.integers(0, 10))):
        edges.append(sometimes(
            st.lists(st.integers(-1, 7), min_size=2, max_size=2, unique=True).map(sorted),
            st.lists(st.integers(-1, 7), min_size=2, max_size=2),
            st.lists(odd, max_size=3),
            odd,
        ))
    obj = {"vertices": vertices, "edges": sometimes(st.just(edges), odd)}
    missing = sometimes(st.none(), st.sampled_from(["vertices", "edges"]))
    if missing is not None:
        del obj[missing]
    return obj


def iter_traceable_masks(size):
    """All traceable graphs on ``size`` vertices as adjacency bitmask lists.

    Fixed Hamiltonian path plus every chord subset, enumerated in Gray-code
    order so one chord is toggled per step.  Yields (masks, chord_bits), bit b
    standing for the b-th pair (i, j), j > i + 1, in lexicographic order; the
    masks list is reused between iterations and must not be stored.
    """
    masks = [0] * size
    for i in range(size - 1):
        masks[i] |= 1 << (i + 1)
        masks[i + 1] |= 1 << i
    slots = [(i, j) for i in range(size) for j in range(i + 2, size)]
    yield masks, 0
    prev_gray = 0
    for counter in range(1, 1 << len(slots)):
        gray = counter ^ (counter >> 1)
        changed = gray ^ prev_gray
        prev_gray = gray
        u, v = slots[changed.bit_length() - 1]
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        yield masks, gray


def masks_to_graph(masks, size):
    edges = []
    for u in range(size):
        above = masks[u] >> (u + 1)
        while above:
            bit = above & -above
            above ^= bit
            edges.append((u, u + 1 + bit.bit_length() - 1))
    return graph(range(size), edges)


def random_traceable_graph(rng, size, p=0.3):
    edges = set((i, i + 1) for i in range(size - 1))
    edges.update(
        e
        for e in itertools.combinations(range(size), 2)
        if e[1] > e[0] + 1 and rng.random() < p
    )
    return graph(range(size), sorted(edges))


def relabel(g, names):
    """``g`` with the vertex at position i renamed ``names[i]``, same stored order."""
    return graph(names, [(names[i], names[j]) for i, j in edges_from_rows(g.rows)])


def random_no_c5_host(rng, max_size=20, min_size=4):
    """Random traceable host with no chordless 5-path, by rejection."""
    size = rng.randint(min_size, max_size)
    while True:
        p = rng.choice([0.55, 0.7, 0.85])
        g = random_traceable_graph(rng, size, p)
        if find_chordless_path(g, 5) is None:
            return g


def staged_pipeline_host(stages=12):
    """The staged host of T stages, f a ``random.Random(0)`` permutation of
    0..T-1: a traceable cograph, so every fixed path has at most 2 edges.
    At the default T=12 it is the benchmark's fixed 43-vertex host."""
    f = random.Random(0).sample(range(stages), stages)
    return run(f, stages).state(stages)


def random_length3_lattice(rng, max_elements=30):
    """Random valid length-3 lattice: bounds, atoms, coatoms, sparse covers.

    Cover incidences are added only when they keep every coatom pair over at
    most one common atom, which is exactly what makes all meets and joins
    exist.
    """
    inner = rng.randint(2, max_elements - 2)
    na = rng.randint(1, inner - 1)
    nc = inner - na
    n = inner + 2
    bottom, top = 0, n - 1
    atoms = list(range(1, 1 + na))
    coatoms = list(range(1 + na, 1 + na + nc))
    pairs = {(x, x) for x in range(n)}
    pairs.update((bottom, x) for x in range(n))
    pairs.update((x, top) for x in range(n))
    below = {c: set() for c in coatoms}
    for a in atoms:
        for c in coatoms:
            if rng.random() >= 0.3:
                continue
            clash = any(
                a in below[c2] and (below[c] & below[c2])
                for c2 in coatoms
                if c2 != c
            )
            if not clash:
                below[c].add(a)
                pairs.add((a, c))
    return n, sorted(pairs)


def inclusion_order(rng, sets):
    """The distinct bitmask sets ``sets`` ordered by inclusion, each given a
    random code: ``(n, pairs)``."""
    sets = list(sets)
    rng.shuffle(sets)
    pairs = [(i, j) for i, a in enumerate(sets) for j, b in enumerate(sets) if a & ~b == 0]
    return len(sets), pairs


def random_closure_system(rng, k):
    """Random intersection-closed family of subsets of a k-set, full set
    included, as an inclusion order: a lattice of any length, whose meets
    are intersections and whose joins are the least members holding both."""
    family = {(1 << k) - 1}
    for _ in range(rng.randint(0, 2 * k)):
        s = rng.getrandbits(k)
        family |= {s & t for t in family}
    return inclusion_order(rng, family)


def random_bounded_poset(rng, max_elements=12):
    """Random bounded partial order: bottom 0, top n-1, and a transitively
    closed random order on the elements between, some of which are left
    comparable to the bounds alone (an atom that is also a coatom)."""
    n = rng.randint(2, max_elements)
    p = rng.choice([0.2, 0.4, 0.6])
    inner = range(1, n - 1)
    above = {x: {x} for x in inner}
    for x in reversed(inner):
        for y in range(x + 1, n - 1):
            if rng.random() < p:
                above[x] |= above[y]
    pairs = {(x, y) for x in inner for y in above[x]}
    pairs.update((0, x) for x in range(n))
    pairs.update((x, n - 1) for x in range(n))
    return n, sorted(pairs)


def brute_double_cover(poset):
    """Least pair of atoms under the least pair of coatoms sharing two, by a
    scan of coatom pairs in order: ``(x, y, u, v)`` or None."""
    atoms = poset.atoms()
    coatoms = poset.coatoms()
    for u, v in itertools.combinations(coatoms, 2):
        common = [x for x in atoms if leq(poset, x, u) and leq(poset, x, v)]
        if len(common) >= 2:
            return (common[0], common[1], u, v)
    return None


def pairwise_fence(lat, seq):
    """``lattices.validate_fence`` by its definition: an even number of
    distinct elements, each consecutive pair strictly ordered low-high-low,
    and no comparability between any two non-consecutive entries."""
    seq = tuple(seq)
    n = len(seq) - 1
    if n < 1 or n % 2 == 0:
        return False
    if len(set(seq)) != len(seq):
        return False
    for i in range(len(seq) - 1):
        lo, hi = (seq[i], seq[i + 1]) if i % 2 == 0 else (seq[i + 1], seq[i])
        if not (leq(lat, lo, hi) and lo != hi):
            return False
    for i, j in itertools.combinations(range(len(seq)), 2):
        if j - i >= 2 and (leq(lat, seq[i], seq[j]) or leq(lat, seq[j], seq[i])):
            return False
    return True


def generating_set(lat: FiniteLattice):
    """A generating set that keeps underivable elements and little else.

    Atoms under fewer than two coatoms and coatoms over fewer than two atoms
    cannot be produced by any meet or join, so they must be generators;
    whatever the closure still misses is added one element at a time.
    """
    atoms = set(lat.atoms())
    coatoms = set(lat.coatoms())
    gens = set()
    for a in atoms:
        if len([c for c in coatoms if c != a and leq(lat, a, c)]) < 2:
            gens.add(a)
    for c in coatoms:
        if len([a for a in atoms if a != c and leq(lat, a, c)]) < 2:
            gens.add(c)
    if not gens:
        gens = {min(atoms | coatoms)} if (atoms | coatoms) else {lat.bottom}
    while True:
        try:
            closure_and_rank(lat, sorted(gens))
            return sorted(gens)
        except CoverageError as exc:
            gens.add(exc.unreached[0])


def lattice_to_json(n, leq_pairs, generators=None):
    """Lattice JSON as the CLI reads it, pairs and generators sorted."""
    obj = {"n": n, "leq": [[x, y] for x, y in sorted(leq_pairs)]}
    if generators is not None:
        obj["generators"] = sorted(generators)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_lattice(path, n, leq_pairs, generators=None):
    write_parts(path, [lattice_to_json(n, leq_pairs, generators)])


def pipeline_capacity(lat, generators):
    """Largest odd fence length the derivation tree can structurally support:
    a fence with ``t + 1`` elements needs a branch at least that long.  0 when
    no branch has two entries."""
    if not check_length3(lat):
        raise InvalidInputError("fence extraction needs a length-3 lattice")
    tree = build_tree(lat, closure_and_rank(lat, generators))
    size = len(next(tree.branches_by_depth(), ()))  # entries on the deepest branch
    return max(0, size - 1 if size % 2 == 0 else size - 2)


def seeded_permutation(seed, length):
    values = list(range(length))
    random.Random(seed).shuffle(values)
    return tuple(values)
