"""Independent brute-force oracles and input generators for the test suite.

Everything here recomputes results the dumb way (permutations, full subset
scans, literal definition loops) so the optimized implementations have
something honest to be compared against.
"""

import itertools
import json
import random

from hypothesis import strategies as st

from chordlab.graphs import Graph
from chordlab.lattices import FiniteLattice, closure_and_rank
from chordlab.ramsey import FourColoring
from chordlab.errors import CoverageError, InvalidInputError


def brute_chordless_path(g, n):
    """First chordless n-path by scanning every vertex permutation."""
    for p in itertools.permutations(g.vertices, n):
        if not all(g.has_edge(p[i], p[i + 1]) for i in range(n - 1)):
            continue
        if any(
            g.has_edge(p[i], p[j])
            for i in range(n)
            for j in range(i + 2, n)
        ):
            continue
        return p
    return None


def brute_embedding_exists(g, pattern):
    """Scan every injection of the pattern vertices into the host."""
    names = pattern.vertex_names
    edges = pattern.edges()
    for image in itertools.permutations(g.vertices, len(names)):
        assign = dict(zip(names, image))
        if all(g.has_edge(assign[a], assign[b]) for a, b in edges):
            return assign
    return None


def brute_homogeneous(coloring, vertices, q):
    """First monochromatic q-subset by scanning all combinations."""
    for subset in itertools.combinations(sorted(vertices), q):
        colors = {coloring.assignment[quad] for quad in itertools.combinations(subset, 4)}
        if len(colors) == 1:
            return subset, colors.pop()
    return None


def coloring_from_assignment(n, size, assignment):
    """A ``FourColoring`` holding ``assignment``, a ``{4-subset: color}`` dict
    over positions ``0..size-1``."""
    masks = {}
    for (a, b, u, v), color in assignment.items():
        by_color = masks.setdefault((a, b, u), {})
        by_color[color] = by_color.get(color, 0) | 1 << v
    return FourColoring(n=n, size=size, masks=masks)


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
    return FourColoring(n=n, size=size, masks=masks)


def naive_fixed_path(g, x, y):
    """Least minimal increasing path from x to y in the stored order, found by
    scanning the in-between vertex subsets by size, in order."""
    verts = g.vertices
    inner = verts[verts.index(x) + 1:verts.index(y)]
    for k in range(len(inner) + 1):
        for mid in itertools.combinations(inner, k):
            p = (x,) + mid + (y,)
            if all(g.has_edge(a, b) for a, b in zip(p, p[1:])):
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
             if g.has_edge(pxy[i], puv[j])),
            "K",
        )
    return colors


def literal_stage_rule(f, stages):
    """The construction kept as block lists and an edge set, both cases spelled out.

    Returns ``(rows, snapshots)``: neighbour bitmask rows of the final graph
    and one ``(k, coding)`` pair per stage, as ``StagedHistory`` keeps them.
    """
    blocks = [[0]]
    edges = set()
    k = 0
    snapshots = [(0, (0,))]
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
        snapshots.append((k, tuple(block[-1] for block in blocks)))
    rows = [0] * (k + 1)
    for x, y in edges:
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    return rows, snapshots


def naive_stage_lemmas(state):
    """The five stage invariants, written as literal loops.

    Returns ``(lemma, witness)`` failures; every lemma that fails has its
    lexicographically least witness among them.
    """
    blocks = [list(b) for b in state.blocks()]
    coding = state.coding
    k = state.k
    g = state.graph()
    failures = []
    for j, block in enumerate(blocks):
        c = coding[j]
        for x in block:
            if x > c:
                failures.append(("greatest", (j, x, c)))
            if x != c and not g.has_edge(x, c):
                failures.append(("greatest", (j, x, c)))
    for i, j in itertools.combinations(range(len(coding)), 2):
        if not g.has_edge(coding[i], coding[j]):
            failures.append(("codeconnection", (coding[i], coding[j])))
    for d in range(k):
        if not g.has_edge(d, d + 1):
            failures.append(("tracing", (d, d + 1)))
    block_of = {}
    for j, block in enumerate(blocks):
        for x in block:
            block_of[x] = j
    coding_set = set(coding)
    edges = g.edges()
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
        for z in blocks[j]:
            if z != x and not g.has_edge(x, z):
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


def per_stage_no_chordless4(history):
    """"No chordless 4-path at any stage", scanning every stage on its own."""
    rows = history._rows
    for k, _ in history._snapshots:
        mask = (1 << (k + 1)) - 1
        if middle_edge_4path([r & mask for r in rows[: k + 1]], k) is not None:
            return False
    return True


def edges_from_rows(rows):
    """(x, y) pairs with x < y, read off the rows one bit at a time."""
    return [
        (x, y)
        for x, row in enumerate(rows)
        for y in range(x + 1, len(rows))
        if (row >> y) & 1
    ]


def sorted_edge_pairs(g):
    """Edges (u, v) with u < v, sorted, read off ``g.rows`` one bit at a time."""
    verts = g.vertices
    return sorted(
        (min(verts[i], verts[j]), max(verts[i], verts[j]))
        for i, j in edges_from_rows(g.rows)
    )


def json_dumps_graph(g):
    """Graph JSON through the standard encoder: the bytes graph_to_json must write."""
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
    return Graph(vertices, edges)


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


def naive_tree_levels(lat, ranks, depth):
    """Derivation-tree levels, with producer sets from a literal triple loop.

    An element's rank is the index of the first level mask holding it.
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


# ---------------------------------------------------------------------------
# Input generators


def random_graph(rng, size, p=0.4):
    edges = [e for e in itertools.combinations(range(size), 2) if rng.random() < p]
    return Graph(range(size), edges)


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
    return vertices_and_edges().map(lambda case: Graph(*case))


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
    return Graph(range(size), edges)


def random_traceable_graph(rng, size, p=0.3):
    edges = set((i, i + 1) for i in range(size - 1))
    edges.update(
        e
        for e in itertools.combinations(range(size), 2)
        if e[1] > e[0] + 1 and rng.random() < p
    )
    return Graph(range(size), sorted(edges))


def relabel(g, names):
    """``g`` with the vertex at position i renamed ``names[i]``, same stored order."""
    return Graph(names, [(names[g.position(u)], names[g.position(v)]) for u, v in g.edges()])


def random_no_c5_host(rng, max_size=20, min_size=4):
    """Random traceable host with no chordless 5-path, by rejection."""
    from chordlab.graphs import find_chordless_path

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
    from chordlab.construction import run

    f = random.Random(0).sample(range(stages), stages)
    return run(f, stages).state(stages).graph()


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
        common = [x for x in atoms if poset.leq(x, u) and poset.leq(x, v)]
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
        if not (lat.leq(lo, hi) and lo != hi):
            return False
    for i, j in itertools.combinations(range(len(seq)), 2):
        if j - i >= 2 and (lat.leq(seq[i], seq[j]) or lat.leq(seq[j], seq[i])):
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
        if len([c for c in coatoms if c != a and lat.leq(a, c)]) < 2:
            gens.add(a)
    for c in coatoms:
        if len([a for a in atoms if a != c and lat.leq(a, c)]) < 2:
            gens.add(c)
    if not gens:
        gens = {min(atoms | coatoms)} if (atoms | coatoms) else {lat.bottom}
    while True:
        try:
            closure_and_rank(lat, sorted(gens))
            return sorted(gens)
        except CoverageError as exc:
            gens.add(exc.unreached[0])


def seeded_permutation(seed, length):
    values = list(range(length))
    random.Random(seed).shuffle(values)
    return tuple(values)
