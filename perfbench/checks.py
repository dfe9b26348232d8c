"""Independent checks of chordlab's outputs.

Nothing here imports chordlab: every fact is recomputed from the raw inputs
the benchmark generated (edge lists, order pairs), so a bug in one of
chordlab's own checkers cannot hide a wrong answer.  Each check returns None
when the output is correct, else a one-line description of the first problem.
"""

from __future__ import annotations

import itertools
import json


def masks_from_edges(size: int, edges) -> list:
    """Adjacency bitmasks over vertices 0..size-1."""
    masks = [0] * size
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _adjacent(masks, u, v) -> bool:
    return 0 <= u < len(masks) and 0 <= v < len(masks) and (masks[u] >> v) & 1 == 1


def chordless_path_error(masks, path, n: int):
    """Is ``path`` a chordless path on exactly ``n`` vertices of the host?"""
    path = list(path)
    if len(path) != n:
        return "path %r has %d vertices, want %d" % (path, len(path), n)
    if len(set(path)) != n or any(not 0 <= v < len(masks) for v in path):
        return "path %r repeats a vertex or leaves the host" % (path,)
    for i, j in itertools.combinations(range(n), 2):
        if _adjacent(masks, path[i], path[j]) != (j == i + 1):
            kind = "missing edge" if j == i + 1 else "chord"
            return "path %r: %s between %d and %d" % (path, kind, path[i], path[j])
    return None


def k22_error(masks, assignment: dict):
    """Is the a0, a1, b0, b1 assignment a K22 copy (4-cycle) in the host?"""
    if set(assignment) != {"a0", "a1", "b0", "b1"}:
        return "K22 assignment has names %r" % (sorted(assignment),)
    image = [assignment[k] for k in ("a0", "a1", "b0", "b1")]
    if len(set(image)) != 4:
        return "K22 image %r repeats a vertex" % (image,)
    for a in ("a0", "a1"):
        for b in ("b0", "b1"):
            if not _adjacent(masks, assignment[a], assignment[b]):
                return "K22 image %r misses edge %s-%s" % (image, a, b)
    return None


def find_chordless_path(masks, n: int):
    """Some chordless n-vertex path over the masks, or None (plain DFS)."""
    size = len(masks)

    def extend(path, banned):
        if len(path) == n:
            return path
        last = path[-1]
        for w in range(size):
            if (masks[last] >> w) & 1 and w not in path and not (banned >> w) & 1:
                found = extend(path + [w], banned | masks[last])
                if found:
                    return found
        return None

    for start in range(size):
        found = extend([start], 0)
        if found:
            return found
    return None


def has_k22(masks) -> bool:
    """Two vertices with two common neighbours."""
    for r, s in itertools.combinations(range(len(masks)), 2):
        common = masks[r] & masks[s] & ~(1 << r) & ~(1 << s)
        if bin(common).count("1") >= 2:
            return True
    return False


def has_chordless4(masks) -> bool:
    """Exhaustive chordless 4-path test: every middle edge, bit arithmetic."""
    for x1, a1 in enumerate(masks):
        for x2 in range(x1 + 1, len(masks)):
            if not (a1 >> x2) & 1:
                continue
            a2 = masks[x2]
            ends1 = a1 & ~a2 & ~(1 << x2)
            ends2 = a2 & ~a1 & ~(1 << x1)
            while ends1 and ends2:
                bit = ends1 & -ends1
                ends1 ^= bit
                x0 = bit.bit_length() - 1
                if ends2 & ~masks[x0]:
                    return True
    return False


def increasing_paths(masks) -> dict:
    """(x, y) -> the lexicographically least shortest increasing path, x < y.

    An increasing path visits vertices in increasing order.  Every pair of a
    traceable host has one, since (x, x+1, ..., y) is such a path.
    """
    size = len(masks)
    paths = {}
    for y in range(size):
        # dist[x]: fewest edges of an increasing path from x up to y.
        dist = {y: 0}
        for x in range(y - 1, -1, -1):
            ups = [dist[w] for w in range(x + 1, y + 1) if (masks[x] >> w) & 1]
            dist[x] = 1 + min(ups)
        for x in range(y):
            path = [x]
            while path[-1] != y:
                cur = path[-1]
                path.append(next(w for w in range(cur + 1, y + 1)
                                 if (masks[cur] >> w) & 1 and dist[w] == dist[cur] - 1))
            paths[(x, y)] = path
    return paths


def four_coloring(masks, n: int) -> dict:
    """Colour of every 4-subset x < y < u < v for the n-path pipeline.

    The colour is the least pair (i, j), with i and j at most n-2 and within
    the fixed paths of (x, y) and (u, v), such that the i-th vertex of the
    first path is adjacent to the j-th of the second; else the residual "K".
    """
    paths = increasing_paths(masks)
    colors = {}
    for quad in itertools.combinations(range(len(masks)), 4):
        pxy, puv = paths[quad[:2]], paths[quad[2:]]
        colors[quad] = next(((i, j) for i in range(min(n - 1, len(pxy)))
                             for j in range(min(n - 1, len(puv)))
                             if _adjacent(masks, pxy[i], puv[j])), "K")
    return colors


def find_homogeneous(colors: dict, size: int, q: int):
    """Some q-subset whose 4-subsets all share one colour, or None."""
    chosen = []

    def extend(start, color):
        if len(chosen) == q:
            return True
        for v in range(start, size - (q - len(chosen)) + 1):
            c = color
            ok = True
            for trip in itertools.combinations(chosen, 3):
                got = colors[trip + (v,)]
                if c is None:
                    c = got
                elif got != c:
                    ok = False
                    break
            if ok:
                chosen.append(v)
                if extend(v + 1, c):
                    return True
                chosen.pop()
        return False

    return list(chosen) if extend(0, None) else None


def homogeneous_error(colors: dict, subset, color, q: int):
    """Is ``subset`` q increasing vertices whose 4-subsets all have ``color``?"""
    subset = list(subset)
    if len(subset) != q or subset != sorted(set(subset)):
        return "certificate %r is not %d increasing vertices" % (subset, q)
    color = color if color == "K" else tuple(color)
    for quad in itertools.combinations(subset, 4):
        if colors.get(quad) != color:
            return "certificate %r: 4-subset %r has colour %r, not %r" % (
                subset, quad, colors.get(quad), color)
    return None


def graph_file_error(path, final_k: int, edge_count: int):
    """The written graph JSON: vertices 0..final_k, sorted unique edges, traceable.

    Returns (error, masks); masks are None when the file is malformed.
    """
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("vertices") != list(range(final_k + 1)):
        return "graph file vertices are not 0..%d" % final_k, None
    edges = obj.get("edges")
    if not isinstance(edges, list) or len(edges) != edge_count:
        return "graph file has %s edges, report says %d" % (
            len(edges) if isinstance(edges, list) else "no", edge_count), None
    prev = None
    consecutive = 0
    for pair in edges:
        u, v = pair
        if not 0 <= u < v <= final_k or (prev is not None and (u, v) <= prev):
            return "graph file edge %r out of range or out of order" % (pair,), None
        prev = (u, v)
        consecutive += v == u + 1
    if consecutive != final_k:
        return "graph file is not traceable in vertex order", None
    return None, masks_from_edges(final_k + 1, edges)


def below_masks(n: int, pairs):
    """below[y] = bitmask of x with x <= y, straight from the listed pairs."""
    below = [0] * n
    for x, y in pairs:
        below[y] |= 1 << x
    return below


def fence_error(below, seq, target: int):
    """x0 < x1 > x2 < ... with no comparability between non-neighbours."""
    seq = list(seq)
    if len(seq) != target + 1 or len(set(seq)) != len(seq):
        return "fence %r: want %d distinct elements" % (seq, target + 1)

    def lt(a, b):
        return a != b and (below[b] >> a) & 1 == 1

    for i in range(len(seq) - 1):
        lo, hi = (seq[i], seq[i + 1]) if i % 2 == 0 else (seq[i + 1], seq[i])
        if not lt(lo, hi):
            return "fence %r does not alternate at position %d" % (seq, i)
    for i, j in itertools.combinations(range(len(seq)), 2):
        if j - i >= 2 and (lt(seq[i], seq[j]) or lt(seq[j], seq[i])):
            return "fence %r: %d and %d are comparable" % (seq, seq[i], seq[j])
    return None


def atoms_and_coatoms(n: int, below):
    """Atoms and coatoms of a bounded order given by its ``below`` masks."""
    full = (1 << n) - 1
    bottom = next(x for x in range(n) if all((below[y] >> x) & 1 for y in range(n)))
    top = next(x for x in range(n) if below[x] == full)
    atoms = [x for x in range(n) if x not in (bottom, top)
             and below[x] == (1 << x) | (1 << bottom)]
    above_count = [sum((below[y] >> x) & 1 for y in range(n)) for x in range(n)]
    coatoms = [x for x in range(n) if x not in (bottom, top) and above_count[x] == 2]
    return atoms, coatoms
