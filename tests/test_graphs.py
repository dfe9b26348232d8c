"""Graph core: chordlessness, path search, pattern embeddings, traceability."""

import random

import pytest
from hypothesis import given, settings

from chordlab.errors import InvalidInputError
from chordlab.graphs import (
    K22,
    Embedding,
    Pattern,
    check_traceable,
    embedding_is_valid,
    find_chordless_path,
    find_chordless_positions,
    find_k22,
    is_chordless_positions,
    is_cograph,
    iter_bits,
)
from chordlab.lattices import BoundedPoset

from oracles import (
    all_pairs_k22,
    brute_chordless_path,
    brute_embedding_exists,
    complete_graph,
    embedding_is_valid_by_names,
    graph,
    has_edge,
    is_chordless,
    middle_edge_4path,
    path_graph,
    pattern_graph,
    position,
    random_graph,
    random_length3_lattice,
    relabel,
    sorted_edge_pairs,
    staged_pipeline_host,
    vertices_and_edges,
)


def test_graph_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        graph([0, 0, 1], [])
    with pytest.raises(InvalidInputError):
        graph([0, 1], [(0, 0)])
    with pytest.raises(InvalidInputError):
        graph([0, 1], [(0, 2)])


def test_adjacency_is_symmetric_and_irreflexive():
    g = random_graph(random.Random(0), 9, 0.5)
    for i, row in enumerate(g.rows):
        assert not (row >> i) & 1
        for j in range(len(g)):
            assert (row >> j) & 1 == (g.rows[j] >> i) & 1


@settings(max_examples=200, deadline=None)
@given(vertices_and_edges())
def test_rows_agree_with_brute_force_adjacency(case):
    verts, edges = case
    g = graph(verts, edges)
    adj = {frozenset(e) for e in edges}
    for u in verts + [41]:
        for v in verts + [41]:
            assert has_edge(g, u, v) == (frozenset((u, v)) in adj)
    for u in verts:
        assert g.rows[position(g, u)] == sum(
            1 << position(g, v) for v in verts if frozenset((u, v)) in adj
        )
    assert sorted_edge_pairs(g) == sorted((min(e), max(e)) for e in edges)
    assert g.edge_count() == len(edges)
    assert g.vertices == tuple(verts)


def test_unsorted_vertex_order_keeps_edges_sorted_by_name():
    g = graph([5, 2, 9], [(5, 9), (2, 5)])
    assert sorted_edge_pairs(g) == [(2, 5), (5, 9)]
    assert g.rows == (0b110, 0b001, 0b001)
    assert g.rows[position(g, 5)] == 1 << position(g, 2) | 1 << position(g, 9)
    assert not has_edge(g, 2, 9)


def test_is_chordless_examples():
    g = path_graph(4)
    assert is_chordless(g, (0, 1, 2, 3))
    c4 = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not is_chordless(c4, (0, 1, 2, 3))
    g2 = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 2)])
    assert not is_chordless(g2, (0, 1, 2, 3))


def test_is_chordless_rejects_bad_sequences():
    g = path_graph(3)
    with pytest.raises(InvalidInputError):
        is_chordless(g, (0, 1, 0))
    with pytest.raises(InvalidInputError):
        is_chordless(g, (0, 7))


def test_non_path_is_not_chordless():
    g = path_graph(4)
    assert not is_chordless(g, (0, 2))


def test_is_chordless_positions_reads_the_rows():
    rows = path_graph(4).rows
    assert is_chordless_positions(rows, (0, 1, 2, 3))
    assert is_chordless_positions(rows, (2, 1))
    assert not is_chordless_positions(rows, (0, 1, 0))  # a repeat is no path
    assert not is_chordless_positions(rows, (0, 2))
    c4 = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not is_chordless_positions(c4.rows, (0, 1, 2, 3))


def test_find_chordless_path_examples():
    assert find_chordless_path(path_graph(5), 5) == (0, 1, 2, 3, 4)
    assert find_chordless_path(complete_graph(4), 3) is None
    g2 = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 2)])
    assert find_chordless_path(g2, 4) is None
    assert find_chordless_path(path_graph(3), 1) == (0,)
    with pytest.raises(InvalidInputError):
        find_chordless_path(path_graph(3), 0)


def test_chordless_search_is_not_bounded_by_the_recursion_limit():
    rows = path_graph(1_200).rows
    assert find_chordless_positions(rows, 1_100) == tuple(range(1_100))


def test_chordless_search_longer_than_the_host_allocates_nothing():
    # a path longer than the host is refused before any per-vertex state
    assert find_chordless_positions((0,), 10**9) is None
    assert find_chordless_positions(path_graph(3).rows, 4) is None


def test_find_chordless_path_agrees_with_brute_force():
    rng = random.Random(11)
    for _ in range(200):
        size = rng.randint(1, 7)
        g = random_graph(rng, size, rng.choice([0.2, 0.4, 0.6]))
        for n in range(1, size + 1):
            mine = find_chordless_path(g, n)
            brute = brute_chordless_path(g, n)
            assert mine == brute  # the lexicographically least witness
            if mine is not None:
                assert is_chordless(g, mine)


def test_chordless_reversal_closure():
    rng = random.Random(5)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 8), 0.4)
        p = find_chordless_path(g, rng.randint(2, 4))
        if p is not None:
            assert is_chordless(g, tuple(reversed(p)))


def test_find_k22_examples():
    c4 = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert find_k22(c4.rows, c4.rows) == (1, 3, 0, 2)
    g2 = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 2)])
    assert find_k22(g2.rows, g2.rows) is None
    k4, k3 = complete_graph(4).rows, complete_graph(3).rows
    assert find_k22(k4, k4) == (2, 3, 0, 1)
    assert find_k22(k3, k3) is None
    assert find_k22((), ()) is None


def test_find_k22_is_the_least_brute_force_copy():
    # The least injection of a0, a1, b0, b1 by position is the kernel's
    # (r, s, p, q); half the hosts have non-ascending vertex names.
    rng = random.Random(23)
    for trial in range(300):
        size = rng.randint(0, 7)
        g = random_graph(rng, size, rng.choice([0.3, 0.5, 0.7]))
        if trial % 2:
            g = relabel(g, rng.sample(range(50), size))
        brute = brute_embedding_exists(g, K22)
        found = find_k22(g.rows, g.rows)
        if brute is None:
            assert found is None
        else:
            a0, a1, b0, b1 = (position(g, brute[name]) for name in K22.vertex_names)
            assert found == (b0, b1, a0, a1)


def test_find_k22_equals_the_all_pairs_scan():
    # asymmetric rows with self bits; only rows of two or more bits are paired
    rng = random.Random(29)
    found = 0
    for _ in range(3000):
        size = rng.randint(0, 12)
        p = rng.choice([0.1, 0.25, 0.4])
        rows = [
            sum(1 << j for j in range(size) if rng.random() < p) for _ in range(size)
        ]
        witness = find_k22(rows, _transpose(rows))
        assert witness == all_pairs_k22(rows)
        found += witness is not None
    assert 300 < found < 2700


def _transpose(rows):
    """``cols[p]``: the mask of the rows that hold p."""
    return [
        sum(1 << r for r, row in enumerate(rows) if (row >> p) & 1) for p in range(len(rows))
    ]


def test_find_k22_on_symmetric_rows_equals_the_all_pairs_scan():
    # loop-free symmetric rows pass themselves as their columns
    rng = random.Random(41)
    found = 0
    for _ in range(600):
        size = rng.randint(0, 40)
        g = random_graph(rng, size, rng.choice([0.03, 0.08, 0.3, 0.7, 0.95]))
        witness = find_k22(g.rows, g.rows)
        assert witness == all_pairs_k22(g.rows)
        found += witness is not None
    assert 100 < found < 500


def test_find_k22_on_staged_hosts_equals_the_all_pairs_scan():
    # staged hosts are dense cographs with a K22 among their first rows
    for stages in range(12, 51, 2):
        rows = staged_pipeline_host(stages).rows
        witness = find_k22(rows, rows)
        assert witness is not None and witness == all_pairs_k22(rows)


def test_find_k22_on_length3_incidences_equals_the_all_pairs_scan():
    # the lattice's coatom rows with ``above`` as columns, and its atom rows
    # with ``below``, on lattices and on copies with a planted double cover
    rng = random.Random(43)
    planted = 0
    for _ in range(300):
        n, pairs = random_length3_lattice(rng, 30)
        poset = BoundedPoset(n, pairs)
        atoms, coatoms = poset.atom_mask, poset.coatom_mask
        us = [u for u in iter_bits(coatoms) if (poset.below[u] & atoms).bit_count() >= 2]
        if len(us) >= 2 and rng.random() < 0.5:
            u, v = rng.sample(us, 2)
            xs = rng.sample(list(iter_bits(poset.below[u] & atoms)), 2)
            pairs = sorted(set(pairs) | {(x, v) for x in xs})
            poset = BoundedPoset(n, pairs)
            atoms, coatoms = poset.atom_mask, poset.coatom_mask
        down = [b & atoms if (coatoms >> u) & 1 else 0 for u, b in enumerate(poset.below)]
        up = [a & coatoms if (atoms >> x) & 1 else 0 for x, a in enumerate(poset.above)]
        witness = find_k22(down, poset.above)
        assert witness == all_pairs_k22(down)
        assert find_k22(up, poset.below) == all_pairs_k22(up)
        planted += witness is not None
    assert 50 < planted < 250


def test_pattern_graphs():
    a3 = pattern_graph(Pattern("A", 3))
    assert len(a3) == 6 and a3.edge_count() == 6
    k33 = pattern_graph(Pattern("Kkk", 3))
    assert k33.edge_count() == 9
    k22 = pattern_graph(K22)
    assert len(k22) == 4 and k22.edge_count() == 4


def test_a_pattern_edges_subset_of_kkk():
    assert set(Pattern("A", 4).edges()) <= set(Pattern("Kkk", 4).edges())


def test_embedding_image_is_read_in_vertex_name_order():
    # in K7 every image of distinct vertices keeps every pattern edge, so
    # only the image's length and distinctness can make one invalid
    host = complete_graph(7)
    cases = [
        (K22, ("a0", "a1", "b0", "b1")),
        (Pattern("A", 3), ("a0", "a1", "a2", "b0", "b1", "b2")),
        (Pattern("Kkk", 2), ("a0", "a1", "b0", "b1")),
    ]
    for pattern, names in cases:
        image = tuple(range(6, 6 - len(names), -1))
        emb = Embedding(pattern, image)
        assert pattern.vertex_names == names
        assert list(emb.assignment.items()) == list(zip(names, image))
        assert embedding_is_valid(host.rows, emb)
        assert not embedding_is_valid(host.rows, Embedding(pattern, image[:-1]))
        assert not embedding_is_valid(host.rows, Embedding(pattern, image + (0,)))
        # a1 repeats a0: no pattern edge joins them, so every edge is kept
        repeated = image[:1] * 2 + image[2:]
        place = Embedding(pattern, repeated).assignment
        assert all(has_edge(host, place["a%d" % n], place["b%d" % m])
                   for n, m in pattern.edges())
        assert not embedding_is_valid(host.rows, Embedding(pattern, repeated))


def test_embedding_check_on_positions_matches_the_name_oracle():
    # hosts with gapped names, ascending or descending; position -1 and
    # position size lie outside the host, and their names are no vertex
    rng = random.Random(31)
    kinds = set()
    for trial in range(1500):
        size = rng.randint(2, 8)
        names = sorted(rng.sample(range(3 * size), size), reverse=trial % 2 == 1)
        g = relabel(random_graph(rng, size, rng.choice([0.6, 0.9, 1.0])), names)
        pattern = rng.choice([K22, Pattern("A", rng.randint(1, 3)),
                              Pattern("Kkk", rng.randint(1, 3))])
        length = 2 * pattern.k + rng.choice([-1, 0, 0, 0, 0, 1])
        image = tuple(rng.randint(-1, size) if rng.random() < 0.05 else rng.randrange(size)
                      for _ in range(length))
        name = {**dict(enumerate(names)), -1: 3 * size, size: 3 * size + 1}
        valid = embedding_is_valid(g.rows, Embedding(pattern, image))
        assert valid == embedding_is_valid_by_names(
            g, Embedding(pattern, tuple(name[p] for p in image)))
        if length < 2 * pattern.k:
            kinds.add("short")
        elif length > 2 * pattern.k:
            kinds.add("long")
        elif len(set(image)) < length:
            kinds.add("repeated")
        elif not all(0 <= p < size for p in image):
            kinds.add("outside")
        else:
            kinds.add("valid" if valid else "missing an edge")
    assert kinds == {"short", "long", "repeated", "outside", "missing an edge", "valid"}


def test_check_traceable():
    assert check_traceable(path_graph(4))
    assert not check_traceable(graph([0, 1], []))
    assert check_traceable(graph([0], []))
    # order matters: same edges, reordered vertex list
    g = graph([0, 2, 1], [(0, 1), (1, 2)])
    assert not check_traceable(g)


def test_cotree_verdict_agrees_with_both_4path_searches():
    rng = random.Random(8)
    seen = set()
    for _ in range(3000):
        size = rng.randint(0, 10)
        rows = list(random_graph(rng, size, rng.choice([0.2, 0.4, 0.5, 0.6, 0.8])).rows)
        verdict = is_cograph(rows)
        assert verdict == (find_chordless_positions(rows, 4) is None)
        assert verdict == (middle_edge_4path(rows, size - 1) is None)
        seen.add(verdict)
    assert seen == {True, False}
