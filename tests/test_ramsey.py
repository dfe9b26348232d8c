"""Dichotomy pipeline: path tables, coloring, homogeneous search, extraction."""

import itertools
import math
import random
import tracemalloc
from collections.abc import Mapping

import pytest

from chordlab import ramsey
from chordlab.errors import (
    ExtractionError,
    InvalidInputError,
    ResourceLimitError,
    StructuralError,
)
from chordlab.graphs import (
    K22,
    check_traceable,
    find_chordless_path,
    find_chordless_positions,
    find_k22,
)
from chordlab.ramsey import (
    RESIDUAL,
    HomogeneousCertificate,
    build_coloring,
    concatenated_path,
    dichotomy,
    estimate_min_m,
    extract_chordless,
    extract_k22,
    find_homogeneous,
    homogeneous_size_for,
    proof_pipeline,
    tower,
)

from oracles import (
    brute_chordless_path,
    brute_embedding_exists,
    brute_homogeneous,
    coloring_from_assignment,
    dict_homogeneous_search,
    embedding_is_valid_by_names,
    extension_levels,
    graph,
    has_edge,
    is_chordless,
    iter_traceable_masks,
    masks_to_graph,
    naive_four_coloring,
    path_graph,
    position,
    quadwise_coloring,
    random_no_c5_host,
    random_traceable_graph,
    relabel,
    sorted_edge_pairs,
    staged_pipeline_host,
)


def build_increasing_paths(g):
    """The library's fixed-path table, each path checked chordless by the
    oracle: the library proves that and does not check it."""
    table = ramsey.build_increasing_paths(g)
    assert all(is_chordless(g, [g.vertices[i] for i in p]) for p in table.values())
    return table


def test_table_plain_path():
    g = path_graph(4)
    t = build_increasing_paths(g)
    assert t[0, 3] == (0, 1, 2, 3)
    assert len(t[0, 3]) - 1 == 3


def test_table_uses_shortcuts():
    g = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 2)])
    t = build_increasing_paths(g)
    assert t[0, 3] == (0, 2, 3)
    assert len(t[0, 3]) - 1 == 2
    # a direct edge is always the minimal increasing path
    for x, y in sorted_edge_pairs(g):
        assert t[x, y] == (x, y)


def test_table_requires_traceable_host():
    g = graph(range(5), [(0, 1), (1, 2), (2, 3), (0, 2), (1, 4)])
    assert not check_traceable(g)
    with pytest.raises(InvalidInputError):
        build_increasing_paths(g)


def test_table_paths_are_chordless_and_minimal():
    rng = random.Random(3)
    for _ in range(40):
        g = random_traceable_graph(rng, rng.randint(2, 10), 0.35)
        t = build_increasing_paths(g)
        for x, y in sorted(t):
            p = t[x, y]
            assert p[0] == x and p[-1] == y
            assert all(a < b for a, b in zip(p, p[1:]))
            assert is_chordless(g, p)
        # a chordless table path of n vertices would start a chordless
        # n-path, so a host with none needs at most n - 2 edges per pair
        for n in range(4, 8):
            if find_chordless_path(g, n) is None:
                assert all(len(p) <= n - 1 for p in t.values())


def test_color_edge_between_left_endpoints_is_00():
    g = graph(range(6), [(i, i + 1) for i in range(5)] + [(0, 2), (0, 3), (2, 4)])
    t = build_increasing_paths(g)
    assert build_coloring(g.rows, t, 4).assignment[0, 1, 2, 4][0:2] == (0, 0)  # edge(0, 2)


def test_color_residual_when_no_cross_edges():
    g = path_graph(8)
    t = build_increasing_paths(g)
    # {0,1,4,7}: fixed paths 0-1 and 4..7 share no cross edge
    assert build_coloring(g.rows, t, 9).assignment[0, 1, 4, 7] == RESIDUAL


def test_color_lexicographically_least_pair():
    g = graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (1, 4), (3, 5)])
    t = build_increasing_paths(g)
    quad = (0, 1, 2, 4)
    color = build_coloring(g.rows, t, 4).assignment[quad]
    x, y, u, v = quad
    i, j = color
    assert len(t[x, y]) - 1 >= i and len(t[u, v]) - 1 >= j
    assert has_edge(g, t[x, y][i], t[u, v][j])
    # nothing lexicographically smaller applies
    for i2 in range(i + 1):
        for j2 in range(j if i2 == i else len(t[u, v])):
            if i2 <= len(t[x, y]) - 1 and j2 <= len(t[u, v]) - 1:
                assert not has_edge(g, t[x, y][i2], t[u, v][j2])


def test_coloring_covers_every_4subset_once():
    rng = random.Random(8)
    g = random_traceable_graph(rng, 9, 0.4)
    if find_chordless_path(g, 5) is None:
        t = build_increasing_paths(g)
        col = build_coloring(g.rows, t, 5)
        quads = list(itertools.combinations(g.vertices, 4))
        assert set(col.assignment) == set(quads)
        side = 5 - 1
        names = set([(i, j) for i in range(side) for j in range(side)] + [RESIDUAL])
        assert len(names) == side * side + 1
        assert all(col.assignment[q] in names for q in quads)


def test_coloring_budget_is_checked_before_allocation(monkeypatch):
    g = path_graph(8)
    t = build_increasing_paths(g)
    monkeypatch.setattr(ramsey, "MAX_COLORED_QUADS", math.comb(8, 4))
    assert len(build_coloring(g.rows, t, 5).assignment) == math.comb(8, 4)
    monkeypatch.setattr(ramsey, "MAX_COLORED_QUADS", math.comb(8, 4) - 1)

    class Unread(Mapping):
        def __getitem__(self, *args):
            raise AssertionError("paths read before the budget check")

        __iter__ = __len__ = __getitem__

    with pytest.raises(ResourceLimitError):
        build_coloring(g.rows, Unread(), 5)


def test_coloring_rejects_paths_of_no_vertices():
    g = path_graph(5)
    with pytest.raises(InvalidInputError, match="path length must be >= 1"):
        build_coloring(g.rows, build_increasing_paths(g), 0)


def test_coloring_agrees_with_name_oracle_on_relabelled_hosts():
    # Gapped ascending names, and descending ones, where positions and names
    # order the vertices differently.
    rng = random.Random(41)
    for trial in range(60):
        size = rng.randint(4, 10)
        names = sorted(rng.sample(range(1, 10 * size), size), reverse=trial % 2 == 1)
        g = relabel(random_traceable_graph(rng, size, rng.choice([0.2, 0.4, 0.7])), names)
        n = rng.randint(2, 7)
        col = build_coloring(g.rows, build_increasing_paths(g), n)
        by_name = {tuple(names[p] for p in quad): c for quad, c in col.assignment.items()}
        assert by_name == naive_four_coloring(g, n)


def _oracle_items(g, n):
    """``naive_four_coloring`` keyed by positions, in its own order."""
    return [(tuple(position(g, v) for v in quad), c)
            for quad, c in naive_four_coloring(g, n).items()]


def test_coloring_items_match_the_oracle_in_combinations_order():
    # Keys, values and their order.  Sparse hosts have fixed paths longer
    # than n - 1 vertices, dense ones paths shorter than that.
    rng = random.Random(29)
    shorter = longer = False
    for _ in range(40):
        g = random_traceable_graph(rng, rng.randint(4, 10), rng.choice([0.1, 0.3, 0.6]))
        t = build_increasing_paths(g)
        quads = list(itertools.combinations(range(len(g)), 4))
        for n in range(1, 8):
            items = list(build_coloring(g.rows, t, n).assignment.items())
            assert [quad for quad, _ in items] == quads
            assert items == _oracle_items(g, n)
            shorter |= any(len(p) < n - 1 for p in t.values())
            longer |= any(len(p) > n - 1 for p in t.values())
    assert shorter and longer


def test_coloring_memory_does_not_grow_with_n():
    # No fixed path has more vertices than the host, so every n above its
    # size gives the n = size + 1 colouring, in the same small space.
    g = random_traceable_graph(random.Random(4), 12, 0.3)
    t = build_increasing_paths(g)
    tracemalloc.start()
    try:
        items = list(build_coloring(g.rows, t, 1_200).assignment.items())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert items == list(build_coloring(g.rows, t, 13).assignment.items())
    assert peak < 1_000_000


def test_coloring_items_match_the_oracle_on_the_staged_pipeline_host():
    g = staged_pipeline_host()
    t = build_increasing_paths(g)
    for n in range(1, 8):
        expected = _oracle_items(g, n)
        assert list(build_coloring(g.rows, t, n).assignment.items()) == expected
        if n == 5:  # the n of the benchmark's pipeline command on this host
            assert proof_pipeline(g, n).colors_used == len(set(c for _, c in expected))


def _gate_hosts():
    """Seeded random traceable hosts of 2 to 40 vertices, sparse to dense."""
    rng = random.Random(61)
    densities = (0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9)
    for size in range(2, 41):
        yield random_traceable_graph(rng, size, densities[size % len(densities)])


def test_coloring_masks_match_the_quadwise_oracle():
    shorter = longer = False
    for g in _gate_hosts():
        t = build_increasing_paths(g)
        for n in range(1, 9):
            assert build_coloring(g.rows, t, n).masks == quadwise_coloring(g.rows, t, n).masks
            shorter |= any(len(p) < n - 1 for p in t.values())
            longer |= any(len(p) > n - 1 for p in t.values())
    assert shorter and longer


def test_coloring_masks_match_the_quadwise_oracle_on_staged_hosts():
    # Their fixed paths have at most 3 vertices, so every n >= 4 gives the
    # n = 4 colouring; 5 is the n of the benchmark's pipeline command.
    for stages in range(12, 18):
        g = staged_pipeline_host(stages)
        t = build_increasing_paths(g)
        for n in (1, 2, 3, 5):
            assert build_coloring(g.rows, t, n).masks == quadwise_coloring(g.rows, t, n).masks


def test_coloring_masks_partition_each_window():
    complete = graph(range(12), itertools.combinations(range(12), 2))  # shares dicts
    for g in [*_gate_hosts(), staged_pipeline_host(), complete]:
        size = len(g)
        t = build_increasing_paths(g)
        for n in (1, 2, 5):
            masks = build_coloring(g.rows, t, n).masks
            assert set(masks) == {tri for tri in itertools.combinations(range(size), 3)
                                  if tri[2] < size - 1}
            for (a, b, u), by_color in masks.items():
                union = 0
                for mask in by_color.values():
                    assert mask and not mask & union
                    union |= mask
                assert union == (1 << size) - (2 << u)


def test_pipeline_checks_the_coloring_budget_before_the_table(monkeypatch):
    g = graph(range(85), itertools.combinations(range(85), 2))
    assert find_chordless_path(g, 5) is None

    def no_table(*args):
        raise AssertionError("table built before the budget check")

    monkeypatch.setattr(ramsey, "build_increasing_paths", no_table)
    with pytest.raises(ResourceLimitError):
        proof_pipeline(g, 5)


def test_pipeline_on_a_descending_vertex_order():
    g = graph(range(9, -1, -1), itertools.combinations(range(10), 2))
    trace = proof_pipeline(g, 5)
    assert trace.outcome == "k22"
    assert trace.certificate.subset == (9, 8, 7, 6, 5, 4, 3, 2)
    assert trace.certificate.color == (0, 0)
    assert trace.embedding.assignment == {"a0": 9, "a1": 7, "b0": 5, "b1": 3}
    assert embedding_is_valid_by_names(g, trace.embedding)


def test_find_homogeneous_constant_coloring():
    g = path_graph(8)
    t = build_increasing_paths(g)
    col = build_coloring(g.rows, t, 9)
    forced = coloring_from_assignment(len(g), {q: "X" for q in col.assignment})
    cert = find_homogeneous(forced, 5)
    assert cert.subset == (0, 1, 2, 3, 4)


def test_homogeneous_recheck_raises_a_structural_error():
    # A coloring whose quad (0, 1, 2, 3) changes colour after the search has
    # read it: the masks of triple (0, 1, 2) put v = 3 in "X" on the first
    # read and in "Y" on every later one.  The search accepts the subset and
    # the re-check must refuse it.
    class Fickle(dict):
        reads = 0

        def __getitem__(self, triple):
            if triple == (0, 1, 2):
                Fickle.reads += 1
                if Fickle.reads > 1:
                    return {"Y": 1 << 3}
            return super().__getitem__(triple)

    g = path_graph(4)
    col = build_coloring(g.rows, build_increasing_paths(g), 9)
    forced = coloring_from_assignment(len(g), {q: "X" for q in col.assignment})
    fickle = type(col)(size=len(g), masks=Fickle(forced.masks))
    with pytest.raises(StructuralError, match="invalid certificate"):
        find_homogeneous(fickle, 4)


def test_dichotomy_recheck_raises_a_structural_error(monkeypatch):
    c4 = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    monkeypatch.setattr(ramsey, "embedding_is_valid", lambda g, emb: False)
    with pytest.raises(StructuralError, match="invalid embedding"):
        dichotomy(c4, 4)


def test_find_homogeneous_single_deviation():
    g = path_graph(7)
    t = build_increasing_paths(g)
    col = build_coloring(g.rows, t, 9)
    assignment = {q: "X" for q in col.assignment}
    assignment[(0, 1, 2, 3)] = "Y"
    forced = coloring_from_assignment(len(g), assignment)
    assert find_homogeneous(forced, 7) is None
    assert find_homogeneous(forced, 6) is not None


def test_find_homogeneous_budget_counts_search_nodes(monkeypatch):
    # The search visits exactly 3,573 nodes on this host at q = 8.
    g = staged_pipeline_host()
    col = build_coloring(g.rows, build_increasing_paths(g), 5)
    monkeypatch.setattr(ramsey, "HOMOGENEOUS_BUDGET", 3_573)
    cert = find_homogeneous(col, 8)
    assert (cert.subset, cert.color) == ((0, 5, 16, 23, 26, 28, 29, 30), (1, 0))
    monkeypatch.setattr(ramsey, "HOMOGENEOUS_BUDGET", 3_572)
    with pytest.raises(ResourceLimitError, match="budget of 3572 search nodes"):
        find_homogeneous(col, 8)


def test_find_homogeneous_rejects_small_q():
    g = path_graph(6)
    col = build_coloring(g.rows, build_increasing_paths(g), 7)
    with pytest.raises(InvalidInputError):
        find_homogeneous(col, 3)


def test_find_homogeneous_agrees_with_brute_force():
    rng = random.Random(17)
    g = path_graph(10)
    t = build_increasing_paths(g)
    base = build_coloring(g.rows, t, 11)
    for _ in range(25):
        assignment = {q: rng.choice(["A", "B"]) for q in base.assignment}
        col = coloring_from_assignment(len(g), assignment)
        mine = find_homogeneous(col, 5)
        brute = brute_homogeneous(col, g.vertices, 5)
        assert (mine is None) == (brute is None)
        if mine is not None:
            assert mine.subset == brute[0] and mine.color == brute[1]


def test_find_homogeneous_matches_the_dict_search_and_its_budget(monkeypatch):
    # The mask search against the per-triple dict lookups it replaced: the
    # same certificate, and the same count of search nodes, since a budget
    # of the dict search's count passes and one less raises.
    rng = random.Random(23)
    palette = [RESIDUAL, (0, 0), (0, 1), (1, 0), (2, 1)]
    cases = []
    for _ in range(240):
        size = rng.randint(4, 13)
        colors = palette[:rng.randint(1, 5)]
        assignment = {quad: rng.choice(colors)
                      for quad in itertools.combinations(range(size), 4)}
        q = rng.randint(4, min(8, size))
        cases.append((coloring_from_assignment(size, assignment), assignment, size, q))
    g = staged_pipeline_host()
    cases.append((build_coloring(g.rows, build_increasing_paths(g), 5),
                  dict(_oracle_items(g, 5)), len(g), 8))
    outcomes = set()
    for col, assignment, size, q in cases:
        expected, nodes = dict_homogeneous_search(assignment, size, q)
        monkeypatch.setattr(ramsey, "HOMOGENEOUS_BUDGET", nodes)
        cert = find_homogeneous(col, q)
        assert (cert and (cert.subset, cert.color)) == expected
        monkeypatch.setattr(ramsey, "HOMOGENEOUS_BUDGET", nodes - 1)
        with pytest.raises(ResourceLimitError):
            find_homogeneous(col, q)
        outcomes.add(cert is None)
    assert outcomes == {True, False}
    assert nodes == 3_573  # the staged host, as pinned by the budget test above


def test_extract_k22_from_pipeline_certificates():
    rng = random.Random(31)
    found = 0
    while found < 20:
        g = random_no_c5_host(rng, max_size=16)
        trace = proof_pipeline(g, 5)
        if trace.certificate is None or trace.certificate.color == RESIDUAL:
            continue
        found += 1
        emb = trace.embedding
        assert emb is not None and embedding_is_valid_by_names(g, emb)


def test_extract_k22_requires_eight_elements():
    g = path_graph(8)
    t = build_increasing_paths(g)
    cert = HomogeneousCertificate(subset=tuple(range(7)), color=(0, 0))
    with pytest.raises(ExtractionError):
        extract_k22(cert, g, t)


def test_extractions_refuse_a_certificate_of_the_other_class():
    g = path_graph(9)
    t = build_increasing_paths(g)
    with pytest.raises(ExtractionError, match="pair class"):
        extract_k22(HomogeneousCertificate(subset=tuple(range(8)), color=RESIDUAL), g, t)
    with pytest.raises(ExtractionError, match="residual class"):
        extract_chordless(HomogeneousCertificate(subset=tuple(range(8)), color=(0, 0)), g, t, 5)


def test_extract_k22_reports_missing_edges():
    g = path_graph(9)
    t = build_increasing_paths(g)
    cert = HomogeneousCertificate(subset=tuple(range(8)), color=(0, 0))
    with pytest.raises(ExtractionError):
        extract_k22(cert, g, t)  # a plain path has no K22, so images cannot work


def test_extract_chordless_plain_path():
    n = 6
    g = path_graph(n + 1)
    t = build_increasing_paths(g)
    cert = HomogeneousCertificate(subset=tuple(range(n + 1)), color=RESIDUAL)
    ys = extract_chordless(cert, g, t, n)
    assert ys == tuple(range(n))
    # the walk is the full path and the progress bound holds at every step
    xs = cert.subset
    assert all(ys[i] <= xs[i + 1] for i in range(len(ys) - 1))


def test_extract_chordless_skips_via_long_edge():
    g = graph(range(7), [(i, i + 1) for i in range(6)] + [(1, 5)])
    t = build_increasing_paths(g)
    cert = HomogeneousCertificate(subset=(0, 1, 2, 5, 6), color=RESIDUAL)
    ys = extract_chordless(cert, g, t, 4)
    assert ys == (0, 1, 5, 6)  # the greedy jumps over the walk's interior
    assert is_chordless(g, ys)


def test_extract_chordless_stalls_on_exhausted_walk():
    g = graph(range(7), [(i, i + 1) for i in range(6)] + [(1, 5)])
    t = build_increasing_paths(g)
    cert = HomogeneousCertificate(subset=tuple(range(7)), color=RESIDUAL)
    with pytest.raises(ExtractionError):
        extract_chordless(cert, g, t, 6)


def test_concatenated_path_is_increasing():
    g = graph(range(7), [(i, i + 1) for i in range(6)] + [(1, 5), (0, 2)])
    t = build_increasing_paths(g)
    cert = HomogeneousCertificate(subset=(0, 2, 5, 6), color=RESIDUAL)
    walk = concatenated_path(cert, t, 3)
    assert walk[0] == 0 and walk[-1] == 6
    assert all(a < b for a, b in zip(walk, walk[1:]))


def test_dichotomy_examples():
    assert dichotomy(path_graph(4), 4).kind == "chordless_path"
    g2 = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 2)])
    assert dichotomy(g2, 4).kind == "neither"
    c4 = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert dichotomy(c4, 4).kind == "k22"


def test_dichotomy_rejects_untraceable_hosts():
    with pytest.raises(InvalidInputError):
        dichotomy(graph([0, 1], []), 2)


def test_proof_pipeline_rejects_untraceable_hosts():
    # a chordless 4-path 0-1-2-3 exists, but 3 and 4 are not adjacent
    g = graph(range(5), [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InvalidInputError, match="not traceable"):
        proof_pipeline(g, 4)


def test_dichotomy_k22_is_the_least_brute_force_copy():
    # Names descend or have gaps, so the least copy by position is not the
    # least by name.
    rng = random.Random(31)
    for trial in range(200):
        size = rng.randint(4, 8)
        names = sorted(rng.sample(range(1, 10 * size), size), reverse=trial % 2 == 1)
        g = relabel(random_traceable_graph(rng, size, rng.choice([0.3, 0.5])), names)
        w = dichotomy(g, 5)
        if w.kind == "chordless_path":
            continue
        brute = brute_embedding_exists(g, K22)
        assert (w.kind == "k22") == (brute is not None)
        if brute is not None:
            assert w.embedding.assignment == brute


def test_dichotomy_matches_brute_force_on_random_hosts():
    rng = random.Random(29)
    for _ in range(60):
        g = random_traceable_graph(rng, rng.randint(2, 7), rng.choice([0.2, 0.5]))
        w = dichotomy(g, 4)
        bp = brute_chordless_path(g, 4)
        bk = brute_embedding_exists(g, K22)
        if w.kind == "chordless_path":
            assert bp is not None and is_chordless(g, w.path)
        elif w.kind == "k22":
            assert bp is None and bk is not None
            assert embedding_is_valid_by_names(g, w.embedding)
        else:
            assert bp is None and bk is None


def test_parameter_law():
    assert homogeneous_size_for(5) == 8
    assert homogeneous_size_for(7) == 8
    assert homogeneous_size_for(9) == 10


def test_pipeline_trace_outcomes():
    trace = proof_pipeline(path_graph(9), 5)
    assert trace.outcome == "chordless_path" and trace.path is not None
    g = graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 2)])
    trace2 = proof_pipeline(g, 4)
    assert trace2.outcome == "no_homogeneous_set"


def test_estimate_min_m_n3():
    rep = estimate_min_m(3, 3)
    by_size = {c.size: c for c in rep.sizes}
    assert by_size[3].neither >= 1  # the triangle
    assert rep.empirical_lower_bound >= 4


def test_estimate_min_m_n4_size4():
    rep = estimate_min_m(4, 4)
    by_size = {c.size: c for c in rep.sizes}
    assert by_size[4].neither == 2
    assert rep.empirical_lower_bound == 5


def test_estimate_min_m_n2_no_neither_beyond_trivial():
    rep = estimate_min_m(2, 5)
    for c in rep.sizes:
        if c.size >= 2:
            assert c.neither == 0  # any edge is already a chordless 2-path


def test_estimate_min_m_counts_match_dichotomy():
    for size in range(1, 6):
        slow = 0
        for masks, _ in iter_traceable_masks(size):
            g = masks_to_graph(masks, size)
            if dichotomy(g, 4).kind == "neither":
                slow += 1
        rep = estimate_min_m(4, size)
        assert rep.sizes[size - 1].neither == slow


def test_estimate_min_m_matches_gray_code_enumeration():
    # Every labelled host up to 7 vertices, checked for each n in 2..6.
    max_size = 7
    brute = {}  # (n, size) -> (neither count, least chord bitmask)
    for size in range(1, max_size + 1):
        for masks, bits in iter_traceable_masks(size):
            if find_k22(masks, masks) is not None:
                continue
            for n in range(2, 7):
                if find_chordless_positions(masks, n) is None:
                    count, least = brute.get((n, size), (0, bits))
                    brute[n, size] = (count + 1, min(least, bits))
    for n in range(2, 7):
        rep = estimate_min_m(n, max_size)
        for c in rep.sizes:
            count, least = brute.get((n, c.size), (0, None))
            assert c.graphs == 1 << ((c.size - 1) * (c.size - 2) // 2)
            assert c.neither == count
            if least is None:
                assert c.example is None
            else:
                slots = [(i, j) for i in range(c.size) for j in range(i + 2, c.size)]
                path = [(i, i + 1) for i in range(c.size - 1)]
                chords = [slots[b] for b in range(len(slots)) if (least >> b) & 1]
                assert c.example == tuple(sorted(path + chords))


def test_estimate_min_m_exact_thresholds():
    thresholds = {
        n: estimate_min_m(n, size).exact_threshold
        for n, size in ((4, 8), (5, 10), (6, 12), (7, 16))
    }
    assert thresholds == {4: 6, 5: 8, 6: 11, 7: 15}
    assert estimate_min_m(2, 3).exact_threshold == 2
    open_ended = estimate_min_m(5, 7)  # size 7 still holds a neither instance
    assert open_ended.exact_threshold is None
    assert open_ended.empirical_lower_bound == 8


def test_estimate_min_m_n4_size12_is_cheap_and_exact():
    rep = estimate_min_m(4, 12)
    assert rep.exact_threshold == 6
    assert rep.empirical_lower_bound == 6
    assert [c.neither for c in rep.sizes[5:]] == [0] * 7


def test_estimate_min_m_budget_exhausted(monkeypatch):
    monkeypatch.setattr(ramsey, "EXTENSION_BUDGET", 1000)
    with pytest.raises(ResourceLimitError):
        estimate_min_m(7, 16)


def test_estimate_min_m_input_limits():
    with pytest.raises(InvalidInputError):
        estimate_min_m(0, 5)
    with pytest.raises(InvalidInputError):
        estimate_min_m(4, 0)
    with pytest.raises(ResourceLimitError):
        estimate_min_m(4, ramsey.MAX_SIZE_BOUND + 1)


def test_estimate_min_m_reverifies_its_examples(monkeypatch):
    monkeypatch.setattr(ramsey, "find_k22", lambda rows, cols: (0, 1, 2, 3))
    with pytest.raises(StructuralError):
        estimate_min_m(4, 4)


def _least_chord_example(level):
    """Edge list of the host in ``level`` whose chord bitmask, bit b for the
    b-th pair (i, j), j > i + 1, in lexicographic order, is least."""
    if not level:
        return None
    size = len(level[0])
    slots = [(i, j) for i in range(size) for j in range(i + 2, size)]
    best = min(
        level,
        key=lambda rows: sum(1 << b for b, (i, j) in enumerate(slots) if rows[i] >> j & 1),
    )
    return tuple((i, j) for i in range(size) for j in range(i + 1, size) if best[i] >> j & 1)


@pytest.mark.parametrize("n, size_bound", [(2, 5), (3, 6), (4, 8), (5, 10), (6, 13), (7, 16)])
def test_joined_levels_equal_the_extension_levels(n, size_bound):
    levels = extension_levels(n, size_bound)
    level = levels[0]
    for expected in levels[1:]:
        joined = list(ramsey._k22_free_joins(level))
        assert len(set(joined)) == len(joined)  # each host arises once
        level = [rows for rows in joined if find_chordless_positions(rows, n) is None]
        assert set(level) == set(expected)
    report = estimate_min_m(n, size_bound)
    assert [c.neither for c in report.sizes] == [len(lv) for lv in levels]
    assert [c.example for c in report.sizes] == [_least_chord_example(lv) for lv in levels]


def _unpruned_joins(level):
    """Every traceable host on s+1 vertices whose prefix (drop s) and shifted
    suffix (drop 0) are in ``level``, K22 copies included, by an all-pairs scan."""
    s = len(level[0])
    low = (1 << (s - 1)) - 1
    for a in level:
        for b in level:
            if any(a[i + 1] >> 1 != b[i] & low for i in range(s - 1)):
                continue
            last = b[-1] << 1
            rows = [row | (last >> v & 1) << s for v, row in enumerate(a)] + [last]
            if s > 1:  # at s = 1 the chord (0, s) is the path edge
                yield tuple(rows)
            rows[0] |= 1 << s
            rows[-1] |= 1
            yield tuple(rows)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_k22_free_joins_prune_exactly_the_k22_hosts(n):
    for level in extension_levels(n, 12):
        if not level:
            break
        kernel = {rows for rows in _unpruned_joins(level) if find_k22(rows, rows) is None}
        assert set(ramsey._k22_free_joins(level)) == kernel


def test_tower_values():
    assert tower(2) == 4
    assert tower(3) == 16
    assert tower(4) == 65536
    assert tower(5) is None
    with pytest.raises(InvalidInputError, match="tower height must be >= 1"):
        tower(0)
