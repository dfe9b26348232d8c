"""Serialization: JSON round trips and deterministic DOT output."""

import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings

from chordlab.construction import run, seeded_injective
from chordlab.errors import InvalidInputError
from chordlab.formats import (
    graph_dot_parts,
    graph_from_json_obj,
    graph_json_parts,
    lattice_from_json_obj,
    lattice_to_dot,
    save_graph,
)
from chordlab.graphs import K22, Pattern
from chordlab.lattices import FiniteLattice, fence_lattice

from oracles import (
    complete_graph,
    dot_by_lines,
    graph,
    graph_from_json_obj_by_edge_list,
    graph_json_objects,
    graphs,
    json_dumps_graph,
    lattice_to_json,
    pattern_graph,
    position,
    random_graph,
    sorted_edge_pairs,
)


def test_graph_round_trip_is_identity():
    rng = random.Random(1)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        again = graph_from_json_obj(json.loads("".join(graph_json_parts(g))))
        assert sorted(again.vertices) == sorted(g.vertices)
        assert sorted_edge_pairs(again) == sorted_edge_pairs(g)
        assert "".join(graph_json_parts(again)) == "".join(graph_json_parts(g))


def test_graph_json_validation():
    with pytest.raises(InvalidInputError):
        graph_from_json_obj(json.loads('{"vertices": [1, 0], "edges": []}'))
    with pytest.raises(InvalidInputError):
        graph_from_json_obj(json.loads('{"vertices": [0, 1], "edges": [[1, 0]]}'))
    with pytest.raises(InvalidInputError):
        graph_from_json_obj(json.loads('{"vertices": [0, 1], "edges": [[0, 1], [0, 1]]}'))
    with pytest.raises(InvalidInputError):
        graph_from_json_obj(json.loads('{"vertices": [0, 1], "edges": [[0, 2]]}'))


@pytest.mark.parametrize("text", [
    '{"vertices": ["a"], "edges": []}',
    '{"vertices": [0, true], "edges": []}',
    '{"vertices": [0, 1], "edges": [[0, null]]}',
    '{"vertices": [0, 1], "edges": [[0.0, 1]]}',
    '{"vertices": [0, 1], "edges": [7]}',
])
def test_graph_json_rejects_non_integer_entries(text):
    with pytest.raises(InvalidInputError):
        graph_from_json_obj(json.loads(text))


def _load_outcome(load, obj):
    """The loaded graph's vertices, rows and positions, or the error's type and message."""
    try:
        g = load(obj)
    except Exception as exc:  # any failure, compared with the oracle's
        return type(exc), str(exc)
    return g.vertices, g.rows, [position(g, v) for v in g.vertices]


def _assert_written_and_read_as_the_oracles_do(g):
    """The writers give the oracles' text, and the loader reads it back as
    the edge-list oracle does; returns what the loader gave."""
    text = "".join(graph_json_parts(g))
    assert text == json_dumps_graph(g)
    assert "".join(graph_dot_parts(g)) == dot_by_lines(g)
    mine = _load_outcome(graph_from_json_obj, json.loads(text))
    assert mine == _load_outcome(graph_from_json_obj_by_edge_list, json.loads(text))
    return mine


@pytest.mark.parametrize("stages", [0, 1, 20, 60])
def test_staged_hosts_are_written_and_read_as_the_oracles_do(stages):
    g = run(seeded_injective(7, stages), stages).final_graph()
    assert _assert_written_and_read_as_the_oracles_do(g)[:2] == (g.vertices, g.rows)


def test_the_graph_writer_holds_one_row_at_a_time(tmp_path):
    g = run(seeded_injective(7, 60), 60).final_graph()
    path = tmp_path / "g.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_graph(g, path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size == 789_736 and path.read_text() == json_dumps_graph(g)
    assert peak < size / 4


@settings(max_examples=300, deadline=None)
@given(g=graphs())
@example(g=graph([], []))
@example(g=graph([7], []))
@example(g=graph([2, 5, 9], [(9, 2), (5, 2)]))
@example(g=complete_graph(7))  # each row is one run up to the top vertex
# rows of alternating bits: every run has length 1
@example(g=graph(range(9), [(u, v) for u in range(9) for v in range(u + 1, 9, 2)]))
@example(g=graph(range(120), [(u, v) for u in range(120) for v in range(u + 1, 120, 2)]))
@example(g=random_graph(random.Random(31), 300, 0.5))  # dense rows of many runs
@example(g=graph(range(6), [(0, 1), (0, 4), (0, 5), (2, 5)]))  # gap, then a run to the end
# gapped names, with runs in the rows
@example(g=graph([1, 3, 5, 7, 9], [(1, 3), (1, 5), (1, 9), (3, 7), (3, 9), (5, 7)]))
def test_writers_match_the_oracles_on_any_vertex_order(g):
    # any order the writers take: ascending, with gaps and huge names
    _assert_written_and_read_as_the_oracles_do(g)


@pytest.mark.parametrize("g", [
    graph([3, 1, 0, 2], [(1, 3), (0, 1), (2, 3)]),
    graph([1, 0], []),
])
def test_writers_refuse_vertices_that_do_not_ascend(tmp_path, g):
    for parts in (graph_json_parts, graph_dot_parts):
        with pytest.raises(InvalidInputError, match="ascending"):
            "".join(parts(g))
    with pytest.raises(InvalidInputError, match="ascending"):
        save_graph(g, tmp_path / "g.json")
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=500, deadline=None)
@given(obj=graph_json_objects())
@example(obj={"vertices": [0, 1, 2], "edges": [[0, 5], [0, 1], [0, 1]]})  # duplicate wins
@example(obj={"vertices": [0, 1], "edges": [[0, 5], [1, 7], [0, 5]]})  # duplicate outside
@example(obj={"vertices": [0, 1], "edges": [[1, 3], [0, 2]]})  # first outside edge named
@example(obj={"vertices": [-1, 0, 1], "edges": [[0, 1], [1]]})  # bad pair before negative
@example(obj={"vertices": [-1, 0], "edges": [[0, 3]]})  # negative before outside
@example(obj={"vertices": [0, 1], "edges": [[0, 1], [1, 0]]})
@example(obj={"vertices": [0, 1], "edges": [[True, 1]]})  # JSON true is not an integer
@example(obj={"vertices": [0, 1], "edges": [[0, 1.0]]})
def test_loader_matches_the_edge_list_oracle(obj):
    assert _load_outcome(graph_from_json_obj, obj) == _load_outcome(
        graph_from_json_obj_by_edge_list, obj
    )


@pytest.mark.parametrize("obj", [
    {"n": "3", "leq": []},
    {"n": 3, "leq": [[0, "x"]]},
    {"n": 3, "leq": [0]},
    {"n": 3, "leq": [], "generators": [1.5]},
])
def test_lattice_json_rejects_non_integer_entries(obj):
    with pytest.raises(InvalidInputError):
        lattice_from_json_obj(obj)


def test_dot_output_is_deterministic_and_ordered():
    g = graph([0, 1, 2, 3], [(1, 3), (0, 1), (2, 3)])
    dot = "".join(graph_dot_parts(g))
    assert dot == "".join(graph_dot_parts(g))
    lines = [ln.strip() for ln in dot.splitlines()]
    assert lines[0] == "graph G {"
    assert "0 -- 1;" in lines and "1 -- 3;" in lines and "2 -- 3;" in lines
    assert lines.index("0 -- 1;") < lines.index("1 -- 3;") < lines.index("2 -- 3;")


def test_pattern_dot_counts():
    a3 = pattern_graph(Pattern("A", 3))
    dot = "".join(graph_dot_parts(a3))
    assert dot.count(" -- ") == 6
    dot22 = "".join(graph_dot_parts(pattern_graph(K22)))
    assert dot22.count(";") == 4 + 4  # 4 vertex lines, 4 edge lines


def test_lattice_round_trip_and_hasse():
    lat, gens = fence_lattice(5)
    text = lattice_to_json(lat.n, lat.leq_pairs(), gens)
    n, pairs, gens2 = lattice_from_json_obj(json.loads(text))
    assert (n, tuple(gens2)) == (lat.n, gens)
    again = FiniteLattice(n, pairs)
    assert again.covers() == lat.covers()
    dot = lattice_to_dot(lat)
    # Hasse diagram: only cover edges appear
    assert dot.count(" -> ") == len(lat.covers())


def test_diamond_hasse_has_four_cover_edges():
    diamond = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    lat = FiniteLattice(4, diamond)
    assert lattice_to_dot(lat).count(" -> ") == 4
