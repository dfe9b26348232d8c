"""Serialization: JSON round trips and deterministic DOT output."""

import random

import pytest

from chordlab.errors import InvalidInputError
from chordlab.formats import (
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    lattice_from_json_obj,
    lattice_to_dot,
    lattice_to_json,
)
from chordlab.graphs import Graph, pattern_A, pattern_graph
from chordlab.lattices import FiniteLattice, fence_lattice

from oracles import random_graph


def test_graph_round_trip_is_identity():
    rng = random.Random(1)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        again = graph_from_json(graph_to_json(g))
        assert sorted(again.vertices) == sorted(g.vertices)
        assert again.edges() == g.edges()
        assert graph_to_json(again) == graph_to_json(g)


def test_graph_json_validation():
    with pytest.raises(InvalidInputError):
        graph_from_json('{"vertices": [1, 0], "edges": []}')
    with pytest.raises(InvalidInputError):
        graph_from_json('{"vertices": [0, 1], "edges": [[1, 0]]}')
    with pytest.raises(InvalidInputError):
        graph_from_json('{"vertices": [0, 1], "edges": [[0, 1], [0, 1]]}')
    with pytest.raises(InvalidInputError):
        graph_from_json('{"vertices": [0, 1], "edges": [[0, 2]]}')


@pytest.mark.parametrize("text", [
    '{"vertices": ["a"], "edges": []}',
    '{"vertices": [0, true], "edges": []}',
    '{"vertices": [0, 1], "edges": [[0, null]]}',
    '{"vertices": [0, 1], "edges": [[0.0, 1]]}',
    '{"vertices": [0, 1], "edges": [7]}',
])
def test_graph_json_rejects_non_integer_entries(text):
    with pytest.raises(InvalidInputError):
        graph_from_json(text)


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
    g = Graph([3, 1, 0, 2], [(1, 3), (0, 1), (2, 3)])
    dot = graph_to_dot(g)
    assert dot == graph_to_dot(g)
    lines = [ln.strip() for ln in dot.splitlines()]
    assert lines[0] == "graph G {"
    assert "0 -- 1;" in lines and "1 -- 3;" in lines and "2 -- 3;" in lines
    assert lines.index("0 -- 1;") < lines.index("1 -- 3;") < lines.index("2 -- 3;")


def test_pattern_dot_counts():
    a3 = pattern_graph(pattern_A(3))
    dot = graph_to_dot(a3)
    assert dot.count(" -- ") == 6
    from chordlab.graphs import K22

    dot22 = graph_to_dot(pattern_graph(K22))
    assert dot22.count(";") == 4 + 4  # 4 vertex lines, 4 edge lines


def test_lattice_round_trip_and_hasse():
    lat, gens = fence_lattice(5)
    text = lattice_to_json(lat.n, lat.leq_pairs(), gens)
    import json

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
