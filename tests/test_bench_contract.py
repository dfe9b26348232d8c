"""The calls the benchmark harness in ``perfbench/`` makes into chordlab.

``perfbench/workloads.py`` sizes its hosts with ``run(f, T).state(T).rows``
and relabels the order pairs of ``spurred_fence_lattice(k)[0].leq_pairs()``.
For its traced passes ``perfbench/spans.Tracer`` wraps every public function
and class constructor of the layer modules, and ``StagedHistory.final_graph``
by name, and reads work counters off their results, such as
``ramsey.quads_colored`` from ``len(build_coloring(...).assignment)``, and
``lattices.closure_rounds`` and ``lattices.tree_nodes`` from the lengths of
the ``.levels`` of ``closure_and_rank`` and ``build_tree``.
Removing or reshaping any of them breaks the benchmark; these tests fail first.
The harness files are only read: its module is loaded without bytecode.
"""

import importlib.util
import math
import os
import sys

import chordlab
import chordlab.cli
from chordlab.construction import StagedHistory, run, seeded_injective
from oracles import save_lattice, tree_nodes

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(PERFBENCH, "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_setup_and_traced_pass_calls(monkeypatch, capsys):
    spans = _load_spans(monkeypatch)
    modules = [getattr(chordlab, layer) for layer in spans.LAYERS]
    before = [dict(vars(module)) for module in [chordlab] + modules]
    init, final_graph = StagedHistory.__init__, StagedHistory.final_graph
    f = seeded_injective(3, 40)
    tracer = spans.Tracer()
    tracer.install(chordlab)
    try:
        # setup, as build_staged and build_search size their hosts
        rows = chordlab.construction.run(f, 40).state(40).rows
        host = chordlab.construction.run(f, 40).final_graph()
        # setup, as build_lattice relabels a spurred fence lattice
        lat, gens, _ = chordlab.lattices.spurred_fence_lattice(7)
        pairs = lat.leq_pairs()
        # one command of a traced pass
        code = chordlab.cli.main(["verify", "--f", ",".join(map(str, f)), "--stages", "40"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert sum(r.bit_count() for r in rows) // 2 == host.edge_count()
    assert {(x, x) for x in range(lat.n)} <= set(pairs) and set(gens) < set(range(lat.n))
    seen = {path[-1] for path in tracer.nodes}
    assert {"construction.StagedHistory", "construction.final_graph",
            "construction.check_history_lemmas", "lattices.spurred_fence_lattice",
            "lattices.FiniteLattice", "cli.verify"} <= seen
    metrics = tracer.metrics()
    assert set(metrics) == set(spans.layer_metric_units())
    assert all(metrics[layer + ".errors"] == 0 for layer in spans.LAYERS)
    # uninstall puts every original back
    assert [dict(vars(module)) for module in [chordlab] + modules] == before
    assert (StagedHistory.__init__, StagedHistory.final_graph) == (init, final_graph)


def test_traced_pipeline_counts_every_colored_quad(monkeypatch, capsys, tmp_path):
    # A staged host is a cograph, so it has no chordless 5-path and the
    # pipeline colours all of its 4-subsets.
    spans = _load_spans(monkeypatch)
    g = run(seeded_injective(3, 8), 8).state(8)
    host = str(tmp_path / "host.json")
    chordlab.formats.save_graph(g, host)
    tracer = spans.Tracer()
    tracer.install(chordlab)
    try:
        code = chordlab.cli.main(["pipeline", "--graph", host, "--n", "5"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    seen = {path[-1] for path in tracer.nodes}
    assert {"ramsey.build_coloring", "ramsey.find_homogeneous", "cli.pipeline"} <= seen
    metrics = tracer.metrics()
    assert len(g) == 24 and metrics["ramsey.quads_colored"] == math.comb(24, 4)
    assert all(metrics[layer + ".errors"] == 0 for layer in spans.LAYERS)


def test_traced_lattice_fences_counts_rounds_and_tree_nodes(monkeypatch, capsys, tmp_path):
    spans = _load_spans(monkeypatch)
    lattices = chordlab.lattices
    lat, gens, _ = lattices.spurred_fence_lattice(9)
    table = lattices.closure_and_rank(lat, gens)
    rounds = len(table.levels)
    nodes = len(list(tree_nodes(lattices.build_tree(lat, table))))
    path = str(tmp_path / "spurred.json")
    save_lattice(path, lat.n, lat.leq_pairs(), gens)
    tracer = spans.Tracer()
    tracer.install(chordlab)
    try:
        code = chordlab.cli.main(["lattice", "fences", "--lattice", path, "--target", "7"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["lattices.closure_and_rank.calls"] == metrics["lattices.build_tree.calls"] == 1
    assert (rounds, nodes) == (9, 26)
    assert metrics["lattices.closure_rounds"] == rounds
    assert metrics["lattices.tree_nodes"] == nodes
    assert metrics["lattices.errors"] == 0
