"""Span tracing of chordlab's layers, installed from outside the package.

``Tracer.install`` replaces every public function of the six layer modules,
and the constructor of every public class, with a wrapper that records a
span, then restores the originals on ``uninstall``.  A function imported by
name into another module (``ramsey`` calls ``graphs.find_chordless_positions``
through its own module attribute) is replaced there too, so calls across
layers are seen.  Spans are aggregated per call path rather than kept one by
one, because ``mn-search`` makes millions of kernel calls per pass.

Left unwrapped, so their time counts as their caller's self time:
- private helpers (a leading underscore);
- methods, except ``StagedHistory.final_graph``, which materialises the host
  Graph; accessors such as ``Graph.has_edge`` and ``FiniteLattice.meet`` run
  tens of millions of times per pass;
- generator functions (``ramsey.iter_traceable_masks``), whose work happens
  while the caller iterates.
"""

from __future__ import annotations

import inspect
import os
import time

LAYERS = ("cli", "construction", "graphs", "ramsey", "lattices", "formats")
METHODS = {"construction": {"StagedHistory": ("final_graph",)}}

# CLI commands in metric form; ``cli.cmd_<kind>`` is traced as ``cli.<kind>``.
COMMANDS = ("construct", "verify", "decode", "dichotomy", "pipeline", "mn_search",
            "lattice_verify", "lattice_fences")

# Spans reported with their self time, and those also reported with a call count.
TIMED_SPANS = (
    "construction.StagedHistory", "construction.final_graph",
    "construction.check_history_lemmas", "construction.history_has_no_chordless4",
    "construction.find_chordless_4path", "construction.build_decode_context",
    "graphs.Graph", "graphs.find_chordless_path", "graphs.find_chordless_positions",
    "graphs.find_embedding",
    "ramsey.build_increasing_paths", "ramsey.build_coloring", "ramsey.color_4subset",
    "ramsey.find_homogeneous", "ramsey.estimate_min_m", "ramsey.has_k22_masks",
    "lattices.FiniteLattice", "lattices.closure_and_rank", "lattices.build_tree",
    "formats.save_graph", "formats.graph_to_json", "formats.graph_to_json_obj",
    "formats.load_graph", "formats.graph_from_json", "formats.graph_from_json_obj",
) + tuple("cli." + kind for kind in COMMANDS)
COUNTED_SPANS = (
    "graphs.Graph", "graphs.find_chordless_path", "graphs.find_chordless_positions",
    "ramsey.has_k22_masks", "lattices.closure_and_rank", "lattices.build_tree",
)
# Work counters read from arguments and return values: (span, counter, amount).
COUNTERS = (
    ("formats.save_graph", "formats.bytes_written", lambda a, r: os.path.getsize(a[1])),
    ("formats.load_graph", "formats.bytes_read", lambda a, r: os.path.getsize(a[0])),
    ("ramsey.build_coloring", "ramsey.quads_colored", lambda a, r: len(r.assignment)),
    ("ramsey.estimate_min_m", "ramsey.hosts_examined", lambda a, r: sum(s.graphs for s in r.sizes)),
    ("ramsey.estimate_min_m", "ramsey.neither_found", lambda a, r: sum(s.neither for s in r.sizes)),
    ("lattices.closure_and_rank", "lattices.closure_rounds", lambda a, r: len(r.levels)),
    ("lattices.build_tree", "lattices.tree_nodes", lambda a, r: sum(len(lv) for lv in r.levels)),
    ("lattices.find_fences", "lattices.fences_found", lambda a, r: r is not None),
)


def layer_metric_units():
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[layer + ".self_s"] = "s"
        units[layer + ".errors"] = "count"
    for name in TIMED_SPANS:
        units[name + ".self_s"] = "s"
    for name in COUNTED_SPANS:
        units[name + ".calls"] = "count"
    units.update({
        "formats.bytes_written": "B", "formats.bytes_read": "B",
        "ramsey.quads_colored": "count", "ramsey.hosts_examined": "count",
        "ramsey.neither_ratio": "ratio", "lattices.closure_rounds": "count",
        "lattices.tree_nodes": "count", "lattices.branches_per_fence": "ratio",
    })
    return units


class Tracer:
    """Aggregated spans of one traced pass.

    ``nodes`` maps a call path (a tuple of span names) to
    ``[calls, total_s, child_s, errors]``; an error is a span left by an
    exception that also leaves its layer.
    """

    def __init__(self):
        self.nodes = {}
        self.counts = {}
        self._stack = [[(), 0.0]]  # [call path, time spent in child spans]
        self._patches = []

    def _wrap(self, name, fn):
        nodes, counts, stack, clock = self.nodes, self.counts, self._stack, time.perf_counter
        layer = name.split(".", 1)[0]
        counters = [(counter, amount) for span, counter, amount in COUNTERS if span == name]

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0] + (name,), 0.0]
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                node = nodes.get(frame[0])
                if node is None:
                    node = nodes[frame[0]] = [0, 0.0, 0.0, 0]
                node[0] += 1
                node[1] += elapsed
                node[2] += frame[1]
                if not ok and (not parent[0] or not parent[0][-1].startswith(layer + ".")):
                    node[3] += 1
            for counter, amount in counters:
                counts[counter] = counts.get(counter, 0) + amount(args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the layer modules of ``package`` (the imported chordlab)."""
        modules = [getattr(package, layer) for layer in LAYERS]
        replaced = {}  # id(original function) -> wrapper
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if "__init__" in vars(obj):
                        self._patch(obj, "__init__",
                                    self._wrap("%s.%s" % (layer, attr), obj.__init__))
                    for method in METHODS.get(layer, {}).get(attr, ()):
                        self._patch(obj, method,
                                    self._wrap("%s.%s" % (layer, method), vars(obj)[method]))
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    span = "%s.%s" % (layer, attr[4:] if attr.startswith("cmd_") else attr)
                    replaced[id(obj)] = (obj, self._wrap(span, obj))
        for module in modules + [package]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._patch(module, attr, replaced[id(obj)][1])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """Per-layer metrics of this pass, for every name in layer_metric_units()."""
        spans = {}  # span name -> [calls, self_s, errors]
        for path, (calls, total, child, errors) in self.nodes.items():
            agg = spans.setdefault(path[-1], [0, 0.0, 0])
            agg[0] += calls
            agg[1] += total - child
            agg[2] += errors
        out = {}
        for layer in LAYERS:
            mine = [v for name, v in spans.items() if name.startswith(layer + ".")]
            out[layer + ".self_s"] = sum(v[1] for v in mine)
            out[layer + ".errors"] = sum(v[2] for v in mine)
        for name in TIMED_SPANS:
            out[name + ".self_s"] = spans.get(name, [0, 0.0])[1]
        for name in COUNTED_SPANS:
            out[name + ".calls"] = spans.get(name, [0])[0]
        counts = self.counts
        for name in ("formats.bytes_written", "formats.bytes_read", "ramsey.quads_colored",
                     "ramsey.hosts_examined", "lattices.closure_rounds", "lattices.tree_nodes"):
            out[name] = counts.get(name, 0)
        hosts = counts.get("ramsey.hosts_examined", 0)
        out["ramsey.neither_ratio"] = counts.get("ramsey.neither_found", 0) / hosts if hosts else 0.0
        fences = counts.get("lattices.fences_found", 0)
        tried = spans.get("lattices.comparability_graph", [0])[0]
        out["lattices.branches_per_fence"] = tried / fences if fences else 0.0
        return out
