"""The four workloads: seeded input generation, command lists and output checks.

Each ``build_*`` function takes a ``random.Random`` seeded from ``--seed``,
the chordlab package and a work directory.  It writes the inputs chordlab
will read into the work directory and returns the fixed command list of one
pass.  chordlab receives only generated inputs (``--f`` is always an explicit
comma list).

Sizes are pinned, not just seeded: where cost depends on the drawn input
(edge count of a staged host, induced paths of a dichotomy host), the
function draws a fixed number of candidates and keeps the one closest to a
stated target, so every seed measures the same amount of work.  Sizing uses
chordlab's ``construction.run`` (about 10 ms at T=200), which is why
``setup_s`` covers it.

Every command's check recomputes its facts with ``checks`` (no chordlab code)
and returns None or a one-line error.  ``facts`` carries what an earlier
command of the same pass established (the host built by ``construct``) to the
commands that depend on it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

# The mn-search per-size neither counts for n=4 fixed by chordlab's acceptance
# suite; sizes 6 and up have none, so m(4) = 6.
MN4_NEITHER = {1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 0, 7: 0, 8: 0}
# mn-search sizes small enough to recount here by brute force.
MN_RECOUNT_MAX = 6


@dataclass
class Command:
    kind: str  # CLI command in metric form: construct, ..., lattice_fences
    argv: list
    check: Callable[[dict, dict], str | None]
    outputs: tuple = field(default=())  # files the command writes


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _edges_from_rows(rows):
    return [(x, y) for x, row in enumerate(rows) for y in range(x + 1, len(rows))
            if (row >> y) & 1]


def _write_host(path, rows) -> list:
    edges = _edges_from_rows(rows)
    _write_json(path, {"vertices": list(range(len(rows))), "edges": [list(e) for e in edges]})
    return edges


def _closest(candidates, size_of, target):
    """The first candidate whose size is nearest the target."""
    return min(candidates, key=lambda c: abs(size_of(c) - target))


def _report_error(report: dict, command: str, stages=None):
    if report.get("command") != command:
        return "report is for %r, not %r" % (report.get("command"), command)
    failed = [c["name"] for c in report.get("checks", ()) if not c["pass"]]
    if failed:
        return "%s report has failing checks %r" % (command, failed)
    if stages is not None and report["results"].get("stages", stages) != stages:
        return "%s ran %r stages, want %d" % (command, report["results"]["stages"], stages)
    return None


# ---------------------------------------------------------------------------
# staged: construct, verify and decode at T=200, exhaustive verify at T=80


def build_staged(rng, chordlab, work, stages=200, value_range=225,
                 target_edges=640_000, decode_k=12, exhaustive_stages=80,
                 exhaustive_vertices=1_190, candidates=16):
    run = chordlab.construction.run

    def edge_count(f):
        return sum(r.bit_count() for r in run(f, stages).state(stages).rows) // 2

    # f takes values below value_range, so some small values never occur and
    # decode must answer "no" for them; keep draws where some query does.
    draws = []
    while len(draws) < candidates:
        f = rng.sample(range(value_range), stages)
        if not set(range(decode_k)) <= set(f):
            draws.append(f)
    f = _closest(draws, edge_count, target_edges)

    def vertex_count(g):
        return run(g, exhaustive_stages).final_k + 1

    perms = []
    for _ in range(candidates):
        g = list(range(exhaustive_stages))
        rng.shuffle(g)
        perms.append(g)
    g = _closest(perms, vertex_count, exhaustive_vertices)

    host = os.path.join(work, "host_T%d.json" % stages)
    small = os.path.join(work, "host_T%d.json" % exhaustive_stages)
    queries = list(range(decode_k))

    def check_construct(path, steps, key):
        def check(report, facts):
            err = _report_error(report, "construct", steps)
            if err:
                return err
            res = report["results"]
            coding = res["final_coding"]
            if len(coding) != steps + 1 or coding[-1] != res["final_k"] or coding != sorted(set(coding)):
                return "final_coding %r is not %d increasing vertices ending at final_k" % (
                    coding[:4], steps + 1)
            err, masks = checks.graph_file_error(path, res["final_k"], res["edges"])
            if err:
                return err
            facts[key] = {"final_k": res["final_k"], "masks": masks}
            return None
        return check

    def check_verify(steps, key, exhaustive):
        def check(report, facts):
            err = _report_error(report, "verify", steps)
            if err:
                return err
            names = [c["name"] for c in report["checks"]]
            want = ["greatest", "codeconnection", "tracing", "components", "goup",
                    "coding-biconditional"] + (["no-chordless-4paths"] if exhaustive else [])
            if names != want:
                return "verify ran checks %r, want %r" % (names, want)
            host_facts = facts.get(key)
            if host_facts is None:
                return "verify has no construct result to compare with"
            if report["results"]["final_k"] != host_facts["final_k"]:
                return "verify final_k %r differs from construct's %r" % (
                    report["results"]["final_k"], host_facts["final_k"])
            if exhaustive and checks.has_chordless4(host_facts["masks"]):
                return "verify found no chordless 4-path, but the host has one"
            return None
        return check

    def check_decode(report, facts):
        err = _report_error(report, "decode", None)
        if err:
            return err
        rows = report["results"]["queries"]
        consumed = set(f[:stages])
        if [r["k"] for r in rows] != queries:
            return "decode answered %r, asked %r" % ([r["k"] for r in rows], queries)
        for r in rows:
            if r["decoded"] is not (r["k"] in consumed):
                return "decode says %r for %d; f[:T] says %r" % (
                    r["decoded"], r["k"], r["k"] in consumed)
        host_facts = facts.get("T200")
        if host_facts is None:
            return "decode has no construct result to compare with"
        emb = report["results"]["embedding"]["assignment"]
        masks = host_facts["masks"]
        for i in range(decode_k):
            for j in range(i, decode_k):
                a, b = emb["a%d" % i], emb["b%d" % j]
                if not (0 <= a < len(masks) and (masks[a] >> b) & 1):
                    return "decode embedding misses edge a%d-b%d" % (i, j)
        if len(set(emb.values())) != 2 * decode_k:
            return "decode embedding is not injective"
        return None

    fs, gs = _csv(f), _csv(g)
    return [
        Command("construct", ["construct", "--f", fs, "--stages", str(stages), "--out", host],
                check_construct(host, stages, "T200"), (host,)),
        Command("verify", ["verify", "--f", fs, "--stages", str(stages)],
                check_verify(stages, "T200", False)),
        Command("decode", ["decode", "--f", fs, "--stages", str(stages), "--pattern",
                           "A:%d" % decode_k, "--query", _csv(queries)], check_decode),
        Command("construct", ["construct", "--f", gs, "--stages", str(exhaustive_stages),
                              "--out", small],
                check_construct(small, exhaustive_stages, "small"), (small,)),
        Command("verify", ["verify", "--f", gs, "--stages", str(exhaustive_stages),
                           "--exhaustive-chordless"],
                check_verify(exhaustive_stages, "small", True)),
    ]


# ---------------------------------------------------------------------------
# search: dichotomy on staged hosts, pipeline on small no-chordless-5 hosts


def _witness_error(masks, res, n, path_free):
    """A dichotomy/pipeline witness re-checked against the input edge list."""
    if "path" in res:
        if path_free:
            return "reported a chordless %d-path in a host that has none" % n
        return checks.chordless_path_error(masks, res["path"], n)
    if "embedding" in res:
        if res["embedding"]["pattern"] != "K22":
            return "witness pattern is %r, want K22" % res["embedding"]["pattern"]
        return checks.k22_error(masks, res["embedding"]["assignment"])
    return None


def _random_path_free_host(rng, size, n):
    """Random traceable host with no chordless n-path, by rejection."""
    while True:
        p = rng.choice((0.55, 0.7, 0.85))
        edges = [(i, i + 1) for i in range(size - 1)]
        edges += [e for e in itertools.combinations(range(size), 2)
                  if e[1] > e[0] + 1 and rng.random() < p]
        masks = checks.masks_from_edges(size, edges)
        if checks.find_chordless_path(masks, n) is None:
            return masks


def _induced_p3(rows) -> int:
    """Ordered chordless 3-vertex paths: the partial paths a chordless DFS extends."""
    total = 0
    for row in rows:
        rest = row
        while rest:
            bit = rest & -rest
            rest ^= bit
            total += (row & ~rows[bit.bit_length() - 1] & ~bit).bit_count()
    return total


def build_search(rng, chordlab, work, dichotomy_stages=50, dichotomy_p3=1_170_000,
                 dichotomy_n=(4, 5, 4, 5), pipeline_stages=12,
                 batch_sizes=(12, 14, 16, 18, 20) * 3, candidates=16):
    run = chordlab.construction.run
    commands = []

    # Staged hosts have no chordless 4-path (so none on 5 vertices either) and
    # their coding vertices form a clique, so the answer must be a K22 copy.
    # The DFS that proves "no chordless path" costs about one step per induced
    # 3-vertex path, so hosts are pinned on that count (T=50 gives ~490 vertices).
    # Four mid-sized hosts rather than two large ones: the pass holds more
    # independent timings, which steadies its median.
    for i, n in enumerate(dichotomy_n):
        draws = [rng.sample(range(dichotomy_stages), dichotomy_stages) for _ in range(candidates)]
        rows_of = [run(d, dichotomy_stages).state(dichotomy_stages).rows for d in draws]
        rows = list(_closest(rows_of, _induced_p3, dichotomy_p3))
        path = os.path.join(work, "staged_%d.json" % i)
        _write_host(path, rows)
        commands.append(Command("dichotomy", ["dichotomy", "--graph", path, "--n", str(n)],
                                _dichotomy_check(rows, n)))

    # The pipeline's homogeneous-set search is exponential and heavy-tailed:
    # among T=12-16 staged hosts of 35-70 vertices most take 0.2-3 s but some
    # run for minutes, so its staged host is one fixed draw (43 vertices), not seeded.
    n = 5
    f = random.Random(0).sample(range(pipeline_stages), pipeline_stages)
    rows = list(run(f, pipeline_stages).state(pipeline_stages).rows)
    # A chordless 5-path starts with a chordless 4-path, so the 4-path scan decides.
    hosts = [(rows, not checks.has_chordless4(rows))]
    hosts += [(_random_path_free_host(rng, size, n), True) for size in batch_sizes]
    for i, (masks, path_free) in enumerate(hosts):
        path = os.path.join(work, "pipeline_%d.json" % i)
        _write_host(path, masks)
        commands.append(Command("pipeline", ["pipeline", "--graph", path, "--n", str(n)],
                                _pipeline_check(masks, n, path_free)))
    return commands


def _dichotomy_check(masks, n):
    def check(report, facts):
        err = _report_error(report, "dichotomy")
        if err:
            return err
        res = report["results"]
        if res["kind"] not in ("chordless_path", "k22"):
            return "dichotomy says %r on a host with a K22 copy" % res["kind"]
        return _witness_error(masks, res, n, path_free=False)
    return check


def _pipeline_check(masks, n, path_free):
    """Checks of ``pipeline --n n``; ``path_free``: the host has no chordless n-path.

    The table's colouring is recomputed here, so a certificate must be
    homogeneous under it and a ``no_homogeneous_set`` answer must survive an
    independent search.
    """
    size = len(masks)
    q = max(n + 1, 8)

    def check(report, facts):
        err = _report_error(report, "pipeline")
        if err:
            return err
        res = report["results"]
        if not path_free and res["outcome"] == "chordless_path" and "certificate" not in res:
            # Found by the direct search before any table was built.
            return checks.chordless_path_error(masks, res["path"], n)
        if res["outcome"] not in ("k22", "chordless_path", "no_homogeneous_set"):
            return "pipeline outcome %r" % res["outcome"]
        if res["table_pairs"] != size * (size - 1) // 2:
            return "pipeline table has %d pairs for %d vertices" % (res["table_pairs"], size)
        colors = checks.four_coloring(masks, n)
        if res["colors_used"] != len(set(colors.values())):
            return "pipeline used %d colours, the colouring has %d" % (
                res["colors_used"], len(set(colors.values())))
        cert = res.get("certificate")
        if (cert is None) != (res["outcome"] == "no_homogeneous_set"):
            return "pipeline certificate does not match outcome %r" % res["outcome"]
        if cert is None:
            found = checks.find_homogeneous(colors, size, q)
            if found is not None:
                return "pipeline found no homogeneous set, but %r is one" % found
            return None
        err = checks.homogeneous_error(colors, cert["subset"], cert["color"], q)
        return err or _witness_error(masks, res, n, path_free)
    return check


# ---------------------------------------------------------------------------
# enumerate: exhaustive mn-search over every small traceable host


def _recount(size, n):
    """(hosts, neither) on ``size`` vertices, enumerated here by brute force."""
    slots = [(i, j) for i in range(size) for j in range(i + 2, size)]
    path = [(i, i + 1) for i in range(size - 1)]
    neither = 0
    for bits in range(1 << len(slots)):
        chords = [slots[b] for b in range(len(slots)) if (bits >> b) & 1]
        masks = checks.masks_from_edges(size, path + chords)
        if checks.find_chordless_path(masks, n) is None and not checks.has_k22(masks):
            neither += 1
    return 1 << len(slots), neither


def build_enumerate(rng, chordlab, work, searches=((4, 8), (5, 7), (6, 6))):
    # The enumeration is exhaustive, so only the order of the searches is seeded.
    searches = list(searches)
    rng.shuffle(searches)
    commands = []
    for n, max_size in searches:
        path = os.path.join(work, "mn_%d.json" % n)
        commands.append(Command(
            "mn_search",
            ["mn-search", "--n", str(n), "--max-size", str(max_size), "--report", path],
            _mn_check(n, max_size, path), (path,)))
    return commands


def _mn_check(n, max_size, path):
    def check(report, facts):
        err = _report_error(report, "mn-search")
        if err:
            return err
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload != report["results"]:
            return "mn-search report file differs from the printed results"
        sizes = payload["sizes"]
        if [s["size"] for s in sizes] != list(range(1, max_size + 1)):
            return "mn-search covered sizes %r" % [s["size"] for s in sizes]
        largest = None
        for s in sizes:
            size = s["size"]
            if s["graphs"] != 1 << ((size - 1) * (size - 2) // 2):
                return "mn-search counted %d hosts on %d vertices" % (s["graphs"], size)
            if n == 4 and s["neither"] != MN4_NEITHER[size]:
                return "mn-search n=4 size %d: %d neither, pinned %d" % (
                    size, s["neither"], MN4_NEITHER[size])
            if size <= MN_RECOUNT_MAX and s["neither"] != _recount(size, n)[1]:
                return "mn-search n=%d size %d: %d neither, brute force disagrees" % (
                    n, size, s["neither"])
            # chordlab prints the 1-vertex example (no edges) as null; see NOTES.md.
            if (s["example"] is None) != (s["neither"] == 0 or size == 1):
                return "mn-search size %d example does not match its count" % size
            if s["neither"]:
                largest = size
            if s["example"] is not None:
                masks = checks.masks_from_edges(size, s["example"])
                if any(not (masks[i] >> (i + 1)) & 1 for i in range(size - 1)):
                    return "mn-search example on %d vertices is not traceable" % size
                if checks.find_chordless_path(masks, n) or checks.has_k22(masks):
                    return "mn-search example on %d vertices is not a neither-instance" % size
        want = None if largest is None else largest + 1
        if payload["empirical_lower_bound"] != want:
            return "mn-search bound %r, want %r" % (payload["empirical_lower_bound"], want)
        return None
    return check


# ---------------------------------------------------------------------------
# lattice: spurred fences at every odd target, seeded random length-3 lattices


def _random_length3(rng, inner):
    """Random length-3 lattice: bounds 0 and n-1, atoms, coatoms, sparse covers.

    A cover is added only while every coatom pair stays over at most one
    common atom, which is what makes all meets and joins exist.
    """
    n = inner + 2
    na = rng.randint(inner // 3, 2 * inner // 3)
    atoms = range(1, 1 + na)
    coatoms = range(1 + na, n - 1)
    under = {c: set() for c in coatoms}
    for a in atoms:
        for c in coatoms:
            if rng.random() < 0.3 and not any(
                    a in under[c2] and under[c] & under[c2] for c2 in coatoms if c2 != c):
                under[c].add(a)
    pairs = {(x, x) for x in range(n)} | {(0, x) for x in range(n)} | {(x, n - 1) for x in range(n)}
    pairs |= {(a, c) for c in coatoms for a in under[c]}
    return n, sorted(pairs)


def _ranks(n, below, gens):
    """Generation rank of every element the generators reach."""
    above = [sum(1 << y for y in range(n) if (below[y] >> x) & 1) for x in range(n)]

    def extreme(mask, order):
        return next(g for g in range(n) if (mask >> g) & 1 and mask & ~order[g] == 0)

    rank = dict.fromkeys(gens, 0)
    level = 0
    while True:
        new = set()
        for x, y in itertools.combinations(list(rank), 2):
            new.add(extreme(below[x] & below[y], below))  # meet
            new.add(extreme(above[x] & above[y], above))  # join
        new -= rank.keys()
        if not new:
            return rank
        level += 1
        rank.update(dict.fromkeys(new, level))


def _generators(n, below):
    """Elements no meet or join can produce, plus whatever the closure misses."""
    atoms, coatoms = checks.atoms_and_coatoms(n, below)
    gens = {a for a in atoms if sum((below[c] >> a) & 1 for c in coatoms if c != a) < 2}
    gens |= {c for c in coatoms if sum((below[c] >> a) & 1 for a in atoms if a != c) < 2}
    while True:
        rank = _ranks(n, below, sorted(gens))
        if len(rank) == n:
            return sorted(gens), rank
        gens.add(min(set(range(n)) - rank.keys()))


def build_lattice(rng, chordlab, work, fence_lengths=(33, 39, 45), random_lattices=12,
                  random_inner=28):
    commands = []
    for n_fence in fence_lengths:
        lat, gens, _ = chordlab.lattices.spurred_fence_lattice(n_fence)
        # A seeded relabelling: the same order with different element codes.
        perm = list(range(lat.n))
        rng.shuffle(perm)
        pairs = sorted((perm[x], perm[y]) for x, y in lat.leq_pairs())
        path = os.path.join(work, "spurred_%d.json" % n_fence)
        _write_json(path, {"n": lat.n, "leq": [list(p) for p in pairs],
                           "generators": sorted(perm[g] for g in gens)})
        below = checks.below_masks(lat.n, pairs)
        commands.append(_lattice_verify(path, lat.n, below))
        for target in range(1, n_fence - 1, 2):
            commands.append(_lattice_fences(path, below, target))
    made = 0
    while made < random_lattices:
        n, pairs = _random_length3(rng, random_inner)
        below = checks.below_masks(n, pairs)
        gens, rank = _generators(n, below)
        if max(rank[x] for x in range(1, n - 1)) < 1:
            continue  # no derived element, so no branch to hold a fence
        path = os.path.join(work, "random_%d.json" % made)
        _write_json(path, {"n": n, "leq": [list(p) for p in pairs], "generators": gens})
        commands.append(_lattice_verify(path, n, below))
        commands.append(_lattice_fences(path, below, 1))
        made += 1
    return commands


def _lattice_verify(path, n, below):
    atoms, coatoms = checks.atoms_and_coatoms(n, below)

    def check(report, facts):
        err = _report_error(report, "lattice-verify")
        if err:
            return err
        names = [c["name"] for c in report["checks"]]
        if names != ["lattice-axioms", "length-3", "no-double-cover"]:
            return "lattice verify ran checks %r" % names
        res = report["results"]
        if res["atoms"] != atoms or res["coatoms"] != coatoms:
            return "lattice verify atoms/coatoms differ from the order's"
        return None
    return Command("lattice_verify", ["lattice", "verify", "--lattice", path], check)


def _lattice_fences(path, below, target):
    def check(report, facts):
        err = _report_error(report, "lattice-fences")
        if err:
            return err
        fence = report["results"]["fence"]
        if fence is None:
            return "no fence of length %d" % target
        return checks.fence_error(below, fence, target)
    return Command("lattice_fences",
                   ["lattice", "fences", "--lattice", path, "--target", str(target)], check)


WORKLOADS = {
    "staged": build_staged,
    "search": build_search,
    "enumerate": build_enumerate,
    "lattice": build_lattice,
}
