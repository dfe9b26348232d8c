"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All checks are exact; the only pinned constants are regression values
fixed by exhaustive enumeration on the first run (criterion 6) and the
structural fence-pipeline capacity of the fence-with-bounds family
(criterion 9), which rank analysis caps at target 1 for every generating set.
"""

import itertools
import random
import sys

from chordlab.construction import (
    build_decode_context,
    check_history_lemmas,
    coding_change_law,
    decode_range,
    history_has_no_chordless4,
    run,
    seeded_injective,
)
from chordlab.errors import ExtractionError, LatticeAxiomError, StructuralError
from chordlab.graphs import (
    K22,
    Pattern,
)
from chordlab.lattices import (
    FiniteLattice,
    build_tree,
    check_length3,
    check_no_double_cover,
    closure_and_rank,
    fence_lattice,
    find_fences,
    spurred_fence_lattice,
    validate_fence,
)
from chordlab.ramsey import (
    RESIDUAL,
    dichotomy,
    estimate_min_m,
    proof_pipeline,
    tower,
)

from oracles import (
    assert_tree_properties,
    brute_chordless_path,
    brute_embedding_exists,
    comparable,
    embedding_is_valid_by_names,
    generating_set,
    graph,
    is_chordless,
    iter_traceable_masks,
    leq,
    masks_to_graph,
    naive_stage_lemmas,
    pipeline_capacity,
    random_length3_lattice,
    random_no_c5_host,
    tree_nodes,
)


def _is_lattice(n, pairs) -> bool:
    try:
        FiniteLattice(n, pairs)
    except LatticeAxiomError:
        return False
    return True


def _verdict(num, label, ok):
    # written past pytest's capture so the line shows in default runs too
    line = "ACCEPTANCE %2d %-34s %s" % (num, label, "PASS" if ok else "FAIL")
    print(line, file=sys.__stdout__)
    assert ok, "criterion %d failed: %s" % (num, label)


def test_criterion_1_stage_lemma_suite():
    ok = True
    for seed in range(100):
        history = run(seeded_injective(seed, 200), 200)
        witnesses = check_history_lemmas(history)
        ok = ok and all(w is None for stage in witnesses for w in stage)
        if seed < 5:  # literal per-state oracle, sampled for cross-validation
            for s in (0, 100, 200):
                ok = ok and naive_stage_lemmas(history, s) == []
        if not ok:
            break
    _verdict(1, "stage lemma suite (100 x T=200)", ok)


def test_criterion_2_no_chordless_4paths():
    ok = True
    for seed in range(20):
        history = run(seeded_injective(seed, 20), 20)
        ok = ok and history.final_k <= 250
        ok = ok and history_has_no_chordless4(history)
        if not ok:
            break
    _verdict(2, "no chordless 4-paths (20 x T=20)", ok)


def test_criterion_3_coding_biconditional():
    ok = all(
        coding_change_law(run(seeded_injective(seed, 100), 100))
        for seed in range(1000)
    )
    _verdict(3, "coding biconditional (1000 x T=100)", ok)


def test_criterion_4_decode_correctness():
    ok = True
    queries = 0
    for seed in range(100):
        f = seeded_injective(seed, 50)  # a seeded permutation of 0..49
        history = run(f, 50)
        ctx = build_decode_context(history, Pattern("A", 10))
        for k in range(10):
            queries += 1
            ok = ok and decode_range(ctx, history.f, k) is (k in history.consumed)
        if not ok:
            break
    ok = ok and queries == 1000
    _verdict(4, "decode correctness (1000 queries)", ok)


def test_criterion_5_dichotomy_oracle_equivalence():
    ok = True
    total = 0
    for size in range(1, 8):
        for masks, _ in iter_traceable_masks(size):
            g = masks_to_graph(masks, size)
            witness = dichotomy(g, 4)
            brute_path = brute_chordless_path(g, 4)
            brute_k22 = brute_embedding_exists(g, K22)
            if witness.kind == "chordless_path":
                good = brute_path is not None and is_chordless(g, witness.path)
            elif witness.kind == "k22":
                good = (
                    brute_path is None
                    and brute_k22 is not None
                    and embedding_is_valid_by_names(g, witness.embedding)
                )
            else:
                good = brute_path is None and brute_k22 is None
            total += 1
            if not good:
                ok = False
                break
        if not ok:
            break
    ok = ok and total == sum(
        1 << len([p for p in itertools.combinations(range(s), 2) if p[1] > p[0] + 1])
        for s in range(1, 8)
    )
    _verdict(5, "dichotomy oracle equivalence (<=7)", ok)


# Regression constants fixed by the exhaustive enumeration on its first run:
# neither-instance counts per size for n=4, and the largest neither size <= 8.
EXPECTED_NEITHER_BY_SIZE = {1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 0, 7: 0, 8: 0}
EXPECTED_LARGEST_NEITHER = 5
SIZE4_WITNESS = ((0, 1), (0, 2), (1, 2), (2, 3))


def test_criterion_6_empirical_lower_bound():
    report = estimate_min_m(4, 8)
    counts = {c.size: c.neither for c in report.sizes}
    ok = counts == EXPECTED_NEITHER_BY_SIZE
    ok = ok and report.largest_neither == EXPECTED_LARGEST_NEITHER
    ok = ok and report.empirical_lower_bound == EXPECTED_LARGEST_NEITHER + 1
    by_size = {c.size: c for c in report.sizes}
    ok = ok and by_size[4].example == SIZE4_WITNESS
    # the size-4 witness really is a neither instance
    from chordlab.graphs import find_chordless_path, find_k22

    g = graph(range(4), SIZE4_WITNESS)
    ok = ok and find_chordless_path(g, 4) is None and find_k22(g.rows, g.rows) is None
    _verdict(6, "empirical m(4) bound (sizes <= 8)", ok)


def test_criterion_7_pipeline_soundness():
    rng = random.Random(2026)
    ok = True
    certificates = 0
    for _ in range(500):
        host = random_no_c5_host(rng, max_size=20)
        try:
            trace = proof_pipeline(host, 5)
        except ExtractionError:
            ok = False
            break
        if trace.certificate is None:
            continue
        certificates += 1
        if trace.certificate.color == RESIDUAL:
            path = trace.path
            ok = ok and path is not None and is_chordless(host, path)
            xs = trace.certificate.subset
            ok = ok and all(path[i] <= xs[i + 1] for i in range(len(path) - 1))
        else:
            ok = ok and trace.embedding is not None
            ok = ok and embedding_is_valid_by_names(host, trace.embedding)
        if not ok:
            break
    ok = ok and certificates > 100  # the trials must actually exercise extraction
    _verdict(7, "pipeline soundness (500 hosts)", ok)


def test_criterion_8_tower_values():
    ok = tower(2) == 4 and tower(3) == 16 and tower(4) == 65536
    _verdict(8, "tower values", ok)


FENCE_LENGTHS = tuple(range(3, 38, 2))


def test_criterion_9_lattice_pipeline():
    ok = True
    for n in (1,) + FENCE_LENGTHS:
        lat, gens = fence_lattice(n)
        ok = ok and _is_lattice(lat.n, lat.leq_pairs())
        ok = ok and check_length3(lat)
        ok = ok and check_no_double_cover(lat) is None
        # structural maximum of the tree pipeline on this family: interior
        # fence elements need both neighbours, so capacity is pinned at 1;
        # fence_lattice(1) is a 4-chain of generators, whose branches hold
        # one entry each, so there it is 0
        cap = pipeline_capacity(lat, gens)
        ok = ok and cap == (0 if n == 1 else 1)
        for target in range(1, cap + 1, 2):
            fence = find_fences(lat, gens, target)
            ok = ok and fence is not None and validate_fence(lat, fence)
        ok = ok and find_fences(lat, gens, cap + 2 if cap else 1) is None
        if not ok:
            break
    # the pendant-augmented family drives the same pipeline to full depth
    for n in FENCE_LENGTHS[1:]:
        lat, gens, _ = spurred_fence_lattice(n)
        ok = ok and check_length3(lat) and check_no_double_cover(lat) is None
        cap = pipeline_capacity(lat, gens)
        ok = ok and cap == n - 2
        for target in range(1, cap + 1, 2):
            fence = find_fences(lat, gens, target)
            ok = ok and fence is not None and validate_fence(lat, fence)
            ok = ok and len(fence) == target + 1
        if not ok:
            break
    rng = random.Random(99)
    for _ in range(200):
        n, pairs = random_length3_lattice(rng, 30)
        ok = ok and _is_lattice(n, pairs)
        ok = ok and check_no_double_cover(FiniteLattice(n, pairs)) is None
        if not ok:
            break
    _verdict(9, "lattice pipeline + double-cover law", ok)


def test_criterion_10_tree_properties():
    ok = True

    def tree_checks(lat, gens):
        table = closure_and_rank(lat, gens)
        tree = build_tree(lat, table)
        atoms, coatoms = set(lat.atoms()), set(lat.coatoms())
        try:
            assert_tree_properties(lat, table, tree)
            good = True
        except StructuralError:
            good = False
        tails = set()
        for node in tree_nodes(tree):
            tails.add(node[-1])
            good = good and len(set(node)) == len(node)
            for i, x in enumerate(node):
                good = good and (table.levels[i] >> x) & 1 == 1
                good = good and x < table.levels[i].bit_length()
            for a, b in zip(node, node[1:]):
                good = good and comparable(lat, a, b)
                lo, hi = (a, b) if leq(lat, a, b) else (b, a)
                good = good and lo in atoms and hi in coatoms
        for x in range(lat.n):
            if not lat.is_bound(x):
                good = good and x in tails
        return good

    for n in FENCE_LENGTHS:
        lat, gens = fence_lattice(n)
        ok = ok and tree_checks(lat, gens)
    for n in FENCE_LENGTHS[1:]:
        lat, gens, _ = spurred_fence_lattice(n)
        ok = ok and tree_checks(lat, gens)
    rng = random.Random(99)
    for _ in range(200):
        n, pairs = random_length3_lattice(rng, 30)
        lat = FiniteLattice(n, pairs)
        ok = ok and tree_checks(lat, generating_set(lat))
        if not ok:
            break
    _verdict(10, "tree properties (P1, P2, P4)", ok)
