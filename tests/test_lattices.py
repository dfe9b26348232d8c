"""Lattices: validation, closure ranks, derivation tree, fence extraction."""

import itertools
import random
import sys
import tracemalloc

import pytest

from chordlab.errors import (
    CoverageError,
    InvalidInputError,
    LatticeAxiomError,
    StructuralError,
)
from chordlab.graphs import check_traceable, find_chordless_path, is_cograph
from chordlab.lattices import (
    BoundedPoset,
    FiniteLattice,
    GenTree,
    RankTable,
    _missing_meet_or_join,
    _order_masks,
    build_tree,
    check_length3,
    check_no_double_cover,
    closure_and_rank,
    comparability_graph,
    fence_lattice,
    find_fences,
    spurred_fence_lattice,
    validate_fence,
)

from oracles import (
    assert_tree_properties,
    brute_double_cover,
    comparable,
    generating_set,
    inclusion_order,
    leq,
    naive_closure_and_rank,
    naive_lattice_axioms,
    naive_tree_levels,
    pairwise_fence,
    pipeline_capacity,
    random_bounded_poset,
    random_closure_system,
    random_length3_lattice,
    rank_masks,
    reference_order_masks,
    tree_levels,
    tree_nodes,
)

DIAMOND = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]


def _k22_poset():
    # bottom 0, atoms 1-2, coatoms 3-4, top 5; both atoms under both coatoms
    pairs = [(x, x) for x in range(6)]
    pairs += [(0, x) for x in range(1, 6)]
    pairs += [(x, 5) for x in range(5)]
    pairs += [(1, 3), (1, 4), (2, 3), (2, 4)]
    return 6, pairs


def _failed_axiom(n, pairs) -> LatticeAxiomError:
    with pytest.raises(LatticeAxiomError) as exc:
        FiniteLattice(n, pairs)
    return exc.value


def test_validate_lattice_examples():
    FiniteLattice(2, [(0, 0), (1, 1), (0, 1)])
    FiniteLattice(4, DIAMOND)
    n, pairs = _k22_poset()
    error = _failed_axiom(n, pairs)
    assert error.axiom == "join-exists"
    assert error.witness == (1, 2)


def test_validate_lattice_rejects_broken_orders():
    assert _failed_axiom(2, [(0, 0), (0, 1)]).axiom == "reflexive"
    assert _failed_axiom(2, [(0, 0), (1, 1), (0, 1), (1, 0)]).axiom == "antisymmetric"
    pairs = [(x, x) for x in range(3)] + [(0, 1), (1, 2)]
    assert _failed_axiom(3, pairs).axiom == "transitive"


def _random_order(rng, n):
    """A random relation on 0..n-1; half the time a bounded partial order.

    The bounded orders put each inner element on a random level 1..3 and
    relate levels at random, with a bottom and a top; after transitive
    closure and a random relabelling they pass every order axiom and fail,
    if anything, only meet-exists or join-exists.
    """
    pairs = {(x, x) for x in range(n)}
    if n < 2 or rng.random() < 0.5:
        for x in range(n):
            for y in range(n):
                if x != y and rng.random() < 0.3:
                    pairs.add((x, y))
        return pairs
    level = [0] + [rng.randint(1, 3) for _ in range(n - 2)] + [4]
    pairs |= {
        (x, y)
        for x in range(n)
        for y in range(n)
        if level[x] < level[y] and (level[x] == 0 or level[y] == 4 or rng.random() < 0.5)
    }
    for z in range(n):  # Warshall: close under transitivity
        pairs |= {(x, y) for x, w in pairs if w == z for v, y in pairs if v == z}
    perm = list(range(n))
    rng.shuffle(perm)
    return {(perm[x], perm[y]) for x, y in pairs}


def _with_bounds(n, pairs):
    """``pairs`` plus every loop, a bottom 0 and a top n - 1, sorted."""
    bounds = {(0, x) for x in range(n)} | {(x, n - 1) for x in range(n)}
    return sorted(pairs | bounds | {(x, x) for x in range(n)})


def _lattices_of_any_length(rng, count):
    """``count`` random intersection-closed families of subsets of a k-set
    (k <= 7), chains of 1 to 7 elements and the boolean lattice 2^4, each
    ordered by inclusion and relabelled at random."""
    orders = [random_closure_system(rng, rng.randint(1, 7)) for _ in range(count)]
    orders += [inclusion_order(rng, [(1 << i) - 1 for i in range(m)]) for m in range(1, 8)]
    orders.append(inclusion_order(rng, range(16)))
    return orders


def _axiom_corpus(rng):
    """Random relations, two orders that lack meets and joins, and lattices
    of any length, each also one pair short and one pair over."""
    orders = []
    for _ in range(300):
        n = rng.randint(1, 9)
        orders.append((n, sorted(_random_order(rng, n))))
    # 1 and 2 lie over atoms 3, 4 and under coatoms 5, 6: no meet and no join
    inner = {(a, m) for a in (3, 4) for m in (1, 2, 5, 6)}
    inner |= {(m, c) for m in (1, 2) for c in (5, 6)}
    orders.append((8, _with_bounds(8, inner)))
    # in row 1 the join of 1, 2 fails before the meet of 1, 3: 1 and 2 lie
    # under coatoms 4, 5, and 1 and 3 over atoms 6, 7
    inner = {(a, m) for a in (6, 7) for m in (1, 3, 4, 5)}
    inner |= {(m, c) for m in (1, 2) for c in (4, 5)}
    orders.append((9, _with_bounds(9, inner)))
    # lattices of any length, and copies one pair short or one pair over
    for n, pairs in _lattices_of_any_length(rng, 60):
        orders.append((n, pairs))
        strict = [p for p in pairs if p[0] != p[1]]
        if strict:
            drop = rng.choice(strict)
            orders.append((n, [p for p in pairs if p != drop]))
        orders.append((n, pairs + [(rng.randrange(n), rng.randrange(n))]))
    return orders


def test_validate_lattice_matches_naive_oracle():
    seen = set()
    for n, pairs in _axiom_corpus(random.Random(2)):
        naive = naive_lattice_axioms(n, pairs)
        if naive is None:
            FiniteLattice(n, pairs)
            continue
        error = _failed_axiom(n, pairs)
        assert error.axiom == naive[0]
        seen.add(error.axiom)
        if error.axiom in ("meet-exists", "join-exists"):
            assert error.witness == naive[1]
            assert repr(naive[1]) in str(error)
    assert {"transitive", "meet-exists", "join-exists"} <= seen


def _broken_orders(rng, n, pairs):
    """Shuffled copies of a bounded order's pair list with one defect each:
    a missing loop, two 2-cycles, a broken transitive triple, an element
    below top alone (no bottom) and one above bottom alone (no top)."""
    pairs = sorted(pairs)
    have = set(pairs)
    strict = [p for p in pairs if p[0] != p[1]]
    loop = (rng.randrange(n),) * 2
    broken = {"reflexive": [p for p in pairs if p != loop]}
    if strict:
        cycles = rng.sample(strict, min(2, len(strict)))
        broken["antisymmetric"] = pairs + [(y, x) for x, y in cycles]
    triples = [
        (x, z) for x, y in strict for y2, z in strict if y2 == y and (x, z) in have
    ]
    if triples:
        drop = rng.choice(triples)
        broken["transitive"] = [p for p in pairs if p != drop]
    bottom = next(b for b in range(n) if all((b, x) in have for x in range(n)))
    top = next(t for t in range(n) if all((x, t) in have for x in range(n)))
    broken["bottom-exists"] = pairs + [(n, n), (n, top)]
    broken["top-exists"] = pairs + [(n, n), (bottom, n)]
    for axiom, broken_pairs in broken.items():
        rng.shuffle(broken_pairs)
        yield axiom, n + axiom.endswith("-exists"), broken_pairs


def _order_outcome(order_masks, n, pairs):
    try:
        return order_masks(n, pairs)
    except LatticeAxiomError as exc:
        return exc.axiom, exc.witness, str(exc)


def test_order_axioms_match_the_per_pair_reference():
    # the bulk row checks name the same first axiom and witness as the
    # per-pair loops, the set-order antisymmetric pair included
    rng = random.Random(26)
    orders = _axiom_corpus(random.Random(2))
    bounded = [random_bounded_poset(rng) for _ in range(60)]
    bounded += [random_length3_lattice(rng, 14) for _ in range(60)]
    seen = []
    for n, pairs in bounded:
        for axiom, m, broken_pairs in _broken_orders(rng, n, pairs):
            got = _order_outcome(_order_masks, m, broken_pairs)
            assert got[0] == axiom
            orders.append((m, broken_pairs))
            seen.append(axiom)
    for n, pairs in orders:
        assert _order_outcome(_order_masks, n, pairs) == _order_outcome(
            reference_order_masks, n, pairs
        )
    assert min(seen.count(axiom) for axiom in set(seen)) > 50 and len(set(seen)) == 5


def _random_length3_order(rng, inner):
    """A bounded order on ``inner`` + 2 elements, relabelled at random, whose
    inner elements are each low or high, with some low-high pairs related; an
    element related to no other inner one is both an atom and a coatom."""
    n = inner + 2
    high = [rng.random() < 0.5 for _ in range(n)]
    p = rng.choice([0.2, 0.4, 0.6])
    pairs = {(x, x) for x in range(n)} | {(0, x) for x in range(n)}
    pairs |= {(x, n - 1) for x in range(n)}
    pairs |= {
        (a, c)
        for a in range(1, n - 1)
        for c in range(1, n - 1)
        if not high[a] and high[c] and rng.random() < p
    }
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((perm[x], perm[y]) for x, y in pairs)


def test_length3_axioms_by_k22_match_the_scan():
    # the K22 route answers for every length-3 order; the pairwise scan and,
    # on small orders, the triple-loop oracle must give the same (axiom, pair).
    # Such an order that lacks a meet also lacks a join (two coatoms over two
    # atoms are two atoms under two coatoms), so the lesser pair decides which
    # one is reported, and both outcomes must occur.
    rng = random.Random(23)
    failed = []
    shared = 0  # orders with an element that is both an atom and a coatom
    for _ in range(2000):
        n, pairs = _random_length3_order(rng, rng.randint(0, 12))
        poset = BoundedPoset(n, pairs)
        assert check_length3(poset)
        scan = _missing_meet_or_join(poset.below, poset.above)
        try:
            FiniteLattice(n, pairs)
            got = None
        except LatticeAxiomError as exc:
            got = (exc.axiom, exc.witness)
        assert got == (None if scan is None else (scan[0] + "-exists", scan[1]))
        if n <= 9:
            assert got == naive_lattice_axioms(n, pairs)
        failed.append(got and got[0])
        shared += bool(poset.atom_mask & poset.coatom_mask)
    assert min(failed.count(axiom) for axiom in (None, "meet-exists", "join-exists")) > 100
    assert 100 < shared < 1900


def test_check_length3():
    assert check_length3(FiniteLattice(4, DIAMOND))
    chain4 = [(x, y) for x in range(4) for y in range(x, 4)]
    assert check_length3(FiniteLattice(4, chain4))
    chain5 = [(x, y) for x in range(5) for y in range(x, 5)]
    assert not check_length3(FiniteLattice(5, chain5))


def test_fence_extraction_rejects_a_lattice_longer_than_3():
    chain5 = [(x, y) for x in range(5) for y in range(x, 5)]
    lat = FiniteLattice(5, chain5)
    with pytest.raises(InvalidInputError):
        find_fences(lat, range(5), 1)
    with pytest.raises(InvalidInputError):
        pipeline_capacity(lat, range(5))


def test_validate_order_checks_pairs_before_sizing_tables():
    # a range error still comes first, and reflexivity needs no n-sized table
    with pytest.raises(InvalidInputError) as exc:
        FiniteLattice(10**20, [(0, 0), (-1, 0)])
    assert type(exc.value) is InvalidInputError  # not an axiom: the input is malformed
    error = _failed_axiom(10**20, [(0, 0), (1, 1), (0, 1)])
    assert (error.axiom, error.witness) == ("reflexive", (2,))


def test_check_no_double_cover():
    n, pairs = _k22_poset()
    poset = BoundedPoset(n, pairs)
    assert check_no_double_cover(poset) == (1, 2, 3, 4)
    assert check_no_double_cover(FiniteLattice(4, DIAMOND)) is None
    lat, _ = fence_lattice(9)
    assert check_no_double_cover(lat) is None


def test_double_cover_equals_the_coatom_pair_scan():
    rng = random.Random(83)
    found = both = 0
    for _ in range(400):
        n, pairs = random_bounded_poset(rng, 12)
        poset = BoundedPoset(n, pairs)
        witness = check_no_double_cover(poset)
        assert witness == brute_double_cover(poset)
        found += witness is not None
        both += bool(set(poset.atoms()) & set(poset.coatoms()))
    assert found > 30 and both > 100  # double covers and atom-coatoms both occur


def test_random_length3_lattices_have_no_double_cover():
    rng = random.Random(77)
    for _ in range(50):
        n, pairs = random_length3_lattice(rng, 20)
        lat = FiniteLattice(n, pairs)
        assert check_length3(lat)
        assert check_no_double_cover(lat) is None


def test_closure_and_rank_boolean_square():
    lat = FiniteLattice(4, DIAMOND)
    table = closure_and_rank(lat, [1, 2])
    assert table.levels == (0b0110, 0b1001)


def test_closure_coverage_error():
    lat = FiniteLattice(4, DIAMOND)
    with pytest.raises(CoverageError) as exc:
        closure_and_rank(lat, [1])
    assert exc.value.unreached == (0, 2, 3)


def test_closure_all_elements_rank_zero():
    lat = FiniteLattice(4, DIAMOND)
    table = closure_and_rank(lat, range(4))
    assert table.levels == (0b1111,)


def test_closure_levels_monotone():
    rng = random.Random(4)
    for _ in range(20):
        n, pairs = random_length3_lattice(rng, 14)
        lat = FiniteLattice(n, pairs)
        gens = generating_set(lat)
        table = closure_and_rank(lat, gens)
        # nonempty, disjoint rank masks: their running unions grow strictly
        seen = 0
        for level in table.levels:
            assert level and seen & level == 0
            seen |= level
        assert len(table.levels) <= n + 1


def _fence_through_find_chordless_path(lat, tree, target):
    """``find_fences``' branch loop as it ran through ``find_chordless_path``."""
    for branch in tree.branches_by_depth():
        if len(branch) < target + 1:
            return None
        seq = find_chordless_path(comparability_graph(lat, branch), target + 1)
        if seq is not None:
            return seq if (lat.atom_mask >> seq[0]) & 1 else tuple(reversed(seq))
    return None


def test_closure_and_tree_match_naive_oracles():
    cases = [fence_lattice(n) for n in (1, 3, 7, 11)]
    cases += [spurred_fence_lattice(n)[:2] for n in (3, 5, 9, 15, 33, 45)]
    rng = random.Random(8)
    for _ in range(40):
        n, pairs = random_length3_lattice(rng, 42)  # up to 40 inner elements
        lat = FiniteLattice(n, pairs)
        gens = generating_set(lat)
        extra = [x for x in range(n) if x not in gens and rng.random() < 0.2]
        cases += [(lat, gens), (lat, sorted(gens + extra))]
    long_branches = 0
    for lat, gens in cases:
        table = closure_and_rank(lat, gens)
        assert table.levels == rank_masks(naive_closure_and_rank(lat, gens))
        tree = build_tree(lat, table)
        assert_tree_properties(lat, table, tree)
        assert tree_levels(tree) == naive_tree_levels(lat, table, len(table.levels) - 1)
        # no branch of four or more entries is a cograph, so find_fences,
        # which skips the cotree pre-pass, finds what the old route found
        for branch in tree_nodes(tree):
            if len(branch) >= 4:
                assert not is_cograph(comparability_graph(lat, branch).rows)
                long_branches += 1
        for target in range(1, len(tree.levels) + 2, 2):
            old = _fence_through_find_chordless_path(lat, tree, target)
            assert find_fences(lat, gens, target) == old
    assert long_branches > 600


def _assert_closure_matches_naive(lat, gens):
    """``closure_and_rank`` gives the oracle's levels, or the CoverageError
    naming the elements the oracle's last level misses; True when covered."""
    levels = naive_closure_and_rank(lat, gens)
    unreached = tuple(x for x in range(lat.n) if not (levels[-1] >> x) & 1)
    if unreached:
        with pytest.raises(CoverageError) as exc:
            closure_and_rank(lat, gens)
        assert exc.value.unreached == unreached
        return False
    assert closure_and_rank(lat, gens).levels == rank_masks(levels)
    return True


def _order_of(n, inner_pairs):
    """A bounded order on 0..n-1 with bottom 0, top n - 1 and ``inner_pairs``."""
    return FiniteLattice(n, _with_bounds(n, set(inner_pairs)))


def test_closure_matches_naive_oracle_on_every_generator_set():
    # small length-3 lattices, each under all of its nonempty generator sets
    cases = {
        "diamond": FiniteLattice(4, DIAMOND),
        "4-chain": fence_lattice(1)[0],
        # 3 is an atom and a coatom; 1 < 2 is a chain beside it
        "atom-coatom": _order_of(5, {(1, 2)}),
        # coatoms 5, 6 share no atom, nor do 7, 8: from the four coatoms
        # bottom comes only from such a pair
        "disjoint coatoms": _order_of(
            10, {(1, 5), (2, 5), (3, 6), (4, 6), (1, 7), (3, 7), (2, 8), (4, 8)}
        ),
        # coatoms 4, 5, 6 pairwise share one atom and no atom is under all three
        "triangle": _order_of(8, {(1, 4), (2, 4), (1, 5), (3, 5), (2, 6), (3, 6)}),
        # coatoms 4, 5, 6 all over atom 1, and atoms 1, 2, 3 under no common coatom
        "star": _order_of(8, {(1, 4), (2, 4), (1, 5), (3, 5), (1, 6)}),
    }
    for name, lat in cases.items():
        assert check_length3(lat), name
        covered = 0
        for size in range(1, lat.n + 1):
            for gens in itertools.combinations(range(lat.n), size):
                covered += _assert_closure_matches_naive(lat, gens)
        assert covered > 0, name


def test_closure_matches_naive_oracle_under_random_generator_sets():
    # spurred fences to k = 201 under their own generators and random ones,
    # and seeded random length-3 lattices under random generator sets
    rng = random.Random(47)
    for k in (3, 5, 9, 33, 101, 201):
        lat, gens, _ = spurred_fence_lattice(k)
        assert _assert_closure_matches_naive(lat, gens)
        _assert_closure_matches_naive(lat, [x for x in range(lat.n) if rng.random() < 0.5])
    covered = total = 0
    for _ in range(150):
        n, pairs = random_length3_lattice(rng, 30)
        lat = FiniteLattice(n, pairs)
        for _ in range(4):
            gens = rng.sample(range(n), rng.randint(1, n))
            covered += _assert_closure_matches_naive(lat, gens)
            total += 1
    assert 50 < covered < total - 50


def test_closure_matches_naive_oracle_beyond_length_3():
    # the closure takes length-3 lattices only, and refuses longer ones
    rng = random.Random(13)
    longer = covered = 0
    for n, pairs in _lattices_of_any_length(rng, 150):
        lat = FiniteLattice(n, pairs)
        longer += not check_length3(lat)
        for _ in range(3):
            gens = rng.sample(range(n), rng.randint(1, min(n, 5)))
            levels = naive_closure_and_rank(lat, gens)
            unreached = tuple(x for x in range(n) if not (levels[-1] >> x) & 1)
            if not check_length3(lat):
                with pytest.raises(InvalidInputError, match="length-3"):
                    closure_and_rank(lat, gens)
            elif unreached:
                with pytest.raises(CoverageError) as exc:
                    closure_and_rank(lat, gens)
                assert exc.value.unreached == unreached
            else:
                assert closure_and_rank(lat, gens).levels == rank_masks(levels)
                covered += 1
    assert longer > 30 and 100 < covered < 400


def test_build_tree_boolean_square():
    lat = FiniteLattice(4, DIAMOND)
    table = closure_and_rank(lat, [1, 2])
    tree = build_tree(lat, table)
    assert_tree_properties(lat, table, tree)
    assert tree.levels[0] == (1, 2)
    assert tree.levels[1] == ()  # rank-1 elements are the bounds, excluded


def test_build_tree_fence_roots():
    lat, gens = fence_lattice(7)
    table = closure_and_rank(lat, gens)
    tree = build_tree(lat, table)
    assert_tree_properties(lat, table, tree)
    assert tree.levels[0] == tuple(gens)
    # every branch alternates atoms and coatoms and stays comparable
    atoms, coatoms = set(lat.atoms()), set(lat.coatoms())
    for node in tree_nodes(tree):
        for a, b in zip(node, node[1:]):
            assert comparable(lat, a, b)
            assert (a in atoms) != (b in atoms)


def test_tree_reachability_matches_ranks():
    rng = random.Random(5)
    for _ in range(15):
        n, pairs = random_length3_lattice(rng, 16)
        lat = FiniteLattice(n, pairs)
        gens = generating_set(lat)
        table = closure_and_rank(lat, gens)
        tree = build_tree(lat, table)
        assert_tree_properties(lat, table, tree)
        tails = {node[-1] for node in tree_nodes(tree)}
        for x in range(lat.n):
            if not lat.is_bound(x):
                assert x in tails


def test_comparability_graph():
    lat, gens = fence_lattice(5)
    elems = tuple(range(1, 7))
    g = comparability_graph(lat, elems)
    assert check_traceable(g)
    assert g.edge_count() == 5  # exactly the fence comparabilities
    with pytest.raises(InvalidInputError):
        comparability_graph(lat, (0, 1))  # bottom is excluded


def test_comparability_graph_of_antichain_and_chain():
    lat, _ = fence_lattice(3)
    atoms = lat.atoms()
    g = comparability_graph(lat, atoms)
    assert g.edge_count() == 0
    pair = (1, 2)  # x0 < x1: fence element x_i has code i + 1
    g2 = comparability_graph(lat, pair)
    assert g2.edge_count() == 1


def test_validate_fence():
    lat, _ = fence_lattice(5)
    elems = tuple(range(1, 7))
    assert validate_fence(lat, elems)
    assert not validate_fence(lat, tuple(reversed(elems)))  # starts at a coatom
    assert not validate_fence(lat, elems[:3])  # even length
    assert not validate_fence(lat, elems[:2] + elems[1:2])  # repeats
    # bounds and repeats get the pairwise scan's verdict; bottom < top is one
    bottom, top = lat.bottom, lat.top
    assert validate_fence(lat, (bottom, top))
    for seq in [(bottom, 1), (2, top), (bottom, 2, 3, top), (1, 2, 1, 2), (top, bottom)]:
        assert validate_fence(lat, seq) == pairwise_fence(lat, seq), seq


def _fence_candidates(rng, lat):
    """A random chordless walk through non-bound elements (a fence or a
    reversed fence when its count is even), then the same walk reversed, with
    a repeat, with one element dropped and with one entry swapped for a
    random element."""
    inner = [x for x in range(lat.n) if not lat.is_bound(x)]
    walk = [rng.choice(inner)]
    for _ in range(rng.randint(1, 7)):
        step = [
            y
            for y in inner
            if y not in walk
            and comparable(lat, walk[-1], y)
            and not any(comparable(lat, x, y) for x in walk[:-1])
        ]
        if not step:
            break
        walk.append(rng.choice(step))
    swapped = list(walk)
    swapped[rng.randrange(len(walk))] = rng.choice(inner)
    return [walk, walk[::-1], walk + walk[:1], walk[:-1], swapped]


def test_validate_fence_equals_the_pairwise_scan():
    rng = random.Random(31)
    verdicts = []
    for _ in range(300):
        n, pairs = random_length3_lattice(rng, 20)
        lat = FiniteLattice(n, pairs)
        for seq in _fence_candidates(rng, lat):
            verdict = validate_fence(lat, seq)
            assert verdict == pairwise_fence(lat, seq), seq
            verdicts.append(verdict)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_comparability_graph_rows_are_the_comparabilities():
    rng = random.Random(37)
    for _ in range(60):
        n, pairs = random_length3_lattice(rng, 20)
        lat = FiniteLattice(n, pairs)
        inner = [x for x in range(n) if not lat.is_bound(x)]
        elems = rng.sample(inner, rng.randint(0, len(inner)))
        g = comparability_graph(lat, elems)
        assert g.vertices == tuple(elems)
        for e, row in zip(elems, g.rows):
            assert row == sum(
                1 << j
                for j, f in enumerate(elems)
                if f != e and (leq(lat, e, f) or leq(lat, f, e))
            )


def test_elements_outside_the_lattice_are_input_errors():
    lat, _ = fence_lattice(5)
    for bad in (-1, lat.n):
        with pytest.raises(InvalidInputError, match="outside 0..%d" % (lat.n - 1)):
            comparability_graph(lat, (1, bad))
        for seq in ((1, bad), (bad, 1, 2), (1, 2, 3, bad)):
            with pytest.raises(InvalidInputError, match="outside 0..%d" % (lat.n - 1)):
                validate_fence(lat, seq)


def test_fence_lattice_capacity_is_one():
    # Interior fence elements are only derivable from both neighbours, so
    # every generating set keeps ranks at 0 or 1 and the tree shallow.
    for n in (3, 5, 9, 13):
        lat, gens = fence_lattice(n)
        table = closure_and_rank(lat, gens)
        assert len(table.levels) <= 2
        assert pipeline_capacity(lat, gens) == 1
        fence = find_fences(lat, gens, 1)
        assert fence is not None and validate_fence(lat, fence)
        assert find_fences(lat, gens, 3) is None


def test_fence_lattice_rank_cap_holds_for_every_generating_set():
    # brute-force confirmation on a small instance: all generating subsets
    lat, _ = fence_lattice(5)
    best = 0
    for r in range(1, lat.n + 1):
        for gens in itertools.combinations(range(lat.n), r):
            try:
                table = closure_and_rank(lat, gens)
            except CoverageError:
                continue
            best = max(best, len(table.levels) - 1)
    assert best == 1


def test_a_lattice_keeps_one_order_relation():
    # below and above are the whole order; nothing derived from them, such as
    # a comparability table of n n-bit ints, stays behind
    lat, _, _ = spurred_fence_lattice(801)
    n, pairs = lat.n, lat.leq_pairs()
    del lat
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lat = FiniteLattice(n, pairs)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    masks = sum(sys.getsizeof(m) for m in lat.below + lat.above)
    assert kept <= 1.25 * masks, kept / masks


def test_spurred_fence_pipeline_reaches_every_target():
    for n in (5, 9, 13):
        lat, gens, fence = spurred_fence_lattice(n)
        FiniteLattice(lat.n, lat.leq_pairs())  # its own pairs pass the axioms again
        assert check_length3(lat)
        assert check_no_double_cover(lat) is None
        table = closure_and_rank(lat, gens)
        assert len(table.levels) == n
        assert pipeline_capacity(lat, gens) == n - 2
        for target in range(1, n - 1, 2):
            result = find_fences(lat, gens, target)
            assert result is not None
            assert validate_fence(lat, result)
            assert len(result) == target + 1


def test_find_fences_rejects_even_targets():
    lat, gens = fence_lattice(3)
    with pytest.raises(InvalidInputError):
        find_fences(lat, gens, 2)


def test_build_tree_structural_error_on_corrupt_ranks():
    lat, _ = fence_lattice(3)
    # claims element 3 has rank 2; nothing of rank 1 exists to reach it from
    fake = RankTable(levels=(0b010110, 0b100001, 0b001000))
    with pytest.raises(StructuralError, match="not reachable"):
        build_tree(lat, fake)
    # 1, 2 and 3 are rank 0 and again rank 2, which would grow the node
    # (3, 4, 3); the table check rejects it before any node
    fake = RankTable(levels=(0b001110, 0b110001, 0b001110))
    with pytest.raises(StructuralError, match="element 1 at two ranks"):
        build_tree(lat, fake)


def test_tree_check_catches_a_bad_last_entry():
    # a node is checked whole, so a bad last entry is caught like any other
    lat, gens, _ = spurred_fence_lattice(7)
    ranks = closure_and_rank(lat, gens)
    tree = build_tree(lat, ranks)
    assert_tree_properties(lat, ranks, tree)
    atoms, coatoms = set(lat.atoms()), set(lat.coatoms())
    i = len(ranks.levels) - 2
    prefix = tree.node(i, 0)
    last = prefix[-1]
    other = sorted(coatoms if last in atoms else atoms)
    fresh = [x for x in other if x not in prefix]
    cases = {
        "repeated entries": prefix[-2],
        "incomparable": next(x for x in fresh if not comparable(lat, last, x)),
        "do not alternate": lat.top,
        "exceeds the rank-%d bound" % (i + 1): next(
            x for x in fresh
            if comparable(lat, last, x) and x >= ranks.levels[i + 1].bit_length()
        ),
    }
    for message, x in cases.items():
        # the node prefix + (x,): last entry x, parent node 0 of level i
        levels, parents = list(tree.levels), list(tree.parents)
        levels[i + 1] += (x,)
        parents[i + 1] += (0,)
        bad = GenTree(levels=tuple(levels), parents=tuple(parents))
        assert tree_levels(bad)[i + 1][-1] == prefix + (x,)
        with pytest.raises(StructuralError, match=message):
            assert_tree_properties(lat, ranks, bad)


def test_find_fences_none_when_tree_too_shallow():
    lat = FiniteLattice(4, DIAMOND)
    assert find_fences(lat, [1, 2], 1) is None  # branches have length 1
    assert find_fences(lat, [1, 2], 3) is None


def test_fence_from_chordless_path_property():
    # any chordless path in a branch comparability graph maps to a fence
    rng = random.Random(6)
    for n in (9, 13):
        lat, gens, _ = spurred_fence_lattice(n)
        table = closure_and_rank(lat, gens)
        tree = build_tree(lat, table)
        assert_tree_properties(lat, table, tree)
        atoms = set(lat.atoms())
        deepest = next(level for level in reversed(tree_levels(tree)) if level)
        for branch in deepest[:3]:
            g = comparability_graph(lat, branch)
            for want in range(2, len(branch) + 1, 2):
                p = find_chordless_path(g, want)
                if p is None:
                    continue
                seq = p if p[0] in atoms else tuple(reversed(p))
                assert validate_fence(lat, seq)
