"""Dump construction: stage rules, invariants, stability, decoding."""

import random

import pytest

from chordlab import construction, graphs
from chordlab.construction import (
    LEMMA_NAMES,
    MAX_SEEDED_LENGTH,
    build_decode_context,
    check_history_lemmas,
    coding_change_law,
    decode_range,
    history_has_no_chordless4,
    run,
    seeded_injective,
    stable_coding_prefix,
)
from chordlab.errors import (
    CapacityError,
    InvalidInputError,
    ResourceLimitError,
)
from chordlab.graphs import (
    Graph,
    Pattern,
    check_traceable,
    find_chordless_path,
    find_chordless_positions,
    is_cograph,
)

from oracles import (
    blocks,
    edges_from_rows,
    embedding_is_valid_by_names,
    has_edge,
    is_chordless,
    least_failures,
    literal_stage_rule,
    middle_edge_4path,
    naive_stage_lemmas,
    per_stage_no_chordless4,
    random_graph,
    seeded_permutation,
    sorted_edge_pairs,
)


def test_init():
    h = run([], 0)
    assert h.coding_at(0) == (0,) and len(h.state(0)) == 1
    assert [list(b) for b in blocks(h, 0)] == [[0]]
    assert check_traceable(h.state(0))


def test_step_large_case():
    h = run([5], 1)
    assert h.coding_at(1) == (0, 1) and len(h.state(1)) == 2
    assert sorted_edge_pairs(h.state(1)) == [(0, 1)]


def test_step_small_case_dumps():
    h = run([5, 0], 2)
    assert h.coding_at(2) == (2, 3, 4) and len(h.state(2)) == 5
    assert sorted_edge_pairs(h.state(2)) == [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
    assert [list(b) for b in blocks(h, 2)] == [[0, 1, 2], [3], [4]]


def test_run_examples():
    assert run([5, 0], 2).final_k == 4
    assert run([], 0).final_k == 0
    # identity sequence: every stage is a dump with n == s, adding 2 vertices
    h = run(range(8), 8)
    assert h.final_k == 16
    for s in range(8):
        assert h.coding_at(s + 1)[-1] == h.coding_at(s)[-1] + 2


def test_run_rejects_bad_f():
    with pytest.raises(InvalidInputError):
        run([1, 1], 2)
    with pytest.raises(InvalidInputError):
        run([1], 2)
    with pytest.raises(InvalidInputError):
        run([0, 1, 2], -1)


def test_every_stage_is_traceable():
    h = run(seeded_injective(9, 12), 12)
    for s in range(13):
        assert check_traceable(h.state(s))


def _failed(witnesses):
    """The failing lemmas of one stage's witness tuple, by name, in order."""
    pairs = zip(LEMMA_NAMES, witnesses, strict=True)
    return {name: w for name, w in pairs if w is not None}


def test_stage_lemmas_match_naive_oracle():
    for seed in range(10):
        h = run(seeded_injective(seed, 14), 14)
        witnesses = check_history_lemmas(h)
        assert len(witnesses) == 15
        for s in range(15):
            assert _failed(witnesses[s]) == {}
            assert naive_stage_lemmas(h, s) == []


def _toggle_pairs(rows, rng, count):
    """Toggle ``count`` random vertex pairs, keeping the rows symmetric."""
    for _ in range(count):
        x, y = rng.sample(range(len(rows)), 2)
        rows[x] ^= 1 << y
        rows[y] ^= 1 << x


def test_history_checker_equals_per_stage_checker():
    failing = 0
    for seed in range(110):
        rng = random.Random(seed)
        T = 18 if seed < 10 else rng.randint(1, 18)
        h = run(seeded_injective(seed, T), T)
        if seed >= 10:
            _toggle_pairs(h._rows, rng, rng.randint(1, 3))
        witnesses = check_history_lemmas(h)
        assert len(witnesses) == T + 1
        for s, stage in enumerate(witnesses):
            failed = _failed(stage)
            assert failed == least_failures(naive_stage_lemmas(h, s))
            failing += bool(failed)
        if seed < 10:
            assert all(w is None for stage in witnesses for w in stage)
    assert failing > 100


def test_history_checker_reports_the_least_witness_per_lemma():
    # Final blocks [0, 1, 2], [3, 4, 5, 6], [7], [8], [9]; coding (2, 6, 7, 8, 9).
    planted = [
        ([(4, 6)], [("greatest", (1, 4, 6))]),
        ([(6, 8)], [("codeconnection", (6, 8))]),
        ([(0, 1)], [("tracing", (0, 1))]),
        # both non-coding vertices reach a higher block; (0, 8) is the least
        ([(1, 7), (0, 8)], [("components", (0, 8))]),
        ([(2, 4)], [("goup", (2, 3, 4))]),
        # 0 sees 4, 5 and 6 of block 1 but not 3
        ([(0, 4), (0, 5), (0, 6)], [("components", (0, 4)), ("goup", (0, 4, 3))]),
        # stage 4 merges into block 1 and creates the singletons [7], [8], [9],
        # which pass iff their lower neighbours are exactly the coding vertices
        ([(2, 7)], [("codeconnection", (2, 7))]),
        ([(3, 8)], [("components", (3, 8))]),
        # 9 loses coding vertex 6 and gains 4: both clauses fail on one block
        ([(6, 9), (4, 9)], [("codeconnection", (6, 9)), ("components", (4, 9))]),
    ]
    for toggles, failures in planted:
        h = run([5, 0, 7, 1], 4)
        assert [list(b) for b in blocks(h, 4)] == [
            [0, 1, 2], [3, 4, 5, 6], [7], [8], [9]]
        for x, y in toggles:
            h._rows[x] ^= 1 << y
            h._rows[y] ^= 1 << x
        assert list(_failed(check_history_lemmas(h)[4]).items()) == failures
        assert least_failures(naive_stage_lemmas(h, 4)) == dict(failures)


def test_run_matches_literal_stage_rule():
    kinds = {"equal": 0, "next": 0, "far": 0}
    for seed in range(300):
        rng = random.Random(seed)
        T = rng.randint(0, 24)
        f = []
        for s in range(T):
            options = [s, s + 1, 10**9 + s, rng.randrange(s + 1), rng.randrange(2 * T + 2)]
            n = rng.choice([v for v in options if v not in f])
            kinds["equal"] += n == s
            kinds["next"] += n == s + 1
            kinds["far"] += n > 10**9
            f.append(n)
        h = run(f, T)
        assert (h._rows, h._codings) == literal_stage_rule(f, T)
    assert min(kinds.values()) > 100


def test_construction_size_is_bounded_before_building(monkeypatch):
    with pytest.raises(ResourceLimitError):
        run(seeded_injective(1, 5000), 5000)
    f = seeded_injective(3, 40)
    size = run(f, 40).final_k + 1
    monkeypatch.setattr(construction, "MAX_CONSTRUCTION_VERTICES", size)
    assert run(f, 40).final_k + 1 == size
    monkeypatch.setattr(construction, "MAX_CONSTRUCTION_VERTICES", size - 1)
    with pytest.raises(ResourceLimitError):
        run(f, 40)


def test_adversarial_state_fails_codeconnection():
    h = run([5, 0], 2)
    c0, c1 = h.final_coding[0], h.final_coding[1]
    h._rows[c0] &= ~(1 << c1)
    h._rows[c1] &= ~(1 << c0)
    failed = _failed(check_history_lemmas(h)[2])
    assert failed["codeconnection"] == (c0, c1)
    assert failed == least_failures(naive_stage_lemmas(h, 2))


def test_stage2_components_cross_block_edges_only_from_coding():
    h = run([5, 0], 2)
    block_list = [list(b) for b in blocks(h, 2)]
    coding = set(h.coding_at(2))
    block_of = {x: j for j, b in enumerate(block_list) for x in b}
    cross = [(x, y) for x, y in sorted_edge_pairs(h.state(2)) if block_of[x] != block_of[y]]
    assert cross and all(x in coding for x, y in cross)


def test_no_chordless4_on_construction_states():
    for seed in range(6):
        h = run(seeded_injective(seed, 20), 20)
        assert history_has_no_chordless4(h)
        final = h.state(20)
        assert find_chordless_positions(final.rows, 4) is None


def test_final_scan_agrees_with_per_stage_oracle():
    for seed in range(8):
        for T in (0, 1, 5, 17, 30):
            h = run(seeded_injective(seed, T), T)
            assert history_has_no_chordless4(h) == per_stage_no_chordless4(h)
            assert history_has_no_chordless4(h)


def test_final_scan_sees_a_tampered_chordless_4path():
    h = run(seeded_injective(3, 12), 12)
    rows = h._rows
    # make the last four vertices an induced path, present only at the last stage
    top = range(h.final_k - 3, h.final_k + 1)
    for x in top:
        for y in top:
            rows[x] &= ~(1 << y)
    for x, y in zip(top, top[1:]):
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    assert not per_stage_no_chordless4(h)
    assert not history_has_no_chordless4(h)


def _plant_4path(rows, path):
    """Make the positions of ``path`` induce exactly the path, in place."""
    for x in path:
        for y in path:
            rows[x] &= ~(1 << y)
    for x, y in zip(path, path[1:]):
        rows[x] |= 1 << y
        rows[y] |= 1 << x


def test_cotree_verdict_sees_a_4path_planted_anywhere():
    rng = random.Random(11)
    for T in (12, 30, 80):
        for seed in range(4):
            k = run(seeded_injective(seed, T), T).final_k
            mid = k // 2
            spread = sorted(rng.sample(range(k + 1), 4))
            rng.shuffle(spread)
            for path in ([0, 1, 2, 3], [mid - 1, mid + 1, mid, mid + 2],
                         [k - 3, k - 2, k - 1, k], spread):
                h = run(seeded_injective(seed, T), T)
                _plant_4path(h._rows, path)
                assert find_chordless_positions(h._rows, 4) is not None
                assert not history_has_no_chordless4(h)


def test_cotree_first_search_answers_as_the_dfs():
    # The cograph shortcut only makes a None come sooner: on random hosts and
    # on staged hosts with a planted chordless 4-path, every answer for
    # n = 4..8 is the DFS's own, witness included.
    rng = random.Random(12)
    hosts = [random_graph(rng, rng.randint(4, 12), rng.choice([0.2, 0.4, 0.6, 0.8]))
             for _ in range(300)]
    for T in (12, 30, 80):
        staged = run(seeded_injective(T, T), T)._rows
        k = len(staged) - 1
        for path in ([0, 1, 2, 3], sorted(rng.sample(range(k + 1), 4)),
                     [k - 3, k - 2, k - 1, k]):
            rows = list(staged)
            _plant_4path(rows, path)
            g = Graph(rows)
            assert find_chordless_path(g, 4) is not None
            hosts.append(g)
    cographs = 0
    for g in hosts:
        cographs += is_cograph(g.rows)
        for n in range(4, 9):
            assert find_chordless_path(g, n) == find_chordless_positions(g.rows, n)
    assert 0 < cographs < len(hosts)


class _SearchRan(Exception):
    pass


def _no_search(masks, n):
    raise _SearchRan


def test_cotree_first_search_skips_the_dfs_on_a_staged_host(monkeypatch):
    g = run(seeded_injective(0, 80), 80).final_graph()
    monkeypatch.setattr(graphs, "find_chordless_positions", _no_search)
    for n in (4, 5, 8):
        assert find_chordless_path(g, n) is None
    # a staged host has chordless 3-paths, so n <= 3 still goes to the DFS
    with pytest.raises(_SearchRan):
        find_chordless_path(g, 3)
    monkeypatch.undo()
    path = find_chordless_path(g, 3)
    assert path is not None and is_chordless(g, path)


def test_kernel_agrees_with_middle_edge_scan():
    # Staged hosts have no chordless 4-path; toggling a few vertex pairs
    # usually makes one, so both answers are exercised on large hosts.
    rng = random.Random(4)
    hosts = []
    for T in (20, 50, 80):
        for seed in range(3):
            rows = list(run(seeded_injective(seed, T), T)._rows)
            hosts.append(rows)
            for _ in range(2):
                tampered = list(rows)
                for _ in range(3):
                    x, y = rng.sample(range(len(rows)), 2)
                    tampered[x] ^= 1 << y
                    tampered[y] ^= 1 << x
                hosts.append(tampered)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.6, 0.8]))
        hosts.append(list(g.rows))
    for rows in hosts:
        found = find_chordless_positions(rows, 4)
        assert (found is None) == (middle_edge_4path(rows, len(rows) - 1) is None)
        assert (found is None) == is_cograph(rows)
        if found is not None:
            assert is_chordless(Graph(rows), found)


def test_chordless4_found_on_plain_path():
    rows = (0b0010, 0b0101, 0b1010, 0b0100)
    assert find_chordless_positions(rows, 4) == (0, 1, 2, 3)


def test_find_chordless_4path_direct():
    # 4-cycle has no chordless 4-path
    rows = [0b1010, 0b0101, 0b1010, 0b0101]
    assert find_chordless_positions(rows, 4) is None


def test_stage_graph_edges_match_rows():
    for seed in range(4):
        h = run(seeded_injective(seed, 15), 15)
        final = sorted_edge_pairs(h.final_graph())
        for s in range(16):
            g = h.state(s)
            k = h.coding_at(s)[-1]
            assert isinstance(g, Graph) and g.vertices == tuple(range(k + 1))
            assert g.edge_count() == len(edges_from_rows(g.rows))
            # the final graph restricted to 0..k
            assert sorted_edge_pairs(g) == [(x, y) for x, y in final if y <= k]


def test_monotone_growth_and_restriction():
    h = run(seeded_injective(4, 12), 12)
    for s in range(12):
        k = h.coding_at(s)[-1]
        assert h.coding_at(s + 1)[-1] > k
        prev = set(sorted_edge_pairs(h.state(s)))
        cur = set(sorted_edge_pairs(h.state(s + 1)))
        assert prev <= cur
        # restriction: no new edges among old vertices
        assert all(v > k or u > k for u, v in cur - prev)
        # coding vertices never decrease at a fixed index
        before, after = h.coding_at(s), h.coding_at(s + 1)
        assert all(after[i] >= before[i] for i in range(len(before)))


def test_size_growth_bound():
    for seed in range(5):
        T = 25
        h = run(seeded_injective(seed, T), T)
        assert h.final_k <= sum(s + 2 for s in range(T))


def test_degree_growth_only_through_coding_vertices():
    # A vertex gains edges at a stage only while it is a coding vertex, or as
    # the single wire to the fresh coding vertex of a dump that swallows its
    # block; once no remaining value can reach its block, its degree freezes.
    import bisect

    T = 30
    h = run(seeded_injective(12, T), T)
    k_at = [h.coding_at(s)[-1] for s in range(T + 1)]
    degs = [
        [bin(h.state(s).rows[x]).count("1") if x <= k_at[s] else 0
         for x in range(h.final_k + 1)]
        for s in range(T + 1)
    ]
    f = h.consumed
    for s in range(T):
        coding_after = set(h.coding_at(s + 1))
        n = f[s]
        dumped = n <= s
        new_coding = h.coding_at(s + 1)[n] if dumped else None
        for x in range(k_at[s] + 1):
            grew = degs[s + 1][x] - degs[s][x]
            if grew == 0 or x in coding_after:
                continue
            # non-coding growth: exactly the one edge to the dump's coding vertex
            assert dumped and grew == 1
            assert has_edge(h.state(s + 1), x, new_coding)
    # freeze: a non-coding vertex whose block no remaining value can reach
    # gains nothing more (stable coding vertices keep acquiring edges instead)
    for x in range(h.final_k + 1):
        born = next(s for s in range(T + 1) if k_at[s] >= x)
        for s in range(born, T):
            if x in h.coding_at(s):
                continue
            idx = bisect.bisect_left(h.coding_at(s), x)
            if all(v > idx for v in f[s:]):
                assert degs[s][x] == degs[T][x]
                break


def test_coding_change_law():
    assert coding_change_law(run([5, 0], 2))
    assert coding_change_law(run([1, 0, 2], 3))
    for seed in range(20):
        assert coding_change_law(run(seeded_injective(seed, 40), 40))


def test_coding_change_law_rejects_tampered_history():
    h = run([5, 0, 7], 3)
    coding = h._codings[2]
    h._codings[2] = (coding[0] + 1,) + coding[1:]
    assert not coding_change_law(h)


def test_stable_coding_examples():
    h = run([5, 0], 2)
    # index 0 is 2; index 3 was never created
    assert stable_coding_prefix(h) == (2, 3, 4)
    # permutation input: every created index is stable after the last stage
    h2 = run(seeded_permutation(1, 12), 12)
    assert len(stable_coding_prefix(h2)) == 13


def test_stable_coding_respects_unconsumed_tail():
    # only 2 of 3 entries consumed; the pending 1 keeps indices >= 1 unstable
    h = run([5, 3, 1], 2)
    assert len(h.final_coding) == 3
    assert stable_coding_prefix(h) == (h.final_coding[0],)


def test_stable_coding_matches_the_per_index_definition():
    # Index k is stable when it exists and every unconsumed entry of f is
    # above k.  Short random tails, then a long tail of large values with and
    # without one small value at its end.
    rng = random.Random(47)
    cases = []
    for _ in range(60):
        stages = rng.randint(0, 40)
        tail = [rng.randint(0, 60) for _ in range(rng.randint(0, 5))]
        cases.append((rng.sample(range(60), stages) + tail, stages))
    consumed = list(seeded_permutation(3, 200))
    cases.append((consumed + [10**6 + i for i in range(10_000)], 200))
    cases.append((consumed + [10**6] * 9_999 + [150], 200))
    for f, stages in cases:
        h = run(f, stages)
        tail = f[stages:]
        coding = h.final_coding
        per_index = [
            coding[k] if 0 <= k < len(coding) and all(t > k for t in tail) else None
            for k in range(-1, len(coding) + 2)
        ]
        # stability is downward closed: the prefix holds every stable index
        prefix = stable_coding_prefix(h)
        assert per_index == [None, *prefix] + [None] * (len(coding) + 2 - len(prefix))
    assert len(stable_coding_prefix(h)) == 150


def test_embed_via_coding():
    h = run(seeded_permutation(7, 20), 20)
    emb = build_decode_context(h, Pattern("Kkk", 3))
    host = h.final_graph()
    assert embedding_is_valid_by_names(host, emb)
    emb_a = build_decode_context(h, Pattern("A", 3))
    assert embedding_is_valid_by_names(host, emb_a)
    with pytest.raises(CapacityError) as exc:
        build_decode_context(run([5, 0], 2), Pattern("Kkk", 2))
    assert exc.value.shortfall == 1


def test_decode_range_examples():
    h = run([5, 0], 2)
    emb = build_decode_context(h, Pattern("A", 1))
    assert emb.image[0] >= 2  # gprime[0]
    assert decode_range(emb, h.f, 0) is True
    h2 = run([5, 0, 7, 1], 4)
    emb2 = build_decode_context(h2, Pattern("A", 2))
    assert decode_range(emb2, h2.f, 0) is True
    assert decode_range(emb2, h2.f, 1) is True
    with pytest.raises(InvalidInputError):
        decode_range(emb2, h2.f, 3)  # outside the table


def test_decode_matches_range_membership():
    for seed in range(15):
        h = run(seeded_permutation(seed, 30), 30)
        emb = build_decode_context(h, Pattern("A", 6))
        gprime = emb.image[:6]
        assert all(a <= b for a, b in zip(gprime, gprime[1:]))
        for k in range(6):
            assert decode_range(emb, h.f, k) == (k in h.consumed)


def test_decode_false_for_missing_values():
    # f skips small values entirely: decode must say no
    f = [10, 11, 12, 13, 14, 15, 16, 17, 2, 3]
    h = run(f, 10)
    emb = build_decode_context(h, Pattern("A", 2))
    assert decode_range(emb, h.f, 0) is False
    assert decode_range(emb, h.f, 1) is False


def test_stage_trace():
    h = run([5, 0], 2)
    t = h.stage_trace(2)
    assert t["stage"] == 2 and t["k"] == 4
    assert t["new_edges"] == [[0, 2], [1, 2], [2, 3], [2, 4], [3, 4]]


def test_stage_accessors_reject_stages_outside_the_run():
    h = run([5, 0, 7, 1], 4)
    for s in (-1, 5, 10**6):
        for accessor in (h.coding_at, h.state, h.stage_trace):
            with pytest.raises(InvalidInputError):
                accessor(s)
    assert h.coding_at(4) == h.final_coding and len(h.state(4)) == h.final_k + 1
    assert h.coding_at(0) == (0,) and h.stage_trace(4)["k"] == h.final_k


def test_final_graph_shares_the_history_rows():
    h = run(seeded_injective(5, 20), 20)
    g = h.final_graph()
    assert min(h._rows) > 256  # past the small-int cache, so a copy is a new object
    assert all(a is b for a, b in zip(g.rows, h._rows, strict=True))
    assert sorted_edge_pairs(g) == sorted_edge_pairs(h.state(20))


def test_seeded_injective_is_deterministic_permutation():
    a = seeded_injective(5, 50)
    assert a == seeded_injective(5, 50)
    assert sorted(a) == list(range(50))


def test_seeded_injective_bounds_the_length_before_allocating():
    assert sorted(seeded_injective(1, MAX_SEEDED_LENGTH)) == list(range(MAX_SEEDED_LENGTH))
    with pytest.raises(ResourceLimitError):
        seeded_injective(1, 10**12)
    with pytest.raises(InvalidInputError):
        seeded_injective(1, -5)
