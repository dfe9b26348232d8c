"""Staged dump construction of a traceable graph with no chordless 4-paths.

The construction consumes one value of an injective sequence ``f`` per stage.
A stage holds vertices ``0..k`` partitioned into convex blocks; each block's
largest element is its *coding vertex* and carries all of the block's external
connectivity.  When a value ``n`` no larger than the current stage arrives,
every block from index ``n`` onward is dumped into a single merged block whose
new coding vertex is a fresh large number, followed by fresh singleton blocks;
larger values just append one fresh singleton block.  Coding vertices are kept
pairwise adjacent, and a merged block's coding vertex is wired to the whole
block, which is what keeps the graph traceable and free of chordless 4-paths.

Because edges are only ever added, and every added edge touches a vertex
created at that stage, the stage-``s`` graph equals the final graph restricted
to ``0..k_s``.  Histories exploit that: they store one adjacency table plus
per-stage ``(k, coding)`` snapshots.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from .errors import (
    CapacityError,
    InvalidContextError,
    InvalidInputError,
    ResourceLimitError,
    StructuralError,
)
from .graphs import (
    Embedding,
    Graph,
    Pattern,
    embedding_is_valid,
    is_cograph,
    iter_bits,
)


def _bits_below(m: int) -> int:
    """Mask with bits 0..m-1 set."""
    return (1 << m) - 1


def _bits_through(v: int) -> int:
    """Mask with bits 0..v set."""
    return (1 << (v + 1)) - 1


@dataclass(frozen=True)
class StageState:
    """One stage: largest vertex ``k``, coding vertices, adjacency bitmasks."""

    stage: int
    k: int
    coding: tuple
    rows: tuple  # rows[x] = neighbour bitmask of vertex x

    def __post_init__(self):
        if len(self.coding) != self.stage + 1:
            raise InvalidInputError("coding list must have stage+1 entries")
        if self.coding[-1] != self.k:
            raise InvalidInputError("last coding vertex must equal k")
        if any(a >= b for a, b in zip(self.coding, self.coding[1:])):
            raise InvalidInputError("coding vertices must be strictly increasing")
        if len(self.rows) != self.k + 1:
            raise InvalidInputError("need one adjacency row per vertex")

    def blocks(self):
        """Blocks as ranges; block j spans (coding[j-1], coding[j]]."""
        out = []
        lo = 0
        for c in self.coding:
            out.append(range(lo, c + 1))
            lo = c + 1
        return out

    def graph(self) -> Graph:
        return Graph.from_rows(self.rows)


def init() -> StageState:
    """Stage 0: single vertex 0, one singleton block, no edges."""
    return StageState(stage=0, k=0, coding=(0,), rows=(0,))


def _advance(rows: list, coding: list, stage: int, n: int) -> None:
    """Apply one stage transition in place; ``rows``/``coding`` are mutated."""
    s = stage
    k = len(rows) - 1
    if n > s:
        new = k + 1
        new_bit = 1 << new
        mask = 0
        for c in coding:
            rows[c] |= new_bit
            mask |= 1 << c
        rows.append(mask)
        coding.append(new)
        return
    # Dump: blocks n..s merge with fresh vertex k+1, then u fresh singletons.
    u = (s + 1) - n
    first_new = k + 1
    rows.extend([0] * (u + 1))
    lo = coding[n - 1] + 1 if n > 0 else 0
    coding[n:] = [first_new + v for v in range(u + 1)]
    all_mask = 0
    for c in coding:
        all_mask |= 1 << c
    new_mask = all_mask & ~_bits_below(first_new)
    for idx, c in enumerate(coding):
        if idx < n:
            rows[c] |= new_mask
        else:
            rows[c] |= all_mask & ~(1 << c)
    # The merged block's coding vertex is wired to the whole block.
    block_mask = _bits_through(first_new) & ~_bits_below(lo)
    rows[first_new] |= block_mask & ~(1 << first_new)
    coding_bit = 1 << first_new
    for x in range(lo, first_new):
        rows[x] |= coding_bit


def step(state: StageState, n: int) -> StageState:
    """Pure single-stage transition.

    Injectivity of the consumed values across stages is the caller's
    contract; every natural number is a legal input at every stage.
    """
    if n < 0:
        raise InvalidInputError("stage input must be a natural number")
    rows = list(state.rows)
    coding = list(state.coding)
    _advance(rows, coding, state.stage, n)
    return StageState(
        stage=state.stage + 1,
        k=len(rows) - 1,
        coding=tuple(coding),
        rows=tuple(rows),
    )


class StagedHistory:
    """All stages of one run: snapshots plus the final adjacency table.

    ``f`` is kept in full even if only the first ``T`` entries were consumed;
    the unconsumed tail determines which coding vertices are stable.
    """

    def __init__(self, f, stages: int):
        f = tuple(int(v) for v in f)
        if stages < 0:
            raise InvalidInputError("stages must be a natural number, got %d" % stages)
        if len(f) < stages:
            raise InvalidInputError(
                "need at least %d entries of f, got %d" % (stages, len(f))
            )
        if any(v < 0 for v in f):
            raise InvalidInputError("f values must be natural numbers")
        consumed = f[:stages]
        if len(set(consumed)) != len(consumed):
            raise InvalidInputError("f must be injective on the consumed prefix")
        self.f = f
        self.stages = stages
        rows: list = [0]
        coding: list = [0]
        snap = [(0, (0,))]
        for s in range(stages):
            _advance(rows, coding, s, consumed[s])
            snap.append((len(rows) - 1, tuple(coding)))
        self._rows = rows
        self._snapshots = snap

    @property
    def consumed(self):
        return self.f[: self.stages]

    @property
    def final_k(self) -> int:
        return self._snapshots[-1][0]

    @property
    def final_coding(self):
        return self._snapshots[-1][1]

    def k_at(self, s: int) -> int:
        return self._snapshots[s][0]

    def coding_at(self, s: int):
        return self._snapshots[s][1]

    def state(self, s: int) -> StageState:
        """Materialize stage ``s``; the final table restricted to ``0..k_s``."""
        k, coding = self._snapshots[s]
        mask = _bits_through(k)
        return StageState(
            stage=s,
            k=k,
            coding=coding,
            rows=tuple(self._rows[x] & mask for x in range(k + 1)),
        )

    def stage_graph(self, s: int) -> Graph:
        return self.state(s).graph()

    def final_graph(self) -> Graph:
        return self.state(self.stages).graph()

    def stage_trace(self, s: int) -> dict:
        """Stage summary: new vertex span, coding list, edges added at ``s``."""
        if s == 0:
            return {"stage": 0, "k": 0, "coding": [0], "new_edges": []}
        prev_k = self._snapshots[s - 1][0]
        k, coding = self._snapshots[s]
        new_edges = []
        for v in range(prev_k + 1, k + 1):
            for x in iter_bits(self._rows[v] & _bits_below(v)):
                new_edges.append([x, v])
        new_edges.sort()
        return {"stage": s, "k": k, "coding": list(coding), "new_edges": new_edges}


def run(f, stages: int) -> StagedHistory:
    """Run the construction for ``stages`` stages of the injective sequence."""
    return StagedHistory(f, stages)


# Far above any run of the construction: T stages consume only T entries of f.
MAX_SEEDED_LENGTH = 10**6


def seeded_injective(seed: int, length: int):
    """Deterministic injective sequence: a seeded permutation of 0..length-1.

    A length above ``MAX_SEEDED_LENGTH`` raises ResourceLimitError before
    anything is allocated.
    """
    if length > MAX_SEEDED_LENGTH:
        raise ResourceLimitError(
            "seeded f length %d exceeds the limit of %d" % (length, MAX_SEEDED_LENGTH)
        )
    values = list(range(length))
    random.Random(seed).shuffle(values)
    return tuple(values)


# ---------------------------------------------------------------------------
# Per-stage invariant checks

LEMMA_NAMES = ("greatest", "codeconnection", "tracing", "components", "goup")


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class LemmaReport:
    stage: int
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _check_greatest(rows, coding) -> LemmaCheck:
    # Block structure already forces x <= c_j; the edge clause is checked.
    lo = 0
    for j, c in enumerate(coding):
        want = (_bits_through(c) & ~_bits_below(lo)) & ~(1 << c)
        missing = want & ~rows[c]
        if missing:
            x = (missing & -missing).bit_length() - 1
            return LemmaCheck("greatest", False, (j, x, c))
        lo = c + 1
    return LemmaCheck("greatest", True)


def _check_codeconnection(rows, coding) -> LemmaCheck:
    coding_mask = 0
    for c in coding:
        coding_mask |= 1 << c
    for c in coding:
        missing = (coding_mask & ~(1 << c)) & ~rows[c]
        if missing:
            other = (missing & -missing).bit_length() - 1
            return LemmaCheck("codeconnection", False, (c, other))
    return LemmaCheck("codeconnection", True)


def _check_tracing(rows, k) -> LemmaCheck:
    for d in range(k):
        if not (rows[d] >> (d + 1)) & 1:
            return LemmaCheck("tracing", False, (d, d + 1))
    return LemmaCheck("tracing", True)


def _block_top(coding, x: int) -> int:
    """Coding vertex of the block containing x (coding is sorted)."""
    return coding[bisect.bisect_left(coding, x)]


def _check_components(rows, coding, k) -> LemmaCheck:
    coding_set = set(coding)
    for x in range(k + 1):
        if x in coding_set:
            continue
        top = _block_top(coding, x)
        above = rows[x] >> (top + 1)
        if above:
            y = (above & -above).bit_length() - 1 + top + 1
            return LemmaCheck("components", False, (x, y))
    return LemmaCheck("components", True)


def _check_goup(rows, coding, k) -> LemmaCheck:
    # Any edge from x into a block entirely above x must reach the whole block.
    for x in range(k + 1):
        top = _block_top(coding, x)
        above = rows[x] >> (top + 1)
        if not above:
            continue
        if above == _bits_below(k - top):
            continue  # adjacent to everything above; nothing to scan
        lo = top + 1
        for c in coding:
            if c <= top:
                continue
            block = _bits_through(c) & ~_bits_below(lo)
            seg = rows[x] & block
            if seg and seg != block:
                y = (seg & -seg).bit_length() - 1
                missing = block & ~seg
                z = (missing & -missing).bit_length() - 1
                return LemmaCheck("goup", False, (x, y, z))
            lo = c + 1
    return LemmaCheck("goup", True)


def check_stage_lemmas(state: StageState) -> LemmaReport:
    """Exact check of the five per-stage invariants, with counterexamples.

    Failures are report content, not exceptions: a failing check on a state
    produced by :func:`run` indicates a construction bug.
    """
    rows, coding, k = state.rows, state.coding, state.k
    checks = (
        _check_greatest(rows, coding),
        _check_codeconnection(rows, coding),
        _check_tracing(rows, k),
        _check_components(rows, coding, k),
        _check_goup(rows, coding, k),
    )
    return LemmaReport(stage=state.stage, checks=checks)


@dataclass(frozen=True)
class HistoryLemmaReport:
    stage_reports: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.stage_reports)


def check_history_lemmas(history: StagedHistory) -> HistoryLemmaReport:
    """Check all five invariants at every stage of a history.

    Equivalent to running :func:`check_stage_lemmas` on every materialized
    stage (the test suite verifies this equivalence on small runs), but
    organized around the history's restriction property so a 200-stage run
    with thousands of vertices stays cheap: per-block interior adjacency is
    accumulated incrementally instead of being re-unioned per stage.
    """
    rows = history._rows
    snapshots = history._snapshots
    final_k = history.final_k

    # consec bit d == final edge (d, d+1); by restriction this decides the
    # tracing clause at every stage.
    consec = 0
    for d in range(final_k):
        if (rows[d] >> (d + 1)) & 1:
            consec |= 1 << d

    # interior_or[j] = OR of final adjacency rows over block j minus its
    # coding vertex; maintained across stages as blocks merge.
    interior_or = [0]
    reports = []
    for s, (k, coding) in enumerate(snapshots):
        if s > 0:
            n = history.consumed[s - 1]
            prev_coding = snapshots[s - 1][1]
            if n > s - 1:
                interior_or.append(0)
            else:
                merged = 0
                for j in range(n, len(prev_coding)):
                    merged |= interior_or[j] | rows[prev_coding[j]]
                u = s - n
                interior_or[n:] = [merged] + [0] * u
        checks = [
            _check_greatest(rows, coding),
            _check_codeconnection(rows, coding),
        ]
        missing_consec = ~consec & _bits_below(k)
        if missing_consec:
            d = (missing_consec & -missing_consec).bit_length() - 1
            checks.append(LemmaCheck("tracing", False, (d, d + 1)))
        else:
            checks.append(LemmaCheck("tracing", True))
        comp = LemmaCheck("components", True)
        stage_mask = _bits_through(k)
        lo = 0
        for j, c in enumerate(coding):
            high = interior_or[j] & stage_mask & ~_bits_through(c)
            if high:
                y = (high & -high).bit_length() - 1
                # recover an offending interior vertex for the witness
                x = next(
                    x
                    for x in range(lo, c)
                    if (rows[x] >> y) & 1
                )
                comp = LemmaCheck("components", False, (x, y))
                break
            lo = c + 1
        checks.append(comp)
        goup = LemmaCheck("goup", True)
        for c in coding:
            want = stage_mask & ~_bits_through(c)
            if rows[c] & want != want:
                # fall back to the exact per-block scan on this stage
                goup = _check_goup(
                    [r & stage_mask for r in rows[: k + 1]], coding, k
                )
                break
        if goup.passed and not comp.passed:
            # components failure may hide a non-coding goup violation; rescan.
            goup = _check_goup([r & stage_mask for r in rows[: k + 1]], coding, k)
        checks.append(goup)
        reports.append(LemmaReport(stage=s, checks=tuple(checks)))
    return HistoryLemmaReport(stage_reports=tuple(reports))


def history_has_no_chordless4(history: StagedHistory) -> bool:
    """True iff no stage has a chordless 4-path.

    Every stage graph is an induced subgraph of the final one, and the graphs
    with no chordless 4-path are closed under induced subgraphs, so the
    cotree split of the final host decides every stage.
    """
    return is_cograph(history._rows, history.final_k + 1)


# ---------------------------------------------------------------------------
# Coding-vertex stability and range decoding


def coding_change_law(history: StagedHistory) -> bool:
    """Check: a coding vertex at index k moves at stage s+1 iff f(s) <= k.

    Applies to every pair k <= s < T.
    """
    for s in range(history.stages):
        n = history.consumed[s]
        before = history.coding_at(s)
        after = history.coding_at(s + 1)
        for k in range(s + 1):
            if (after[k] != before[k]) != (n <= k):
                return False
    return True


def stable_coding(history: StagedHistory, k: int):
    """Final value of coding index ``k`` when it can no longer move.

    Requires the history's ``f`` to be the complete intended input: index
    ``k`` is stable when it exists and no unconsumed entry of ``f`` is <= k.
    Returns None when the index has not been created yet or is still movable.
    """
    coding = history.final_coding
    if k < 0 or k >= len(coding):
        return None
    if any(v <= k for v in history.f[history.stages :]):
        return None
    return coding[k]


def stable_coding_prefix(history: StagedHistory):
    """All stable coding vertices, in index order (stability is downward closed)."""
    out = []
    for k in range(len(history.final_coding)):
        v = stable_coding(history, k)
        if v is None:
            break
        out.append(v)
    return tuple(out)


def embed_via_coding(history: StagedHistory, pattern: Pattern) -> Embedding:
    """Embed A(k) or Kkk(k) with both sides on stable coding vertices.

    Stable coding vertices are pairwise adjacent, so every pattern edge is
    present no matter how the 2k of them are split into sides.
    """
    if pattern.kind not in ("A", "Kkk"):
        raise InvalidInputError("embedding via coding supports A(k) and Kkk(k) only")
    need = 2 * pattern.k
    stable = stable_coding_prefix(history)
    if len(stable) < need:
        raise CapacityError(
            "need %d stable coding vertices, have %d; extend the run by at least "
            "%d stages" % (need, len(stable), need - len(stable)),
            shortfall=need - len(stable),
        )
    assignment = {}
    for i in range(pattern.k):
        assignment["a%d" % i] = stable[i]
        assignment["b%d" % i] = stable[pattern.k + i]
    emb = Embedding(pattern, assignment)
    if not embedding_is_valid(history.final_graph(), emb):
        raise StructuralError("coding-vertex embedding failed validation")
    return emb


@dataclass(frozen=True)
class DecodeContext:
    """An embedding through stable coding vertices plus its running-max table.

    ``gprime[n]`` is the largest host vertex used by the first n+1 a-side
    pattern vertices; querying whether some value k was ever consumed only
    requires scanning stages up to ``gprime[k]``.  The embedding is validated
    against ``host`` once, here: an invalid one raises InvalidContextError.
    """

    embedding: Embedding
    gprime: tuple
    host: Graph

    def __post_init__(self):
        if not embedding_is_valid(self.host, self.embedding):
            raise InvalidContextError("decode context embedding fails validation")


def build_decode_context(history: StagedHistory, pattern: Pattern) -> DecodeContext:
    emb = embed_via_coding(history, pattern)
    best = -1
    gprime = []
    for i in range(pattern.k):
        best = max(best, emb.assignment["a%d" % i])
        gprime.append(best)
    return DecodeContext(embedding=emb, gprime=tuple(gprime), host=history.final_graph())


def decode_range(ctx: DecodeContext, f, k: int) -> bool:
    """True iff some stage x <= gprime[k] consumed the value k."""
    if k < 0 or k >= len(ctx.gprime):
        raise InvalidInputError(
            "query %d outside the context's table (holds 0..%d)"
            % (k, len(ctx.gprime) - 1)
        )
    bound = min(ctx.gprime[k], len(f) - 1)
    return any(f[x] == k for x in range(bound + 1))
