"""Staged dump construction of a traceable graph with no chordless 4-paths.

The construction consumes one value of an injective sequence ``f`` per stage.
A stage holds vertices ``0..k`` partitioned into convex blocks; each block's
largest element is its *coding vertex* and carries all of the block's external
connectivity.  When a value ``n`` no larger than the current stage arrives,
every block from index ``n`` onward is dumped into a single merged block whose
new coding vertex is a fresh large number, followed by fresh singleton blocks;
a larger value dumps nothing, so the merged block is the fresh vertex alone.
Coding vertices are kept pairwise adjacent, and a merged block's coding vertex
is wired to the whole block, which is what keeps the graph traceable and free
of chordless 4-paths.

Because edges are only ever added, and every added edge touches a vertex
created at that stage, the stage-``s`` graph equals the final graph restricted
to ``0..k_s``.  Histories exploit that: they store one adjacency table plus
each stage's coding, whose last vertex is ``k_s``.
"""

from __future__ import annotations

import random

from .errors import (
    CapacityError,
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


def _advance(rows: list, coding: list, stage: int, n: int) -> None:
    """Apply one stage transition in place; ``rows``/``coding`` are mutated.

    Blocks ``n..stage`` merge with the fresh vertex ``k+1``, which becomes
    their coding vertex, followed by ``stage + 1 - n`` fresh singletons.  A
    value above the stage acts as ``stage + 1``: the dumped suffix is empty
    and the merged block is the fresh vertex alone.
    """
    n = min(n, stage + 1)
    first_new = len(rows)
    lo = coding[n - 1] + 1 if n > 0 else 0
    fresh = stage + 2 - n
    new_mask = _bits_below(fresh) << first_new
    kept = 0
    for c in coding[:n]:
        rows[c] |= new_mask
        kept |= 1 << c
    coding[n:] = range(first_new, first_new + fresh)
    rows.extend(kept | (new_mask ^ (1 << v)) for v in coding[n:])
    # The merged block's coding vertex is wired to the whole block.
    rows[first_new] |= _bits_below(first_new) & ~_bits_below(lo)
    coding_bit = 1 << first_new
    for x in range(lo, first_new):
        rows[x] |= coding_bit


# Vertex count above which a run is refused before any row is built: rows
# take about k**2 / 16 bytes, 0.6 GB here (T=400 builds 27,595 vertices).
MAX_CONSTRUCTION_VERTICES = 100_000


class StagedHistory:
    """All stages of one run: each stage's coding plus the final adjacency table.

    ``f`` is kept in full even if only the first ``T`` entries were consumed;
    the unconsumed tail determines which coding vertices are stable.  A run
    that would build more than ``MAX_CONSTRUCTION_VERTICES`` vertices raises
    ResourceLimitError before it starts.
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
        # Stage s adds the merged block's coding vertex and s + 1 - n singletons.
        vertices = 1 + sum(s + 2 - min(n, s + 1) for s, n in enumerate(consumed))
        if vertices > MAX_CONSTRUCTION_VERTICES:
            raise ResourceLimitError(
                "the construction would build %d vertices, above the limit of %d"
                % (vertices, MAX_CONSTRUCTION_VERTICES)
            )
        self.f = f
        self.stages = stages
        rows: list = [0]
        coding: list = [0]
        codings = [(0,)]
        for s in range(stages):
            _advance(rows, coding, s, consumed[s])
            codings.append(tuple(coding))
        self._rows = rows
        self._codings = codings

    @property
    def consumed(self):
        return self.f[: self.stages]

    @property
    def final_k(self) -> int:
        return self._codings[-1][-1]

    @property
    def final_coding(self):
        return self._codings[-1]

    def coding_at(self, s: int):
        """Stage ``s``'s coding vertices, the last being ``k_s``;
        InvalidInputError unless 0 <= s <= stages."""
        if not 0 <= s <= self.stages:
            raise InvalidInputError("stage %d outside 0..%d" % (s, self.stages))
        return self._codings[s]

    def state(self, s: int) -> Graph:
        """The stage-``s`` graph: the final table restricted to ``0..k_s``."""
        k = self.coding_at(s)[-1]
        mask = _bits_through(k)
        return Graph(tuple(row & mask for row in self._rows[: k + 1]))

    def final_graph(self) -> Graph:
        """The final graph, wrapping the history's own rows."""
        return Graph(self._rows)

    def stage_trace(self, s: int) -> dict:
        """Stage summary: new vertex span, coding list, edges added at ``s``."""
        coding = self.coding_at(s)
        prev_k = self._codings[s - 1][-1] if s else -1
        new_edges = []
        for v in range(prev_k + 1, coding[-1] + 1):
            for x in iter_bits(self._rows[v] & _bits_below(v)):
                new_edges.append([x, v])
        new_edges.sort()
        return {"stage": s, "k": coding[-1], "coding": list(coding), "new_edges": new_edges}


def run(f, stages: int) -> StagedHistory:
    """Run the construction for ``stages`` stages of the injective sequence."""
    return StagedHistory(f, stages)


# Far above any run of the construction: T stages consume only T entries of f.
MAX_SEEDED_LENGTH = 10**6


def seeded_injective(seed: int, length: int):
    """Deterministic injective sequence: a seeded permutation of 0..length-1.

    A negative length raises InvalidInputError, and one above
    ``MAX_SEEDED_LENGTH`` raises ResourceLimitError, before anything is
    allocated.
    """
    if length < 0:
        raise InvalidInputError("seeded f length must be natural, got %d" % length)
    if length > MAX_SEEDED_LENGTH:
        raise ResourceLimitError(
            "seeded f length %d exceeds the limit of %d" % (length, MAX_SEEDED_LENGTH)
        )
    values = list(range(length))
    random.Random(seed).shuffle(values)
    return tuple(values)


# ---------------------------------------------------------------------------
# Per-stage invariant checks, decided per block

LEMMA_NAMES = ("greatest", "codeconnection", "tracing", "components", "goup")


def _low(mask: int) -> int:
    """Least set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _block_witnesses(rows, j, lo, c, lower, meet, union):
    """Greatest, codeconnection, components and goup witnesses of one block.

    Block ``j`` spans ``lo..c`` with coding vertex ``c``; ``lower`` is the
    mask of the coding vertices below ``lo``, and ``meet`` and ``union`` are
    the AND and OR of the block's rows.  A passing clause gives None.  Only
    bits up to ``c`` are read.  Rows must be symmetric: the edges into the
    block from below are read off its members' rows.
    """
    below = _bits_below(lo)
    block = _bits_through(c) & ~below
    greatest = codeconnection = components = goup = None
    missing = block & ~rows[c] & ~(1 << c)
    if missing:
        greatest = (j, _low(missing), c)
    missing = lower & ~rows[c]
    if missing:
        codeconnection = (_low(missing), c)
    entering = union & below  # vertices below the block with an edge into it
    stray = entering & ~lower
    if stray:
        x = _low(stray)
        components = (x, _low(rows[x] & block))
    split = entering & ~meet
    if split:
        x = _low(split)
        seg = rows[x] & block
        goup = (x, _low(seg), _low(block & ~seg))
    return greatest, codeconnection, components, goup


_PASS = (None, None, None, None)


def _least(best, verdict):
    """Per clause, the lexicographically least witness of the two."""
    if verdict == _PASS:
        return best
    return tuple(
        w if v is None or (w is not None and w < v) else v
        for v, w in zip(best, verdict)
    )


def check_history_lemmas(history: StagedHistory) -> tuple:
    """Check all five invariants at every stage of a history.

    Returns one tuple per stage holding, in ``LEMMA_NAMES`` order, each
    lemma's lexicographically least witness over the stage's blocks, or None
    where it holds; failures are results, not exceptions, and a failure on an
    unaltered history indicates a construction bug.  Rows must be symmetric.

    A dump replaces only a suffix of the blocks, so a block keeps its index,
    its span and the coding vertices below it while it exists, and its
    verdict reads only bits up to its coding vertex, where the final rows
    equal every later stage's rows.  So each block is decided once, at the
    stage that creates it; a merged block's meet and union fold those of the
    blocks it absorbs with its new coding vertex's row.  Every other block a
    stage creates is a singleton {c}, whose meet and union are ``rows[c]``:
    greatest and goup hold by themselves, and codeconnection and components
    both hold iff c's neighbours below it are exactly ``lower``, so that one
    test decides it and the witnesses are sought only when it fails.
    """
    rows = history._rows
    consumed = history.consumed
    # The least d with no edge (d, d + 1); the path 0..k_s is traced iff k_s <= gap.
    final_k = history.final_k
    gap = next((d for d in range(final_k) if not (rows[d] >> (d + 1)) & 1), final_k)
    meets, unions, lowers, least = [], [], [], []  # per live block
    witnesses = []
    first_new = 0
    for s, coding in enumerate(history._codings):
        # Blocks n..s are new at stage s; block n absorbs the old blocks n..s-1.
        n = min(consumed[s - 1], s) if s else 0
        meet = union = rows[first_new]
        for j in range(n, s):
            meet &= meets[j]
            union |= unions[j]
        del meets[n:], unions[n:], lowers[n:], least[n:]
        lo = coding[n - 1] + 1 if n else 0
        lower = lowers[-1] | 1 << coding[n - 1] if n else 0
        best = least[-1] if n else _PASS
        for j in range(n, s + 1):
            c = coding[j]
            if j > n:
                lo, meet, union = c, rows[c], rows[c]
            if j == n or union & _bits_below(c) != lower:
                best = _least(best, _block_witnesses(rows, j, lo, c, lower, meet, union))
            meets.append(meet)
            unions.append(union)
            lowers.append(lower)
            least.append(best)
            lower |= 1 << c
        tracing = (gap, gap + 1) if gap < coding[-1] else None
        witnesses.append(best[:2] + (tracing,) + best[2:])
        first_new = coding[-1] + 1
    return tuple(witnesses)


def history_has_no_chordless4(history: StagedHistory) -> bool:
    """True iff no stage has a chordless 4-path.

    Every stage graph is an induced subgraph of the final one, and the graphs
    with no chordless 4-path are closed under induced subgraphs, so the
    cotree split of the final host decides every stage.
    """
    return is_cograph(history._rows)


# ---------------------------------------------------------------------------
# Coding-vertex stability and range decoding


def coding_change_law(history: StagedHistory) -> bool:
    """Check: a coding vertex at index k moves at stage s+1 iff f(s) <= k.

    Applies to every pair k <= s < T.
    """
    for s, n in enumerate(history.consumed):
        before = history.coding_at(s)
        after = history.coding_at(s + 1)
        for k in range(s + 1):
            if (after[k] != before[k]) != (n <= k):
                return False
    return True


def stable_coding_prefix(history: StagedHistory):
    """All stable coding vertices, in index order.

    Requires the history's ``f`` to be the complete intended input: index
    ``k`` can no longer move when it exists and every unconsumed entry of
    ``f`` is above ``k``, so the stable indices are ``0..count-1``.
    """
    count = min((len(history.final_coding),) + history.f[history.stages :])
    return history.final_coding[:count]


def build_decode_context(history: StagedHistory, pattern: Pattern) -> Embedding:
    """Embed A(k) or Kkk(k) with both sides on stable coding vertices.

    Stable coding vertices are pairwise adjacent, so every pattern edge is
    present no matter how the 2k of them are split into sides.  They ascend,
    so the a-side image ``image[:k]`` is its own running maximum: querying
    whether a value n was ever consumed only requires scanning stages up to
    ``image[n]``.  A vertex of the final graph is its own position, so the
    embedding is checked on the history's rows before it is returned; a
    failed check raises StructuralError.
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
    emb = Embedding(pattern, stable[:need])
    if not embedding_is_valid(history._rows, emb):
        raise StructuralError("coding-vertex embedding failed validation")
    return emb


def decode_range(emb: Embedding, f, k: int) -> bool:
    """True iff some stage x <= image[k] consumed the value k."""
    if k < 0 or k >= emb.pattern.k:
        raise InvalidInputError(
            "query %d outside the context's table (holds 0..%d)" % (k, emb.pattern.k - 1)
        )
    bound = min(emb.image[k], len(f) - 1)
    return any(f[x] == k for x in range(bound + 1))
