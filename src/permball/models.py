"""The two rearrangement models and the exact distance engine.

A block transposition exchanges two adjacent blocks of a permutation, chosen
by cut points 1 <= i < j < k <= n+1; the prefix variant forces i = 1 so the
left block is a prefix. Every operation has an inverse of the same kind, so
the one-step relation is symmetric and distances to the identity can be read
off a breadth-first expansion from the identity.

All distances returned here are exact. One BFS table from the identity per
(length, model), grown lazily and cached for the whole process, answers
small lengths outright, holds every ball, and is the identity side of the
memoized bidirectional search used for longer single queries. Every BFS step
builds a state's children from its 4-bit packed code by bit masks and
shifts, one mask tuple per cut-point triple. Results never depend on which
path answered. State budgets bound search work: an answer already in the
cache is returned as-is, and the two sides of a bidirectional search share
one budget that counts only the states the search adds, not the cached ones.
A budget refuses during expansion, as soon as the visited states exceed it; a
refusal never leaves a partial BFS level or a memo entry behind, while whole
levels finished before it stay cached. The tables and the memo are
process-wide and unsynchronised, so the engine is single-threaded.
"""

from __future__ import annotations

import enum
import math
from typing import Iterator

from . import core
from .core import BudgetError, DEFAULT_MAX_STATES, Perm


class Model(enum.Enum):
    """Which elementary operation is allowed."""

    BLOCK = "td"
    PREFIX = "ptd"

    @classmethod
    def coerce(cls, value: "Model | str") -> "Model":
        if isinstance(value, Model):
            return value
        return cls(value)


def transposition_triples(n: int, model: Model | str) -> Iterator[tuple[int, int, int]]:
    """All valid cut-point triples for length ``n``, in lexicographic order."""
    model = Model.coerce(model)
    if model is Model.BLOCK:
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 2):
                    yield (i, j, k)
    else:
        for j in range(2, n + 1):
            for k in range(j + 1, n + 2):
                yield (1, j, k)


def apply_transposition(p: Perm, indices: tuple[int, int, int]) -> Perm:
    """Exchange the adjacent blocks p[i..j-1] and p[j..k-1] (1-based cuts).

    >>> apply_transposition((1, 3, 4, 5, 2, 6, 7), (3, 4, 7))
    (1, 3, 5, 2, 6, 4, 7)
    """
    i, j, k = indices
    if not (1 <= i < j < k <= len(p) + 1):
        raise ValueError(f"invalid cut points {indices!r} for length {len(p)}")
    return p[: i - 1] + p[j - 1 : k - 1] + p[i - 1 : j - 1] + p[k - 1 :]


def neighbors(p: Perm, model: Model | str) -> tuple[Perm, ...]:
    """All distinct permutations one operation away from ``p``.

    Both exchanged blocks are nonempty, so the result of any operation
    differs from ``p``; deduplication still runs because distinct triples may
    coincide on some inputs.
    """
    if not p:
        raise ValueError("neighbors of the empty permutation are undefined")
    return core.perm_set(
        apply_transposition(p, t) for t in transposition_triples(len(p), model)
    )


# ---------------------------------------------------------------------------
# Distance engine internals.

#: Frontier sets dominate memory; 4 bits per entry (after the -1 shift) packs
#: any permutation of length <= 16 into one int key.
_PACK_MAX = 16


def _pack(p: Perm) -> int:
    code = 0
    for idx, v in enumerate(p):
        code |= (v - 1) << (4 * idx)
    return code


def _unpack(code: int, n: int) -> Perm:
    return tuple(((code >> (4 * i)) & 0xF) + 1 for i in range(n))


def _expand(
    frontier: list[int],
    seen: dict[int, int],
    depth: int,
    n: int,
    masks: list[tuple[int, int, int, int, int]],
    max_states: int | None,
) -> list[int]:
    """Record every unseen child of ``frontier`` in ``seen`` at ``depth``;
    return the new codes in discovery order.

    The budget caps ``len(seen)`` and is checked after each expanded state.
    On refusal the entries this call added are removed again, so ``seen`` is
    left as it was found.
    """
    fresh: list[int] = []
    for code in frontier:
        for keep, left, up, right, down in masks:
            child = (code & keep) | ((code & left) << up) | ((code & right) >> down)
            if child not in seen:
                seen[child] = depth
                fresh.append(child)
        if max_states is not None and len(seen) > max_states:
            for child in fresh:
                del seen[child]
            raise BudgetError(f"search over S_{n} exceeds the state budget")
    return fresh


class _LevelTable:
    """Level-synchronous BFS of one length/model from ``root`` (the identity
    when None): ``dist`` of every state reached, the last level
    ``frontier`` (empty once the graph is exhausted) and its ``depth``."""

    __slots__ = ("n", "dist", "frontier", "depth", "_masks")

    def __init__(self, n: int, model: Model, root: Perm | None = None):
        self.n = n
        start = _pack(core.identity(n) if root is None else root)
        self.dist: dict[int, int] = {start: 0}
        self.frontier = [start]
        self.depth = 0
        # Per cut-point triple (i, j, k): the nibbles that stay, the left block
        # (cuts i..j), which moves up by 4(k-j) bits, and the right block
        # (cuts j..k), which moves down by 4(j-i).
        self._masks = []
        for i, j, k in transposition_triples(n, model):
            left = ((1 << 4 * (j - i)) - 1) << 4 * (i - 1)
            right = ((1 << 4 * (k - j)) - 1) << 4 * (j - 1)
            keep = ((1 << 4 * n) - 1) & ~(left | right)
            self._masks.append((keep, left, 4 * (k - j), right, 4 * (j - i)))

    def grow(self, max_states: int | None = None) -> bool:
        """Add one BFS level; return False once the graph is exhausted."""
        self.frontier = _expand(
            self.frontier, self.dist, self.depth + 1, self.n, self._masks, max_states
        )
        if not self.frontier:
            return False
        self.depth += 1
        return True


_tables: dict[tuple[int, Model], _LevelTable] = {}
_bidi_memo: dict[tuple[Model, Perm], int] = {}

#: Full tables are built on demand up to this length; longer single queries
#: use bidirectional search instead of saturating n!-sized tables. Even with
#: bit-mask expansion, a cutoff of 8 makes the distance-stream benchmark
#: slower (median wall 4.8 -> 5.3 s) and larger (peak RSS 52.2 -> 56.6 MB).
_FULL_TABLE_MAX = 7


def _table(n: int, model: Model) -> _LevelTable:
    key = (n, model)
    if key not in _tables:
        _tables[key] = _LevelTable(n, model)
    return _tables[key]


def _reset_caches() -> None:
    """Drop all cached search state (test seam; budgets bind only fresh work)."""
    _tables.clear()
    _bidi_memo.clear()


def _bidirectional(p: Perm, model: Model, max_states: int | None) -> int:
    """Meet a throwaway BFS from ``p`` with the cached one from the identity;
    ``p`` is not in the identity table yet."""
    key = (model, p)
    if key in _bidi_memo:
        return _bidi_memo[key]
    # No block-model path is shorter than the breakpoint bound ceil(b/3) of
    # Bafna and Pevzner, so meet tests before that combined depth are waste.
    lower = -(-core.breakpoint_count(p) // 3) if model is Model.BLOCK else 0
    here, there = _LevelTable(len(p), model, p), _table(len(p), model)
    cached, best = len(there.dist), math.inf
    while here.frontier and there.frontier and best > here.depth + there.depth:
        mine, other = (here, there) if len(here.frontier) <= len(there.frontier) else (there, here)
        # Both sides share the budget, which counts only the states this
        # search adds: identity levels cached by earlier work are free.
        mine.grow(None if max_states is None else max_states + cached - len(other.dist))
        if best < math.inf or here.depth + there.depth >= lower:
            for child in mine.frontier:
                if child in other.dist:
                    best = min(best, mine.depth + other.dist[child])
    if best is math.inf:
        raise RuntimeError(f"search exhausted without reaching the identity from {p!r}")
    _bidi_memo[key] = int(best)
    return int(best)


def distance(
    p: Perm, model: Model | str, *, max_states: int | None = DEFAULT_MAX_STATES
) -> int:
    """Exact minimum number of operations transforming ``p`` into the identity.

    Block-model queries are answered on reduce(p): collapsing strips never
    changes the block-transposition distance. Prefix-model queries are never
    reduced (that invariance is an empirical observation, not a guarantee
    this engine relies on).
    """
    model = Model.coerce(model)
    p = tuple(p)
    if model is Model.BLOCK:
        p = core.reduce(p)
    n = len(p)
    if p == core.identity(n):
        return 0
    if n > _PACK_MAX:
        raise BudgetError(f"distance queries support length <= {_PACK_MAX}")
    code = _pack(p)
    table = _table(n, model)
    if n > _FULL_TABLE_MAX and code not in table.dist:
        return _bidirectional(p, model, max_states)
    while code not in table.dist:
        if not table.grow(max_states):
            raise RuntimeError(f"search exhausted without reaching {p!r}")
    return table.dist[code]


def pairwise_distance(
    p: Perm, q: Perm, model: Model | str, *, max_states: int | None = DEFAULT_MAX_STATES
) -> int:
    """Exact minimum number of operations transforming ``p`` into ``q``.

    Operations rearrange positions, so relabelling both permutations by any
    fixed permutation preserves the distance; composing with the inverse of
    ``p`` turns the question into a sorting distance.
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    inv = core.invert(p)
    relabeled = tuple(inv[x - 1] for x in q)
    return distance(relabeled, model, max_states=max_states)


def ball(
    n: int,
    k: int,
    model: Model | str,
    *,
    max_states: int | None = DEFAULT_MAX_STATES,
) -> tuple[Perm, ...]:
    """All permutations of length ``n`` at distance <= k from the identity,
    via k-level breadth-first expansion from the identity."""
    model = Model.coerce(model)
    if n < 0:
        raise ValueError("negative length")
    if k < 0:
        raise ValueError("negative radius")
    if n > _PACK_MAX:
        raise BudgetError(f"ball construction supports length <= {_PACK_MAX}")
    if n == 0:
        return ((),)
    table = _table(n, model)
    while table.depth < k and table.grow(max_states):
        pass
    return core.perm_set(_unpack(code, n) for code, d in table.dist.items() if d <= k)


def ball_set(
    n: int, k: int, model: Model | str, *, max_states: int | None = DEFAULT_MAX_STATES
) -> frozenset[Perm]:
    """The members of ``ball(n, k, model)`` as a set, for membership tests."""
    return frozenset(ball(n, k, model, max_states=max_states))
