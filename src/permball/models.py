"""The two rearrangement models and the exact distance engine.

A block transposition exchanges two adjacent blocks of a permutation, chosen
by cut points 1 <= i < j < k <= n+1; the prefix variant forces i = 1 so the
left block is a prefix. Every operation has an inverse of the same kind, so
the one-step relation is symmetric and distances to the identity can be read
off a breadth-first expansion from the identity.

All distances returned here are exact. A query of either model is answered
on its strip reduction, which has the same distance (proved in
``distance``). One BFS table from the identity per (length, model), grown
lazily and cached for the whole process, holds every ball and is the
identity side of the memoized bidirectional search that answers every query
of every length; a query the table already holds is one lookup. That search
ends at the first state both sides have reached: the identity table holds
whole BFS levels, so the first meet already has the exact distance. Only the
throwaway table rooted at the query may stop mid-level; the cached identity
table always finishes a level. The query side expands the states with the
fewest breakpoints first, so the meet comes within the first few of them and
a query's work hardly depends on which permutation it is. Every BFS step
builds a state's children from its 4-bit packed code by bit masks and
shifts, one mask tuple per cut-point triple. Results never depend on what
the caches hold. State budgets bound search work: an answer already in the
cache is returned as-is, and the two sides of the search share one budget
that counts only the states the search adds, not the cached ones. A budget
refuses during expansion, as soon as the visited states exceed it; a refusal
never leaves a partial BFS level or a memo entry behind, while whole levels
finished before it stay cached. The tables and the memo are process-wide and
unsynchronised, so the engine is single-threaded.

``_grown`` grows a level table to a radius and carries the refusals of
``ball``. ``_members`` reads a ball off that table once, as bytes with one
entry per byte, and ``ball`` builds the tuples.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Container, Iterator

from . import core
from .core import BudgetError, DEFAULT_MAX_STATES, Perm


class Model(enum.Enum):
    """Which elementary operation is allowed."""

    BLOCK = "td"
    PREFIX = "ptd"

    @classmethod
    def coerce(cls, value: "Model | str") -> "Model":
        return cls(value)

    @property
    def shape(self) -> tuple[int, tuple[int, ...]]:
        """The form of one operation: c, the number of cut points it places
        freely, and the 1-based cut points it fixes (the prefix's left end)."""
        return (3, ()) if self is Model.BLOCK else (2, (1,))


def transposition_triples(n: int, model: Model | str) -> Iterator[tuple[int, int, int]]:
    """All valid cut-point triples for length ``n``, in lexicographic order:
    the model's fixed front cuts, then c increasing cuts in the rest of 1..n+1."""
    c, front = Model.coerce(model).shape
    return (front + t for t in itertools.combinations(range(len(front) + 1, n + 2), c))


def apply_transposition(p: Perm, indices: tuple[int, int, int]) -> Perm:
    """Exchange the adjacent blocks p[i..j-1] and p[j..k-1] (1-based cuts) of a tuple or bytes.

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
    differs from ``p``. Distinct triples give distinct results: the triple
    (i, j, k) moves exactly positions i..k-1 and brings the entry at j to
    position i, so there are C(n+1, 3) neighbors under td and C(n, 2) under ptd.
    """
    p = core.check_perm(p)
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


#: Maps the hex digits of a packed code back to entries 1..16.
_HEX = bytes.maketrans(b"0123456789abcdef", bytes(range(1, 17)))
#: The inverse of ``_HEX``: entries 1..16 to the hex digits of their nibbles.
_TO_HEX = bytes.maketrans(bytes(range(1, 17)), b"0123456789abcdef")


def _pack(p: Perm | bytes) -> int:
    """The packed code of a nonempty tuple or bytes: entry i, less one, in nibble i - 1."""
    # the hex string lists the nibbles from the last entry to the first
    return int(bytes(p)[::-1].translate(_TO_HEX), 16)


def _unpack_bytes(code: int, n: int) -> bytes:
    """The permutation of a packed code as bytes, one entry per byte."""
    return format(code, "x").zfill(n).encode()[::-1].translate(_HEX)


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

    def grow(self, max_states: int | None = None, meet: Container[int] = ()) -> bool:
        """Add one BFS level at ``depth + 1``: every unseen child of the
        ``frontier`` states, from their masks in order, goes into ``dist``, and
        the new codes in that discovery order become ``frontier``. The budget
        caps ``len(dist)`` after each expanded state; a refusal removes the
        entries this call added before ``BudgetError``. A new child in
        ``meet`` ends the level at once as the last code of a partial
        ``frontier``, and ``depth`` still advances, so only a throwaway table
        may pass ``meet``. Once the graph is exhausted, ``frontier`` becomes
        ``[]``, ``depth`` stays and the call returns False."""
        dist, masks, depth = self.dist, self._masks, self.depth + 1
        fresh: list[int] = []
        for code in self.frontier:
            for keep, left, up, right, down in masks:
                child = (code & keep) | ((code & left) << up) | ((code & right) >> down)
                if child not in dist:
                    dist[child] = depth
                    fresh.append(child)
                    if child in meet:
                        self.frontier, self.depth = fresh, depth
                        return True
            if max_states is not None and len(dist) > max_states:
                for child in fresh:
                    del dist[child]
                raise BudgetError(f"search over S_{self.n} exceeds the state budget")
        self.frontier = fresh
        if fresh:
            self.depth = depth
        return bool(fresh)


def _breakpoint_key(n: int) -> Callable[[int], int]:
    """The breakpoint count of a packed code of length ``n``, framed by 0 and
    n + 1. At length 16 the +1 on entry 16 carries into its neighbour's
    nibble, so the count there can be off, which only matters as an order."""
    lows = sum(1 << 4 * i for i in range(n - 1))  # bit 0 of nibbles 0..n-2
    nibbles = lows * 15
    last = 4 * (n - 1)

    def key(code: int) -> int:
        # nibble i is zero where entry i + 1 is the successor of entry i
        diff = ((code >> 4) ^ (code + lows)) & nibbles
        inner = ((diff | diff >> 1 | diff >> 2 | diff >> 3) & lows).bit_count()
        return inner + (code & 15 != 0) + (code >> last != n - 1)

    return key


_tables: dict[tuple[int, Model], _LevelTable] = {}
_bidi_memo: dict[tuple[Model, Perm], int] = {}


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
    """Meet a throwaway BFS from ``p`` with the cached one from the identity.

    The search ends at the first state found on both sides, worth
    ``here.depth + there.depth`` exactly. The identity table holds whole
    levels, so a state of the query's new level that met it below its last
    level would have a parent in it too, and that earlier meet would have
    been found. The query side therefore stops mid-level, while the identity
    side, which is cached, finishes its level before it is tested.

    That holds in any order within a level, so before each level the query
    frontier is sorted by breakpoint count: states with few breakpoints tend
    to lie near the identity, and the meet comes within the first few of
    them, not at a point of the level that depends on the query. The query
    side then costs its lower levels, whose sizes are the same for every
    query of one length, and little more.
    """
    there = _table(len(p), model)
    code = _pack(p)
    if code in there.dist:
        return there.dist[code]
    key = (model, p)
    if key in _bidi_memo:
        return _bidi_memo[key]
    here, cached = _LevelTable(len(p), model, p), len(there.dist)
    nearest_first = _breakpoint_key(len(p))
    while here.frontier and there.frontier:
        mine, other = (here, there) if len(here.frontier) <= len(there.frontier) else (there, here)
        # Both sides share the budget, which counts only the states this
        # search adds: identity levels cached by earlier work are free.
        limit = None if max_states is None else max_states + cached - len(other.dist)
        if mine is here:
            here.frontier.sort(key=nearest_first)
            met = here.grow(limit, there.dist) and here.frontier[-1] in there.dist
        else:
            met = there.grow(limit) and any(c in here.dist for c in there.frontier)
        if met:
            _bidi_memo[key] = here.depth + there.depth
            return here.depth + there.depth
    raise RuntimeError(f"search exhausted without reaching the identity from {p!r}")


def distance(
    p: Perm, model: Model | str, *, max_states: int | None = DEFAULT_MAX_STATES
) -> int:
    """Exact minimum number of operations transforming ``p`` into the identity.

    Queries of both models are answered on reduce(p), which has the same
    distance:

    - (<=) Each entry of reduce(p) stands for one strip of ``p``. A sorting
      sequence for reduce(p) lifts to ``p`` by cutting only at strip
      boundaries, and a prefix cut stays a prefix cut. It leaves the strips
      in value order, which is the identity.
    - (>=) reduce(p) is a pattern of ``p``. Restricted to a subsequence, each
      operation of a sorting sequence for ``p`` stays one of its kind (a
      prefix stays a prefix) or leaves the subsequence unchanged, so it sorts
      the pattern in no more steps.

    A reduced permutation of length 2 or more is never the identity.
    """
    model = Model.coerce(model)
    p = core.reduce(p)
    if len(p) <= 1:
        return 0
    if len(p) > _PACK_MAX:
        raise BudgetError(f"distance queries support length <= {_PACK_MAX}")
    return _bidirectional(p, model, max_states)


def pairwise_distance(
    p: Perm, q: Perm, model: Model | str, *, max_states: int | None = DEFAULT_MAX_STATES
) -> int:
    """Exact minimum number of operations transforming ``p`` into ``q``.

    Operations rearrange positions, so relabelling both permutations by any
    fixed permutation preserves the distance; composing with the inverse of
    ``p`` turns the question into a sorting distance.
    """
    inv, q = core.invert(p), core.check_perm(q)
    if len(inv) != len(q):
        raise ValueError(f"length mismatch: {len(inv)} vs {len(q)}")
    relabeled = tuple(inv[x - 1] for x in q)
    return distance(relabeled, model, max_states=max_states)


def _grown(n: int, k: int, model: Model | str, max_states: int | None) -> dict[int, int]:
    """The ``dist`` of the level table of length ``n``, grown to depth k or
    to exhaustion; it may hold deeper levels that earlier calls grew. The
    empty permutation has no table: its code is 0, at distance 0."""
    model = Model.coerce(model)
    if n < 0:
        raise ValueError("negative length")
    if k < 0:
        raise ValueError("negative radius")
    if n > _PACK_MAX:
        raise BudgetError(f"ball construction supports length <= {_PACK_MAX}")
    if n == 0:
        return {0: 0}
    table = _table(n, model)
    while table.depth < k and table.grow(max_states):
        pass
    return table.dist


def _members(n: int, k: int, model: Model | str, max_states: int | None) -> list[bytes]:
    """The distinct members of the ball, unordered and as bytes, read off the
    level table after growing it to depth k."""
    dist = _grown(n, k, model, max_states)
    return [_unpack_bytes(code, n) for code, d in dist.items() if d <= k] if n else [b""]


def ball(
    n: int,
    k: int,
    model: Model | str,
    *,
    max_states: int | None = DEFAULT_MAX_STATES,
) -> tuple[Perm, ...]:
    """All permutations of length ``n`` at distance <= k from the identity,
    via k-level breadth-first expansion from the identity."""
    # equal-length bytes sort in the tuples' order, and sort faster
    return tuple(map(tuple, sorted(_members(n, k, model, max_states))))

