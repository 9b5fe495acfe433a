"""Reference distances that share no code with ``permball.models``.

Permutations are plain tuples and every operation is a slice exchange, so a
bug in the package's packed-code engine, its strip reduction or its caches
cannot leak into the answers the benchmark checks against.
"""

from __future__ import annotations

Perm = tuple[int, ...]


def cuts(n: int, model: str) -> list[tuple[int, int, int]]:
    """0-based cut points (i, j, k): the blocks p[i:j] and p[j:k] swap places.
    The prefix model ("ptd") pins i to 0."""
    if model not in ("td", "ptd"):
        raise ValueError(f"unknown model {model!r}")
    starts = range(n) if model == "td" else (0,)
    return [
        (i, j, k)
        for i in starts
        for j in range(i + 1, n)
        for k in range(j + 1, n + 1)
    ]


def step(p: Perm, cut_list: list[tuple[int, int, int]]) -> list[Perm]:
    return [p[:i] + p[j:k] + p[i:j] + p[k:] for i, j, k in cut_list]


def distance(p: Perm, model: str) -> int:
    """Exact sorting distance by bidirectional breadth-first search.

    Whole levels are expanded, smaller side first. Before a level is added
    the two visited sets are disjoint, so a shortest path is at least as long
    as the two depths plus the new step; the first node the new level shares
    with the other side therefore closes a shortest path.
    """
    p = tuple(p)
    n = len(p)
    target = tuple(range(1, n + 1))
    if p == target:
        return 0
    cut_list = cuts(n, model)
    sides = [({p: 0}, [p], 0), ({target: 0}, [target], 0)]
    while True:
        grow = 0 if len(sides[0][1]) <= len(sides[1][1]) else 1
        seen, frontier, depth = sides[grow]
        other = sides[1 - grow][0]
        fresh = []
        for q in frontier:
            for r in step(q, cut_list):
                if r in seen:
                    continue
                if r in other:
                    return depth + 1 + other[r]
                seen[r] = depth + 1
                fresh.append(r)
        if not fresh:
            raise RuntimeError(f"search exhausted without reaching the identity from {p!r}")
        sides[grow] = (seen, fresh, depth + 1)
