"""Generating sets of the distance-k balls, for both models.

A ball B_k (all permutations within distance k of the identity, over all
lengths) is closed downward in the pattern order and is the union of the
monotone-inflation classes of finitely many "generating" permutations: its
maximal plus-irreducible members. For the block model these have length
3k+1; for the prefix model, length 2k+1.

Two independent routes compute the same sets. The direct route needs no
search table: a plus-irreducible permutation of the right length has a
breakpoint at every internal position, so every shortest path to one adds
the most breakpoints an operation can. The route applies those
breakpoint-saturating operations k times to the identity, level by level
on bytes. The constructive route grows generation k+1 from generation k by
one strip-break rule for both models: inflate c chosen positions (repeats
allowed, so a position chosen twice gains two points) and break every new
strip with one operation. The block model chooses c = 3 positions
i <= j <= k and cuts at (i+1, j+2, k+3); the prefix model chooses c = 2
positions i <= j and cuts at (1, i+1, j+2), its front cut at the left end.
Both routes read c and the front cut from ``Model.shape`` and cut with
``apply_transposition``; ``inflate`` is one checked step of the rule.
The prefix steps are uniquely invertible, so generation j has C(2j, 2)
children per parent and none collide: the prefix generating sets count
(2k)!/2^k, the product of C(2j, 2) over the generations j = 1..k.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

from . import core
from .core import DEFAULT_MAX_STATES, Perm
from .models import Model, apply_transposition


def _strip_break(p: Perm, indices: tuple[int, ...], model: Model) -> Perm:
    """Inflate the chosen positions of ``p`` and break the new strips with one
    operation of ``model``; returns the broken child.

    ``indices`` is non-decreasing and may repeat: each occurrence of a
    position adds one point to its strip and cuts it once more, after its
    first point, then after its second. So the r-th chosen position t (from
    r = 0) gives the 1-based cut point t + 1 + r, after the model's front
    cut (``Model.shape``). An entry x moves up by the number of chosen
    values below it.
    """
    # inflated here rather than through core.monotone_inflate, which
    # validates p and sorts every position: that route took the constructive
    # sets about twice as long (ptd k=5 0.8 -> 1.4-2.4 s, td k=4 0.85 ->
    # 1.2-1.7 s on 2 vCPUs, Python 3.11.7)
    chosen = sorted(p[t - 1] for t in indices)
    shifted = [x + bisect.bisect_left(chosen, x) for x in p]
    inflated: list[int] = []
    start = 0
    for t in indices:
        inflated += shifted[start:t]
        inflated.append(inflated[-1] + 1)
        start = t
    cuts = tuple(t + r for r, t in enumerate(indices, start=1))
    return apply_transposition((*inflated, *shifted[start:]), model.shape[1] + cuts)


def index_multisets(n: int) -> Iterator[tuple[int, int, int]]:
    """All multisets {i <= j <= k} of three positions from 1..n."""
    return itertools.combinations_with_replacement(range(1, n + 1), 3)


def inflate(p: Perm, positions: tuple[int, ...], model: Model | str) -> Perm:
    """One inflation step of ``model``: inflate the chosen positions of a
    plus-irreducible ``p`` into strips and break them all with one operation.

    ``positions`` holds c non-decreasing positions in 1..n, three for the
    block model (i <= j <= k) and two for the prefix model (i <= j), and may
    repeat: each occurrence adds one point, so a position chosen r times
    becomes a strip of r+1 points. The breaking operation cuts at
    (i+1, j+2, k+3), or at (1, i+1, j+2) for the prefix model. Returns the
    broken child, c longer than ``p``. A block step keeps a leading 1 and a
    trailing maximum of ``p``; ``ptd_parent`` inverts a prefix step. Raises
    ValueError when ``p`` is not a plus-irreducible permutation or
    ``positions`` are not c non-decreasing positions in 1..n.

    >>> inflate((1, 3, 2, 4), (2, 2, 4), "td")
    (1, 3, 5, 2, 6, 4, 7)
    >>> inflate((2, 1, 3), (1, 1), "ptd")
    (3, 2, 4, 1, 5)
    """
    model = Model.coerce(model)
    p = core.check_perm(p)
    if not core.is_plus_irreducible(p):
        raise ValueError(f"{p!r} is not plus irreducible")
    positions = tuple(positions)
    c = model.shape[0]
    if len(positions) != c:
        raise ValueError(f"a {model.value} step takes {c} positions, got {positions!r}")
    if not all(map(operator.le, (1, *positions), (*positions, len(p)))):
        raise ValueError(f"positions {positions!r} are not non-decreasing in 1..{len(p)}")
    return _strip_break(p, positions, model)


def ptd_cases(p: Perm) -> Iterator[tuple[int, int]]:
    """Every inflation case for parent ``p``: one per pair of positions
    i <= j, C(n+1, 2) in all."""
    return itertools.combinations_with_replacement(range(1, len(p) + 1), 2)


def ptd_parent(child: Perm) -> tuple[Perm, tuple[int, int]]:
    """Invert a prefix-model inflation step: recover the unique (parent, case)
    with inflate(parent, case, "ptd") == child.

    The step moved a prefix that ends in s1 - 1 behind a block that now leads
    with s1, the first entry; that block ends with the value one below the
    entry r right after s1 - 1. Exchanging the two blocks back and deleting
    the two added points, s1 and r, gives the parent; the chosen positions
    are where s1 - 1 and the block's last entry land. Raises ValueError when
    ``child`` is not the result of any step.
    """
    s = core.check_perm(child)
    try:
        end = s.index(s[0] - 1)  # the moved prefix s[split+1..end] ends here
        right = s[end + 1]
        split = s.index(right - 1)  # the block s[0..split] in front of it ends here
        if not split < end:
            raise ValueError
        q = s[split + 1 : end + 1] + s[: split + 1] + s[end + 1 :]
        parent = tuple(x - (x > s[0]) - (x > right) for x in q if x != s[0] and x != right)
        case = (end - split, end)
        if inflate(parent, case, Model.PREFIX) != s:
            raise ValueError
    except (IndexError, ValueError):
        raise ValueError(f"{s!r} is not obtainable by any inflation step") from None
    return parent, case


@dataclass(frozen=True)
class GeneratingSetReport:
    """A computed generating set: the maximal plus-irreducible members of one
    ball, sorted, all of the same length and all at distance exactly k. It
    holds only the elements, not the k, model and method its caller passed."""

    elements: tuple[Perm, ...]


def element_length(k: int, model: Model | str) -> int:
    """Length of the generating permutations of B_k, 3k+1 (block model) or
    2k+1 (prefix model); it also bounds the length of the basis elements."""
    model = Model.coerce(model)
    if k < 1:
        raise ValueError("k must be at least 1")
    return model.shape[0] * k + 1


def generating_set_constructive(
    k: int, model: Model | str, *, max_states: int | None = DEFAULT_MAX_STATES
) -> GeneratingSetReport:
    """Grow the generating set recursively from the length-1 identity,
    applying the strip-break to every multiset of c positions of every
    parent, k times, and deduplicating.

    The block-model steps can produce the same permutation several times;
    the prefix-model steps never collide (each result has a unique parent).
    The budget caps each generation and is checked after each parent.
    """
    model = Model.coerce(model)
    element_length(k, model)  # checks k
    c = model.shape[0]
    current: set[Perm] = {(1,)}
    for _ in range(k):
        grown: set[Perm] = set()
        for parent in current:
            for indices in itertools.combinations_with_replacement(range(1, len(parent) + 1), c):
                grown.add(_strip_break(parent, indices, model))
            core.check_budget(len(grown), max_states)
        current = grown
    return GeneratingSetReport(core.perm_set(current))


def generating_set_direct(
    k: int, model: Model | str, *, max_states: int | None = DEFAULT_MAX_STATES
) -> GeneratingSetReport:
    """Apply k breakpoint-saturating operations to the identity of length
    m = ck+1, level by level on bytes; c = 3 for the block model and 2 for
    the prefix model, whose front cut is the left end.

    Call an internal position i < m with p[i+1] != p[i]+1 a breakpoint, and
    an adjacency otherwise. An operation keeps the pairs inside its blocks
    and replaces only those at its internal cuts, at most c, so it changes
    the breakpoint count by at most c and d(p) >= ceil(b/c) (Bafna and
    Pevzner 1998). A generator has all ck internal positions as
    breakpoints, so it lies at distance exactly k, and each step of a
    shortest path to it cuts at c adjacencies and forms c breakpoints.
    Cutting at adjacencies forms only breakpoints: a new pair (p[a-1], p[b])
    with p[b] = p[a-1]+1 = p[a] would need a = b. So each level applies
    every operation whose cuts are all adjacencies, and level k is exactly
    the plus-irreducible members of the ball at length m.

    Refuses before any work when the bound on the children, the sum over
    levels j <= k of the products over i < j of C(m-1-ci, c), exceeds the
    budget.
    """
    model = Model.coerce(model)
    target = element_length(k, model)
    c, front = model.shape
    widths = (math.comb(target - 1 - c * i, c) for i in range(k))
    core.check_budget(sum(itertools.accumulate(widths, operator.mul)), max_states)
    level = {bytes(range(1, target + 1))}
    for _ in range(k):
        grown: set[bytes] = set()
        for p in level:
            joins = [a + 1 for a in range(1, target) if p[a] == p[a - 1] + 1]  # 1-based cuts
            for cuts in itertools.combinations(joins, c):
                grown.add(apply_transposition(p, front + cuts))
        level = grown
    return GeneratingSetReport(tuple(map(tuple, sorted(level))))


def generating_set(
    k: int,
    model: Model | str,
    method: str = "direct",
    *,
    max_states: int | None = DEFAULT_MAX_STATES,
) -> GeneratingSetReport:
    """Dispatch on ``method`` ("direct" or "constructive")."""
    if method == "direct":
        return generating_set_direct(k, model, max_states=max_states)
    if method == "constructive":
        return generating_set_constructive(k, model, max_states=max_states)
    raise ValueError(f"unknown method {method!r}")


def mi_union_member(p: Perm, report: GeneratingSetReport) -> bool:
    """True when ``p`` is a monotone inflation of some generating permutation,
    i.e. when ``p`` lies in the ball the report describes."""
    q = core.reduce(p)
    return any(core.contains_pattern(g, q) for g in report.elements)


def mi_plus_one(
    base: Perm, n_max: int, *, max_states: int | None = DEFAULT_MAX_STATES
) -> tuple[Perm, ...]:
    """The union of the inflation classes of the strip-broken children
    inflate(base, I, "td"), over every multiset I of three positions,
    materialized from length 2 up to ``n_max``.

    These classes hold every one-step neighbour of the inflation class of
    ``base`` (zero entries allowed, so patterns of ``base`` count): one block
    transposition on an inflated copy of ``base`` lands in the class of some
    child, and each child is such a neighbour. A class also holds every
    pattern of its child, so the result is the pattern closure of those
    neighbours and can hold more than them: from base (1,) it adds the
    identities, which makes it the radius-1 ball. Refuses up front when the
    inflation vectors to enumerate, C(b+2, 3) index multisets times
    C(n_max+b+3, b+3) vectors each for b = len(base), exceed ``max_states``.
    """
    base = core.check_perm(base)
    if not core.is_plus_irreducible(base):
        raise ValueError(f"{base!r} is not plus irreducible")
    b = len(base)
    core.check_budget(math.comb(b + 2, 3) * math.comb(n_max + b + 3, b + 3), max_states)
    out: set[Perm] = set()
    for indices in index_multisets(b):
        child = _strip_break(base, indices, Model.BLOCK)
        out.update(q for q in core.mi_members(child, n_max) if len(q) >= 2)
    return core.perm_set(out)
