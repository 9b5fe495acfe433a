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
on bytes. The constructive route grows generation k+1 from generation k:
for the block model, inflate three chosen positions into strips and break
all of them with one transposition; for the prefix model, apply one of
three shape-preserving inflation steps (one per relative arrangement of
the two chosen entries). The prefix steps are uniquely invertible, which is
what makes the prefix generating sets countable in closed form
((2k)!/2^k).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

from . import core, models
from .core import DEFAULT_MAX_STATES, Perm
from .models import Model


def index_multisets(n: int) -> Iterator[tuple[int, int, int]]:
    """All multisets {i <= j <= k} of three positions from 1..n."""
    return itertools.combinations_with_replacement(range(1, n + 1), 3)


def td_inflate(p: Perm, indices: tuple[int, int, int]) -> tuple[Perm, Perm]:
    """Inflate three chosen positions of a plus-irreducible ``p`` into strips
    and break them with the unique block transposition that does so.

    Positions may repeat: each occurrence adds one extra point, so distinct
    positions become strips of length 2, a doubled position a strip of
    length 3, a tripled one a strip of length 4. The breaking transposition
    has cut points (i+1, j+2, k+3). Returns (inflated, broken); ``broken`` is
    again plus irreducible, three longer than ``p``, and keeps a leading 1
    and trailing maximum when ``p`` has them.

    >>> td_inflate((1, 3, 2, 4), (2, 2, 4))
    ((1, 3, 4, 5, 2, 6, 7), (1, 3, 5, 2, 6, 4, 7))
    """
    if not core.is_plus_irreducible(p):
        raise ValueError(f"{p!r} is not plus irreducible")
    i, j, k = indices
    if not (1 <= i <= j <= k <= len(p)):
        raise ValueError(f"indices {indices!r} out of range for length {len(p)}")
    v = [1] * len(p)
    for t in indices:
        v[t - 1] += 1
    inflated = core.monotone_inflate(p, v)
    broken = models.apply_transposition(inflated, (i + 1, j + 2, k + 3))
    return inflated, broken


@dataclass(frozen=True)
class PtdCase:
    """One prefix-model inflation step, identified by the relative arrangement
    of the chosen entries and their positions in the parent.

    kind 1: two entries, value at pos_a smaller than value at pos_b.
    kind 2: two entries, value at pos_a larger than value at pos_b.
    kind 3: a single entry at pos_a (pos_b is None).
    Positions are 1-based and pos_a < pos_b where both are present.
    """

    kind: int
    pos_a: int
    pos_b: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (1, 2, 3):
            raise ValueError(f"unknown case kind {self.kind}")
        if self.kind == 3:
            if self.pos_b is not None:
                raise ValueError("single-entry case takes one position")
        else:
            if self.pos_b is None or not self.pos_a < self.pos_b:
                raise ValueError("two-entry cases need pos_a < pos_b")
        if self.pos_a < 1:
            raise ValueError("positions are 1-based")


def ptd_cases(p: Perm) -> Iterator[PtdCase]:
    """Every valid inflation case for parent ``p``: one per position pair
    (kind decided by the value order) plus one per single position."""
    n = len(p)
    for pos_a in range(1, n + 1):
        yield PtdCase(3, pos_a)
    for pos_a, pos_b in itertools.combinations(range(1, n + 1), 2):
        kind = 1 if p[pos_a - 1] < p[pos_b - 1] else 2
        yield PtdCase(kind, pos_a, pos_b)


def ptd_inflate(p: Perm, case: PtdCase) -> Perm:
    """Apply one prefix-model inflation step to ``p``.

    Writing a for the value at pos_a (and b at pos_b), with head/mid/tail the
    entries before, between and after the chosen positions:

    kind 1 (a < b): (a+1) mid (b+1) head a (b+2) tail, where entries strictly
        between a and b shift up by 1 and entries above b by 2;
    kind 2 (a > b): (a+2) mid b head (a+1) (b+1) tail, with entries strictly
        between b and a up by 1 and entries above a by 2;
    kind 3 (single a): (a+1) head a (a+2) tail, with entries above a up by 2.

    The result is two longer than ``p`` and plus irreducible whenever ``p``
    is a generating permutation.

    >>> ptd_inflate((2, 1, 3), PtdCase(3, 1))
    (3, 2, 4, 1, 5)
    """
    if not core.is_plus_irreducible(p):
        raise ValueError(f"{p!r} is not plus irreducible")
    n = len(p)
    if not 1 <= case.pos_a <= n or (case.pos_b is not None and case.pos_b > n):
        raise ValueError(f"case positions {case} out of range for length {n}")
    ai = case.pos_a - 1
    if case.kind == 3:
        a = p[ai]
        bump = lambda x: x + 2 if x > a else x
        head = [bump(x) for x in p[:ai]]
        tail = [bump(x) for x in p[ai + 1 :]]
        return (a + 1, *head, a, a + 2, *tail)
    bi = case.pos_b - 1
    a, b = p[ai], p[bi]
    head, mid, tail = p[:ai], p[ai + 1 : bi], p[bi + 1 :]
    if case.kind == 1:
        if not a < b:
            raise ValueError(f"case 1 needs increasing values, got {a} then {b}")
        bump = lambda x: x + 2 if x > b else x + 1 if x > a else x
        return (a + 1, *map(bump, mid), b + 1, *map(bump, head), a, b + 2, *map(bump, tail))
    if not a > b:
        raise ValueError(f"case 2 needs decreasing values, got {a} then {b}")
    bump = lambda x: x + 2 if x > a else x + 1 if x > b else x
    return (a + 2, *map(bump, mid), b, *map(bump, head), a + 1, b + 1, *map(bump, tail))


def ptd_parent(child: Perm) -> tuple[Perm, PtdCase]:
    """Invert a prefix-model inflation step: recover the unique (parent, case)
    with ptd_inflate(parent, case) == child.

    The case is read off the first entry s1 and the entry to the right of
    s1 - 1: at least s1 + 2 means kind 1, at most s1 - 2 means kind 2,
    exactly s1 + 1 means kind 3. (No generating permutation starts with 1,
    and its last entry is its maximum, so the probe is always in range.)
    Raises ValueError when ``child`` is not the result of any step.
    """
    s = tuple(child)
    n = len(s)
    if n < 3:
        raise ValueError(f"{s!r} is too short to be an inflation result")
    if s[0] == 1:
        raise ValueError("a generating permutation cannot start with 1")
    if not core.is_plus_irreducible(s):
        raise ValueError(f"{s!r} is not plus irreducible")
    first = s[0]
    marker = s.index(first - 1)
    if marker == n - 1:
        raise ValueError(f"{s!r} is not obtainable by any inflation step")
    right = s[marker + 1]
    try:
        if right == first + 1:
            a = first - 1
            drop = lambda x: x - 2 if x > a + 2 else x
            head, tail = s[1:marker], s[marker + 2 :]
            parent = (*map(drop, head), a, *map(drop, tail))
            case = PtdCase(3, len(head) + 1)
        elif right >= first + 2:
            a, b = first - 1, right - 2
            split = s.index(b + 1)
            if not 0 < split < marker:
                raise ValueError
            mid, head, tail = s[1:split], s[split + 1 : marker], s[marker + 2 :]
            drop = lambda x: x - 2 if x > b + 2 else x - 1 if x > a + 1 else x
            parent = (*map(drop, head), a, *map(drop, mid), b, *map(drop, tail))
            case = PtdCase(1, len(head) + 1, len(head) + len(mid) + 2)
        else:
            a, b = first - 2, right - 1
            if b < 1:
                raise ValueError
            split = s.index(b)
            if not 0 < split < marker:
                raise ValueError
            mid, head, tail = s[1:split], s[split + 1 : marker], s[marker + 2 :]
            drop = lambda x: x - 2 if x > a + 2 else x - 1 if x > b + 1 else x
            parent = (*map(drop, head), a, *map(drop, mid), b, *map(drop, tail))
            case = PtdCase(2, len(head) + 1, len(head) + len(mid) + 2)
        parent = core.check_perm(parent)
        if ptd_inflate(parent, case) != s:
            raise ValueError
    except ValueError:
        raise ValueError(f"{s!r} is not obtainable by any inflation step") from None
    return parent, case


@dataclass(frozen=True)
class GeneratingSetReport:
    """A computed generating set: the maximal plus-irreducible members of one
    ball, all of the same length and all at distance exactly k."""

    k: int
    model: Model
    method: str
    elements: tuple[Perm, ...]
    element_length: int


def element_length(k: int, model: Model | str) -> int:
    """Length of the generating permutations of B_k, 3k+1 (block model) or
    2k+1 (prefix model); it also bounds the length of the basis elements."""
    model = Model.coerce(model)
    if k < 1:
        raise ValueError("k must be at least 1")
    return (3 if model is Model.BLOCK else 2) * k + 1


def generating_set_constructive(
    k: int, model: Model | str, *, max_states: int | None = DEFAULT_MAX_STATES
) -> GeneratingSetReport:
    """Grow the generating set recursively from the length-1 identity,
    applying every inflation step k times and deduplicating.

    The block-model steps can produce the same permutation several times;
    the prefix-model steps never collide (each result has a unique parent).
    The budget caps each generation and is checked after each parent.
    """
    model = Model.coerce(model)
    target = element_length(k, model)
    current: set[Perm] = {(1,)}
    for _ in range(k):
        grown: set[Perm] = set()
        for parent in current:
            if model is Model.BLOCK:
                for indices in index_multisets(len(parent)):
                    grown.add(td_inflate(parent, indices)[1])
            else:
                for case in ptd_cases(parent):
                    grown.add(ptd_inflate(parent, case))
            core.check_budget(len(grown), max_states)
        current = grown
    return GeneratingSetReport(
        k=k,
        model=model,
        method="constructive",
        elements=core.perm_set(current),
        element_length=target,
    )


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
    cuts = 3 if model is Model.BLOCK else 2
    front = () if model is Model.BLOCK else (0,)  # the prefix cut at the left end
    widths = (math.comb(target - 1 - cuts * i, cuts) for i in range(k))
    core.check_budget(sum(itertools.accumulate(widths, operator.mul)), max_states)
    level = {bytes(range(1, target + 1))}
    for _ in range(k):
        grown: set[bytes] = set()
        for p in level:
            joins = [a for a in range(1, target) if p[a] == p[a - 1] + 1]
            for a, b, c in (front + t for t in itertools.combinations(joins, cuts)):
                grown.add(p[:a] + p[b:c] + p[a:b] + p[c:])
        level = grown
    elements = tuple(map(tuple, sorted(level)))
    return GeneratingSetReport(
        k=k, model=model, method="direct", elements=elements, element_length=target
    )


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
    """Everything reachable by exactly one block transposition from any
    monotone inflation of ``base``, materialized up to length ``n_max``.

    Computed without applying any transposition: one operation on an inflated
    copy of ``base`` always lands inside the inflation class of some
    strip-broken child td_inflate(base, I), and every such class is reached.
    Operations need at least two entries, so nothing shorter than 2 appears.
    Refuses up front when the inflation vectors to enumerate, C(b+2, 3) index
    multisets times C(n_max+b+3, b+3) vectors each for b = len(base), exceed
    ``max_states``.
    """
    base = core.check_perm(base)
    if not core.is_plus_irreducible(base):
        raise ValueError(f"{base!r} is not plus irreducible")
    b = len(base)
    core.check_budget(math.comb(b + 2, 3) * math.comb(n_max + b + 3, b + 3), max_states)
    out: set[Perm] = set()
    for indices in index_multisets(b):
        _, broken = td_inflate(base, indices)
        out.update(q for q in core.mi_members(broken, n_max) if len(q) >= 2)
    return core.perm_set(out)
