"""Bases of the distance-k balls: their minimal excluded permutations.

A ball B_k is a pattern class (closed under one-point deletion, which the
``ball-closure`` check of ``verify`` tests), so a permutation belongs to it
exactly when it avoids every basis element, and minimality can be tested
through deletions alone. The basis elements have length at most 3k+1 (block
model) or 2k+1 (prefix model); an optional probe one length above the bound
confirms emptiness there. A ``BasisReport`` holds only what was computed,
not the k and model its caller passed.

Two independent routes compute the basis: ``basis`` extends the ball members
of each length n - 1 by one point, and ``basis_via_poset_descent`` scans
every permutation of the bound length and descends through deletions. Both
refuse up front by the n! size of the longest length they cover, which
bounds the extension route's candidates from above.

Every basis element is plus irreducible (the strip lemma). Take p with an
adjacency p[i+1] = p[i] + 1. Deleting p[i+1] leaves a permutation q with
the same strip reduction, and the ``distance`` docstring proves that the
reduction keeps the distance in both models, so q and p have one distance.
Either p is in the ball, or its deletion q is outside it; either way p is
not a minimal excluded permutation. ``basis`` uses the lemma to prune its
candidates; ``basis_via_poset_descent`` does not, so its agreement with
``basis`` also checks the lemma.

Both routes hold permutations as bytes, one entry per byte, and build
tuples only for the elements they find. Each takes one step per scanned
length n: it tests membership at n on the level table itself, through
``models._within``, and reads the ball at n - 1 as bytes, once, so no ball is
copied to be tested and the largest is never copied at all. ``basis`` reads
through the public ``ball`` and tests its candidates with the public
``one_point_deletions`` on bytes, so a traced run sees its ball reads and
deletion scans at those layer boundaries. ``basis_via_poset_descent`` reads
from ``models._members`` and deletes with the ``core`` byte tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import core
from .core import DEFAULT_MAX_STATES, Perm
from .genset import element_length
from .models import Model, _members, _within, ball


@dataclass(frozen=True)
class BasisProbe:
    """Outcome of scanning one extra length above the bound (should be empty)."""

    length: int
    elements: tuple[Perm, ...]


@dataclass(frozen=True)
class BasisReport:
    """A computed basis, sorted, and the length bound the scan covered; the
    probe holds what one length above the bound held, when it was asked for."""

    elements: tuple[Perm, ...]
    length_bound_used: int
    probe: BasisProbe | None = None


def basis(
    k: int,
    model: Model | str,
    probe_extra: bool = False,
    *,
    max_states: int | None = DEFAULT_MAX_STATES,
) -> BasisReport:
    """Compute the basis of B_k by one-point extension up to the length bound.

    For each length n from 2 to the bound, a basis element lies outside the
    ball with every one-point deletion inside. Deleting its last entry
    leaves a ball member of length n - 1, so the candidates are those
    members, as bytes, extended by a new last entry v; each permutation
    arises from exactly one pair (member, v), so none is missed. By the
    strip lemma of the module docstring only the plus-irreducible extensions
    are tested. Appending v bumps every entry from v up by one, which breaks
    the member's adjacency (v - 1, v), if it has one, and no other; and the
    new entry forms an adjacency exactly when v is one above the member's
    last entry. So a member with two or more adjacencies gives no
    candidate, one with the single adjacency (a, a + 1) gives only
    v = a + 1, one with none gives every v, and v = last + 1 is always
    skipped. With ``probe_extra`` the scan also covers one length above the
    bound and records the (expected empty) findings. Each step tests its
    candidates on the level table of length n and reads the members of
    length n - 1 once, through ``ball``.
    Refuses up front when n! at the longest length exceeds ``max_states``:
    an over-estimate of the candidates, kept so that the budget means the
    same for both routes.
    """
    model = Model.coerce(model)
    bound = element_length(k, model)
    top = bound + 1 if probe_extra else bound
    core.check_budget(math.factorial(top), max_states)
    elements: list[Perm] = []
    probe = None
    for n in range(2, top + 1):
        shorter = list(map(bytes, ball(n - 1, k, model, max_states=max_states)))
        inside_shorter = frozenset(shorter)
        within = _within(n, k, model, max_states)
        found: list[Perm] = []
        for b in shorter:
            # the candidate rule above: a + 1 for each adjacency (a, a + 1)
            rises = [y for x, y in zip(b, b[1:]) if y == x + 1]
            if len(rises) > 1:
                continue
            for v in rises or range(1, n + 1):
                if v == b[-1] + 1:
                    continue
                p = b.translate(core._BUMP[v]) + core._ONE[v]
                if not within(p) and inside_shorter.issuperset(core.one_point_deletions(p)):
                    found.append(tuple(p))
        if n <= bound:
            elements.extend(found)
        else:
            probe = BasisProbe(length=n, elements=core.perm_set(found))
    return BasisReport(core.perm_set(elements), length_bound_used=bound, probe=probe)


def basis_via_poset_descent(
    k: int, model: Model | str, *, max_states: int | None = DEFAULT_MAX_STATES
) -> BasisReport:
    """Compute the same basis by descending the pattern poset from the top.

    The frontier starts as every permutation of the bound length, scanned
    lazily. A frontier p whose last-entry deletion lies outside the ball is
    outside too, since the ball is a class, and is not minimal: that
    deletion joins the next frontier. Otherwise p is a basis element exactly
    when it lies outside the ball and all its deletions lie inside, a test
    that stops at the first one outside. Each later frontier is exactly the
    non-members of its length: a non-member q of length m is the last-entry
    deletion of q followed by m + 1, a non-member because the ball is a
    class. Membership at each length n is tested on the level table, and
    length n - 1 is read once, as a set. No candidate is pruned by the strip
    lemma, so disagreement with basis() signals a bug in the distance
    engine, the pattern machinery or that lemma.
    """
    model = Model.coerce(model)
    bound = element_length(k, model)
    core.check_budget(math.factorial(bound), max_states)
    frontier: Iterable[bytes] = map(bytes, core.all_perms(bound))
    found: set[bytes] = set()
    for n in range(bound, 1, -1):
        within = _within(n, k, model, max_states)
        inside_shorter = frozenset(_members(n - 1, k, model, max_states))
        descend: set[bytes] = set()
        for p in frontier:
            last = p[:-1].translate(core._RESCALE[p[-1]])
            if last not in inside_shorter:
                descend.add(last)
            elif not within(p) and inside_shorter.issuperset(
                map(p.translate, map(core._RESCALE.__getitem__, p), map(core._ONE.__getitem__, p))
            ):
                found.add(p)
        frontier = descend
    return BasisReport(core.perm_set(map(tuple, found)), length_bound_used=bound)
