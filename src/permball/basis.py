"""Bases of the distance-k balls: their minimal excluded permutations.

A ball B_k is a pattern class (closed under one-point deletion, which the
``ball-closure`` check of ``verify`` tests), so a permutation belongs to it
exactly when it avoids every basis element, and minimality can be tested
through deletions alone. The basis elements have length at most m = 3k+1
(block model) or 2k+1 (prefix model); an optional probe one length above
the bound confirms emptiness there. A ``BasisReport`` holds only what was
computed, not the k and model its caller passed.

Two independent routes compute the basis: ``basis`` extends the ball members
of each length n - 1 by one point, and ``basis_via_poset_descent`` scans
every permutation one shorter than the bound and descends through
deletions. Both refuse up front by the n! size of the longest length they
cover, which bounds the extension route's candidates from above.

Both routes test membership by one set lookup in what they already hold.
Below the bound m that is the ball of the length, read once as a set. At
n >= m it is the route's generating set, without the level table of that
length, by two facts:

- Reduction: deleting the upper point p[i+1] of an adjacency
  p[i+1] = p[i] + 1 keeps the strip reduction, which keeps the distance in
  both models (proved in ``distance``).
- Top length: the plus-irreducible members of length m are exactly the
  generating set G_k, and none is longer, since a plus-irreducible
  permutation of length n lies at distance at least ceil((n-1)/c) (both
  proved in ``generating_set_direct``).

``basis`` reads G_k from ``generating_set_direct`` and the descent from
``generating_set_constructive``, so the routes share no generator code and
a wrong G_k in either shows as their disagreement. Neither grows the level
table of length m, except that the probe reads the ball of length m, and
neither grows a longer one.

Every basis element is plus irreducible (the strip lemma): by reduction, a p
with an adjacency is in the ball or has a deletion outside it. Both routes
extend a member only by the ends that one rule, ``_ends``, gives: those
that make the extension plus irreducible. ``basis`` does so at every length
and looks its candidates at m and above up in G_k alone, so it is exact
there only through that rule. The descent extends only at m, and its
``_member`` still answers a plus-reducible p by the adjacency deletion,
which the deletion test looks up too, so p is a member or fails the test:
the descent is exact whatever ``_ends`` returns or G_k holds. Below m the
descent extends nothing: its frontier is exactly the non-members of each
length, and it tests their deletions, so its agreement with ``basis``
checks the lemma and the rule. Block bases end at length 2k+2, below
m = 3k+1 for k >= 2.

Both routes hold permutations as bytes, one entry per byte, and build tuples
only for the elements they find. Each reads the ball of every length below
the bound once, as a set, and no other copy of it. ``basis`` reads through
the public ``ball`` and tests its candidates with the public
``one_point_deletions`` on bytes, so a traced run sees its ball reads and
deletion scans at those layer boundaries. ``basis_via_poset_descent`` reads
from ``models._members`` and deletes with the ``core`` byte tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import DEFAULT_MAX_STATES, Perm
from .genset import element_length, generating_set_constructive, generating_set_direct
from .models import Model, _members, ball


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


def _member(p: bytes, generators: frozenset[bytes], shorter: frozenset[bytes]) -> bool:
    """Membership in B_k of a permutation p of the bound length m, as bytes,
    by the two facts of the module docstring: ``generators`` for a
    plus-irreducible p, and otherwise its first adjacency deletion in
    ``shorter``, the members of length m - 1."""
    # _BUMP[1] adds one to every entry, so a zero byte of the xor marks
    # an adjacency p[i + 1] = p[i] + 1
    xor = int.from_bytes(p[1:], "big") ^ int.from_bytes(p[:-1].translate(core._BUMP[1]), "big")
    i = xor.to_bytes(len(p) - 1, "big").find(0)
    if i < 0:
        return p in generators
    v = p[i + 1]
    return p.translate(core._RESCALE[v], core._ONE[v]) in shorter


def _ends(q: bytes, n: int) -> list[int]:
    """The last entries v that extend q, of length n - 1 as bytes, to a
    plus-irreducible permutation. Appending v bumps every entry from v up by
    one, which breaks q's adjacency (v - 1, v), if any, and no other, and
    makes one exactly when v = q[-1] + 1. So a q with two or more
    adjacencies gives no end, one with the single adjacency (a, a + 1) only
    v = a + 1, one with none every v, and v = q[-1] + 1 is always skipped."""
    rises = [y for x, y in zip(q, q[1:]) if y == x + 1]
    if len(rises) > 1:
        return []
    skip = q[-1] + 1
    return [v for v in rises or range(1, n + 1) if v != skip]


def _deleted_inside(p: bytes, shorter: frozenset[bytes]) -> bool:
    """Whether every one-point deletion of p, as bytes, lies in ``shorter``;
    stops at the first one outside."""
    return shorter.issuperset(map(
        p.translate, map(core._RESCALE.__getitem__, p), map(core._ONE.__getitem__, p)
    ))


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
    strip lemma of the module docstring only the ends ``_ends`` gives are
    tested. With ``probe_extra`` the scan also covers one length above the
    bound and records the (expected empty) findings. A candidate's
    membership is one set lookup: below the bound m in the ball of its
    length, read once through ``ball`` and extended at the next step; at m
    and above in G_k from ``generating_set_direct``, which holds every
    plus-irreducible member of length m and none longer. So at the bound
    this route is exact only through ``_ends``: a plus-reducible candidate
    there would count as a non-member.
    Refuses up front when n! at the longest length exceeds ``max_states``:
    an over-estimate of the candidates, kept so that the budget means the
    same for both routes.
    """
    model = Model.coerce(model)
    bound = element_length(k, model)
    top = bound + 1 if probe_extra else bound
    core.check_factorial_budget(top, max_states)
    direct = generating_set_direct(k, model, max_states=max_states)
    generators = frozenset(map(bytes, direct.elements))

    def read(n: int) -> frozenset[bytes]:
        # from a list, so that ball's tuples are freed before the set is built
        return frozenset(list(map(bytes, ball(n, k, model, max_states=max_states))))

    elements: list[Perm] = []
    probe = None
    inside = read(1)
    for n in range(2, top + 1):
        shorter = inside if n <= bound else read(n - 1)
        inside = read(n) if n < bound else generators
        found: list[Perm] = []
        for b in shorter:
            for v in _ends(b, n):
                p = b.translate(core._BUMP[v]) + core._ONE[v]
                if p not in inside and shorter.issuperset(core.one_point_deletions(p)):
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

    It scans every q one shorter than the bound m once. A member q is
    extended by the ends ``_ends(q, m)`` gives, and each extension p,
    streamed and never stored, is a basis element exactly when all its
    deletions lie inside the ball, a test that stops at the first one
    outside, and ``_member`` then finds p outside, with G_k from
    ``generating_set_constructive``. As the module docstring shows, this is
    exact whatever ``_ends`` returns or G_k holds; the generators are still
    tested, so disagreement at the bound signals a wrong G_k in either route.

    The scan also collects the non-members, and below m the descent walks
    only them, length by length, each length read once as a set. A
    non-member p whose last-entry deletion falls outside the ball is not
    minimal, and that deletion is passed down; otherwise p is a basis
    element exactly when its other deletions lie inside too. So each length
    walks exactly its non-members: a non-member q of length n is the
    last-entry deletion of q followed by n + 1, a non-member because the
    ball is a class. Below m nothing is pruned, so disagreement with
    basis() there signals a bug in the distance engine, the pattern
    machinery, the strip lemma or ``_ends``.
    """
    model = Model.coerce(model)
    bound = element_length(k, model)
    core.check_factorial_budget(bound, max_states)
    constructive = generating_set_constructive(k, model, max_states=max_states)
    generators = frozenset(map(bytes, constructive.elements))
    inside = frozenset(_members(bound - 1, k, model, max_states))
    found: list[bytes] = []
    outside: set[bytes] = set()
    for q in map(bytes, core.all_perms(bound - 1)):
        if q not in inside:
            outside.add(q)
            continue
        for v in _ends(q, bound):
            p = q.translate(core._BUMP[v]) + core._ONE[v]
            if _deleted_inside(p, inside) and not _member(p, generators, inside):
                found.append(p)
    for n in range(bound - 1, 1, -1):
        inside = frozenset(_members(n - 1, k, model, max_states))
        below: set[bytes] = set()
        for p in outside:
            q = p[:-1].translate(core._RESCALE[p[-1]])
            if q not in inside:
                below.add(q)
            elif _deleted_inside(p, inside):
                found.append(p)
        outside = below
    return BasisReport(core.perm_set(map(tuple, found)), length_bound_used=bound)
