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
every permutation of the bound length and descends through deletions. Both
refuse up front by the n! size of the longest length they cover, which
bounds the extension route's candidates from above.

Both routes test membership at lengths n >= m without the level table of
that length, by two facts:

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
keep only the plus-irreducible extensions, by one rule, ``_ends``: ``basis``
at every length, the descent only at m, where the pruning is exact whatever
G_k holds (a plus-reducible p there is a member or fails the deletion test
through the same adjacency deletion). Below m the descent tests every
extension, so its agreement with ``basis`` checks the lemma and the rule.
Block bases end at length 2k+2, below m = 3k+1 for k >= 2.

Both routes hold permutations as bytes, one entry per byte, and build tuples
only for the elements they find. Each takes one step per scanned length n:
it tests membership at n through ``_member`` and reads the ball at n - 1 as
bytes, once, so no ball is copied to be tested. ``basis`` reads through the
public ``ball`` and tests its candidates with the public
``one_point_deletions`` on bytes, so a traced run sees its ball reads and
deletion scans at those layer boundaries. ``basis_via_poset_descent`` reads
from ``models._members`` and deletes with the ``core`` byte tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import core
from .core import DEFAULT_MAX_STATES, Perm
from .genset import element_length, generating_set_constructive, generating_set_direct
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


def _member(
    n: int, k: int, model: Model, max_states: int | None, generators: frozenset[bytes],
    shorter: frozenset[bytes],
) -> Callable[[bytes], bool]:
    """Membership in B_k of a permutation of length ``n`` given as bytes, by
    the two facts of the module docstring: below the bound m, the level
    table's lookup; at n >= m, ``generators`` for a plus-irreducible p, and
    otherwise its first adjacency deletion in ``shorter``, the members of
    length n - 1 that the caller holds."""
    bound = element_length(k, model)
    if n < bound:
        return _within(n, k, model, max_states)

    def member(p: bytes) -> bool:
        # _BUMP[1] adds one to every entry, so a zero byte of the xor marks
        # an adjacency p[i + 1] = p[i] + 1
        xor = int.from_bytes(p[1:], "big") ^ int.from_bytes(p[:-1].translate(core._BUMP[1]), "big")
        i = xor.to_bytes(n - 1, "big").find(0)
        if i < 0:
            return n == bound and p in generators
        v = p[i + 1]
        return p.translate(core._RESCALE[v], core._ONE[v]) in shorter

    return member


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
    bound and records the (expected empty) findings. Each step tests its
    candidates through ``_member`` with G_k from ``generating_set_direct``
    (being plus irreducible, they are members at the bound only as
    generators, and never above it), and reads the members of length n - 1
    once, through ``ball``.
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
    elements: list[Perm] = []
    probe = None
    for n in range(2, top + 1):
        shorter = list(map(bytes, ball(n - 1, k, model, max_states=max_states)))
        inside_shorter = frozenset(shorter)
        member = _member(n, k, model, max_states, generators, inside_shorter)
        found: list[Perm] = []
        for b in shorter:
            for v in _ends(b, n):
                p = b.translate(core._BUMP[v]) + core._ONE[v]
                if not member(p) and inside_shorter.issuperset(core.one_point_deletions(p)):
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

    Each length n is scanned as pairs (q, ends): q of length n - 1 and the
    permutations q extended by a new last entry v, for each v in ends, whose
    last-entry deletion is q. The first frontier is every q one shorter than
    the bound, with ends None, read as ``_ends(q, bound)`` (see below). A q
    outside the ball joins the next frontier, once: its extensions are
    outside too, since the ball is a class, and are not minimal. Otherwise
    each extension p, streamed and never stored, is a basis element exactly
    when it lies outside the ball and all its deletions lie inside, a test
    that stops at the first one outside. Each later frontier is exactly the non-members of
    its length: a non-member q of length n is the last-entry deletion of q
    followed by n + 1, a non-member because the ball is a class. Membership
    is tested through ``_member``, with G_k from
    ``generating_set_constructive``, and length n - 1 is read once, as a
    set. Below the bound no candidate is pruned, so disagreement with
    basis() there signals a bug in the distance engine, the pattern
    machinery, the strip lemma or ``_ends``. At the bound only the ends
    ``_ends`` gives are tested, which is exact: ``_member`` answers a
    plus-reducible p by looking up its adjacency deletion in length n - 1,
    and the deletion test looks up the same one, so p is a member or fails
    the test, whatever the level table or G_k holds. The generators are
    plus irreducible and still tested, so disagreement at the bound signals
    a wrong G_k in either route.
    """
    model = Model.coerce(model)
    bound = element_length(k, model)
    core.check_factorial_budget(bound, max_states)
    constructive = generating_set_constructive(k, model, max_states=max_states)
    generators = frozenset(map(bytes, constructive.elements))
    pairs: Iterable[tuple[bytes, tuple[int] | None]] = (
        (q, None) for q in map(bytes, core.all_perms(bound - 1))
    )
    found: set[bytes] = set()
    for n in range(bound, 1, -1):
        inside_shorter = frozenset(_members(n - 1, k, model, max_states))
        member = _member(n, k, model, max_states, generators, inside_shorter)
        descend: set[bytes] = set()
        for q, ends in pairs:
            if q not in inside_shorter:
                descend.add(q)
                continue
            for v in _ends(q, n) if ends is None else ends:
                p = q.translate(core._BUMP[v]) + core._ONE[v]
                if not member(p) and inside_shorter.issuperset(map(
                    p.translate, map(core._RESCALE.__getitem__, p), map(core._ONE.__getitem__, p)
                )):
                    found.add(p)
        pairs = ((p[:-1].translate(core._RESCALE[p[-1]]), (p[-1],)) for p in descend)
    return BasisReport(core.perm_set(map(tuple, found)), length_bound_used=bound)
