"""Bases of the distance-k balls: their minimal excluded permutations.

A ball B_k is a pattern class (closed under one-point deletion), so a
permutation belongs to it exactly when it avoids every basis element, and
minimality can be tested through deletions alone. The basis elements have
length at most 3k+1 (block model) or 2k+1 (prefix model); an optional probe
one length above the bound confirms emptiness there.

Two independent routes compute the basis: ``basis`` extends the ball members
of each length n - 1 by one point, and ``basis_via_poset_descent`` scans
every permutation of the bound length and descends through deletions. Both
refuse up front by the n! size of the longest length they cover, which
bounds the extension route's |B_k ∩ S_{n-1}|·n candidates from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import core
from .core import DEFAULT_MAX_STATES, Perm
from .genset import element_length
from .models import Model, ball, ball_set


@dataclass(frozen=True)
class BasisProbe:
    """Outcome of scanning one extra length above the bound (should be empty)."""

    length: int
    elements: tuple[Perm, ...]


@dataclass(frozen=True)
class BasisReport:
    k: int
    model: Model
    elements: tuple[Perm, ...]
    length_bound_used: int
    probe: BasisProbe | None = None


def _minimal_nonmembers_at(n: int, k: int, model: Model, max_states: int | None) -> list[Perm]:
    """Basis elements of length n: outside the ball, with every deletion inside.

    Deleting the last entry of such an element leaves a ball member of
    length n - 1, so the candidates are the one-point extensions of those
    members by a new last entry v; each permutation arises from exactly one
    pair (member, v).
    """
    inside = ball_set(n, k, model, max_states=max_states)
    shorter = ball(n - 1, k, model, max_states=max_states)
    inside_shorter = frozenset(shorter)
    found = []
    for q in shorter:
        for v in range(1, n + 1):
            p = tuple(x + (x >= v) for x in q) + (v,)
            if p in inside:
                continue
            if all(d in inside_shorter for d in core.one_point_deletions(p)):
                found.append(p)
    return found


def basis(
    k: int,
    model: Model | str,
    probe_extra: bool = False,
    *,
    max_states: int | None = DEFAULT_MAX_STATES,
) -> BasisReport:
    """Compute the basis of B_k by one-point extension up to the length bound.

    For each length n from 2 to the bound, the candidates are the ball
    members of length n - 1 extended by a new last entry; keep those outside
    the ball whose one-point deletions all lie inside it. With
    ``probe_extra`` the scan also covers one length above the bound and
    records the (expected empty) findings. Refuses up front when n! at the
    longest length exceeds ``max_states``: an over-estimate of the
    candidates, kept so that the budget means the same for both routes.
    """
    model = Model.coerce(model)
    bound = element_length(k, model)
    core.check_budget(math.factorial(bound + 1 if probe_extra else bound), max_states)
    elements: list[Perm] = []
    for n in range(2, bound + 1):
        elements.extend(_minimal_nonmembers_at(n, k, model, max_states))
    probe = None
    if probe_extra:
        extra = _minimal_nonmembers_at(bound + 1, k, model, max_states)
        probe = BasisProbe(length=bound + 1, elements=core.perm_set(extra))
    return BasisReport(
        k=k,
        model=model,
        elements=core.perm_set(elements),
        length_bound_used=bound,
        probe=probe,
    )


def basis_via_poset_descent(
    k: int, model: Model | str, *, max_states: int | None = DEFAULT_MAX_STATES
) -> BasisReport:
    """Compute the same basis by descending the pattern poset from the top.

    Start from every permutation of the bound length outside the ball; a
    candidate whose deletions all fall inside the ball is a basis element,
    otherwise its outside deletions are the next candidates. Every shorter
    non-member is the deletion of some non-member one level up, so the
    descent reaches the whole basis. Disagreement with basis() signals a bug
    in the distance engine or the pattern machinery.
    """
    model = Model.coerce(model)
    bound = element_length(k, model)
    core.check_budget(math.factorial(bound), max_states)
    inside = ball_set(bound, k, model, max_states=max_states)
    frontier: Iterable[Perm] = (p for p in core.all_perms(bound) if p not in inside)
    found: set[Perm] = set()
    for n in range(bound, 1, -1):
        inside_shorter = ball_set(n - 1, k, model, max_states=max_states)
        descend: set[Perm] = set()
        for p in frontier:
            outside = [q for q in core.one_point_deletions(p) if q not in inside_shorter]
            if outside:
                descend.update(outside)
            else:
                found.add(p)
        frontier = descend
    return BasisReport(
        k=k,
        model=model,
        elements=core.perm_set(found),
        length_bound_used=bound,
        probe=None,
    )


def verify_class_closure(
    k: int,
    model: Model | str,
    n_max: int,
    *,
    max_states: int | None = DEFAULT_MAX_STATES,
) -> bool:
    """Check the down-set property directly: every one-point deletion of a
    ball member is again a ball member, for all lengths up to ``n_max``."""
    model = Model.coerce(model)
    if k < 0:
        raise ValueError("negative radius")
    for n in range(1, n_max + 1):
        shorter = ball_set(n - 1, k, model, max_states=max_states)
        for p in ball(n, k, model, max_states=max_states):
            if any(q not in shorter for q in core.one_point_deletions(p)):
                return False
    return True
