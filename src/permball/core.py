"""Permutations in one-line notation: strips, reductions, patterns, inflations.

A permutation of length n is a tuple containing each of 1..n exactly once
(1-based one-line notation); the empty tuple is the length-0 identity.
Every function in this module is a pure function of immutable values, so this
module (unlike the cached search engine in ``models``) is safe to call from
any number of concurrent workers.

Two text encodings are supported: a compact digit string for n <= 9
("1352647") and comma-separated values for any length ("13,5,2,..."). Both
are accepted on input; the compact form is emitted whenever n <= 9.

Inside the structure routes a permutation of length <= 255 may also be held
as bytes, one entry per byte, which sort and hash in C. The relabelling
tables ``_RESCALE`` and ``_BUMP`` turn a deletion or an insertion into one
``bytes.translate`` call. ``one_point_deletions`` and ``is_plus_irreducible``
accept either form; the deletions come back in the form they were given.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator

Perm = tuple[int, ...]

#: Default cap on visited search states and enumerated permutations, for the
#: library and the CLI alike; a caller may pass None for no cap.
DEFAULT_MAX_STATES = 2_000_000


class BudgetError(RuntimeError):
    """An enumeration or search would exceed its state budget."""


def check_budget(size: int, max_states: int | None) -> None:
    """Refuse an enumeration of ``size`` candidates (permutations or
    inflation vectors) that exceeds ``max_states``; callers that know the
    size in advance check it before they start."""
    if max_states is not None and size > max_states:
        raise BudgetError(f"{size} candidates exceed the state budget {max_states}")


def check_perm(values: Iterable[int]) -> Perm:
    """Return ``values`` as a tuple, raising ValueError unless it is a
    permutation of 1..n.

    >>> check_perm([2, 1, 3])
    (2, 1, 3)
    >>> check_perm(())
    ()
    """
    p = tuple(values)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p!r}")
    return p


def identity(n: int) -> Perm:
    """The identity permutation 1 2 ... n."""
    if n < 0:
        raise ValueError("negative length")
    return tuple(range(1, n + 1))


def all_perms(n: int) -> Iterator[Perm]:
    """Every permutation of length ``n``, in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def parse_perm(text: str) -> Perm:
    """Parse either text encoding into a permutation.

    >>> parse_perm("1352647")
    (1, 3, 5, 2, 6, 4, 7)
    >>> parse_perm("10,2,3,4,5,6,7,8,9,1")[0]
    10
    """
    s = text.strip()
    if s == "":
        return ()
    tokens = [tok.strip() for tok in s.split(",")] if "," in s else list(s)
    # int() would also take "1_0", "+2" and non-ASCII digits
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"bad permutation text: {text!r}")
    return check_perm(map(int, tokens))


def format_perm(p: Perm) -> str:
    """Render a permutation in the compact encoding when n <= 9, else with commas."""
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def perm_set(perms: Iterable[Perm]) -> tuple[Perm, ...]:
    """Deduplicate and sort permutations lexicographically (the canonical
    order used for every set-valued result in this package)."""
    return tuple(sorted(set(perms)))


def invert(p: Perm) -> Perm:
    """The inverse permutation: position of each value.

    >>> invert((2, 3, 1))
    (3, 1, 2)
    """
    p = check_perm(p)
    inv = [0] * len(p)
    for pos, v in enumerate(p, start=1):
        inv[v - 1] = pos
    return tuple(inv)


def strips(p: Perm) -> list[tuple[int, int]]:
    """Decompose ``p`` into its strips, returned as (start, length) pairs
    with 1-based starts.

    A strip is a maximal run of positions whose values increase by exactly 1
    at each step. The strips partition the positions; singletons are allowed.

    >>> strips((4, 3, 5, 6, 1, 2, 7, 8, 9))
    [(1, 1), (2, 1), (3, 2), (5, 2), (7, 3)]
    """
    out = []
    start = 0
    for i in range(1, len(p) + 1):
        if i == len(p) or p[i] != p[i - 1] + 1:
            out.append((start + 1, i - start))
            start = i
    return out


def is_plus_irreducible(p: Perm) -> bool:
    """True when no entry is followed by its successor, i.e. every strip has
    length 1. Vacuously true for n <= 1. Accepts bytes with one entry per
    byte as well as tuples."""
    return 1 not in map(operator.sub, p[1:], p)


def reduce(p: Perm) -> Perm:
    """Collapse each strip of ``p`` to a single point and rescale.

    The result is the canonical plus-irreducible permutation below ``p``;
    reduce is idempotent.

    >>> reduce((4, 3, 5, 6, 1, 2, 7, 8, 9))
    (3, 2, 4, 1, 5)
    """
    p = check_perm(p)
    mins = [p[start - 1] for start, _ in strips(p)]
    rank = {v: r for r, v in enumerate(sorted(mins), start=1)}
    return tuple(rank[v] for v in mins)


def contains_pattern(text: Perm, patt: Perm) -> bool:
    """True when some subsequence of ``text`` is order-isomorphic to ``patt``.

    Straightforward depth-first subsequence search with pruning; inputs in
    this package never exceed length ~13, so simplicity wins over asymptotics.
    """
    k, n = len(patt), len(text)
    if k == 0:
        return True
    if k > n:
        return False
    if k == n:
        return text == patt

    chosen: list[int] = []

    def extend(start: int) -> bool:
        i = len(chosen)
        if i == k:
            return True
        # leave enough room for the remaining pattern entries
        for pos in range(start, n - (k - i) + 1):
            v = text[pos]
            if all((patt[i] > patt[j]) == (v > chosen[j]) for j in range(i)):
                chosen.append(v)
                if extend(pos + 1):
                    return True
                chosen.pop()
        return False

    return extend(0)


_BYTES = bytes(range(256))
#: ``_RESCALE[v]`` is a bytes.translate table that moves every byte above v
#: one down: the relabelling after the entry v is deleted.
_RESCALE = [_BYTES[: v + 1] + _BYTES[v:255] for v in range(256)]
#: ``_ONE[v]`` is the byte v alone, the delete argument of bytes.translate.
_ONE = [_BYTES[v : v + 1] for v in range(256)]
#: ``_BUMP[v]`` moves every byte from v up one: the relabelling before an
#: entry v is inserted (255, which has no room above it, maps to 0).
_BUMP = [_BYTES[:v] + _BYTES[v + 1 :] + _BYTES[:1] for v in range(256)]


def one_point_deletions(p: Perm | bytes) -> tuple[Perm, ...] | tuple[bytes, ...]:
    """All distinct permutations obtained by deleting one entry and rescaling.

    Accepts bytes with one entry per byte as well as tuples, and returns the
    deletions sorted, in the same form. Up to 255 entries each deletion is
    one ``bytes.translate`` call, and the bytes sort like the tuples since
    all deletions have one length; longer tuples take the plain tuple route.

    >>> one_point_deletions((1, 3, 2, 4))
    ((1, 2, 3), (1, 3, 2), (2, 1, 3))
    """
    if not p:
        raise ValueError("cannot delete from the empty permutation")
    if len(p) > 255:
        return tuple(sorted({
            tuple(x - (x > removed) for j, x in enumerate(p) if j != i)
            for i, removed in enumerate(p)
        }))
    b = bytes(p)
    deletions = sorted({b.translate(_RESCALE[v], _ONE[v]) for v in b})
    return tuple(deletions) if isinstance(p, bytes) else tuple(map(tuple, deletions))


def monotone_inflate(p: Perm, v: Iterable[int]) -> Perm:
    """Replace each entry of ``p`` by an increasing run of prescribed length.

    ``v`` gives one non-negative run length per position; zero deletes the
    position. Runs keep the relative order of the entries they replace, so the
    result has length sum(v).

    >>> monotone_inflate((4, 1, 3, 5, 2), (0, 2, 1, 3, 2))
    (1, 2, 5, 6, 7, 8, 3, 4)
    """
    p, lengths = check_perm(p), tuple(v)
    if len(lengths) != len(p):
        raise ValueError(f"inflation vector has length {len(lengths)}, permutation {len(p)}")
    if any(x < 0 for x in lengths):
        raise ValueError("inflation lengths must be non-negative")
    offset = [0] * len(p)
    total = 0
    for pos in sorted(range(len(p)), key=lambda i: p[i]):
        offset[pos] = total
        total += lengths[pos]
    out: list[int] = []
    for pos in range(len(p)):
        out.extend(range(offset[pos] + 1, offset[pos] + lengths[pos] + 1))
    return tuple(out)


def mi_member(p: Perm, base: Perm) -> bool:
    """Decide whether ``p`` is a monotone inflation of ``base``.

    ``base`` must be plus irreducible (reduce other bases first; inflations of
    a permutation and of its reduction coincide). The test is equivalent to
    pattern containment of reduce(p) in base: an inflation collapses back to
    its reduction, and conversely an embedding of reduce(p) into base selects
    the points to inflate by the strip lengths of p.
    """
    if not is_plus_irreducible(check_perm(base)):
        raise ValueError(f"base {base!r} is not plus irreducible; reduce it first")
    return contains_pattern(base, reduce(p))


def mi_members(base: Perm, n_max: int) -> tuple[Perm, ...]:
    """Materialize every monotone inflation of ``base`` of length <= n_max,
    by direct enumeration of inflation vectors. The class itself is infinite;
    this is the finite slice below the given length. An inflation vector
    summing to t is a multiset of t positions, each counted as often as it
    is picked."""
    positions = range(len(base))
    members = set()
    for total in range(n_max + 1):
        for picks in itertools.combinations_with_replacement(positions, total):
            members.add(monotone_inflate(base, map(picks.count, positions)))
    return tuple(sorted(members))


def breakpoint_count(p: Perm) -> int:
    """Number of breakpoints of ``p``: internal positions where the next
    value is not the successor, plus one for each boundary convention
    (position 0 when p does not start with 1, position n when it does not
    end with n).

    >>> breakpoint_count((3, 2, 1))
    4
    """
    n = len(p)
    if n == 0:
        raise ValueError("breakpoints are undefined for the empty permutation")
    # the internal breakpoints are the gaps between strips
    return len(strips(p)) - 1 + (p[0] != 1) + (p[-1] != n)


def plus_irreducible_count(n: int) -> int:
    """Value f_n of the recurrence f_n = n*f_{n-1} + (n-1)*f_{n-2} with
    f_0 = f_1 = 1; f_n counts the plus-irreducible permutations of
    length n + 1 (OEIS A000255).

    >>> [plus_irreducible_count(n) for n in range(7)]
    [1, 1, 3, 11, 53, 309, 2119]
    """
    if n < 0:
        raise ValueError("negative index")
    prev2, prev1 = 1, 1
    for m in range(2, n + 1):
        prev2, prev1 = prev1, m * prev1 + (m - 1) * prev2
    return prev1


def enumerate_plus_irreducible(
    n: int, *, max_states: int | None = DEFAULT_MAX_STATES
) -> tuple[Perm, ...]:
    """All plus-irreducible permutations of length ``n``, in lexicographic
    order. Refuses up front when their count exceeds ``max_states``."""
    if n < 0:
        raise ValueError("negative length")
    check_budget(plus_irreducible_count(n - 1) if n else 1, max_states)
    return tuple(filter(is_plus_irreducible, all_perms(n)))
