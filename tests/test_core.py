"""Permutation primitives: strips, reduction, patterns, inflations, counts."""

import itertools
import random

import pytest

from permball import core
from permball.core import (
    BudgetError,
    breakpoint_count,
    check_perm,
    contains_pattern,
    enumerate_plus_irreducible,
    format_perm,
    identity,
    invert,
    is_plus_irreducible,
    mi_member,
    mi_members,
    monotone_inflate,
    one_point_deletions,
    parse_perm,
    perm_set,
    plus_irreducible_count,
    reduce,
    strips,
)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def all_perms_up_to(n_max):
    for n in range(n_max + 1):
        yield from all_perms(n)


# --- text format -------------------------------------------------------------


def test_parse_compact_and_comma_forms():
    assert parse_perm("1352647") == (1, 3, 5, 2, 6, 4, 7)
    assert parse_perm("4,3,5,6,1,2,7,8,9") == parse_perm("435612789")
    assert parse_perm("10,2,3,4,5,6,7,8,9,1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    assert parse_perm("") == ()


@pytest.mark.parametrize("bad", ["0", "11", "132 4", "1,2,x", "abc", "122"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_perm(bad)


@pytest.mark.parametrize(
    "bad", ["²1", "1³2", "2,1_0,3,4,5,6,7,8,9,1", "+2,1", "٢١", "2,１"]
)
def test_parse_rejects_non_decimal_digits_as_bad_text(bad):
    # only the ASCII digits count: str.isdigit accepts superscripts, and
    # int() accepts underscores, signs and the decimal digits of any script
    with pytest.raises(ValueError, match="bad permutation text"):
        parse_perm(bad)


def test_format_round_trips_through_parse():
    rng = random.Random(7)
    cases = [(), (1,), identity(9), identity(12), tuple(rng.sample(range(1, 12), 11))]
    for n in range(7):
        cases.extend(all_perms(n))
    for p in cases:
        text = format_perm(p)
        assert parse_perm(text) == p
        if len(p) <= 9:
            assert "," not in text


def test_check_perm_validates_bijection():
    assert check_perm([]) == ()
    with pytest.raises(ValueError):
        check_perm([1, 1, 2])
    with pytest.raises(ValueError):
        check_perm([0, 1])


# --- strips and reduction ----------------------------------------------------


def test_strips_worked_example():
    assert strips(parse_perm("435612789")) == [(1, 1), (2, 1), (3, 2), (5, 2), (7, 3)]


def test_strips_identity_and_descending():
    assert strips(identity(5)) == [(1, 5)]
    assert strips((3, 2, 1)) == [(1, 1), (2, 1), (3, 1)]
    assert strips(()) == []


def test_strips_partition_positions_and_are_maximal():
    for p in all_perms_up_to(6):
        covered = []
        for start, length in strips(p):
            run = list(range(start, start + length))
            covered.extend(run)
            # consecutive values inside, and no extension on either side
            for a, b in zip(run, run[1:]):
                assert p[b - 1] == p[a - 1] + 1
            if start > 1:
                assert p[start - 1] != p[start - 2] + 1
            end = start + length - 1
            if end < len(p):
                assert p[end] != p[end - 1] + 1
        assert covered == list(range(1, len(p) + 1))


def test_plus_irreducible_examples():
    assert is_plus_irreducible((1, 3, 2, 4))
    assert not is_plus_irreducible(parse_perm("435612789"))
    assert is_plus_irreducible((1,))
    assert is_plus_irreducible(())


def test_reduce_worked_example_and_trivia():
    assert reduce(parse_perm("435612789")) == (3, 2, 4, 1, 5)
    for n in range(1, 8):
        assert reduce(identity(n)) == (1,)
    assert reduce((3, 1, 4, 2)) == (3, 1, 4, 2)
    assert reduce(()) == ()


def test_reduce_idempotent_and_contained_up_to_8():
    for n in range(9):
        for p in all_perms(n):
            r = reduce(p)
            assert is_plus_irreducible(r)
            assert reduce(r) == r
            assert contains_pattern(p, r)


# --- pattern containment -------------------------------------------------------


def test_contains_pattern_examples():
    assert contains_pattern(parse_perm("1352647"), (1, 3, 2, 4))
    assert contains_pattern((2, 1, 3), (2, 1, 3))
    assert not contains_pattern((1, 2, 3), (3, 2, 1))
    assert contains_pattern((1,), ())
    assert contains_pattern((), ())


def brute_contains(text, patt):
    """Oracle: check all position subsets for an order-isomorphic copy."""
    k = len(patt)
    for positions in itertools.combinations(range(len(text)), k):
        sub = [text[i] for i in positions]
        rank = {v: r for r, v in enumerate(sorted(sub), start=1)}
        if tuple(rank[v] for v in sub) == patt:
            return True
    return False


def test_contains_pattern_matches_brute_force():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(0, 7)
        m = rng.randint(0, 5)
        text = tuple(rng.sample(range(1, n + 1), n))
        patt = tuple(rng.sample(range(1, m + 1), m))
        assert contains_pattern(text, patt) == brute_contains(text, patt)


def test_pattern_order_is_a_partial_order():
    rng = random.Random(3)
    pool = [tuple(rng.sample(range(1, n + 1), n)) for n in range(1, 8) for _ in range(6)]
    for p in pool:
        assert contains_pattern(p, p)
    for p in pool:
        for q in pool:
            if len(p) == len(q) and contains_pattern(p, q) and contains_pattern(q, p):
                assert p == q
    for _ in range(400):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if contains_pattern(c, b) and contains_pattern(b, a):
            assert contains_pattern(c, a)


# --- deletions -----------------------------------------------------------------


def test_one_point_deletions_examples():
    assert one_point_deletions((3, 2, 1)) == ((2, 1),)
    assert one_point_deletions((1, 3, 2, 4)) == perm_set([(1, 3, 2), (2, 1, 3), (1, 2, 3)])
    assert one_point_deletions((1, 2)) == ((1,),)
    with pytest.raises(ValueError):
        one_point_deletions(())
    # bytes in, bytes out: deleting 1, 3, 2 or 4 from 1324 leaves 213, 123,
    # 123 and 132, three distinct deletions, sorted
    assert one_point_deletions(bytes((1, 3, 2, 4))) == (
        bytes((1, 2, 3)), bytes((1, 3, 2)), bytes((2, 1, 3))
    )
    assert one_point_deletions(b"\x01") == (b"",)
    with pytest.raises(ValueError):
        one_point_deletions(b"")


def test_deletions_are_patterns():
    for p in all_perms_up_to(6):
        if not p:
            continue
        for q in one_point_deletions(p):
            assert len(q) == len(p) - 1
            assert contains_pattern(p, q)


def deletions_reference(p):
    """Oracle: delete each entry of the tuple and rescale the rest."""
    return tuple(
        sorted({tuple(x - (x > removed) for j, x in enumerate(p) if j != i)
                for i, removed in enumerate(p)})
    )


def test_deletions_match_the_tuple_reference():
    rng = random.Random(8)
    samples = [p for p in all_perms_up_to(7) if p]
    samples += [tuple(rng.sample(range(1, n + 1), n)) for n in range(8, 17) for _ in range(20)]
    # longer than 255 entries: no longer fits one byte per entry
    samples.append(tuple(rng.sample(range(1, 301), 300)))
    for p in samples:
        assert one_point_deletions(p) == deletions_reference(p), p


def test_bump_table_extends_like_the_tuple_expression():
    # the one-point extension that basis builds its candidates from
    for n in range(7):
        for q in all_perms(n):
            b = bytes(q)
            for v in range(1, n + 2):
                expected = tuple(x + (x >= v) for x in q) + (v,)
                assert tuple(b.translate(core._BUMP[v])) + (v,) == expected, (q, v)


# --- inflation ------------------------------------------------------------------


def test_monotone_inflate_worked_example():
    assert monotone_inflate((4, 1, 3, 5, 2), (0, 2, 1, 3, 2)) == parse_perm("12567834")


def test_monotone_inflate_trivia():
    for p in all_perms_up_to(5):
        assert monotone_inflate(p, (1,) * len(p)) == p
    assert monotone_inflate((1,), (4,)) == (1, 2, 3, 4)
    assert monotone_inflate((2, 1), (0, 0)) == ()
    with pytest.raises(ValueError):
        monotone_inflate((1, 2), (1,))
    with pytest.raises(ValueError):
        monotone_inflate((1, 2), (1, -1))


def test_mi_member_examples():
    assert mi_member(parse_perm("12567834"), (4, 1, 3, 5, 2))
    assert mi_member((4, 1, 3, 5, 2), (4, 1, 3, 5, 2))
    assert not mi_member((3, 2, 1), (1, 3, 2, 4))
    with pytest.raises(ValueError):
        mi_member((1, 2), (1, 2))  # base must be plus irreducible


def test_mi_member_refuses_non_permutations():
    # reduce((2, 3)) is (1,), so without a check this would answer True
    with pytest.raises(ValueError, match="not a permutation"):
        mi_member((2, 3), (1,))
    with pytest.raises(ValueError, match="not a permutation"):
        mi_member((1,), (3, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: reduce((1, 1)),
        lambda: invert((1, 1)),
        lambda: monotone_inflate((2, 2), (1, 1)),
        lambda: mi_members((1, 1), 2),
    ],
    ids=["reduce", "invert", "monotone_inflate", "mi_members"],
)
def test_builders_refuse_non_permutations(build):
    # unchecked, these return (2, 2), (2, 0), (1, 2) and ((), (1,), (1, 2))
    with pytest.raises(ValueError, match="not a permutation"):
        build()


def test_mi_member_agrees_with_vector_enumeration():
    # alpha up to length 5, candidates up to length 7
    for alen in range(6):
        for alpha in all_perms(alen):
            if not is_plus_irreducible(alpha):
                continue
            members = set(mi_members(alpha, 7))
            for p in all_perms_up_to(7):
                assert mi_member(p, alpha) == (p in members), (p, alpha)


def test_mi_class_depends_only_on_reduction():
    # membership tested against reduce(p) equals brute-force inflation of p
    for p in all_perms_up_to(5):
        inflations = set(mi_members(p, 7))
        base = reduce(p)
        for q in all_perms_up_to(7):
            assert mi_member(q, base) == (q in inflations), (p, q)


# --- breakpoints ------------------------------------------------------------------


def test_breakpoint_examples():
    for n in range(1, 8):
        assert breakpoint_count(identity(n)) == 0
    assert breakpoint_count((3, 2, 1)) == 4
    assert breakpoint_count(parse_perm("1352647")) == 6
    with pytest.raises(ValueError):
        breakpoint_count(())


def test_breakpoints_of_plus_irreducible_interior():
    # every internal adjacency of a plus-irreducible permutation breaks
    for p in all_perms_up_to(6):
        if p and is_plus_irreducible(p):
            expected = len(p) - 1 + (p[0] != 1) + (p[-1] != len(p))
            assert breakpoint_count(p) == expected


# --- enumeration and counting -------------------------------------------------------


def test_count_recurrence_values():
    assert [plus_irreducible_count(n) for n in range(8)] == [1, 1, 3, 11, 53, 309, 2119, 16687]


def test_enumeration_matches_filtering_small():
    for n in range(8):
        listed = enumerate_plus_irreducible(n)
        filtered = tuple(p for p in all_perms(n) if is_plus_irreducible(p))
        assert listed == filtered


def test_enumeration_matches_recurrence():
    assert enumerate_plus_irreducible(0) == ((),)
    assert enumerate_plus_irreducible(1) == ((1,),)
    assert enumerate_plus_irreducible(3) == perm_set([(2, 1, 3), (3, 2, 1), (1, 3, 2)])
    assert len(enumerate_plus_irreducible(4)) == 11
    for n in range(1, 9):
        assert len(enumerate_plus_irreducible(n)) == plus_irreducible_count(n - 1)


def test_enumeration_cap_is_enforced():
    with pytest.raises(BudgetError):
        enumerate_plus_irreducible(11)  # 16,019,531 > the default budget
    assert len(enumerate_plus_irreducible(3, max_states=3)) == 3
    with pytest.raises(BudgetError):
        enumerate_plus_irreducible(4, max_states=10)  # 11 permutations


def test_enumeration_refuses_a_count_of_thousands_of_digits():
    # the count at length 2000 has more digits than CPython's default limit
    # for turning an int into a string; the refusal must not need that string
    with pytest.raises(BudgetError, match="more than") as refusal:
        enumerate_plus_irreducible(2000)
    assert len(str(refusal.value)) < 200


def test_invert_round_trip():
    for p in all_perms_up_to(6):
        inv = invert(p)
        assert invert(inv) == p
        for pos, v in enumerate(p, start=1):
            assert inv[v - 1] == pos
