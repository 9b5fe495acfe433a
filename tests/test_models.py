"""Operations, neighbor generation, and the exact distance engine."""

import itertools
import random

import pytest

from permball import core, models
from permball.core import BudgetError, identity, parse_perm, reduce
from permball.models import (
    Model,
    apply_transposition,
    ball,
    distance,
    neighbors,
    pairwise_distance,
    transposition_triples,
)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def bfs_distance(p, model):
    """Oracle: plain forward breadth-first search on raw tuples."""
    target = identity(len(p))
    frontier, seen, depth = {tuple(p)}, {tuple(p)}, 0
    while target not in frontier:
        frontier = {
            apply_transposition(q, t)
            for q in frontier
            for t in transposition_triples(len(q), model)
        } - seen
        seen |= frontier
        depth += 1
        assert frontier, "ran out of states"
    return depth


# --- elementary operation -----------------------------------------------------


def test_apply_transposition_worked_example():
    assert apply_transposition(parse_perm("1345267"), (3, 4, 7)) == parse_perm("1352647")


def test_apply_transposition_trivia_and_errors():
    assert apply_transposition((1, 2), (1, 2, 3)) == (2, 1)
    for bad in [(0, 1, 2), (1, 1, 2), (1, 2, 2), (1, 2, 5), (2, 1, 3)]:
        with pytest.raises(ValueError):
            apply_transposition((1, 2, 3), bad)


def test_transposition_inverse_identity_exhaustive():
    for n in range(2, 7):
        for p in all_perms(n):
            for i, j, k in transposition_triples(n, Model.BLOCK):
                moved = apply_transposition(p, (i, j, k))
                assert apply_transposition(moved, (i, i + k - j, k)) == p


def test_prefix_triples_are_block_triples_with_i_1():
    for n in range(1, 8):
        block = set(transposition_triples(n, "td"))
        prefix = set(transposition_triples(n, "ptd"))
        assert prefix == {t for t in block if t[0] == 1}


# --- neighbors ------------------------------------------------------------------


def test_neighbors_examples():
    assert len(neighbors(identity(4), "td")) == 10
    assert neighbors((2, 1), "ptd") == ((1, 2),)
    assert neighbors(identity(3), "ptd") == core.perm_set([(2, 1, 3), (2, 3, 1), (3, 1, 2)])
    with pytest.raises(ValueError):
        neighbors((), "td")


def test_neighbors_never_contain_the_source():
    for n in range(1, 6):
        for p in all_perms(n):
            for m in ("td", "ptd"):
                assert p not in neighbors(p, m)


def test_neighbor_relation_is_symmetric():
    for n in range(1, 6):
        for p in all_perms(n):
            for m in ("td", "ptd"):
                for q in neighbors(p, m):
                    assert p in neighbors(q, m)


# --- distances --------------------------------------------------------------------


def test_distance_published_values():
    assert distance(parse_perm("1324"), "td") == 1
    assert distance(parse_perm("1352647"), "td") == 2
    assert distance(parse_perm("213"), "ptd") == 1
    assert distance(parse_perm("32415"), "ptd") == 2


def test_distance_identity_is_zero():
    for n in range(8):
        assert distance(identity(n), "td") == 0
        assert distance(identity(n), "ptd") == 0


def test_distance_agrees_with_plain_bfs():
    for n in range(1, 6):
        for p in all_perms(n):
            for m in (Model.BLOCK, Model.PREFIX):
                assert distance(p, m) == bfs_distance(p, m), (p, m)


def test_bidirectional_engine_agrees_on_longer_inputs():
    # length 8 exceeds the full-table threshold, exercising the bidirectional
    # path; its identity side is the cached table, cold or already grown
    rng = random.Random(11)
    for _ in range(12):
        p = tuple(rng.sample(range(1, 9), 8))
        for m in (Model.BLOCK, Model.PREFIX):
            expected = bfs_distance(p, m)
            for warm in (False, True):
                models._reset_caches()
                if warm:
                    ball(8, 2, m)
                assert distance(p, m) == expected, (p, m, warm)


def test_block_reduction_invariance_exhaustive():
    for n in range(1, 8):
        for p in all_perms(n):
            assert distance(p, "td") == distance(reduce(p), "td")


def test_breakpoint_lower_bound_exhaustive():
    for n in range(1, 8):
        for p in all_perms(n):
            assert distance(p, "td") >= -(-core.breakpoint_count(p) // 3)


def test_prefix_refines_block():
    for n in range(1, 7):
        for p in all_perms(n):
            assert distance(p, "td") <= distance(p, "ptd")


def test_prefix_reduction_invariance_empirical():
    # Unlike the block model, this is not a promised identity; a failure here
    # is an observation about the model, not an engine bug, so say so.
    for n in range(1, 7):
        for p in all_perms(n):
            if distance(p, "ptd") != distance(reduce(p), "ptd"):
                pytest.fail(
                    f"prefix distance changed under strip reduction at {p}: "
                    "this diagnoses the model itself, not the engine"
                )


def test_distance_caps():
    with pytest.raises(BudgetError):
        distance(tuple(range(17, 0, -1)), "td")
    # length 9 keeps this on the bidirectional path with a fresh cache
    with pytest.raises(BudgetError):
        distance((9, 8, 7, 6, 5, 4, 3, 2, 1), "ptd", max_states=10)


# --- pairwise distance ---------------------------------------------------------------


def test_pairwise_reduces_to_sorting_distance():
    for n in range(1, 6):
        for p in all_perms(n):
            for m in ("td", "ptd"):
                assert pairwise_distance(p, identity(n), m) == distance(p, m)
                assert pairwise_distance(p, p, m) == 0
    with pytest.raises(ValueError):
        pairwise_distance((1, 2), (1,), "td")


def compose(f, g):
    return tuple(f[x - 1] for x in g)


def test_left_invariance_exhaustive_s4():
    perms4 = list(all_perms(4))
    for m in (Model.BLOCK, Model.PREFIX):
        base = {
            (p, q): pairwise_distance(p, q, m) for p in perms4 for q in perms4
        }
        for sigma in perms4:
            for p in perms4:
                for q in perms4:
                    assert base[(p, q)] == pairwise_distance(
                        compose(sigma, p), compose(sigma, q), m
                    )


def test_pairwise_matches_direct_bfs_between_endpoints():
    def bfs_between(p, q, model):
        frontier, seen, depth = {p}, {p}, 0
        while q not in frontier:
            frontier = {
                apply_transposition(r, t)
                for r in frontier
                for t in transposition_triples(len(r), model)
            } - seen
            seen |= frontier
            depth += 1
        return depth

    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5)
        p = tuple(rng.sample(range(1, n + 1), n))
        q = tuple(rng.sample(range(1, n + 1), n))
        for m in ("td", "ptd"):
            assert pairwise_distance(p, q, m) == bfs_between(p, q, m)


# --- balls -------------------------------------------------------------------------


def test_ball_examples():
    assert ball(4, 0, "td") == (identity(4),)
    assert ball(0, 3, "ptd") == ((),)
    b = ball(4, 1, "td")
    assert len(b) == 11
    assert set(b) == {identity(4)} | set(neighbors(identity(4), "td"))


def test_ball_radius_one_matches_inflation_class():
    # distance <= 1 coincides with being an inflation of the one-ball generator
    assert set(ball(4, 1, "td")) == {
        p for p in all_perms(4) if core.mi_member(p, parse_perm("1324"))
    }
    assert set(ball(5, 1, "ptd")) == {
        p for p in all_perms(5) if core.mi_member(p, parse_perm("213"))
    }


def test_ball_membership_is_distance_membership():
    for n in range(1, 6):
        for m in ("td", "ptd"):
            for k in range(4):
                members = set(ball(n, k, m))
                for p in all_perms(n):
                    assert (p in members) == (distance(p, m) <= k)


def test_ball_nesting():
    for m in ("td", "ptd"):
        for n in range(1, 7):
            for k in range(3):
                assert set(ball(n, k, m)) <= set(ball(n, k + 1, m))


def test_ball_caps():
    with pytest.raises(BudgetError):
        ball(17, 1, "td")  # longer than the 16-entry packed code
    # length 9 is untouched by other tests, so the budget must bind here;
    # budgets bound new search work, cached levels are returned as-is
    with pytest.raises(BudgetError):
        ball(9, 1, "td", max_states=3)
    with pytest.raises(ValueError):
        ball(4, -1, "td")


# --- budgets ---------------------------------------------------------------------


def test_refused_ball_leaves_the_level_table_unchanged():
    models._reset_caches()
    table = models._table(8, Model.BLOCK)
    ball(8, 2, "td")
    before, frontier = len(table.dist), list(table.frontier)
    with pytest.raises(BudgetError):
        ball(8, 3, "td", max_states=before + 1000)
    assert len(table.dist) == before
    assert (table.depth, table.frontier) == (2, frontier)
    retry = ball(8, 3, "td")
    models._reset_caches()
    assert retry == ball(8, 3, "td")


def test_refused_bidirectional_search_is_not_memoized():
    models._reset_caches()
    p = tuple(range(8, 0, -1))
    with pytest.raises(BudgetError):
        models._bidirectional(p, Model.BLOCK, max_states=10)
    assert (Model.BLOCK, p) not in models._bidi_memo
    # the reversal of length n >= 3 is floor(n/2) + 1 block transpositions away
    assert models._bidirectional(p, Model.BLOCK, max_states=None) == 5


def test_refused_bidirectional_search_keeps_whole_identity_levels():
    # the search from the query refuses at 20,000 states, the identity side
    # while growing its own second level at 6,000
    for budget in (6_000, 20_000):
        models._reset_caches()
        with pytest.raises(BudgetError):
            distance(tuple(range(9, 0, -1)), "td", max_states=budget)
        table = models._tables[(9, Model.BLOCK)]
        states, depth = len(table.dist), table.depth
        assert depth > 0
        models._reset_caches()
        assert states == len(ball(9, depth, "td", max_states=None)), budget


def test_budget_refuses_during_expansion():
    models._reset_caches()
    table = models._table(10, Model.BLOCK)
    ball(10, 2, "td")
    full_level = len(table.frontier)
    expanded = 0

    class CountingMasks(list):
        # _expand walks the whole mask list once per expanded state
        def __iter__(self):
            nonlocal expanded
            expanded += 1
            return super().__iter__()

    table._masks = CountingMasks(table._masks)
    with pytest.raises(BudgetError):
        ball(10, 3, "td", max_states=50_000)
    assert 0 < expanded < full_level


def test_bidirectional_budget_counts_only_added_states():
    # the identity table cached by the ball holds 56,917 states, more than the
    # budget, yet the query must be answered as it is from cold caches
    p = (2, 1, 4, 3, 6, 5, 8, 7, 9)
    for warm in (False, True):
        models._reset_caches()
        if warm:
            ball(9, 3, "td")
        assert distance(p, "td", max_states=50_000) == 4, warm


# --- bit-mask child generation ---------------------------------------------------


def test_mask_children_match_the_tuple_operation():
    rng = random.Random(3)
    for n in range(1, 17):
        for m in (Model.BLOCK, Model.PREFIX):
            masks = models._LevelTable(n, m)._masks
            triples = list(transposition_triples(n, m))
            assert len(masks) == len(triples)
            for _ in range(3):
                p = tuple(rng.sample(range(1, n + 1), n))
                code = models._pack(p)
                for mask, t in zip(masks, triples):
                    child = models._expand([code], {}, 1, n, [mask], None)
                    assert child == [models._pack(apply_transposition(p, t))], (p, t)


def test_full_s7_tables_match_a_plain_tuple_bfs():
    for m in (Model.BLOCK, Model.PREFIX):
        expected, frontier = {identity(7): 0}, [identity(7)]
        while frontier:
            fresh = []
            for r in frontier:
                for t in transposition_triples(7, m):
                    q = apply_transposition(r, t)
                    if q not in expected:
                        expected[q] = expected[r] + 1
                        fresh.append(q)
            frontier = fresh
        table = models._LevelTable(7, m)
        while table.grow():
            pass
        assert {models._unpack(c, 7): d for c, d in table.dist.items()} == expected
