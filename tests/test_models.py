"""Operations, neighbor generation, and the exact distance engine."""

import functools
import itertools
import math
import random

import pytest

from permball import core, models
from permball.core import BudgetError, identity, parse_perm
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


@functools.cache
def tuple_bfs(n, model):
    """Oracle: the distance of every permutation of length ``n`` from the
    identity, by one plain breadth-first search on raw tuples, with none of
    the engine's tables or packed codes. The inverse of an operation is an
    operation of the same kind (test_transposition_inverse_identity_exhaustive),
    so this is also each permutation's distance to the identity."""
    dist, frontier = {identity(n): 0}, [identity(n)]
    while frontier:
        fresh = []
        for r in frontier:
            for t in transposition_triples(n, model):
                q = apply_transposition(r, t)
                if q not in dist:
                    dist[q] = dist[r] + 1
                    fresh.append(q)
        frontier = fresh
    return dist


@functools.cache
def full_table(n, model):
    """Oracle: the distance of every state of S_n from a table grown to
    exhaustion outside the engine's caches, so no search ever stops early."""
    table = models._LevelTable(n, model)
    while table.grow(max_states=None):
        pass
    return table.dist


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
    # the order decides the level-table masks and the BFS discovery order
    for n in range(17):
        block = list(transposition_triples(n, "td"))
        prefix = list(transposition_triples(n, "ptd"))
        assert block == sorted(block) and len(block) == math.comb(n + 1, 3)
        assert prefix == sorted(prefix) and len(prefix) == math.comb(n, 2)
        assert all(t[0] == 1 for t in prefix)
        assert set(prefix) == {t for t in block if t[0] == 1}


# --- neighbors ------------------------------------------------------------------


def test_neighbors_examples():
    assert len(neighbors(identity(4), "td")) == 10
    assert neighbors((2, 1), "ptd") == ((1, 2),)
    assert neighbors(identity(3), "ptd") == core.perm_set([(2, 1, 3), (2, 3, 1), (3, 1, 2)])
    with pytest.raises(ValueError):
        neighbors((), "td")


def test_neighbor_counts_are_the_triple_counts():
    # distinct triples give distinct neighbors, so none coincide
    for n in range(1, 7):
        for p in all_perms(n):
            assert len(neighbors(p, "td")) == math.comb(n + 1, 3), p
            assert len(neighbors(p, "ptd")) == math.comb(n, 2), p


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
                assert distance(p, m) == tuple_bfs(n, m)[p], (p, m)


def test_bidirectional_engine_agrees_on_longer_inputs():
    # the bidirectional search answers every length; its identity side is
    # the cached table, cold or already grown
    rng = random.Random(11)
    for _ in range(12):
        p = tuple(rng.sample(range(1, 9), 8))
        for m in (Model.BLOCK, Model.PREFIX):
            expected = tuple_bfs(8, m)[p]
            for warm in (False, True):
                models._reset_caches()
                if warm:
                    ball(8, 2, m)
                assert distance(p, m) == expected, (p, m, warm)


def test_first_meet_agrees_with_the_full_s8_table():
    # the query side stops at its first meet; cold caches are reset every few
    # queries, warm ones start from a cached identity table of depth 2, and
    # the queries in between reuse the identity levels the earlier ones grew
    rng = random.Random(808)
    sample = [tuple(rng.sample(range(1, 9), 8)) for _ in range(60)]
    for m in (Model.BLOCK, Model.PREFIX):
        expected = full_table(8, m)
        for warm in (False, True):
            for i, p in enumerate(sample):
                if i % 4 == 0:
                    models._reset_caches()
                    if warm:
                        ball(8, 2, m)
                assert distance(p, m) == expected[models._pack(p)], (p, m, warm)


def test_identity_tables_hold_whole_levels_after_a_query_stream():
    models._reset_caches()
    rng = random.Random(99)
    for _ in range(12):
        p = tuple(rng.sample(range(1, 10), 9))
        for m in (Model.BLOCK, Model.PREFIX):
            distance(p, m)
    tables = dict(models._tables)
    assert all(tables[(9, m)].depth > 0 for m in Model)
    for (n, m), table in tables.items():
        assert set(table.frontier) == {
            code for code, d in table.dist.items() if d == table.depth
        }, (n, m)
        models._reset_caches()
        assert len(table.dist) == len(ball(n, table.depth, m, max_states=None)), (n, m)


def test_query_side_stops_mid_level_at_the_first_meet(monkeypatch):
    queries = []

    class Recording(models._LevelTable):
        __slots__ = ()

        def __init__(self, n, model, root=None):
            super().__init__(n, model, root)
            if root is not None:
                queries.append(self)

    monkeypatch.setattr(models, "_LevelTable", Recording)
    models._reset_caches()
    p = tuple(range(9, 0, -1))
    # this search meets while the query side grows its fourth level
    assert distance(p, "ptd") == 7
    (here,) = queries
    whole = models._LevelTable(9, Model.PREFIX, p)
    while whole.depth < here.depth:
        whole.grow()
    assert here.frontier[-1] in models._tables[(9, Model.PREFIX)].dist
    assert 0 < len(here.frontier) < len(whole.frontier)


def test_breakpoint_key_counts_the_breakpoints_of_a_packed_code():
    rng = random.Random(15)
    for n in range(1, 16):
        key = models._breakpoint_key(n)
        sample = [identity(n), tuple(range(n, 0, -1))]
        sample += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(40)]
        for p in sample:
            assert key(models._pack(p)) == core.breakpoint_count(p), p


def test_query_side_meets_within_its_first_few_states(monkeypatch):
    # the query frontier is sorted by breakpoints before a level that can
    # meet, so the meet comes among the first states expanded, not at a point
    # of the level that depends on the query
    met_after = []

    class CountingMasks(list):
        # grow walks the whole mask list once per expanded state
        def __iter__(self):
            met_after[-1] += 1
            return super().__iter__()

    class Recording(models._LevelTable):
        __slots__ = ()

        def __init__(self, n, model, root=None):
            super().__init__(n, model, root)
            if root is not None:
                self._masks = CountingMasks(self._masks)

        def grow(self, max_states=None, meet=()):
            met_after.append(0)
            grown = super().grow(max_states, meet)
            if not (grown and self.frontier[-1] in meet):
                met_after.pop()
            return grown

    monkeypatch.setattr(models, "_LevelTable", Recording)
    rng = random.Random(9)
    for m in Model:
        for i in range(80):
            if i % 10 == 0:
                models._reset_caches()
            distance(tuple(rng.sample(range(1, 10), 9)), m)
    # unsorted, this sample meets after 11 states in the median, 241 at the
    # 90th percentile and 2,308 at most; sorted, after 1, 3 and 13
    met_after.sort()
    assert len(met_after) > 100
    assert met_after[len(met_after) // 2] == 1
    assert met_after[len(met_after) * 9 // 10] <= 4
    assert met_after[-1] <= 20, met_after[-10:]


def test_bidirectional_answers_from_the_identity_table():
    # a query already in the identity table is not searched; the search from
    # it would meet at once and overcount by a level
    models._reset_caches()
    ball(8, 2, "td")
    table = models._tables[(8, Model.BLOCK)]
    for code, d in itertools.islice(table.dist.items(), 0, None, 97):
        assert models._bidirectional(tuple(models._unpack_bytes(code, 8)), Model.BLOCK, None) == d


@pytest.mark.parametrize("model, top", [("td", 7), ("ptd", 6)])
def test_reduction_invariance_exhaustive(model, top):
    # distance answers on the reduction; the radius at which the unreduced
    # ball first holds p does not, so a wrong reduction shows
    for n in range(1, top + 1):
        balls = [frozenset(ball(n, j, model)) for j in range(n + 1)]
        for p in all_perms(n):
            assert distance(p, model) == next(j for j, b in enumerate(balls) if p in b), p


def test_breakpoint_lower_bound_exhaustive():
    for n in range(1, 8):
        for p in all_perms(n):
            assert distance(p, "td") >= -(-core.breakpoint_count(p) // 3)


def test_block_distance_of_the_reversal():
    # d_td of the reversal of length n >= 3 is floor(n/2) + 1 (Meidanis,
    # Walter and Dias 1997); its n + 1 breakpoints are the most a query has
    models._reset_caches()
    try:
        for n in (9, 10):
            assert distance(tuple(range(n, 0, -1)), "td") == n // 2 + 1, n
    finally:
        models._reset_caches()  # later tests need not hold the n = 9, 10 tables


def test_prefix_refines_block():
    for n in range(1, 7):
        for p in all_perms(n):
            assert distance(p, "td") <= distance(p, "ptd")


def test_distance_caps():
    # the packed code bounds the reduction, not the query
    long_with_short_reduction = tuple(range(11, 21)) + tuple(range(1, 11))
    for m in ("td", "ptd"):
        assert distance(long_with_short_reduction, m) == 1
        with pytest.raises(BudgetError):
            distance(tuple(range(17, 0, -1)), m)
    # the search adds more than 10 states, whatever the caches hold
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


@pytest.mark.parametrize(
    "query",
    [
        lambda: distance((2, 3), "td"),
        lambda: distance((1, 1, 2), "td"),
        lambda: pairwise_distance((1, 1, 2), (1, 2, 3), "td"),
        lambda: pairwise_distance((2, 3), (1, 2), "td"),
        lambda: neighbors((2, 3), "ptd"),
    ],
    ids=["distance-23", "distance-112", "pairwise-112", "pairwise-23", "neighbors-23"],
)
def test_engine_entry_points_reject_non_permutations(query):
    with pytest.raises(ValueError, match="not a permutation"):
        query()


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
    # budgets bound new search work, cached levels are returned as-is, so
    # start from empty caches for the length-9 budget to bind whatever ran
    # before this test
    models._reset_caches()
    with pytest.raises(BudgetError):
        ball(17, 1, "td")  # longer than the 16-entry packed code
    with pytest.raises(BudgetError):
        ball(9, 1, "td", max_states=3)
    with pytest.raises(ValueError):
        ball(4, -1, "td")
    with pytest.raises(ValueError):
        ball(-1, 1, "td")


def test_unpack_inverts_pack():
    rng = random.Random(16)
    for n in range(1, 17):
        # the reversal of length 16 puts 16, nibble 0xF, in the top nibble
        for p in (identity(n), tuple(range(n, 0, -1)), tuple(rng.sample(range(1, n + 1), n))):
            code = sum((v - 1) << 4 * i for i, v in enumerate(p))
            assert models._pack(p) == models._pack(bytes(p)) == code, p
            assert models._unpack_bytes(code, n) == bytes(p)


def test_ball_is_every_member_at_every_radius():
    # the second pass finds every table grown to its full depth, deeper than
    # the radius asked for, so a ball must test the depth, not presence
    def check():
        for n in range(1, 8):
            for m in Model:
                dist = full_table(n, m)
                for k in range(max(dist.values()) + 1):
                    members = {
                        tuple((code >> 4 * i & 15) + 1 for i in range(n))
                        for code, d in dist.items() if d <= k
                    }
                    assert set(ball(n, k, m, max_states=None)) == members, (n, m, k)

    models._reset_caches()
    check()
    for n in range(1, 8):
        for m in Model:
            ball(n, max(full_table(n, m).values()), m, max_states=None)
    check()
    with pytest.raises(BudgetError):
        ball(17, 1, "td", max_states=None)
    with pytest.raises(ValueError):
        ball(4, -1, "td", max_states=None)
    with pytest.raises(ValueError):
        ball(-1, 1, "td", max_states=None)


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
    # the search from the query refuses at 10,000 states, the identity side
    # while growing its own second level at 6,000
    for budget in (6_000, 10_000):
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
        # grow walks the whole mask list once per expanded state
        def __iter__(self):
            nonlocal expanded
            expanded += 1
            return super().__iter__()

    table._masks = CountingMasks(table._masks)
    with pytest.raises(BudgetError):
        ball(10, 3, "td", max_states=50_000)
    assert 0 < expanded < full_level


def test_exhausted_table_keeps_its_depth_and_an_empty_frontier():
    for m in Model:
        table = models._LevelTable(5, m)
        while table.grow():
            pass
        depth = table.depth
        assert table.frontier == []
        assert not table.grow()
        assert (table.frontier, table.depth) == ([], depth)
        assert len(table.dist) == 120
        assert depth == max(table.dist.values())


@pytest.mark.parametrize(
    "p, expected, budget, radius",
    [
        # the identity table cached by the ball holds 56,917 states
        ((2, 1, 4, 3, 6, 5, 8, 7, 9), 4, 50_000, 3),
        # it holds 827 here, and growing it to depth 3 would take 3,527
        ((2, 1, 4, 3, 6, 5, 7), 3, 800, 2),
    ],
    ids=["n9", "n7"],
)
def test_bidirectional_budget_counts_only_added_states(p, expected, budget, radius):
    # the cached identity table holds more states than the budget, yet the
    # query must be answered as it is from cold caches
    for warm in (False, True):
        models._reset_caches()
        if warm:
            ball(len(p), radius, "td")
        assert distance(p, "td", max_states=budget) == expected, warm


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
                for mask, t in zip(masks, triples):
                    table = models._LevelTable(n, m, p)
                    table._masks = [mask]
                    assert table.grow()
                    assert table.frontier == [models._pack(apply_transposition(p, t))], (p, t)


def test_full_s7_tables_match_a_plain_tuple_bfs():
    for m in (Model.BLOCK, Model.PREFIX):
        table = models._LevelTable(7, m)
        while table.grow():
            pass
        found = {tuple(models._unpack_bytes(c, 7)): d for c, d in table.dist.items()}
        assert found == tuple_bfs(7, m)
