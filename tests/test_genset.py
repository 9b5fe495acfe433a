"""Generating sets: both construction routes, inflation steps, parents."""

import itertools

import pytest

from permball import core, genset, models
from permball.core import BudgetError, identity, parse_perm, perm_set
from permball.genset import (
    generating_set,
    generating_set_constructive,
    generating_set_direct,
    index_multisets,
    inflate,
    mi_plus_one,
    mi_union_member,
    ptd_cases,
    ptd_parent,
)
from permball.models import Model

TD_K2 = perm_set(
    parse_perm(t)
    for t in (
        "1324657 1352647 1354627 1364257 1426357 1436527 "
        "1462537 1524637 1536247 1624357 1632547".split()
    )
)
PTD_K2 = perm_set(parse_perm(t) for t in "32415 41325 31425 24135 24315 42135".split())


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


# --- inflation steps, both models ----------------------------------------------


def test_inflate_worked_example():
    assert inflate(parse_perm("1324"), (2, 2, 4), "td") == parse_perm("1352647")


def test_inflate_from_singleton():
    assert inflate((1,), (1, 1, 1), "td") == parse_perm("1324")


@pytest.mark.parametrize(
    "model, p, positions",
    [("td", (2, 1), (1, 1, 2)), (Model.PREFIX, (2, 1, 3), (1, 2))],
    ids=["td", "ptd"],
)
def test_inflate_rejects_bad_input(model, p, positions):
    inflate(p, positions, model)  # a valid step; each case below spoils one part of it
    n = len(p)
    for bad_p, bad_positions, message in (
        ((*p[:-1], p[0]), positions, "not a permutation"),
        (tuple(range(1, n + 1)), positions, "not plus irreducible"),
        (p, positions[:-1], "step takes"),  # too few positions
        (p, (*positions, n), "step takes"),  # too many positions
        (p, (0, *positions[1:]), "not non-decreasing"),  # positions are 1-based
        (p, (*positions[:-1], n + 1), "not non-decreasing"),  # past n
        (p, positions[::-1], "not non-decreasing"),
    ):
        with pytest.raises(ValueError, match=message):
            inflate(bad_p, bad_positions, model)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_inflate_structure_preservation(model):
    # c longer, plus irreducible, one operation from the inflated parent; a
    # block step keeps a leading 1 and a trailing maximum exactly when the
    # parent has them
    c = model.shape[0]
    for alpha in core.enumerate_plus_irreducible(4):
        for positions in itertools.combinations_with_replacement(range(1, 5), c):
            vector = [1 + positions.count(t) for t in range(1, 5)]
            inflated = core.monotone_inflate(alpha, vector)
            broken = inflate(alpha, positions, model)
            assert core.mi_member(inflated, alpha)
            assert broken in models.neighbors(inflated, model)
            assert core.is_plus_irreducible(broken)
            assert len(broken) == len(alpha) + c
            if model is Model.BLOCK:
                ends = (broken[0] == 1, broken[-1] == len(broken))
                assert ends == (alpha[0] == 1, alpha[-1] == len(alpha))


def test_index_multisets_count():
    # multisets of size 3 from n positions
    for n in range(1, 7):
        count = len(list(index_multisets(n)))
        assert count == n * (n + 1) * (n + 2) // 6


# --- generating sets, both models and methods ---------------------------------


def test_td_generating_sets_match_published_values():
    for method in ("direct", "constructive"):
        assert generating_set(1, "td", method).elements == (parse_perm("1324"),)
        assert generating_set(2, "td", method).elements == TD_K2


def test_ptd_generating_sets_match_published_values():
    for method in ("direct", "constructive"):
        assert generating_set(1, "ptd", method).elements == (parse_perm("213"),)
        assert generating_set(2, "ptd", method).elements == PTD_K2


def test_cross_method_equality_and_cardinality_law():
    for k in (1, 2, 3):
        direct = generating_set_direct(k, "ptd")
        constructive = generating_set_constructive(k, "ptd")
        assert direct.elements == constructive.elements
        expected = 1
        for i in range(1, k + 1):
            expected *= (2 * i) * (2 * i - 1) // 2
        assert len(direct.elements) == expected  # (2k)!/2^k
    assert generating_set_direct(2, "td").elements == generating_set_constructive(
        2, "td"
    ).elements


def test_direct_route_selects_by_distance_not_table_depth():
    def old_filter(k, model):
        # plus-irreducible members of ball k at the target length outside ball k-1
        n = genset.element_length(k, model)
        closer = frozenset(models.ball(n, k - 1, model))
        return tuple(
            p
            for p in models.ball(n, k, model)
            if all(p[i + 1] != p[i] + 1 for i in range(n - 1)) and p not in closer
        )

    for model, k in (("td", 1), ("td", 2), ("ptd", 1), ("ptd", 2), ("ptd", 3)):
        models._reset_caches()
        assert generating_set_direct(k, model).elements == old_filter(k, model)
        # a deeper ball at the same length leaves codes past depth k in the table
        models.ball(genset.element_length(k, model), k + 1, model)
        assert generating_set_direct(k, model).elements == old_filter(k, model), (model, k)


def test_direct_route_equals_the_plus_irreducible_sphere_at_td_k3():
    # every plus-irreducible permutation of length 10 lies at distance >= 3,
    # so the generators are exactly those in ball(10, 3) \ ball(10, 2)
    models._reset_caches()
    closer = frozenset(models.ball(10, 2, "td"))
    sphere = tuple(
        p for p in models.ball(10, 3, "td") if core.is_plus_irreducible(p) and p not in closer
    )
    models._reset_caches()
    assert len(sphere) == 369
    assert generating_set_direct(3, "td").elements == sphere


def test_routes_agree_past_the_published_radii():
    for model, k, count in (("td", 4, 26251), ("ptd", 5, 113400)):
        direct = generating_set_direct(k, model)
        assert len(direct.elements) == count
        assert direct.elements == generating_set_constructive(k, model).elements


def test_direct_route_budget_is_its_children_bound():
    # td k=3: 84 + 84 * 20 + 84 * 20 * 1; ptd k=4: 28 + 28 * 15 + 420 * 6 + 2520 * 1
    for model, k, bound in (("td", 3, 3444), ("ptd", 4, 5488)):
        assert generating_set_direct(k, model, max_states=bound).elements
        with pytest.raises(BudgetError):
            generating_set_direct(k, model, max_states=bound - 1)
    with pytest.raises(BudgetError):
        generating_set_direct(5, "td")  # 344,844,955 children
    with pytest.raises(BudgetError):
        generating_set_direct(6, "ptd")  # 16,302,396 children


def test_generators_have_exact_distance_and_shape():
    for model, k, step in ((Model.BLOCK, 2, 3), (Model.PREFIX, 3, 2)):
        assert genset.element_length(k, model) == step * k + 1
        for g in generating_set_constructive(k, model).elements:
            assert len(g) == genset.element_length(k, model)
            assert models.distance(g, model) == k
            assert core.is_plus_irreducible(g)


def test_td_generator_endpoints():
    for k in (1, 2):
        for g in generating_set_constructive(k, "td").elements:
            assert g[0] == 1 and g[-1] == len(g)


def test_ptd_generator_endpoints():
    for k in (1, 2, 3):
        for g in generating_set_constructive(k, "ptd").elements:
            assert g[-1] == len(g)
            assert g[0] != 1


def test_generating_set_caps():
    with pytest.raises(BudgetError):
        generating_set_constructive(3, "td", max_states=100)  # 369 elements
    with pytest.raises(BudgetError):
        generating_set_direct(3, "td", max_states=1000)
    with pytest.raises(ValueError):
        generating_set(1, "td", "guesswork")


def test_constructive_refuses_inside_the_generation_loop(monkeypatch):
    # generation 4 of td grows from 369 parents with 220 index multisets each;
    # a budget of 1000 must stop it long before all of them are strip-broken
    calls = 0
    strip_break = genset._strip_break

    def counting(p, indices, model):
        nonlocal calls
        calls += 1
        return strip_break(p, indices, model)

    monkeypatch.setattr(genset, "_strip_break", counting)
    with pytest.raises(BudgetError):
        generating_set_constructive(4, "td", max_states=1000)
    assert 0 < calls < 369 * 220


def test_route_postconditions():
    # a report does not re-check its elements, so each route must return
    # them sorted, distinct, plus irreducible and of the element length
    for model, top in ((Model.BLOCK, 3), (Model.PREFIX, 4)):
        for k in range(1, top + 1):
            length = genset.element_length(k, model)
            for route in (generating_set_direct, generating_set_constructive):
                elements = route(k, model).elements
                assert elements == perm_set(elements), (route.__name__, model, k)
                for e in elements:
                    assert len(e) == length and core.is_plus_irreducible(e), (route.__name__, e)


# --- prefix-model inflation steps -----------------------------------------------


def test_inflate_ptd_case_examples():
    base = parse_perm("213")
    assert inflate(base, (1, 1), "ptd") == parse_perm("32415")
    assert inflate(base, (1, 3), "ptd") == parse_perm("31425")
    assert inflate(base, (1, 2), "ptd") == parse_perm("41325")


def test_ptd_case_enumeration_covers_all_pairs():
    base = parse_perm("213")
    children = perm_set(inflate(base, c, "ptd") for c in ptd_cases(base))
    assert children == PTD_K2
    for n in range(1, 6):
        p = core.enumerate_plus_irreducible(n)[-1]
        assert len(list(ptd_cases(p))) == n * (n + 1) // 2


def test_ptd_parent_examples():
    assert ptd_parent(parse_perm("32415")) == (parse_perm("213"), (1, 1))
    assert ptd_parent(parse_perm("31425")) == (parse_perm("213"), (1, 3))
    assert ptd_parent(parse_perm("41325")) == (parse_perm("213"), (1, 2))
    assert ptd_parent(parse_perm("213")) == ((1,), (1, 1))


def test_ptd_parent_rejects_non_children():
    with pytest.raises(ValueError):
        ptd_parent(parse_perm("132"))  # starts with 1
    with pytest.raises(ValueError):
        ptd_parent(parse_perm("321"))  # not obtainable by any step
    with pytest.raises(ValueError):
        ptd_parent(parse_perm("2134"))  # not plus irreducible


def test_ptd_parent_inverts_every_inflation():
    parents = [(1,)]
    for _ in range(3):
        children = []
        for p in parents:
            for case in ptd_cases(p):
                child = inflate(p, case, "ptd")
                got_parent, got_case = ptd_parent(child)
                assert got_parent == p and got_case == case
                children.append(child)
        assert len(children) == len(set(children))  # no two steps collide
        parents = sorted(set(children))


def test_ptd_parent_accepts_exactly_the_inflation_results():
    # every child of every plus-irreducible parent, and nothing else in
    # S_1..S_7, has a parent, and it is the one step that made the child
    made = {}
    for n in range(1, 6):
        for p in core.enumerate_plus_irreducible(n):
            for case in ptd_cases(p):
                child = inflate(p, case, "ptd")
                assert child not in made  # no two steps collide
                made[child] = (p, case)
    assert sum(len(c) == 7 for c in made) == 795
    for n in range(1, 8):
        for s in all_perms(n):
            if s in made:
                assert ptd_parent(s) == made[s]
            else:
                with pytest.raises(ValueError):
                    ptd_parent(s)


def test_ptd_case_predicates_partition_generators():
    for k in (2, 3):
        for child in generating_set_constructive(k, "ptd").elements:
            marker = child.index(child[0] - 1)
            right = child[marker + 1]
            conditions = [
                right >= child[0] + 2,
                right <= child[0] - 2,
                right == child[0] + 1,
            ]
            assert sum(conditions) == 1


# --- ball characterization via inflation classes --------------------------------


def test_mi_union_member_examples():
    k1 = generating_set_constructive(1, "td")
    for p in models.ball(6, 1, "td"):
        assert mi_union_member(p, k1)
    for report in (k1, generating_set_constructive(2, "td")):
        assert mi_union_member(identity(5), report)
    assert not mi_union_member((3, 2, 1), k1)


def test_mi_union_member_refuses_non_permutations():
    # reduce((5, 5)) is (1,), which every generating set contains
    with pytest.raises(ValueError, match="not a permutation"):
        mi_union_member((5, 5), generating_set(1, "td"))


def test_ball_equals_inflation_union():
    for model, n_max in ((Model.BLOCK, 7), (Model.PREFIX, 6)):
        for k in (1, 2):
            report = generating_set_constructive(k, model)
            for n in range(1, n_max + 1):
                members = set(models.ball(n, k, model))
                for p in all_perms(n):
                    assert mi_union_member(p, report) == (p in members)


# --- one-step closure of an inflation class --------------------------------------


def brute_one_step_image(base, n_max):
    out = set()
    for n in range(2, n_max + 1):
        for p in all_perms(n):
            if core.mi_member(p, base):
                out.update(models.neighbors(p, "td"))
    return perm_set(out)


def test_mi_plus_one_matches_brute_force():
    base = parse_perm("1324")
    assert mi_plus_one(base, 6) == brute_one_step_image(base, 6)


def test_mi_plus_one_from_singleton():
    # one transposition away from an identity = the radius-1 balls
    got = mi_plus_one((1,), 4)
    expected = perm_set(
        p for n in range(2, 5) for p in models.ball(n, 1, "td") if len(p) >= 2
    )
    assert got == expected


def test_mi_plus_one_distance_bound():
    base = parse_perm("1324")
    for p in mi_plus_one(base, 5):
        assert models.distance(p, "td") <= models.distance(base, "td") + 1


def test_mi_plus_one_checks_its_base_once(monkeypatch):
    # the children are broken without the public step's per-call checks
    expected = mi_plus_one((1, 3, 2, 4), 5)

    def public_step(*args):
        raise AssertionError("mi_plus_one re-checks each child")

    monkeypatch.setattr(genset, "inflate", public_step)
    assert mi_plus_one((1, 3, 2, 4), 5) == expected


def test_mi_plus_one_validation():
    with pytest.raises(ValueError):
        mi_plus_one((1, 2), 4)
    with pytest.raises(BudgetError):
        mi_plus_one((1,), 11, max_states=1000)  # C(15, 4) = 1365 inflation vectors
