"""Bases of the balls: published small cases, both methods, minimality."""

import dataclasses
import importlib
import itertools
import math
import time

import pytest

from permball import core, models, verify
from permball.basis import BasisReport, basis, basis_via_poset_descent
from permball.core import BudgetError, contains_pattern, one_point_deletions, parse_perm, perm_set
from permball.genset import element_length
from permball.models import Model

TD_K1 = perm_set(parse_perm(t) for t in "321 2143 2413 3142".split())
PTD_K1 = perm_set(parse_perm(t) for t in "132 321".split())
# Published length-4 elements plus the fourteen length-5 elements that survive
# the minimality check. The published length-5 list also names 25413, but
# 25413 contains the length-4 element 1432 (subsequence 2,5,4,3), so a set
# containing both cannot consist of minimal excluded permutations; see the
# acceptance suite, which checks the published list through this erratum.
PTD_K2 = perm_set(
    parse_perm(t)
    for t in (
        "1432 2143 4321 "
        "13524 14253 24351 25314 35142 35214 35241 "
        "41352 42513 42531 43152 51324 52413 53142".split()
    )
)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def test_published_small_bases():
    assert basis(1, "td").elements == TD_K1
    assert basis(1, "ptd").elements == PTD_K1
    assert basis(2, "ptd").elements == PTD_K2


def test_descent_method_agrees_everywhere_it_runs():
    for model, k in ((Model.BLOCK, 1), (Model.BLOCK, 2), (Model.PREFIX, 1), (Model.PREFIX, 2)):
        assert basis(k, model).elements == basis_via_poset_descent(k, model).elements


def test_probe_above_the_bound_finds_nothing():
    for model, k in ((Model.BLOCK, 1), (Model.PREFIX, 1), (Model.PREFIX, 2)):
        report = basis(k, model, probe_extra=True)
        assert report.probe is not None
        assert report.probe.length == report.length_bound_used + 1
        assert report.probe.elements == ()


def test_basis_elements_are_minimal_excluded():
    for model, k in ((Model.BLOCK, 1), (Model.BLOCK, 2), (Model.PREFIX, 2)):
        for e in basis(k, model).elements:
            assert models.distance(e, model) > k
            for q in one_point_deletions(e):
                assert models.distance(q, model) <= k


def test_basis_elements_pairwise_incomparable():
    for model, k in ((Model.BLOCK, 2), (Model.PREFIX, 2)):
        elements = basis(k, model).elements
        for a in elements:
            for b in elements:
                if a != b:
                    assert not contains_pattern(a, b)


def test_basis_elements_are_plus_irreducible_with_proper_endpoints():
    # the descent prunes by plus-irreducibility only at the bound, where the
    # pruning is exact, so below it the descent is the route that would
    # expose a wrong strip lemma
    cases = [(Model.BLOCK, k) for k in (1, 2)] + [(Model.PREFIX, k) for k in (1, 2, 3)]
    for route in (basis, basis_via_poset_descent):
        for model, k in cases:
            for e in route(k, model).elements:
                assert core.is_plus_irreducible(e), (route, e)
                assert e[-1] != len(e), (route, e)
                if model is Model.BLOCK:
                    assert e[0] != 1, (route, e)


def test_extension_tests_only_plus_irreducible_candidates(monkeypatch):
    # the candidates are exactly the plus-irreducible p whose last-entry
    # deletion lies in the ball, counted here over all of S_n (538 at td k=2,
    # 56 at ptd k=2)
    basis_module = importlib.import_module("permball.basis")
    original = basis_module._ends
    tested = []

    def recording_ends(q, n):
        ends = original(q, n)
        tested.extend(tuple(q.translate(core._BUMP[v]) + core._ONE[v]) for v in ends)
        return ends

    monkeypatch.setattr(basis_module, "_ends", recording_ends)
    for model, k in ((Model.BLOCK, 2), (Model.PREFIX, 2)):
        tested.clear()
        basis(k, model)
        expected = 0
        for n in range(2, element_length(k, model) + 1):
            shorter = set(models.ball(n - 1, k, model))
            expected += sum(
                core.is_plus_irreducible(p) and tuple(x - (x > p[-1]) for x in p[:-1]) in shorter
                for p in all_perms(n)
            )
        assert len(tested) == expected, (model, k)
        assert all(core.is_plus_irreducible(p) for p in tested), model


def test_ends_are_exactly_the_plus_irreducible_extensions():
    basis_module = importlib.import_module("permball.basis")
    for n in range(2, 9):
        for q in map(bytes, all_perms(n - 1)):
            expected = [
                v for v in range(1, n + 1)
                if core.is_plus_irreducible(q.translate(core._BUMP[v]) + core._ONE[v])
            ]
            assert basis_module._ends(q, n) == expected, tuple(q)


def test_descent_pruning_at_the_bound_is_exact_for_any_generating_set(monkeypatch):
    # at the bound a plus-reducible extension is a member or fails the
    # deletion test through the same adjacency deletion, so testing every
    # extension there finds the same elements, even with a wrong G_k
    basis_module = importlib.import_module("permball.basis")
    _one_generator_short("generating_set_constructive", monkeypatch)
    for model, k in ((Model.BLOCK, 2), (Model.PREFIX, 2), (Model.PREFIX, 3)):
        pruned = basis_via_poset_descent(k, model).elements
        with monkeypatch.context() as every_end:
            every_end.setattr(basis_module, "_ends", lambda q, n: range(1, n + 1))
            assert basis_via_poset_descent(k, model).elements == pruned, (model, k)


def test_basis_is_exact_at_the_bound_only_through_the_candidate_rule(monkeypatch):
    # basis() tests its candidates at the bound against G_k alone, so with
    # every end a plus-reducible member whose deletions lie inside counts as
    # an element; the descent's _member answers it by its adjacency deletion
    # and keeps its elements, so the routes disagree from k=1 on
    basis_module = importlib.import_module("permball.basis")
    monkeypatch.setattr(basis_module, "_ends", lambda q, n: range(1, n + 1))
    assert basis_via_poset_descent(2, "ptd").elements == PTD_K2
    reported = basis(2, "ptd").elements
    assert any(len(e) == 5 and not core.is_plus_irreducible(e) for e in reported)
    results = verify.run_verification([Model.PREFIX], 2, 3, verify.load_golden(), None)
    (check,) = [r for r in results if r.name == "basis-properties-ptd"]
    assert check.status == "FAIL" and check.detail == "the two routes disagree at k=1", check


def test_avoidance_characterizes_membership():
    for model in (Model.BLOCK, Model.PREFIX):
        for k in (1, 2):
            excluded = basis(k, model).elements
            for n in range(1, 7):
                members = set(models.ball(n, k, model))
                for p in all_perms(n):
                    avoids = not any(contains_pattern(p, e) for e in excluded)
                    assert avoids == (p in members), (p, model, k)


def test_basis_properties_check_reads_the_unpruned_route(monkeypatch):
    # basis() never tests a plus-reducible candidate, so the check reads the
    # descent's elements; a plus-reducible one there must fail it
    def plus_reducible(j, model, **kwargs):
        return BasisReport(((2, 3, 1),), length_bound_used=element_length(j, model))

    monkeypatch.setattr(verify, "basis_via_poset_descent", plus_reducible)
    results = verify.run_verification(list(Model), 1, 3, verify.load_golden(), None)
    for model in Model:
        (check,) = [r for r in results if r.name == f"basis-properties-{model.value}"]
        assert check.status == "FAIL" and check.detail == "231 is not plus irreducible", check


def test_basis_properties_check_compares_the_pruned_route(monkeypatch):
    # the check also runs basis(), so a wrong pruning at a radius the golden
    # bases do not reach (td k=2) fails it
    def one_short(j, model, **kwargs):
        report = basis(j, model, **kwargs)
        elements = report.elements[1:] if j == 2 else report.elements
        return dataclasses.replace(report, elements=elements)

    monkeypatch.setattr(verify, "compute_basis", one_short)
    results = verify.run_verification(list(Model), 2, 3, verify.load_golden(), None)
    for model in Model:
        (check,) = [r for r in results if r.name == f"basis-properties-{model.value}"]
        assert check.status == "FAIL" and check.detail == "the two routes disagree at k=2", check


def _one_generator_short(route, monkeypatch):
    """Patch ``route`` in permball.basis to drop the first element of G_2;
    returns the dropped element."""
    basis_module = importlib.import_module("permball.basis")
    original = getattr(basis_module, route)

    def one_short(j, model, **kwargs):
        report = original(j, model, **kwargs)
        elements = report.elements[1:] if j == 2 else report.elements
        return dataclasses.replace(report, elements=elements)

    monkeypatch.setattr(basis_module, route, one_short)
    return original(2, Model.PREFIX).elements[0]


def test_basis_properties_check_catches_a_wrong_direct_generating_set(monkeypatch):
    # basis() then calls the dropped generator a non-member at the bound and
    # finds it as a basis element; the descent does not
    _one_generator_short("generating_set_direct", monkeypatch)
    results = verify.run_verification([Model.PREFIX], 2, 3, verify.load_golden(), None)
    (check,) = [r for r in results if r.name == "basis-properties-ptd"]
    assert check.status == "FAIL" and check.detail == "the two routes disagree at k=2", check


def test_basis_properties_check_catches_a_wrong_constructive_generating_set(monkeypatch):
    # the descent then finds the dropped generator as a basis element. Every
    # prefix generator ends with its maximum, so the endpoint test, which runs
    # before the routes are compared, names it
    dropped = _one_generator_short("generating_set_constructive", monkeypatch)
    results = verify.run_verification([Model.PREFIX], 2, 3, verify.load_golden(), None)
    (check,) = [r for r in results if r.name == "basis-properties-ptd"]
    assert check.status == "FAIL", check
    assert check.detail == f"{core.format_perm(dropped)} ends with its maximum", check


def test_basis_properties_check_catches_a_wrong_candidate_rule(monkeypatch):
    # both routes use _ends at the bound, but the descent walks every
    # non-member below it, so a rule that drops v = 1 shows as disagreement
    basis_module = importlib.import_module("permball.basis")
    original = basis_module._ends
    monkeypatch.setattr(basis_module, "_ends", lambda q, n: [v for v in original(q, n) if v != 1])
    results = verify.run_verification(list(Model), 2, 3, verify.load_golden(), None)
    for model, k in ((Model.BLOCK, 1), (Model.PREFIX, 2)):
        (check,) = [r for r in results if r.name == f"basis-properties-{model.value}"]
        assert check.status == "FAIL", check
        assert check.detail == f"the two routes disagree at k={k}", check


def test_class_closure():
    # deletion closure of B_j and nesting B_j <= B_{j+1}, for every j up to
    # the top radius; j = 0 is the identity ball
    for model, top_k in ((Model.BLOCK, 1), (Model.PREFIX, 2)):
        ok, detail = verify._check_closure(model, top_k, 6, None, None)
        assert ok, detail


def test_td_extension_beyond_published_values():
    # no published ground truth here: pinned by cross-method agreement and the
    # property tests above, frozen to catch regressions
    report = basis(2, "td", probe_extra=True)
    lengths = sorted(len(e) for e in report.elements)
    assert len(report.elements) == 37
    assert lengths.count(4) == 1 and lengths.count(5) == 14 and lengths.count(6) == 22
    assert (4, 3, 2, 1) in report.elements
    assert report.probe.elements == ()


def test_basis_refuses_before_any_scan(monkeypatch):
    # the scan at length 10 would visit 10! = 3,628,800 permutations
    def no_scan(n):
        raise AssertionError(f"scanned S_{n} before refusing")

    monkeypatch.setattr(core, "all_perms", no_scan)
    with pytest.raises(BudgetError):
        basis(3, "td")
    with pytest.raises(BudgetError):
        basis_via_poset_descent(3, "td")


def test_huge_radius_refuses_without_the_factorial():
    # (9 * 10**5 + 1)! has millions of digits; the refusal stops the product
    # once it passes 10**18 and the budget
    for route in (basis, basis_via_poset_descent):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="more than 10\\*\\*18 candidates"):
            route(3 * 10**5, "td")
        assert time.perf_counter() - start < 2, route


def test_factorial_budget_refuses_exactly_as_the_full_product():
    for n in range(30):
        for max_states in (None, 0, 1, 6, 7, 3_628_799, 3_628_800, 10**18, 10**19, 10**30):
            outcomes = []
            for check in (core.check_factorial_budget,
                          lambda n, m: core.check_budget(math.factorial(n), m)):
                try:
                    check(n, max_states)
                    outcomes.append(None)
                except BudgetError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (n, max_states)


def test_basis_caps():
    with pytest.raises(BudgetError):
        basis(3, "td", probe_extra=True)  # the 11! probe scan > default budget
    models._reset_caches()
    with pytest.raises(BudgetError):
        basis(2, "td", max_states=50)
    with pytest.raises(ValueError):
        basis(0, "td")


def test_basis_extends_shorter_ball_members_without_scanning(monkeypatch):
    td_k2 = basis_via_poset_descent(2, "td").elements

    def no_scan(n):
        raise AssertionError(f"scanned S_{n}")

    monkeypatch.setattr(core, "all_perms", no_scan)
    assert basis(2, "td").elements == td_k2
    report = basis(2, "ptd", probe_extra=True)
    assert report.elements == PTD_K2
    assert report.probe.elements == ()


def test_the_longest_scanned_length_is_never_copied(monkeypatch):
    # each route reads every length below the bound 5 once and tests that
    # length against the read; at 5 and above it tests against its own
    # generating set, so no table of the bound is grown but for the probe's
    # read of the ball of length 5. Only the descent calls _member, at 5,
    # between its reads of lengths 4 and 3
    basis_module = importlib.import_module("permball.basis")
    asked = []
    names = ("ball", "_members", "_member", "generating_set_direct", "generating_set_constructive")
    for name in names:
        def record(first, *args, name=name, original=getattr(basis_module, name), **kwargs):
            asked.append((name, len(first) if name == "_member" else first))
            return original(first, *args, **kwargs)

        monkeypatch.setattr(basis_module, name, record)

    extension = [("generating_set_direct", 2)] + [("ball", n) for n in range(1, 5)]
    descent = [("generating_set_constructive", 2)] + [("_members", n) for n in range(4, 0, -1)]
    for route, kwargs, expected, at_bound in (
        (basis, {}, extension, False),
        (basis, {"probe_extra": True}, extension + [("ball", 5)], False),
        (basis_via_poset_descent, {}, descent, True),
    ):
        asked.clear()
        route(2, "ptd", **kwargs)
        tested = [call for call in asked if call[0] == "_member"]
        assert [call for call in asked if call[0] != "_member"] == expected, (route, kwargs)
        assert bool(tested) == at_bound and set(tested) <= {("_member", 5)}, (route, kwargs)
        assert asked[2 : 2 + len(tested)] == tested, (route, kwargs)


def test_no_level_table_at_the_bound_or_above():
    # the bound of ptd k=2 is 5; the probe reads the ball of length 5 and
    # tests length 6 without its table
    models._reset_caches()
    basis(2, "ptd")
    basis_via_poset_descent(2, "ptd")
    assert (5, Model.PREFIX) not in models._tables
    basis(2, "ptd", probe_extra=True)
    assert (6, Model.PREFIX) not in models._tables


def test_routes_and_probe_equal_a_brute_force_oracle():
    # neither the strip lemma nor a generating set: over all of S_n for
    # n <= m + 1, the permutations outside the ball whose one-point
    # deletions all lie inside it
    cases = [(Model.BLOCK, k) for k in (1, 2)] + [(Model.PREFIX, k) for k in (1, 2, 3)]
    for model, k in cases:
        bound = element_length(k, model)
        inside = [set(models.ball(n, k, model)) for n in range(bound + 2)]
        minimal = [
            perm_set(
                p for p in all_perms(n)
                if p not in inside[n] and inside[n - 1].issuperset(one_point_deletions(p))
            )
            for n in range(1, bound + 2)
        ]
        expected = perm_set(itertools.chain(*minimal[:-1]))
        report = basis(k, model, probe_extra=True)
        assert report.elements == expected, (model, k)
        assert report.probe.elements == minimal[-1] == (), (model, k)
        assert basis_via_poset_descent(k, model).elements == expected, (model, k)


def test_routes_agree_on_ptd_k3():
    elements = basis(3, "ptd").elements
    assert len(elements) == 188
    assert elements == basis_via_poset_descent(3, "ptd").elements


def test_descent_frontier_is_every_shorter_non_member():
    # the poset descent keeps only last-entry deletions: those of the
    # non-members of length n that fall outside the ball must be all the
    # non-members of length n - 1, or the descent would miss basis elements
    def delete_last(p):
        return tuple(x - (x > p[-1]) for x in p[:-1])

    for model, k in [(Model.BLOCK, k) for k in (1, 2)] + [(Model.PREFIX, k) for k in (1, 2, 3)]:
        bound = element_length(k, model)
        shorter = set(models.ball(1, k, model))
        for n in range(2, bound + 1):
            inside = set(models.ball(n, k, model))
            outside_shorter = set(all_perms(n - 1)) - shorter
            descended = {delete_last(p) for p in all_perms(n) if p not in inside} - shorter
            assert descended == outside_shorter, (model, k, n)
            shorter = inside


def test_bases_are_closed_under_the_model_symmetries():
    # Inverting a permutation inverts its sequence of operations. Reverse-
    # complement conjugates by the reversal, which maps block transpositions
    # to block transpositions but prefix ones to suffix ones, so the prefix
    # model has only the first symmetry.
    def reverse_complement(p):
        return tuple(len(p) + 1 - x for x in reversed(p))

    cases = [(Model.BLOCK, k, (core.invert, reverse_complement)) for k in (1, 2)]
    cases += [(Model.PREFIX, k, (core.invert,)) for k in (1, 2, 3)]
    for model, k, symmetries in cases:
        elements = set(basis(k, model).elements)
        for f in symmetries:
            assert {f(e) for e in elements} == elements, (model, k, f)
