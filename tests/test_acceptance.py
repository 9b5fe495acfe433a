"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its elapsed time (run with ``pytest tests/test_acceptance.py -v -s``
to see every line).

Expected sets and counts are frozen inline; they are the contract this
package is accepted against. The published lists are kept verbatim. The
published basis of the radius-2 prefix ball carries one erratum: it names both
1432 and 25413, yet 25413 contains 1432 as a pattern (subsequence 2,5,4,3), so
the list is not pattern-minimal. Criterion 4 finds that erratum in the
published list itself, with a pattern check written here rather than the one
under test, and expects the computed basis to be the published list minus its
non-minimal element.
"""

import itertools
import time

from permball import core
from permball.basis import basis, basis_via_poset_descent
from permball.core import (
    breakpoint_count,
    enumerate_plus_irreducible,
    mi_member,
    one_point_deletions,
    parse_perm,
    perm_set,
    plus_irreducible_count,
)
from permball.genset import (
    generating_set_constructive,
    generating_set_direct,
    inflate,
    mi_plus_one,
    mi_union_member,
    ptd_cases,
    ptd_parent,
)
from permball.models import (
    Model,
    apply_transposition,
    ball,
    distance,
    neighbors,
    pairwise_distance,
    transposition_triples,
)

TD_GENSET_K2 = perm_set(
    parse_perm(t)
    for t in "1324657 1352647 1354627 1364257 1426357 1436527 "
    "1462537 1524637 1536247 1624357 1632547".split()
)
PTD_GENSET_K2 = perm_set(parse_perm(t) for t in "32415 41325 31425 24135 24315 42135".split())
TD_BASIS_K1 = perm_set(parse_perm(t) for t in "321 2143 2413 3142".split())
PTD_BASIS_K1 = perm_set(parse_perm(t) for t in "132 321".split())
PTD_BASIS_K2_PUBLISHED = perm_set(
    parse_perm(t)
    for t in "1432 2143 4321 "
    "13524 14253 24351 25314 25413 35142 35214 35241 "
    "41352 42513 42531 43152 51324 52413 53142".split()
)
PLUS_IRREDUCIBLE_COUNTS = [1, 1, 3, 11, 53, 309, 2119, 16687]  # lengths 1..8


class _Criterion:
    def __init__(self, number, limit_seconds):
        self.number = number
        self.limit = limit_seconds
        self.started = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if ok and elapsed < self.limit else "FAIL"
        print(
            f"ACCEPTANCE {self.number:>2} {status}  "
            f"elapsed={elapsed:.2f}s (limit {self.limit}s)  {detail}"
        )
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed < self.limit, f"criterion {self.number} took {elapsed:.2f}s"


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def test_criterion_01_block_generating_sets():
    c = _Criterion(1, 5)
    ok = True
    for method_result in (generating_set_direct(1, "td"), generating_set_constructive(1, "td")):
        ok = ok and method_result.elements == (parse_perm("1324"),)
    for method_result in (generating_set_direct(2, "td"), generating_set_constructive(2, "td")):
        ok = ok and method_result.elements == TD_GENSET_K2
    c.finish(ok, "k=1 -> {1324}; k=2 -> the eleven length-7 generators, both methods")


def test_criterion_02_block_basis_k1():
    c = _Criterion(2, 1)
    ok = (
        basis(1, "td").elements == TD_BASIS_K1
        and basis_via_poset_descent(1, "td").elements == TD_BASIS_K1
    )
    c.finish(ok, "basis {321, 2143, 2413, 3142}, both methods")


def test_criterion_03_prefix_generating_sets():
    c = _Criterion(3, 30)
    ok = generating_set_direct(1, "ptd").elements == (parse_perm("213"),)
    ok = ok and generating_set_direct(2, "ptd").elements == PTD_GENSET_K2
    for k, expected in ((1, 1), (2, 6), (3, 90)):
        direct = generating_set_direct(k, "ptd")
        constructive = generating_set_constructive(k, "ptd")
        ok = ok and direct.elements == constructive.elements
        ok = ok and len(direct.elements) == expected
    c.finish(ok, "k=1 -> {213}; k=2 -> six generators; cardinalities 1, 6, 90")


def _pattern_of(seq):
    """The relative order of a sequence of distinct values, as a permutation."""
    ordered = sorted(seq)
    return tuple(ordered.index(v) + 1 for v in seq)


def _occurs_in(pattern, perm):
    """True when some subsequence of ``perm`` is order-isomorphic to ``pattern``.

    Written out here, not taken from ``permball.core``, so that the erratum in
    the published list is found independently of the code under test.
    """
    return any(
        _pattern_of(sub) == pattern for sub in itertools.combinations(perm, len(pattern))
    )


def test_criterion_04_prefix_bases():
    c = _Criterion(4, 30)
    # A basis holds only minimal excluded permutations, so an element of the
    # published list that contains another one is an erratum, not a basis element.
    comparable = [
        (small, large)
        for small in PTD_BASIS_K2_PUBLISHED
        for large in PTD_BASIS_K2_PUBLISHED
        if small != large and _occurs_in(small, large)
    ]
    erratum_ok = comparable == [((1, 4, 3, 2), (2, 5, 4, 1, 3))]
    dropped_distance = distance((2, 5, 4, 1, 3), "ptd")
    not_minimal = {large for _, large in comparable}
    expected = tuple(p for p in PTD_BASIS_K2_PUBLISHED if p not in not_minimal)
    k1_ok = basis(1, "ptd").elements == PTD_BASIS_K1
    computed = basis(2, "ptd").elements

    def names(perms):
        return sorted(core.format_perm(p) for p in perms)

    c.finish(
        erratum_ok and dropped_distance > 2 and k1_ok and computed == expected,
        "k=1 -> {132, 321}; k=2 -> the published list through its one erratum, "
        "25413 contains 1432 (subsequence 2,5,4,3): comparable published pairs "
        f"{[(core.format_perm(a), core.format_perm(b)) for a, b in comparable]}, "
        f"ptd distance of 25413 = {dropped_distance}, "
        f"missing from the computed basis {names(set(expected) - set(computed))}, "
        f"unexpected in it {names(set(computed) - set(expected))}",
    )


def test_criterion_05_plus_irreducible_counts():
    c = _Criterion(5, 60)
    ok = True
    for length, expected in enumerate(PLUS_IRREDUCIBLE_COUNTS, start=1):
        ok = ok and plus_irreducible_count(length - 1) == expected
        ok = ok and len(enumerate_plus_irreducible(length)) == expected
    c.finish(ok, "lengths 1..8 by recurrence and by exhaustive enumeration")


def test_criterion_06_breakpoint_lower_bound():
    c = _Criterion(6, 120)
    violations = 0
    for n in range(1, 8):
        for p in all_perms(n):
            if distance(p, "td") < -(-breakpoint_count(p) // 3):
                violations += 1
    c.finish(violations == 0, f"{violations} violations over S_1..S_7")


def test_criterion_07_reduction_invariance():
    # distance answers on the reduction; the radius at which the unreduced
    # ball first holds p does not
    c = _Criterion(7, 120)
    violations = 0
    for n in range(1, 8):
        balls = [frozenset(ball(n, j, "td")) for j in range(n + 1)]
        for p in all_perms(n):
            if distance(p, "td") != next(j for j, b in enumerate(balls) if p in b):
                violations += 1
    c.finish(violations == 0, f"{violations} violations over S_1..S_7")


def test_criterion_08_ball_characterization():
    c = _Criterion(8, 120)
    ok = True
    for k in (1, 2):
        report = generating_set_constructive(k, "td")
        for n in range(1, 8):
            members = set(ball(n, k, "td"))
            described = {p for p in all_perms(n) if mi_union_member(p, report)}
            ok = ok and described == members
    c.finish(ok, "inflation-class union equals the ball, k <= 2, n <= 7")


def test_criterion_09_one_step_decomposition():
    c = _Criterion(9, 60)
    base = parse_perm("1324")
    constructed = mi_plus_one(base, 6)
    brute = set()
    for n in range(2, 7):
        for p in all_perms(n):
            if mi_member(p, base):
                brute.update(neighbors(p, "td"))
    c.finish(constructed == perm_set(brute), f"{len(constructed)} permutations, both routes")


def test_criterion_10_basis_length_bound_probes():
    c = _Criterion(10, 120)
    ok = True
    for model, k in ((Model.BLOCK, 1), (Model.PREFIX, 1), (Model.PREFIX, 2)):
        report = basis(k, model, probe_extra=True)
        ok = ok and report.probe.elements == ()
    c.finish(ok, "no basis element one length above the bound (td k=1; ptd k <= 2)")


def test_criterion_11_parent_uniqueness():
    c = _Criterion(11, 30)
    ok = True
    gensets = {
        k: generating_set_constructive(k, "ptd").elements for k in (1, 2, 3)
    }
    for k in (2, 3):
        for child in gensets[k]:
            parent, case = ptd_parent(child)
            ok = ok and inflate(parent, case, "ptd") == child
            ok = ok and parent in gensets[k - 1]
            marker = child.index(child[0] - 1)
            right = child[marker + 1]
            fired = [
                right >= child[0] + 2,
                right <= child[0] - 2,
                right == child[0] + 1,
            ]
            ok = ok and sum(fired) == 1
    # the step is injective: distinct (parent, case) never collide
    for k in (1, 2):
        children = [
            inflate(p, case, "ptd") for p in gensets[k] for case in ptd_cases(p)
        ]
        ok = ok and len(children) == len(set(children))
    c.finish(ok, "every generator at k=2,3 has exactly one (parent, case)")


def test_criterion_12_property_suites():
    c = _Criterion(12, 120)

    def compose(f, g):
        return tuple(f[x - 1] for x in g)

    ok = True
    perms4 = list(all_perms(4))
    for m in ("td", "ptd"):
        for p in perms4:
            for q in perms4:
                base = pairwise_distance(p, q, m)
                for sigma in perms4:
                    if pairwise_distance(compose(sigma, p), compose(sigma, q), m) != base:
                        ok = False
    down_set = True
    for m in ("td", "ptd"):
        for k in (1, 2):
            for n in range(1, 7):
                shorter = set(ball(n - 1, k, m))
                for p in ball(n, k, m):
                    if any(q not in shorter for q in one_point_deletions(p)):
                        down_set = False
    inverse_ok = True
    for n in range(2, 7):
        for p in all_perms(n):
            for i, j, k in transposition_triples(n, "td"):
                undone = apply_transposition(apply_transposition(p, (i, j, k)), (i, i + k - j, k))
                if undone != p:
                    inverse_ok = False
    c.finish(
        ok and down_set and inverse_ok,
        "left-invariance on S_4, deletion closure n <= 6, transposition inverse n <= 6",
    )
