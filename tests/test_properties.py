"""Property tests: distance invariants, symmetries and deletions on drawn
permutations.

Seeds are fixed (``derandomize``) and example counts capped, so every run
draws the same inputs and the file stays within a few seconds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from permball import models
from permball.core import invert, monotone_inflate, one_point_deletions
from permball.models import apply_transposition, distance, pairwise_distance, transposition_triples
from test_core import deletions_reference
from test_models import full_table

MODELS = ("td", "ptd")


def fixed(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


def perms(min_size, max_size):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(tuple)
    )


@fixed(60)
@given(st.sampled_from(MODELS), perms(2, 8), st.data())
def test_one_operation_changes_the_distance_by_at_most_one(model, p, data):
    t = data.draw(st.sampled_from(list(transposition_triples(len(p), model))))
    assert abs(distance(p, model) - distance(apply_transposition(p, t), model)) <= 1


@fixed(60)
@given(st.sampled_from(MODELS), st.integers(1, 7).flatmap(
    lambda n: st.tuples(*[st.permutations(range(1, n + 1)).map(tuple)] * 3)
))
def test_pairwise_distance_obeys_the_triangle_inequality(model, triple):
    p, q, r = triple
    via_q = pairwise_distance(p, q, model) + pairwise_distance(q, r, model)
    assert pairwise_distance(p, r, model) <= via_q


def reverse_complement(p):
    return tuple(len(p) + 1 - x for x in reversed(p))


@fixed(60)
@given(perms(1, 8))
def test_td_distance_is_unchanged_under_inverse_and_reverse_complement(p):
    d = distance(p, "td")
    assert distance(invert(p), "td") == d
    assert distance(reverse_complement(p), "td") == d


@fixed(60)
@given(perms(1, 8))
def test_ptd_distance_is_unchanged_under_inverse(p):
    # the inverse of a prefix transposition is again one
    assert distance(invert(p), "ptd") == distance(p, "ptd")


def test_ptd_distance_changes_under_reverse_complement():
    # reverse-complement turns a prefix into a suffix, so it is a td-only symmetry
    assert reverse_complement((1, 3, 2)) == (2, 1, 3)
    assert distance((1, 3, 2), "ptd") == 2
    assert distance((2, 1, 3), "ptd") == 1


@fixed(200)
@given(perms(1, 20))
def test_deletions_match_the_tuple_reference_on_drawn_permutations(p):
    assert one_point_deletions(p) == deletions_reference(p)
    assert one_point_deletions(bytes(p)) == tuple(map(bytes, one_point_deletions(p)))


@fixed(100)
@given(st.sampled_from(models.Model), st.permutations(range(1, 9)).map(tuple))
def test_distance_matches_the_full_table_at_length_8(model, p):
    # length 8 is past the full-table cutoff, so this is the bidirectional
    # search, from cold caches every time
    models._reset_caches()
    assert distance(p, model) == full_table(8, model)[models._pack(p)]


def internal_breakpoints(p):
    return sum(p[i + 1] != p[i] + 1 for i in range(len(p) - 1))


#: Monotone inflations up to length 12, rich in adjacencies.
inflated = perms(1, 6).flatmap(lambda q: st.lists(
    st.integers(1, 2), min_size=len(q), max_size=len(q)
).map(lambda v: monotone_inflate(q, v))).filter(lambda p: len(p) >= 2)


@fixed(100)
@given(st.sampled_from(models.Model), st.one_of(perms(2, 12), inflated))
def test_one_operation_changes_the_internal_breakpoints_by_at_most_its_cut_count(model, p):
    # the lemma behind generating_set_direct: at most 3 internal cuts (td) or
    # 2 (ptd), and cutting at c adjacencies always adds exactly c breakpoints
    c = 3 if model is models.Model.BLOCK else 2
    before = internal_breakpoints(p)
    for t in transposition_triples(len(p), model):
        change = internal_breakpoints(apply_transposition(p, t)) - before
        assert abs(change) <= c
        cuts = [x - 1 for x in t if 1 < x <= len(p)]
        if len(cuts) == c and all(p[b] == p[b - 1] + 1 for b in cuts):
            assert change == c
