"""Property tests: distance invariants and deletions on drawn permutations.

Seeds are fixed (``derandomize``) and example counts capped, so every run
draws the same inputs and the file stays within a few seconds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from permball import models
from permball.core import one_point_deletions
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
