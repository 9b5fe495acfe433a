"""
Generating sets of the distance balls
=====================================

The ball of radius k (everything within k operations of sorted, over all
lengths) is the union of the inflation classes of finitely many generating
permutations: its maximal plus-irreducible members. They all share one
length, 3k+1 for block transpositions and 2k+1 for prefix ones, so two very
different computations must land on the same set: applying k operations
to sorted that each break as many adjacencies as one operation can (three
for block transpositions, two for prefix ones), and growing generation k+1
from generation k by local inflation steps.
"""

from itertools import permutations

from permball import (
    ball,
    format_perm,
    generating_set_constructive,
    generating_set_direct,
    inflate,
    mi_union_member,
    ptd_parent,
)

for model in ("td", "ptd"):
    for k in (1, 2):
        direct = generating_set_direct(k, model)
        grown = generating_set_constructive(k, model)
        assert direct.elements == grown.elements
        shown = [format_perm(g) for g in direct.elements]
        print(f"{model} k={k}: {len(shown)} generators {shown}")

# The prefix-model counts follow a closed form, (2k)!/2^k, because every
# generator is produced by exactly one inflation step from exactly one
# parent. Walk a generator's ancestry all the way down:
g90 = generating_set_constructive(3, "ptd")
print("ptd k=3 size:", len(g90.elements))
child = g90.elements[0]
while len(child) > 1:
    parent, case = ptd_parent(child)
    assert inflate(parent, case, "ptd") == child  # the step ptd_parent undoes
    print(f"  {format_perm(child)} <- parent {format_perm(parent)} at positions {case}")
    child = parent

# Membership in the ball is exactly membership in some generator's
# inflation class; check it against breadth-first search at length 6.
report = generating_set_constructive(2, "td")
members = set(ball(6, 2, "td"))
described = {p for p in permutations(range(1, 7)) if mi_union_member(p, report)}
print("ball(6, 2, td) described by generators:", described == members)
