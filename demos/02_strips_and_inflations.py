"""
Strips, reduction, and monotone inflation
=========================================

A strip is a maximal run of consecutive increasing values sitting in
consecutive positions. Collapsing every strip to a point gives the
reduction; replacing points by increasing runs gives monotone inflations.
These two moves are inverse in spirit, and the block- and
prefix-transposition distances only ever see the reduction.
"""

from permball import (
    ball,
    distance,
    format_perm,
    mi_member,
    mi_members,
    monotone_inflate,
    parse_perm,
    reduce,
    strips,
)

p = parse_perm("435612789")
print("strips of 435612789:", strips(p))
print("reduction:", format_perm(reduce(p)))
# Both models answer on the reduction, which provably keeps the distance;
# the balls of the full length, which reduce nothing, agree.
for model in ("td", "ptd"):
    radius = next(j for j in range(len(p)) if p in ball(len(p), j, model))
    print(f"{model} distance agrees: {distance(p, model)} == first ball radius {radius}")

# Inflating 41352 through run lengths (0, 2, 1, 3, 2): the first point
# disappears, the others blow up into runs of the prescribed lengths.
base = parse_perm("41352")
inflated = monotone_inflate(base, (0, 2, 1, 3, 2))
print(f"41352 inflated by (0,2,1,3,2) -> {format_perm(inflated)}")

# Membership in an inflation class is a pattern question: a permutation is
# an inflation of a (plus-irreducible) base exactly when the base contains
# its reduction.
print("12567834 in MI(41352):", mi_member(inflated, base))
print("321 in MI(1324):", mi_member(parse_perm("321"), parse_perm("1324")))

# The class is infinite, but its slice below any length is concrete.
small = mi_members(parse_perm("213"), 4)
print("inflations of 213 up to length 4:", [format_perm(q) for q in small])
