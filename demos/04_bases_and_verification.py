"""
Bases: the minimal excluded permutations
========================================

Each ball is a pattern class, so it is characterized by avoidance of its
basis, the minimal permutations outside it. Basis elements are never longer
than the generators, which makes the bases computable by exhaustive scan;
a probe one length above the bound confirms nothing was missed.
"""

from itertools import permutations

from permball import (
    ball,
    basis,
    basis_via_poset_descent,
    contains_pattern,
    format_perm,
)
from permball.verify import load_golden, run_verification
from permball.models import Model

for model, k in (("td", 1), ("ptd", 1), ("ptd", 2)):
    report = basis(k, model, probe_extra=True)
    names = [format_perm(e) for e in report.elements]
    print(f"{model} k={k} basis ({len(names)}): {names}")
    print(f"   probe at length {report.probe.length} found {len(report.probe.elements)}")

# Independent route: descend the pattern poset from the longest non-members.
assert basis(2, "ptd").elements == basis_via_poset_descent(2, "ptd").elements

# Avoidance really characterizes membership: at length 5, being inside the
# radius-1 block ball is the same as avoiding 321, 2143, 2413 and 3142.
excluded = basis(1, "td").elements
members = set(ball(5, 1, "td"))
for p in permutations(range(1, 6)):
    avoids = not any(contains_pattern(p, e) for e in excluded)
    assert avoids == (p in members)
print("avoidance characterization at length 5: OK")

# The whole verification suite is callable as a library too; the CLI's
# `permball verify` wraps exactly this.
results = run_verification(
    [Model.BLOCK, Model.PREFIX], k=1, max_n=5, golden=load_golden(),
    max_states=2_000_000,
)
width = max(len(r.name) for r in results)
for r in results:
    print(f"{r.status:<8}{r.name:<{width}}  {r.detail}")
