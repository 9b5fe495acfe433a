"""Verification suite: golden-value checks and exhaustive invariant sweeps.

Each check returns PASS or FAIL with a short detail line; checks whose
budget is exceeded report SKIPPED instead of failing. The expected values
live in one data file (data/golden.json by default) so the CLI's negative
control (a corrupted file must fail) stays meaningful. Only a missing, empty
or malformed expected value fails a check as "expected values unusable"; any
other exception from a check propagates.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import cache, partial
from importlib import resources
from pathlib import Path
from typing import Callable

from . import core, genset, models
from .basis import basis as compute_basis
from .basis import basis_via_poset_descent
from .core import BudgetError, Perm, all_perms
from .models import Model, ball


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIPPED
    detail: str


def load_golden(path: str | Path | None = None) -> dict:
    if path is None:
        source = resources.files("permball").joinpath("data/golden.json")
        return json.loads(source.read_text())
    return json.loads(Path(path).read_text())


class _GoldenError(Exception):
    """An expected value is missing from the golden data, empty or malformed."""


def _golden(golden: dict, parse: Callable, *path: str):
    """Read ``golden[path[0]][path[1]]...`` through ``parse``; all checks read golden data here."""
    try:
        value = golden
        for key in path:
            value = value[key]
        return parse(value)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise _GoldenError(f"{'/'.join(path)}: {exc!r}") from None


def _structure(entry) -> int | tuple[Perm, ...]:
    """A structure's golden entry: the number of its elements, or the elements sorted."""
    return entry if isinstance(entry, int) else core.perm_set(map(core.parse_perm, entry))


def _counts(entries: dict) -> dict[int, int]:
    if not entries:
        raise ValueError("no lengths")
    return {int(length): int(value) for length, value in entries.items()}


def _examples(w: dict) -> tuple:
    """The worked examples, every permutation and number parsed."""
    perm, ints = core.parse_perm, lambda values: tuple(int(x) for x in values)
    red, infl, brk = w["reduce"], w["monotone_inflate"], w["strip_break"]
    if not w["distances"]:
        raise ValueError("no distances")
    return (
        (perm(red["input"]), perm(red["output"])),
        (perm(infl["base"]), ints(infl["vector"]), perm(infl["output"])),
        (perm(brk["base"]), ints(brk["indices"]), perm(brk["inflated"]), perm(brk["broken"])),
        [(perm(d["perm"]), Model(d["model"]), int(d["distance"])) for d in w["distances"]],
    )


# --- individual checks ------------------------------------------------------
# Every check is a plain function whose own parameters (golden section and
# routes, model, radius j, top length) come first; _registry binds them,
# leaving the one call shape fn(golden, max_states) -> (ok, detail).
# ``max_states`` is the state budget, forwarded unchanged.


def _sweep(top: int, bad: Callable[[Perm], bool]) -> Perm | None:
    """The first permutation of length 1..top for which ``bad`` holds, or None."""
    return next((p for n in range(1, top + 1) for p in all_perms(n) if bad(p)), None)


def _swept(top: int, bad: Callable[[Perm], bool], ok: str, fail: str = "violated at {}"):
    """``_sweep`` as a check result; the ``fail`` detail names the first bad permutation."""
    p = _sweep(top, bad)
    return (True, ok) if p is None else (False, fail.format(core.format_perm(p)))


def _check_golden(section: str, routes: tuple[Callable, Callable], model: Model, j: int,
                  golden, max_states):
    """Both routes of one structure at radius ``j``, against each other and
    against ``golden[section][model][j]``: the sorted elements, or only their
    number where the entry is a count. A failure detail names its cause."""
    expected = _golden(golden, _structure, section, model.value, str(j))
    first, second = (route(j, model, max_states=max_states).elements for route in routes)
    if first != second:
        return False, f"the two routes disagree: {len(first)} and {len(second)} elements"
    count = isinstance(expected, int)
    if (len(first) if count else first) == expected:
        return True, f"{expected if count else len(expected)} elements, both methods"
    if count:
        return False, f"both routes give {len(first)} elements, the golden count is {expected}"
    p = min(set(first) ^ set(expected))  # the first element only one side holds
    verb, golden_verb = ("give", "lacks") if p in first else ("lack", "holds")
    return False, f"both routes {verb} {core.format_perm(p)}, which the golden list {golden_verb}"


def _check_basis_probe(model: Model, j: int, golden, max_states):
    report = compute_basis(j, model, probe_extra=True, max_states=max_states)
    assert report.probe is not None
    ok = report.probe.elements == ()
    return ok, f"nothing at length {report.probe.length}"


def _check_counts(enum_top: int, golden, max_states):
    expected = _golden(golden, _counts, "plus_irreducible_counts_by_length")
    for length, value in expected.items():
        if core.plus_irreducible_count(length - 1) != value:
            return False, f"recurrence disagrees at length {length}"
        if length <= enum_top:
            found = len(core.enumerate_plus_irreducible(length, max_states=max_states))
            if found != value:
                return False, f"enumeration found {found} at length {length}"
    lo, hi = min(expected), max(expected)
    return True, f"lengths {lo}..{hi} by recurrence, {lo}..{min(hi, enum_top)} by enumeration"


def _check_worked_examples(golden, max_states):
    reduction, inflation, strip_break, distances = _golden(golden, _examples, "worked_examples")
    source, reduced = reduction
    if core.reduce(source) != reduced:
        return False, "strip reduction example"
    base, vector, inflated = inflation
    if core.monotone_inflate(base, vector) != inflated:
        return False, "monotone inflation example"
    base, indices, inflated, broken = strip_break
    vector = [1 + indices.count(t) for t in range(1, len(base) + 1)]
    if core.monotone_inflate(base, vector) != inflated:
        return False, "strip-break inflation example"
    if genset.inflate(base, indices, Model.BLOCK) != broken:
        return False, "strip-break construction example"
    for p, model, expected in distances:
        if models.distance(p, model, max_states=max_states) != expected:
            return False, f"distance of {core.format_perm(p)} under {model.value}"
    return True, "reduction, inflation, strip-break and distance examples"


def _check_breakpoint_bound(top: int, golden, max_states):
    td = partial(models.distance, model=Model.BLOCK, max_states=max_states)
    return _swept(
        top, lambda p: td(p) < -(-core.breakpoint_count(p) // 3), f"exhaustive for n <= {top}"
    )


def _check_reduction_invariance(model: Model, top: int, golden, max_states):
    # The engine answers on the reduction; the radius of p itself is read off
    # the unreduced level table, so a wrong reduction shows.
    ball_at = cache(lambda n, j: frozenset(ball(n, j, model, max_states=max_states)))
    dist = partial(models.distance, model=model, max_states=max_states)

    def radius(p: Perm) -> int | None:
        return next((j for j in range(len(p) + 1) if p in ball_at(len(p), j)), None)

    return _swept(top, lambda p: dist(p) != radius(p), f"exhaustive for n <= {top}")


def _check_model_refinement(top: int, golden, max_states):
    dist = partial(models.distance, max_states=max_states)
    return _swept(
        top, lambda p: dist(p, Model.BLOCK) > dist(p, Model.PREFIX), f"td <= ptd for n <= {top}"
    )


def _check_left_invariance(model: Model, golden, max_states):
    def compose(f: Perm, g: Perm) -> Perm:
        return tuple(f[x - 1] for x in g)

    between = partial(models.pairwise_distance, model=model, max_states=max_states)
    rng = random.Random(20180521)
    fives = [tuple(rng.sample(range(1, 6), 5)) for _ in range(40)]
    fours = ((sigma, p, (1, 2, 3, 4)) for sigma in all_perms(4) for p in all_perms(4))
    for sigma, p, q in itertools.chain(fours, zip(fives[::3], fives[1::3], fives[2::3])):
        if between(compose(sigma, p), compose(sigma, q)) != between(p, q):
            return False, f"violated at sigma={sigma}, p={p}, q={q}"
    return True, "exhaustive on S_4, sampled on S_5"


def _check_closure(model: Model, top_k: int, top: int, golden, max_states):
    # B_j is a class: every one-point deletion of a member is a member; and B_j ⊆ B_{j+1}
    ball_at = cache(lambda n, j: frozenset(ball(n, j, model, max_states=max_states)))
    for j in range(top_k + 1):
        for n in range(1, top + 1):
            shorter = ball_at(n - 1, j)
            if not all(shorter.issuperset(core.one_point_deletions(p)) for p in ball_at(n, j)):
                return False, f"deletion left the ball at k={j}"
            if j < top_k and not ball_at(n, j) <= ball_at(n, j + 1):
                return False, f"nesting failed at n={n}, k={j}"
    return True, f"deletion closure and nesting for n <= {top}, k <= {top_k}"


def _check_ball_characterization(model: Model, top_k: int, top: int, golden, max_states):
    for j in range(1, top_k + 1):
        report = genset.generating_set_constructive(j, model, max_states=max_states)
        ball_at = cache(lambda n: frozenset(ball(n, j, model, max_states=max_states)))
        p = _sweep(top, lambda p: genset.mi_union_member(p, report) != (p in ball_at(len(p))))
        if p is not None:
            return False, f"mismatch at {core.format_perm(p)}, k={j}"
    return True, f"inflation-union equals ball for k <= {top_k}, n <= {top}"


def _check_one_step_closure(top: int, golden, max_states):
    base = (1, 3, 2, 4)
    constructed = genset.mi_plus_one(base, top, max_states=max_states)
    brute: set[Perm] = set()
    for n in range(2, top + 1):
        for p in all_perms(n):
            if core.mi_member(p, base):
                brute.update(models.neighbors(p, Model.BLOCK))
    ok = constructed == core.perm_set(brute)
    return ok, f"{len(constructed)} permutations up to length {top}, both routes"


def _check_ptd_parents(top_k: int, golden, max_states):
    reports = {
        j: genset.generating_set_constructive(j, Model.PREFIX, max_states=max_states)
        for j in range(1, top_k + 1)
    }
    for j in range(2, top_k + 1):
        for child in reports[j].elements:
            try:
                parent, case = genset.ptd_parent(child)
            except ValueError:  # ptd_parent's "not obtainable" answer
                return False, f"no parent found for {core.format_perm(child)}"
            if genset.inflate(parent, case, Model.PREFIX) != child:
                return False, f"reconstruction failed for {core.format_perm(child)}"
            if parent not in reports[j - 1].elements:
                return False, f"parent of {core.format_perm(child)} is not generating"
    return True, f"unique parents recovered for k = 2..{top_k}"


def _check_transposition_inverse(top: int, golden, max_states):
    core.check_factorial_budget(top, max_states)
    step = models.apply_transposition

    def bad(p: Perm) -> bool:
        triples = models.transposition_triples(len(p), Model.BLOCK)
        return any(step(step(p, (i, j, k)), (i, i + k - j, k)) != p for i, j, k in triples)

    return _swept(top, bad, f"exhaustive for n <= {top}")


def _check_basis_properties(model: Model, top_k: int, golden, max_states):
    # A leading 1 can be removed without changing the block distance, so it
    # never appears in a block-model basis element; under the prefix model a
    # leading 1 is not free (132 is a basis element) and only the trailing
    # maximum is excluded. The elements come from the poset descent, which
    # does not prune by plus-irreducibility as ``basis`` does, so the first
    # test can fail below the bound length; ``basis`` must then give the
    # same elements, which also catches a wrong generating set in ``basis``.
    for j in range(1, top_k + 1):
        descent = basis_via_poset_descent(j, model, max_states=max_states).elements
        for e in descent:
            if not core.is_plus_irreducible(e):
                return False, f"{core.format_perm(e)} is not plus irreducible"
            if e[-1] == len(e):
                return False, f"{core.format_perm(e)} ends with its maximum"
            if model is Model.BLOCK and e[0] == 1:
                return False, f"{core.format_perm(e)} starts with 1"
        if compute_basis(j, model, max_states=max_states).elements != descent:
            return False, f"the two routes disagree at k={j}"
    shape = "no leading 1, " if model is Model.BLOCK else ""
    return True, f"plus irreducible, {shape}no trailing maximum, both routes, k <= {top_k}"


def _registry(model_tags: list[Model], k: int, max_n: int) -> list[tuple[str, Callable]]:
    """Every check in run order, bound to its model, radius and top length:
    how far each check reaches is decided here and nowhere else. Refuses a
    radius below 1 or a top length below 2, where some checks would check
    nothing."""
    if k < 1 or max_n < 2:
        raise ValueError(f"verify needs k >= 1 and max_n >= 2, got k={k}, max_n={max_n}")
    top_k, top6, top7 = min(k, 2), min(max_n, 6), min(max_n, 7)
    genset_routes = (genset.generating_set_direct, genset.generating_set_constructive)
    golden_genset = partial(_check_golden, "generating_sets", genset_routes)
    genset_count = partial(_check_golden, "generating_set_cardinalities", genset_routes)
    golden_basis = partial(_check_golden, "bases", (compute_basis, basis_via_poset_descent))
    checks: list[tuple[str, Callable]] = []
    for model in model_tags:
        tag, td = model.value, model is Model.BLOCK
        basis_top = min(k, 1) if td else top_k  # the golden bases: td k=1, ptd k=1,2
        for j in range(1, top_k + 1):
            checks.append((f"golden-genset-{tag}-k{j}", partial(golden_genset, model, j)))
        if not td and k >= 3:
            checks.append(("genset-cardinality-ptd-k3", partial(genset_count, model, 3)))
        for j in range(1, basis_top + 1):
            checks.append((f"golden-basis-{tag}-k{j}", partial(golden_basis, model, j)))
        for j in range(1, basis_top + 1):
            checks.append((f"basis-probe-{tag}-k{j}", partial(_check_basis_probe, model, j)))
        checks += [
            (f"left-invariance-{tag}", partial(_check_left_invariance, model)),
            (f"ball-closure-{tag}", partial(_check_closure, model, top_k, top6)),
            (f"ball-characterization-{tag}",
             partial(_check_ball_characterization, model, top_k, top7 if td else top6)),
            (f"basis-properties-{tag}", partial(_check_basis_properties, model, top_k)),
            (f"reduction-invariance-{tag}",
             partial(_check_reduction_invariance, model, top7 if td else top6)),
        ]
    if Model.BLOCK in model_tags:
        checks += [
            ("breakpoint-bound-td", partial(_check_breakpoint_bound, top7)),
            ("one-step-inflation-closure", partial(_check_one_step_closure, top6)),
            ("transposition-inverse", partial(_check_transposition_inverse, top6)),
        ]
    if Model.PREFIX in model_tags:
        checks.append(("ptd-parent-uniqueness", partial(_check_ptd_parents, min(max(k, 2), 3))))
    if len(model_tags) == 2:
        checks.append(("model-refinement", partial(_check_model_refinement, top6)))
    checks.append(("plus-irreducible-counts", partial(_check_counts, min(max(max_n + 1, 7), 8))))
    checks.append(("worked-examples", _check_worked_examples))
    return checks


def run_verification(
    model_tags: list[Model],
    k: int,
    max_n: int,
    golden: dict,
    max_states: int | None,
) -> list[CheckResult]:
    results = []
    for name, fn in _registry(model_tags, k, max_n):
        try:
            ok, detail = fn(golden, max_states)
            results.append(CheckResult(name, "PASS" if ok else "FAIL", detail))
        except BudgetError as exc:
            results.append(CheckResult(name, "SKIPPED", str(exc)))
        except _GoldenError as exc:
            results.append(CheckResult(name, "FAIL", f"expected values unusable: {exc}"))
    return results
