"""Verification suite: golden-value checks and exhaustive invariant sweeps.

Each check returns PASS or FAIL with a short detail line; checks whose
budget is exceeded report SKIPPED instead of failing. The expected values
live in one data file (data/golden.json by default) so the CLI's negative
control (a corrupted file must fail) stays meaningful. Only a missing or
malformed expected value fails a check as "expected values unusable"; any
other exception from a check propagates.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from . import core, genset, models
from .basis import basis as compute_basis
from .basis import basis_via_poset_descent, verify_class_closure
from .core import BudgetError, Perm, all_perms
from .models import Model, ball_set


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
    """An expected value is missing from the golden data or malformed."""


def _golden(golden: dict, parse: Callable, *path: str):
    """Read ``golden[path[0]][path[1]]...`` through ``parse``; all checks read golden data here."""
    try:
        value = golden
        for key in path:
            value = value[key]
        return parse(value)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise _GoldenError(f"{'/'.join(path)}: {exc!r}") from None


def _perms(entries: Iterable[str]) -> tuple[Perm, ...]:
    return core.perm_set(core.parse_perm(e) for e in entries)


def _counts(entries: dict) -> dict[int, int]:
    return {int(length): int(value) for length, value in entries.items()}


def _examples(w: dict) -> tuple:
    """The worked examples, every permutation and number parsed."""
    perm, ints = core.parse_perm, lambda values: tuple(int(x) for x in values)
    red, infl, brk = w["reduce"], w["monotone_inflate"], w["strip_break"]
    return (
        (perm(red["input"]), perm(red["output"])),
        (perm(infl["base"]), ints(infl["vector"]), perm(infl["output"])),
        (perm(brk["base"]), ints(brk["indices"]), perm(brk["inflated"]), perm(brk["broken"])),
        [(perm(d["perm"]), Model(d["model"]), int(d["distance"])) for d in w["distances"]],
    )


# --- individual checks ------------------------------------------------------
# Every check takes (golden, max_states, k, max_n) and returns (ok, detail);
# ``max_states`` is the state budget, forwarded unchanged.


def _check_genset_golden(model: Model, j: int):
    def run(golden, max_states, k, max_n):
        expected = _golden(golden, _perms, "generating_sets", model.value, str(j))
        direct = genset.generating_set_direct(j, model, max_states=max_states).elements
        constructive = genset.generating_set_constructive(j, model, max_states=max_states).elements
        ok = direct == expected and constructive == expected
        return ok, f"{len(expected)} elements, both methods"

    return run


def _check_genset_cardinality(j: int):
    def run(golden, max_states, k, max_n):
        expected = _golden(golden, int, "generating_set_cardinalities", "ptd", str(j))
        direct = genset.generating_set_direct(j, Model.PREFIX, max_states=max_states).elements
        constructive = genset.generating_set_constructive(
            j, Model.PREFIX, max_states=max_states
        ).elements
        ok = len(direct) == expected and direct == constructive
        return ok, f"cardinality {len(direct)} (expected {expected}), methods agree"

    return run


def _check_basis_golden(model: Model, j: int):
    def run(golden, max_states, k, max_n):
        expected = _golden(golden, _perms, "bases", model.value, str(j))
        primary = compute_basis(j, model, max_states=max_states).elements
        descent = basis_via_poset_descent(j, model, max_states=max_states).elements
        ok = primary == expected and descent == expected
        return ok, f"{len(expected)} elements, both methods"

    return run


def _check_basis_probe(model: Model, j: int):
    def run(golden, max_states, k, max_n):
        report = compute_basis(j, model, probe_extra=True, max_states=max_states)
        assert report.probe is not None
        ok = report.probe.elements == ()
        return ok, f"nothing at length {report.probe.length}"

    return run


def _check_counts(golden, max_states, k, max_n):
    expected = _golden(golden, _counts, "plus_irreducible_counts_by_length")
    enum_top = min(max(max_n + 1, 7), 8)
    for length, value in expected.items():
        if core.plus_irreducible_count(length - 1) != value:
            return False, f"recurrence disagrees at length {length}"
        if length <= enum_top:
            found = len(core.enumerate_plus_irreducible(length, max_states=max_states))
            if found != value:
                return False, f"enumeration found {found} at length {length}"
    return True, f"lengths 1..8 by recurrence, 1..{enum_top} by enumeration"


def _check_worked_examples(golden, max_states, k, max_n):
    reduction, inflation, strip_break, distances = _golden(golden, _examples, "worked_examples")
    source, reduced = reduction
    if core.reduce(source) != reduced:
        return False, "strip reduction example"
    base, vector, inflated = inflation
    if core.monotone_inflate(base, vector) != inflated:
        return False, "monotone inflation example"
    base, indices, inflated, broken = strip_break
    if genset.td_inflate(base, indices) != (inflated, broken):
        return False, "strip-break construction example"
    for p, model, expected in distances:
        if models.distance(p, model, max_states=max_states) != expected:
            return False, f"distance of {core.format_perm(p)} under {model.value}"
    return True, "reduction, inflation, strip-break and distance examples"


def _check_breakpoint_bound(golden, max_states, k, max_n):
    top = min(max_n, 7)
    for n in range(1, top + 1):
        for p in all_perms(n):
            bound = -(-core.breakpoint_count(p) // 3)
            if models.distance(p, Model.BLOCK, max_states=max_states) < bound:
                return False, f"violated at {core.format_perm(p)}"
    return True, f"exhaustive for n <= {top}"


def _check_reduction_invariance(golden, max_states, k, max_n):
    top = min(max_n, 7)
    td = partial(models.distance, model=Model.BLOCK, max_states=max_states)
    for n in range(1, top + 1):
        for p in all_perms(n):
            if td(p) != td(core.reduce(p)):
                return False, f"violated at {core.format_perm(p)}"
    return True, f"exhaustive for n <= {top}"


def _check_ptd_reduction_empirical(golden, max_states, k, max_n):
    # Not a promised identity: a failure here is an observation about the
    # model, not an engine bug, and is reported as such.
    top = min(max_n, 6)
    ptd = partial(models.distance, model=Model.PREFIX, max_states=max_states)
    for n in range(1, top + 1):
        for p in all_perms(n):
            if ptd(p) != ptd(core.reduce(p)):
                return (
                    False,
                    f"empirical observation only: first counterexample {core.format_perm(p)}"
                    " (this diagnoses the model, not the engine)",
                )
    return True, f"holds empirically for n <= {top} (no guarantee implied)"


def _check_model_refinement(golden, max_states, k, max_n):
    top = min(max_n, 6)
    dist = partial(models.distance, max_states=max_states)
    for n in range(1, top + 1):
        for p in all_perms(n):
            if dist(p, Model.BLOCK) > dist(p, Model.PREFIX):
                return False, f"violated at {core.format_perm(p)}"
    return True, f"td <= ptd for n <= {top}"


def _check_left_invariance(model: Model):
    def run(golden, max_states, k, max_n):
        def compose(f: Perm, g: Perm) -> Perm:
            return tuple(f[x - 1] for x in g)

        between = partial(models.pairwise_distance, model=model, max_states=max_states)
        for sigma in all_perms(4):
            for p in all_perms(4):
                if between(compose(sigma, p), sigma) != between(p, (1, 2, 3, 4)):
                    return False, f"violated at sigma={sigma}, p={p}"
        rng = random.Random(20180521)
        fives = [tuple(rng.sample(range(1, 6), 5)) for _ in range(40)]
        for sigma, p, q in zip(fives[::3], fives[1::3], fives[2::3]):
            if between(compose(sigma, p), compose(sigma, q)) != between(p, q):
                return False, f"violated at sigma={sigma}, p={p}, q={q}"
        return True, "exhaustive on S_4, sampled on S_5"

    return run


def _check_closure(model: Model):
    def run(golden, max_states, k, max_n):
        top = min(max_n, 6)
        for j in range(0, min(k, 2) + 1):
            if not verify_class_closure(j, model, top, max_states=max_states):
                return False, f"deletion left the ball at k={j}"
        for n in range(1, top + 1):
            for j in range(min(k, 2)):
                inner = ball_set(n, j, model, max_states=max_states)
                if not inner <= ball_set(n, j + 1, model, max_states=max_states):
                    return False, f"nesting failed at n={n}, k={j}"
        return True, f"deletion closure and nesting for n <= {top}, k <= {min(k, 2)}"

    return run


def _check_ball_characterization(model: Model):
    def run(golden, max_states, k, max_n):
        top = min(max_n, 7 if model is Model.BLOCK else 6)
        for j in range(1, min(k, 2) + 1):
            report = genset.generating_set_constructive(j, model, max_states=max_states)
            for n in range(1, top + 1):
                in_ball = ball_set(n, j, model, max_states=max_states)
                for p in all_perms(n):
                    if genset.mi_union_member(p, report) != (p in in_ball):
                        return False, f"mismatch at {core.format_perm(p)}, k={j}"
        return True, f"inflation-union equals ball for k <= {min(k, 2)}, n <= {top}"

    return run


def _check_one_step_closure(golden, max_states, k, max_n):
    base = (1, 3, 2, 4)
    top = min(max_n, 6)
    constructed = genset.mi_plus_one(base, top, max_states=max_states)
    brute: set[Perm] = set()
    for n in range(2, top + 1):
        for p in all_perms(n):
            if core.mi_member(p, base):
                brute.update(models.neighbors(p, Model.BLOCK))
    ok = constructed == core.perm_set(brute)
    return ok, f"{len(constructed)} permutations up to length {top}, both routes"


def _check_ptd_parents(golden, max_states, k, max_n):
    top = min(max(k, 2), 3)
    reports = {
        j: genset.generating_set_constructive(j, Model.PREFIX, max_states=max_states)
        for j in range(1, top + 1)
    }
    for j in range(2, top + 1):
        for child in reports[j].elements:
            parent, case = genset.ptd_parent(child)
            if genset.ptd_inflate(parent, case) != child:
                return False, f"reconstruction failed for {core.format_perm(child)}"
            if parent not in reports[j - 1].elements:
                return False, f"parent of {core.format_perm(child)} is not generating"
    return True, f"unique parents recovered for k = 2..{top}"


def _check_transposition_inverse(golden, max_states, k, max_n):
    top = min(max_n, 6)
    core.check_budget(math.factorial(top), max_states)
    for n in range(2, top + 1):
        for p in all_perms(n):
            for t in models.transposition_triples(n, Model.BLOCK):
                i, j, kk = t
                undo = (i, i + kk - j, kk)
                if models.apply_transposition(models.apply_transposition(p, t), undo) != p:
                    return False, f"failed at {core.format_perm(p)}, {t}"
    return True, f"exhaustive for n <= {top}"


def _check_basis_properties(model: Model):
    # A leading 1 can be removed without changing the block distance, so it
    # never appears in a block-model basis element; under the prefix model a
    # leading 1 is not free (132 is a basis element) and only the trailing
    # maximum is excluded.
    def run(golden, max_states, k, max_n):
        for j in range(1, min(k, 2) + 1):
            report = compute_basis(j, model, max_states=max_states)
            for e in report.elements:
                if not core.is_plus_irreducible(e):
                    return False, f"{core.format_perm(e)} is not plus irreducible"
                if e[-1] == len(e):
                    return False, f"{core.format_perm(e)} ends with its maximum"
                if model is Model.BLOCK and e[0] == 1:
                    return False, f"{core.format_perm(e)} starts with 1"
        shape = "no leading 1, " if model is Model.BLOCK else ""
        return True, f"plus irreducible, {shape}no trailing maximum, k <= {min(k, 2)}"

    return run


def _registry(model_tags: list[Model], k: int, max_n: int):
    checks: list[tuple[str, Callable]] = []
    for model in model_tags:
        tag = model.value
        for j in (1, 2):
            if j <= k:
                checks.append((f"golden-genset-{tag}-k{j}", _check_genset_golden(model, j)))
        if model is Model.PREFIX and k >= 3:
            checks.append(("genset-cardinality-ptd-k3", _check_genset_cardinality(3)))
        golden_ks = {Model.BLOCK: (1,), Model.PREFIX: (1, 2)}[model]
        for j in golden_ks:
            if j <= k:
                checks.append((f"golden-basis-{tag}-k{j}", _check_basis_golden(model, j)))
        for j in golden_ks:
            if j <= k:
                checks.append((f"basis-probe-{tag}-k{j}", _check_basis_probe(model, j)))
        checks.append((f"left-invariance-{tag}", _check_left_invariance(model)))
        checks.append((f"ball-closure-{tag}", _check_closure(model)))
        checks.append((f"ball-characterization-{tag}", _check_ball_characterization(model)))
        checks.append((f"basis-properties-{tag}", _check_basis_properties(model)))
    if Model.BLOCK in model_tags:
        checks.append(("breakpoint-bound-td", _check_breakpoint_bound))
        checks.append(("reduction-invariance-td", _check_reduction_invariance))
        checks.append(("one-step-inflation-closure", _check_one_step_closure))
        checks.append(("transposition-inverse", _check_transposition_inverse))
    if Model.PREFIX in model_tags:
        checks.append(("reduction-invariance-ptd-empirical", _check_ptd_reduction_empirical))
        checks.append(("ptd-parent-uniqueness", _check_ptd_parents))
    if len(model_tags) == 2:
        checks.append(("model-refinement", _check_model_refinement))
    checks.append(("plus-irreducible-counts", _check_counts))
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
            ok, detail = fn(golden, max_states, k, max_n)
            results.append(CheckResult(name, "PASS" if ok else "FAIL", detail))
        except BudgetError as exc:
            results.append(CheckResult(name, "SKIPPED", str(exc)))
        except _GoldenError as exc:
            results.append(CheckResult(name, "FAIL", f"expected values unusable: {exc}"))
    return results
