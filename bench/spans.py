"""Spans around the calls into each permball layer, recorded from outside.

The tracer replaces every binding of the functions in ``TRACED`` (the
module attribute and each ``from ... import`` alias in other permball
modules) with a wrapper that records a span: name, start, end, parent span
and the harness request it belongs to. Nothing under ``src/`` is edited.
Per-child hot paths such as ``apply_transposition`` are not wrapped; the
work they do is derived from ball sizes instead.

Spans stay in memory until the run ends. A span's self time is its
duration minus the time its child spans cover; calls nest strictly (one
thread), so the children's intervals never overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import statistics
import sys
import time
from array import array
from pathlib import Path

import permball

#: Public functions wrapped per layer. Layers are permball's modules; a
#: function is attributed by its ``__module__``, so the package-level
#: function ``permball.basis`` is not confused with the submodule.
TRACED = {
    "core": ("enumerate_plus_irreducible", "one_point_deletions", "contains_pattern", "reduce"),
    "models": ("distance", "pairwise_distance", "ball"),
    "genset": ("generating_set_direct", "generating_set_constructive", "mi_union_member"),
    "basis": ("basis", "basis_via_poset_descent"),
    "verify": ("run_verification",),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)

#: Calls whose arguments and result sizes feed derived counts. They are
#: rare, so binding their arguments by signature costs nothing measurable.
#: Only sizes are kept, so a traced run holds no extra results alive.
OBSERVED = {
    "models.ball": len,
    "genset.generating_set_constructive": lambda report: len(report.elements),
    "basis.basis": lambda report: (
        len(report.elements),
        report.length_bound_used,
        report.probe.length if report.probe is not None else None,
    ),
    "basis.basis_via_poset_descent": lambda report: (
        len(report.elements), report.length_bound_used, None
    ),
    "verify.run_verification": len,
}

_FIELDS = 6  # span id, parent id, name index, request, start ns, end ns


class Tracer:
    """Records spans for the calls into permball while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.observed: list[tuple[str, dict, object]] = []  # (name, args, size)
        self.request = 0
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "permball" or name.startswith("permball."))
        ]
        for layer, funcs in TRACED.items():
            module = sys.modules[f"permball.{layer}"]
            for func_name in funcs:
                original = getattr(module, func_name)
                owner = original.__module__.rsplit(".", 1)[-1]
                if owner != layer:
                    raise RuntimeError(f"{func_name} lives in {owner}, not {layer}")
                wrapper = self._wrap(f"{layer}.{func_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, original):
        index = len(self.names)
        self.names.append(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        summarize = OBSERVED.get(name)
        signature = inspect.signature(original) if summarize else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((span_id, parent, index, self.request, start, end))
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.observed.append((name, dict(bound.arguments), summarize(result)))
            return result

        return traced

    # -- analysis -------------------------------------------------------------

    def rows(self):
        """Spans as (id, parent, name, request, start_ns, end_ns, self_ns)."""
        spans = self.spans
        count = len(spans) // _FIELDS
        child_ns: dict[int, int] = {}
        for base in range(0, len(spans), _FIELDS):
            parent = spans[base + 1]
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + spans[base + 5] - spans[base + 4]
        for i in range(count):
            sid, parent, idx, req, start, end = spans[i * _FIELDS : (i + 1) * _FIELDS]
            yield (sid, parent, self.names[idx], req, start, end,
                   end - start - child_ns.get(sid, 0))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\trequest\tstart_ns\tend_ns\tself_ns\n")
            fh.writelines("\t".join(map(str, row)) + "\n" for row in self.rows())


def _p50_ms(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e6 if durations_ns else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, repeat_requests: set[int],
                  refusal_request: int | None) -> tuple[dict, dict]:
    """Per-layer metrics from the spans and observed calls of one traced run.

    Returns (values, sample counts). Call after the tracer is uninstalled:
    the derived counts ask the package for ball and generation sizes, which
    its caches answer, and those calls must not become spans.
    """
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    top_ns = 0
    fresh_ns, repeat_ns = [], []
    refusal_ns = 0
    for _sid, parent, name, req, start, end, own in tracer.rows():
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        layer_ns[name.split(".", 1)[0]] += own
        if not parent:
            top_ns += end - start
        if name == "models.distance":
            (repeat_ns if req in repeat_requests else fresh_ns).append(end - start)
        if name == "cli.main" and req == refusal_request:
            refusal_ns = end - start

    def secs(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    # Ball work: a call to radius k expands the members of radius k-1 that
    # no earlier call for the same (n, model) expanded, each through every
    # cut-point triple.
    ball_states = children = 0
    expanded_to: dict[tuple[int, permball.Model], int] = {}
    for name, args, size in tracer.observed:
        if name != "models.ball" or args["n"] == 0:
            continue
        n, k = args["n"], args["k"]
        model = permball.Model.coerce(args["model"])
        ball_states += size
        before = expanded_to.get((n, model), 0)
        if k > before:
            fresh = len(permball.ball(n, k - 1, model)) - (
                len(permball.ball(n, before - 1, model)) if before else 0
            )
            children += fresh * sum(1 for _ in permball.transposition_triples(n, model))
            expanded_to[(n, model)] = k

    # Constructive generating sets: each parent of generation k-1 is
    # inflated by every index multiset (td) or case (ptd).
    attempts = distinct = 0
    for name, args, size in tracer.observed:
        if name != "genset.generating_set_constructive":
            continue
        k, model = args["k"], permball.Model.coerce(args["model"])
        if k == 1:
            parents = ((1,),)
        else:
            parents = permball.generating_set_constructive(k - 1, model).elements
        for parent in parents:
            if model is permball.Model.BLOCK:
                attempts += sum(1 for _ in permball.index_multisets(len(parent)))
            else:
                attempts += sum(1 for _ in permball.ptd_cases(parent))
        distinct += size

    # Bases: every permutation of each exhaustively scanned length.
    candidates = elements = 0
    checks = 0
    for name, args, size in tracer.observed:
        if name == "basis.basis":
            found, bound, probe = size
            candidates += sum(math.factorial(n) for n in range(2, bound + 1))
            if probe is not None:
                candidates += math.factorial(probe)
            elements += found
        elif name == "basis.basis_via_poset_descent":
            found, bound, _ = size
            candidates += math.factorial(bound)
            elements += found
        elif name == "verify.run_verification":
            checks += size

    ball_self = secs("models.ball")
    values = {
        "models.distance.calls": calls.get("models.distance", 0),
        "models.distance.self_s": secs("models.distance"),
        "models.distance.fresh_p50_ms": _p50_ms(fresh_ns),
        "models.distance.repeat_p50_ms": _p50_ms(repeat_ns),
        "models.pairwise_distance.self_s": secs("models.pairwise_distance"),
        "models.ball.calls": calls.get("models.ball", 0),
        "models.ball.self_s": ball_self,
        "models.ball.states": ball_states,
        "models.ball.states_per_s": ball_states / ball_self if ball_self else 0.0,
        "models.ball.children_computed": children,
        "core.enumerate_plus_irreducible.self_s": secs("core.enumerate_plus_irreducible"),
        "core.one_point_deletions.calls": calls.get("core.one_point_deletions", 0),
        "core.one_point_deletions.self_s": secs("core.one_point_deletions"),
        "core.contains_pattern.calls": calls.get("core.contains_pattern", 0),
        "core.contains_pattern.self_s": secs("core.contains_pattern"),
        "core.reduce.calls": calls.get("core.reduce", 0),
        "core.reduce.self_s": secs("core.reduce"),
        "genset.generating_set_direct.self_s": secs("genset.generating_set_direct"),
        "genset.generating_set_constructive.self_s": secs("genset.generating_set_constructive"),
        "genset.mi_union_member.self_s": secs("genset.mi_union_member"),
        "genset.constructive.attempts": attempts,
        "genset.constructive.useful_ratio": distinct / attempts if attempts else 0.0,
        "basis.basis.self_s": secs("basis.basis"),
        "basis.basis_via_poset_descent.self_s": secs("basis.basis_via_poset_descent"),
        "basis.candidates": candidates,
        "basis.useful_ratio": elements / candidates if candidates else 0.0,
        "verify.run_verification.self_s": secs("verify.run_verification"),
        "verify.checks": checks,
        "cli.refusal_ms": refusal_ns / 1e6,
        "trace.wall_s": wall_s,
        "trace.unspanned_s": wall_s - top_ns / 1e9,
        "trace.spans": len(tracer.spans) // _FIELDS,
    }
    values.update({f"{layer}.self_s": layer_ns[layer] / 1e9 for layer in LAYERS})
    samples = {
        "models.distance.fresh_p50_ms": len(fresh_ns),
        "models.distance.repeat_p50_ms": len(repeat_ns),
    }
    return values, samples
