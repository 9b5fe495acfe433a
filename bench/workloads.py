"""The three workloads: seeded inputs, the timed closed loop, the checks.

Each workload is a list of operations run one after another by a single
caller. ``make_ops`` builds the list from the seed before anything is timed;
``run_ops`` times each operation and keeps its raw outcome; ``check`` then
compares every outcome with its expected value, outside the timed part.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import permball

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("distance-stream", "structures", "cli-verify")

# --- distance-stream ---------------------------------------------------------
#
# Fresh queries per run for each stratum (model, n, search length, distance)
# of the answer pool. Query cost depends mostly on the length the engine
# searches and the distance: td queries search the strip reduction, and
# search lengths up to 7 are pooled as 7 (answered from a level table).
# Fixing the count per stratum and letting the seed choose the members keeps
# the work alike across seeds while the permutations differ. The counts are
# not the natural distance distribution; they are set so that
#  - 200 queries fit in under 30 s: the four deepest queries (over 1 s
#    each) are one per stratum;
#  - the median falls in the middle of one dense band, ptd n=9 d=5, instead
#    of on the edge between memo hits and fresh searches;
#  - p95 falls in the upper part of a wide band, ptd n=10 d=6, so that it
#    is an order statistic of 30 similar queries rather than of a few.
# The first stratum holds the largest search of the stream, which always runs
# first: the allocator keeps the arenas of a finished search, so a large
# search after another one raises peak memory by about 7 MB, and the seed
# would move peak_rss_mb with the order.
DISTANCE_MIX = {
    ("ptd", 10, 10, 7): 1,
    # the other deep queries
    ("td", 10, 10, 5): 1, ("td", 10, 9, 5): 1, ("td", 9, 9, 5): 1,
    # below the median band (with the 30 repeats)
    ("td", 8, 7, 3): 8, ("td", 8, 7, 4): 10, ("td", 9, 7, 3): 6, ("td", 9, 8, 4): 6,
    ("ptd", 8, 8, 3): 5, ("ptd", 8, 8, 4): 6, ("ptd", 9, 9, 4): 6,
    # the median band
    ("ptd", 9, 9, 5): 46,
    # between the median and the p95 band
    ("td", 9, 9, 4): 12, ("td", 10, 9, 4): 11, ("ptd", 10, 10, 5): 11, ("ptd", 9, 9, 6): 9,
    # the p95 band
    ("ptd", 10, 10, 6): 30,
}
PAIRWISE_SHARE = 0.25
#: Exact repeats of earlier queries, about 15% of the stream.
REPEATS = 30

# --- structures ----------------------------------------------------------------
#
# The paper's objects at and past the published radii, in a fixed order: the
# ptd k=4 ball at n=9 built by the generating set is reused by both bases.
# Expected values: element count, SHA-256 of the elements one per line in
# compact notation (pinned from runs where both routes agreed), and the probe
# findings. 369 and 188 are published; 2520 = 8!/2^4 is the closed form;
# 3416 is computed, not published.
STRUCTURES = (
    ("generating_set_direct", (3, "td"), {}),
    ("generating_set_constructive", (3, "td"), {}),
    ("generating_set_direct", (4, "ptd"), {}),
    ("generating_set_constructive", (4, "ptd"), {}),
    ("basis", (4, "ptd"), {}),
    ("basis_via_poset_descent", (4, "ptd"), {}),
    ("basis", (3, "ptd"), {"probe_extra": True}),
)
_TD3 = (369, "a3beb57e300755815c77bdd7728bce68a076b28231ebdb3826b07537e5eeadfe")
_PTD4 = (math.factorial(8) // 2**4,
         "59e4f44821305f3fe46e9d5a3a5a43c97f3affd6f586bcc2667eebb047b0971c")
_BASIS_PTD4 = (3416, "650f576ef6b5ef2d7576352a1d90a1761525ea00b5d14e3284dfc90638a70d14")
_BASIS_PTD3 = (188, "21b7dc10a4dcf483400ff50be9190ad7e607e9abc1c31213429db00e516f8a2c")
STRUCTURE_EXPECTED = (
    (*_TD3, None),
    (*_TD3, None),
    (*_PTD4, None),
    (*_PTD4, None),
    (*_BASIS_PTD4, None),
    (*_BASIS_PTD4, None),
    (*_BASIS_PTD3, ()),
)

# --- cli-verify ----------------------------------------------------------------
#
# Command counts per run: 40 distance, 16 neighbors, 12 ball, 12
# count-irreducible, 10 genset, 8 basis, one verify and one expected budget
# refusal. Distances at n = 4..6 are random; at n = 8, 9 they come from the
# answer pool, from the strata below: bidirectional searches under 0.1 s.
# Queries that grow the n = 7 level table (0.2-0.5 s in a fresh process,
# depending on the distance) are left out, so that the commands around p90
# are the ordinary ones and the slow end is a fixed set (refusal, verify,
# the td k=2 basis probe, the td n=8 balls).
CLI_POOL_STRATA = (
    ("td", 8, 8, 4), ("td", 9, 8, 4), ("td", 9, 9, 4),
    ("ptd", 8, 8, 4), ("ptd", 8, 8, 5), ("ptd", 9, 9, 4), ("ptd", 9, 9, 5),
)
CLI_MIX = {"distance-small": 20, "distance-pool": 20, "neighbors": 16, "count-irreducible": 12}
#: (n, k) of the ``ball --count-only`` commands, run for both models.
CLI_BALLS = ((6, 2), (7, 2), (7, 3), (8, 1), (8, 2), (8, 3))
REFUSAL = ["ball", "--model", "td", "-n", "10", "-k", "3", "--max-states", "50000"]
VERIFY = ["verify", "-k", "3", "--max-n", "7"]
EXIT_OK, EXIT_VERIFY_FAILED, EXIT_BUDGET = 0, 1, 3


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``call`` names what to run: ("distance", p, model), ("pairwise", p, q,
    model), (function name, args, kwargs) or a CLI argv. ``expected`` is
    the answer when the harness knows it in advance; otherwise it is
    computed from the library after the timed part.
    """

    label: str
    call: tuple
    expected: Any = None
    repeat: bool = False


def load_answers() -> dict:
    return json.loads((HERE / "answers.json").read_text())


def _pool(answers: dict, model: str, n: int, d: int,
          length: int | None = None) -> list[tuple[int, ...]]:
    """Pool members of one stratum, optionally of one search length."""
    entries = answers["pool"][model][str(n)]
    perms = (permball.parse_perm(text) for text, dist in entries if dist == d)
    return [p for p in perms if length is None or search_length(model, p) == length]


def search_length(model: str, p: tuple[int, ...]) -> int:
    """Length the engine searches: the number of strips for td (lengths up
    to 7 pooled as 7), the full length for ptd."""
    if model == "ptd":
        return len(p)
    strips = 1 + sum(1 for a, b in zip(p, p[1:]) if b != a + 1)
    return max(strips, 7)


def _random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, n + 1), n))


def make_ops(workload: str, seed: int, answers: dict) -> list[Op]:
    if workload == "distance-stream":
        return _distance_ops(seed, answers)
    if workload == "structures":
        return [
            Op(f"{name}{args}", (name, args, kwargs), expected)
            for (name, args, kwargs), expected in zip(STRUCTURES, STRUCTURE_EXPECTED)
        ]
    if workload == "cli-verify":
        return _cli_ops(seed, answers)
    raise ValueError(f"unknown workload {workload!r}")


def _distance_ops(seed: int, answers: dict) -> list[Op]:
    rng = random.Random(seed)
    fresh = [
        (model, r, d)
        for (model, n, length, d), count in DISTANCE_MIX.items()
        for r in rng.sample(_pool(answers, model, n, d, length), count)
    ]
    fresh[1:] = rng.sample(fresh[1:], len(fresh) - 1)
    pairwise = set(rng.sample(range(len(fresh)), round(PAIRWISE_SHARE * len(fresh))))
    ops = []
    for i, (model, r, d) in enumerate(fresh):
        label = f"{model} n={len(r)} d={d}"
        if i in pairwise:
            # pairwise_distance(p, q) sorts p^-1 q; choosing q = p r makes
            # that the pool member r, whose distance is known.
            p = _random_perm(rng, len(r))
            q = tuple(p[x - 1] for x in r)
            ops.append(Op("pairwise " + label, ("pairwise", p, q, model), d))
        else:
            ops.append(Op("distance " + label, ("distance", r, model), d))
    stream = list(ops)
    for original in rng.sample(ops, REPEATS):
        after = next(j for j, op in enumerate(stream) if op is original) + 1
        stream.insert(rng.randint(after, len(stream)), replace(original, repeat=True))
    return stream


def _cli_ops(seed: int, answers: dict) -> list[Op]:
    """The command script. Lengths, models and radii follow a fixed pattern
    (the costly commands are the same in every run); the seed picks the
    permutations and the order."""
    rng = random.Random(seed)
    ops: list[Op] = []
    models = ("td", "ptd")
    for i in range(CLI_MIX["distance-small"]):
        p = _random_perm(rng, 4 + i % 3)
        call = ("distance", "--model", models[i % 2], permball.format_perm(p))
        ops.append(Op("distance", call))
    for i in range(CLI_MIX["distance-pool"]):
        m, n, length, d = CLI_POOL_STRATA[i % len(CLI_POOL_STRATA)]
        p = rng.choice(_pool(answers, m, n, d, length))
        call = ("distance", "--model", m, permball.format_perm(p))
        ops.append(Op("distance", call, (EXIT_OK, {"distance": d})))
    for i in range(CLI_MIX["neighbors"]):
        p = _random_perm(rng, 3 + i % 7)
        call = ("neighbors", "--model", models[i % 2], permball.format_perm(p), "--count-only")
        ops.append(Op("neighbors", call))
    for m in models:
        for n, k in CLI_BALLS:
            ops.append(Op("ball", ("ball", "--model", m, "-n", str(n), "-k", str(k),
                                   "--count-only")))
    for _ in range(CLI_MIX["count-irreducible"]):
        ops.append(Op("count-irreducible", ("count-irreducible", "-n", str(rng.randint(1, 12)))))
    for m, top in (("ptd", 3), ("td", 2)):
        for k in range(1, top + 1):
            for method in ("direct", "constructive"):
                ops.append(Op("genset", ("genset", "--model", m, "-k", str(k),
                                         "--method", method)))
    for m in models:
        for k in (1, 2):
            ops.append(Op("basis", ("basis", "--model", m, "-k", str(k))))
            ops.append(Op("basis", ("basis", "--model", m, "-k", str(k),
                                    "--probe-extra-length")))
    ops.append(Op("verify", tuple(VERIFY), (EXIT_OK, {"all_passed": True})))
    ops.append(Op("refusal", tuple(REFUSAL), (EXIT_BUDGET, None)))
    rng.shuffle(ops)
    return ops


# --- running -------------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    value: Any = None  # library result, or (exit code, payload)
    error: str | None = None
    compute_s: float | None = None  # CLI envelope elapsed_seconds


def _call_library(op: Op):
    kind = op.call[0]
    if kind == "distance":
        return permball.distance(op.call[1], op.call[2])
    if kind == "pairwise":
        return permball.pairwise_distance(*op.call[1:])
    name, args, kwargs = op.call
    return getattr(permball, name)(*args, **kwargs)


def _cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _run_cli(argv: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "permball.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout


def _replay_cli(argv: list[str]) -> tuple[int, str]:
    import permball.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = permball.cli.main(argv)
    return code, out.getvalue()


def run_ops(workload: str, ops: list[Op], replay: bool = False,
            on_request: Callable[[int], None] | None = None) -> list[Outcome]:
    """Run ``ops`` in order, timing each. CLI commands run as subprocesses,
    or in this process through ``permball.cli.main`` when ``replay``."""
    env = _cli_env()
    outcomes = []
    clock = time.perf_counter
    for index, op in enumerate(ops):
        if on_request is not None:
            on_request(index)
        argv = [*op.call, "--format", "json"] if workload == "cli-verify" else None
        start = clock()
        try:
            if argv is None:
                value = _call_library(op)
            elif replay:
                value = _replay_cli(argv)
            else:
                value = _run_cli(argv, env)
        except Exception as exc:  # recorded and counted as a failed operation
            outcomes.append(Outcome(clock() - start, error=repr(exc)))
            continue
        outcome = Outcome(clock() - start, value)
        if argv is not None and value[0] in (EXIT_OK, EXIT_VERIFY_FAILED):
            try:
                outcome.compute_s = json.loads(value[1])["elapsed_seconds"]
            except (ValueError, KeyError):
                pass
        outcomes.append(outcome)
    return outcomes


# --- checking --------------------------------------------------------------------


def digest(perms) -> str:
    return hashlib.sha256("\n".join(map(permball.format_perm, perms)).encode()).hexdigest()


def _cli_expected(argv: tuple) -> tuple[int, dict]:
    """Exit code and result fields the library gives for one CLI command."""
    command, args = argv[0], argv[1:]
    opt = lambda flag: args[args.index(flag) + 1]  # noqa: E731
    if command == "distance":
        p = permball.parse_perm(args[-1])
        return EXIT_OK, {"distance": permball.distance(p, opt("--model"))}
    if command == "neighbors":
        p = permball.parse_perm(args[2])
        return EXIT_OK, {"count": len(permball.neighbors(p, opt("--model")))}
    if command == "ball":
        found = permball.ball(int(opt("-n")), int(opt("-k")), opt("--model"))
        return EXIT_OK, {"count": len(found)}
    if command == "count-irreducible":
        n = int(opt("-n"))
        return EXIT_OK, {"count": permball.plus_irreducible_count(n - 1)}
    texts = lambda perms: [permball.format_perm(e) for e in perms]  # noqa: E731
    if command == "genset":
        report = permball.generating_set(int(opt("-k")), opt("--model"), opt("--method"))
        return EXIT_OK, {"count": len(report.elements), "elements": texts(report.elements)}
    if command == "basis":
        probe = "--probe-extra-length" in args
        report = permball.basis(int(opt("-k")), opt("--model"), probe_extra=probe)
        fields = {"count": len(report.elements), "elements": texts(report.elements)}
        if probe:
            fields["probe_found"] = texts(report.probe.elements)
        return EXIT_OK, fields
    raise ValueError(f"no expectation for {argv!r}")


def _corrupted(expected):
    """The expected value with its first number changed by one."""
    if isinstance(expected, int):
        return expected + 1
    head, *rest = expected
    return (_corrupted(head), *rest)


def check(workload: str, ops: list[Op], outcomes: list[Outcome],
          corrupt: bool = False) -> list[str]:
    """Compare every outcome with its expected value; return one line per
    mismatch. With ``corrupt`` the first expected value is deliberately
    wrong, a negative control that must produce a failure."""
    failures = []
    for index, (op, outcome) in enumerate(zip(ops, outcomes)):
        if outcome.error is not None:
            failures.append(f"{op.label}: raised {outcome.error}")
            continue
        expected = op.expected
        if workload == "cli-verify" and expected is None:
            expected = _cli_expected(op.call)
        if corrupt and index == 0:
            expected = _corrupted(expected)
        if workload == "distance-stream":
            ok = outcome.value == expected
        elif workload == "structures":
            ok = _structure_ok(outcome.value, expected)
        else:
            ok = _cli_ok(outcome.value, expected)
        if not ok:
            failures.append(f"{op.label} {op.call!r}: expected {expected!r}")
    return failures


def _structure_ok(report, expected) -> bool:
    count, sha256, probe = expected
    elements = report.elements
    ok = len(elements) == count and digest(elements) == sha256
    if probe is not None:
        ok = ok and report.probe is not None and report.probe.elements == probe
    return ok


def _cli_ok(value, expected) -> bool:
    code, stdout = value
    want_code, fields = expected
    if code != want_code:
        return False
    if fields is None:
        return stdout == ""
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError):
        return False
    return all(result.get(key) == want for key, want in fields.items())

