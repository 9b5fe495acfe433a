"""Self-tests for the benchmark harness. Run from the repository root:

    python3 -m pytest bench/test_harness.py -q
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import permball  # noqa: E402
import permball.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def answers():
    return workloads.load_answers()


def test_metric_names_are_well_formed_and_declared():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in declared[section]} == table
        assert all(NAME.fullmatch(name) for name in table)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("model", ["td", "ptd"])
def test_oracle_agrees_with_the_package_on_small_lengths(model):
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            assert oracle.distance(p, model) == permball.distance(p, model), p


def test_answer_pool_spot_check(answers):
    # The cheapest member of every pool length; the full pool was checked
    # by both routes when make_answers.py wrote it.
    for model, by_n in answers["pool"].items():
        for entries in by_n.values():
            text, d = min(entries, key=lambda e: e[1])
            assert oracle.distance(permball.parse_perm(text), model) == d


def test_distance_strata_fit_the_pool(answers):
    for (model, n, length, d), count in workloads.DISTANCE_MIX.items():
        assert len(workloads._pool(answers, model, n, d, length)) > count


def _cheap(workload, ops):
    keep = {"distance-stream": lambda op: op.label.startswith("distance ptd n=8"),
            "cli-verify": lambda op: op.label in ("count-irreducible", "neighbors")}
    return [op for op in ops if keep[workload](op)][:4]


@pytest.mark.parametrize("workload", ["distance-stream", "cli-verify"])
def test_seed_changes_inputs_but_not_metric_names(workload, answers):
    names = []
    first, second = (workloads.make_ops(workload, seed, answers) for seed in (1, 2))
    assert first != second
    assert workloads.make_ops(workload, 1, answers) == first
    for ops in (first, second):
        ops = _cheap(workload, ops)
        outcomes = workloads.run_ops(workload, ops)
        assert workloads.check(workload, ops, outcomes) == []
        report = {"wall_s": sum(o.seconds for o in outcomes), "peak_rss_mb": 1.0,
                  "latencies_s": [o.seconds for o in outcomes], "attempted": len(ops)}
        values, samples, _ = run.end_to_end(report, [0.1])
        with spans.Tracer() as tracer:
            workloads.run_ops(workload, ops, replay=True)
        layers, _ = spans.layer_metrics(tracer, 1.0, set(), None)
        names.append((set(values), set(layers)))
    assert names[0] == names[1]
    assert names[0][0] == set(run.END_TO_END)
    assert names[0][1] | {"cli.startup_ms", "cli.compute_ms", "trace.overhead_ratio"} == set(
        run.PER_LAYER
    )


def test_negative_control_reports_a_failure(answers):
    ops = workloads.make_ops("distance-stream", 1, answers)
    faithful = [workloads.Outcome(0.0, op.expected) for op in ops]
    assert workloads.check("distance-stream", ops, faithful) == []
    assert len(workloads.check("distance-stream", ops, faithful, corrupt=True)) == 1

    ops = workloads.make_ops("structures", 1, None)[-1:]
    outcomes = workloads.run_ops("structures", ops)
    assert workloads.check("structures", ops, outcomes) == []
    assert len(workloads.check("structures", ops, outcomes, corrupt=True)) == 1

    ops = _cheap("cli-verify", workloads.make_ops("cli-verify", 1, answers))
    outcomes = workloads.run_ops("cli-verify", ops)
    assert workloads.check("cli-verify", ops, outcomes) == []
    assert len(workloads.check("cli-verify", ops, outcomes, corrupt=True)) == 1


def test_tracer_patches_aliases_and_accounts_for_every_nanosecond():
    original = permball.cli.compute_basis
    with spans.Tracer() as tracer:
        assert permball.cli.compute_basis is not original
        assert sys.modules["permball.basis"].basis is permball.cli.compute_basis
        assert permball.cli.main(["basis", "--model", "td", "-k", "1", "--format", "json"]) == 0
    assert permball.cli.compute_basis is original
    rows = list(tracer.rows())
    names = {row[2] for row in rows}
    assert {"cli.main", "basis.basis", "models.ball", "core.one_point_deletions"} <= names
    (top,) = [row for row in rows if row[1] == 0]
    assert top[2] == "cli.main"
    assert sum(row[6] for row in rows) == top[5] - top[4]
    assert all(row[6] >= 0 for row in rows)
