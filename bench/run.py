"""Run one permball benchmark workload and print its metrics.

    python3 bench/run.py --workload distance-stream --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, so nothing needs installing. Each run starts fresh worker
processes, one at a time, so engine caches start cold as they do for a
user's script or shell command:

* ``--trace 0`` starts twenty set-up-only processes (interpreter start,
  ``import permball``, input generation) and one that also runs the timed
  part, and prints the end-to-end metrics.
* ``--trace 1`` runs the workload untraced, then again under the span
  tracer of ``spans.py``, and prints the per-layer metrics. ``cli-verify``
  is traced by replaying its commands in-process through
  ``permball.cli.main``; an untraced replay gives that workload's overhead
  base.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
carries the provenance. The same record, with every check failure, is
written to ``.bench_out/`` at the repository root; traced runs also write
their spans there. ``--negative-control`` corrupts one expected value, so
the run must report a failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("distance-stream", "structures", "cli-verify")
SETUP_PROCESSES = 20
#: Every worker of one run must have ended by then.
DEADLINE_S = 170

#: name -> unit. Every workload reports all of them. Operation latency
#: percentiles are printed and stored with the provenance but are not among
#: them: on a shared 2-vCPU VM their spread across runs (a quarter to a third
#: of the median) exceeds any bound a regression gate could use.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}

_COUNT, _S, _MS, _RATIO = "count", "s", "ms", "ratio"
#: name -> unit, in the order the per-layer report prints them.
PER_LAYER = {
    "models.distance.calls": _COUNT,
    "models.distance.self_s": _S,
    "models.distance.fresh_p50_ms": _MS,
    "models.distance.repeat_p50_ms": _MS,
    "models.pairwise_distance.self_s": _S,
    "models.ball.calls": _COUNT,
    "models.ball.self_s": _S,
    "models.ball.states": _COUNT,
    "models.ball.states_per_s": "1/s",
    "models.ball.children_computed": _COUNT,
    "core.enumerate_plus_irreducible.self_s": _S,
    "core.one_point_deletions.calls": _COUNT,
    "core.one_point_deletions.self_s": _S,
    "core.contains_pattern.calls": _COUNT,
    "core.contains_pattern.self_s": _S,
    "core.reduce.calls": _COUNT,
    "core.reduce.self_s": _S,
    "genset.generating_set_direct.self_s": _S,
    "genset.generating_set_constructive.self_s": _S,
    "genset.mi_union_member.self_s": _S,
    "genset.constructive.attempts": _COUNT,
    "genset.constructive.useful_ratio": _RATIO,
    "basis.basis.self_s": _S,
    "basis.basis_via_poset_descent.self_s": _S,
    "basis.candidates": _COUNT,
    "basis.useful_ratio": _RATIO,
    "verify.run_verification.self_s": _S,
    "verify.checks": _COUNT,
    "cli.startup_ms": _MS,
    "cli.compute_ms": _MS,
    "cli.refusal_ms": _MS,
    "core.self_s": _S,
    "models.self_s": _S,
    "genset.self_s": _S,
    "basis.self_s": _S,
    "verify.self_s": _S,
    "cli.self_s": _S,
    "trace.wall_s": _S,
    "trace.unspanned_s": _S,
    "trace.spans": _COUNT,
    "trace.overhead_ratio": _RATIO,
}


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="nominal run length; each workload is a fixed amount of "
                        "work sized to about this long, recorded in the provenance")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="corrupt one expected value; the run must report a failure")
    parser.add_argument("--role", choices=("setup", "work", "replay", "traced"),
                        help=argparse.SUPPRESS)
    return parser.parse_args()


# --- worker processes ----------------------------------------------------------


def worker(args: argparse.Namespace) -> None:
    """Set up, say "ready", then (unless only timing set-up) run, check and
    print one JSON report."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # imports permball: part of the set-up being timed

    traced = args.role == "traced"
    replay = args.role == "replay" or (traced and args.workload == "cli-verify")
    if traced or replay:
        import permball.cli  # noqa: F401  (the tracer patches every layer)
    answers = workloads.load_answers() if args.workload != "structures" else None
    ops = workloads.make_ops(args.workload, args.seed, answers)
    print("ready", flush=True)
    if args.role == "setup":
        return

    tracer = None
    on_request = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        on_request = lambda index: setattr(tracer, "request", index + 1)  # noqa: E731
        tracer.install()
    started = time.perf_counter()
    outcomes = workloads.run_ops(args.workload, ops, replay=replay, on_request=on_request)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    children = args.workload == "cli-verify" and not replay
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    failures = workloads.check(args.workload, ops, outcomes, corrupt=args.negative_control)
    report = {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "labels": [op.label for op in ops],
        "latencies_s": [o.seconds for o in outcomes],
        "cli_compute_s": [o.compute_s for o in outcomes],
        "attempted": len(ops),
        "failures": failures,
    }
    if tracer is not None:
        from spans import layer_metrics

        repeats = {i + 1 for i, op in enumerate(ops) if op.repeat}
        refusal = next((i + 1 for i, op in enumerate(ops) if op.label == "refusal"), None)
        report["layers"], report["layer_samples"] = layer_metrics(tracer, wall, repeats, refusal)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    print(json.dumps(report))


def spawn(role: str, args: argparse.Namespace, deadline: float) -> tuple[float, dict | None]:
    """Start one worker and wait for it, killing it at ``deadline`` (a
    ``time.perf_counter`` value). Returns the seconds from starting the
    process to its "ready" line, and its report."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.negative_control:
        cmd.append("--negative-control")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{role} worker failed with exit code {proc.returncode}")
    return ready, (json.loads(rest.strip().splitlines()[-1]) if role != "setup" else None)


# --- metrics -------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest of p99, p95, p90 with at least ten samples beyond it
    (nearest rank), or the maximum when there are too few samples."""
    ordered = sorted(values)
    for pct in (99, 95, 90):
        rank = math.ceil(pct * len(ordered) / 100)
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 100, ordered[-1]


def end_to_end(report: dict, setups: list[float]) -> tuple[dict, dict, dict]:
    """Returns (values, sample counts, latency notes)."""
    latencies = report["latencies_s"]
    pct, tail = tail_percentile(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": report["wall_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "ops_per_s": report["attempted"] / report["wall_s"],
    }
    samples = {"setup_s": len(setups), "wall_s": 1, "peak_rss_mb": 1,
               "ops_per_s": len(latencies)}
    latency = {"op_p50_ms": statistics.median(latencies) * 1e3, f"op_p{pct}_ms": tail * 1e3,
               "op_samples": len(latencies)}
    return values, samples, {"latency": latency}


def cli_split_ms(report: dict) -> tuple[list[float], list[float]]:
    """Per CLI command with a JSON envelope: (start-up, compute) in ms, where
    compute is the envelope's elapsed_seconds and start-up the rest of the
    subprocess wall time."""
    pairs = [(wall, compute) for wall, compute in
             zip(report["latencies_s"], report["cli_compute_s"]) if compute is not None]
    return [(w - c) * 1e3 for w, c in pairs], [c * 1e3 for _, c in pairs]


def per_layer(base: dict, baseline_wall: float, traced: dict,
              workload: str) -> tuple[dict, dict]:
    values = dict(traced["layers"])
    samples = dict(traced["layer_samples"])
    startup, compute = cli_split_ms(base) if workload == "cli-verify" else ([], [])
    values["cli.startup_ms"] = statistics.median(startup) if startup else 0.0
    values["cli.compute_ms"] = statistics.median(compute) if compute else 0.0
    samples["cli.startup_ms"] = samples["cli.compute_ms"] = len(startup)
    values["trace.overhead_ratio"] = traced["wall_s"] / baseline_wall
    return values, samples


# --- provenance ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, samples: dict, notes: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "metric_samples": samples,
        **notes,
    }


# --- main ----------------------------------------------------------------------


def supervise(args: argparse.Namespace) -> int:
    if not (SRC / "permball" / "__init__.py").is_file():
        print(f"error: no permball package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    reports = []
    if args.trace == 0:
        setups = [spawn("setup", args, deadline)[0] for _ in range(SETUP_PROCESSES)]
        ready, report = spawn("work", args, deadline)
        reports.append(report)
        values, samples, notes = end_to_end(report, [*setups, ready])
        units = END_TO_END
    else:
        _, base = spawn("work", args, deadline)
        reports.append(base)
        baseline_wall = base["wall_s"]
        if args.workload == "cli-verify":
            _, replay = spawn("replay", args, deadline)
            reports.append(replay)
            baseline_wall = replay["wall_s"]
        _, traced = spawn("traced", args, deadline)
        reports.append(traced)
        values, samples = per_layer(base, baseline_wall, traced, args.workload)
        notes = {}
        units = PER_LAYER
    attempted = sum(r["attempted"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    notes["failed_ratio"] = len(failures) / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = provenance(args, samples, notes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<42} {values[name]:>14.6g} {unit:<6} (samples: {samples.get(name, 1)})")
    for name, value in notes.get("latency", {}).items():
        print(f"  {name:<42} {value:>14.6g}        (not gated)")
    print(f"  {'failed_ratio':<42} {notes['failed_ratio']:>14.6g}        "
          f"({len(failures)} of {attempted})")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    operations = [list(pair) for pair in zip(reports[-1]["labels"], reports[-1]["latencies_s"])]
    (OUT / name).write_text(json.dumps({**result, "provenance": record, "failures": failures,
                                        "operations_s": operations}, indent=1) + "\n")
    print("provenance " + json.dumps(record))
    print(json.dumps(result))
    return 0


def main() -> int:
    args = parse_args()
    if args.role is not None:
        worker(args)
        return 0
    return supervise(args)


if __name__ == "__main__":
    sys.exit(main())
