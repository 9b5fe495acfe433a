"""Command-line front end.

Every subcommand emits the same envelope — command echo, model, parameters,
result payload, elapsed time — as human-readable text or as JSON
(``--format json``). The envelope holds each input once; the result holds only
what the command computed. Exit codes: 0 success, 1 verification failure,
2 usage or parse error, 3 budget refusal (for ``verify``, every check skipped).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from . import core, genset, models, verify
from .basis import basis as compute_basis
from .core import BudgetError
from .models import Model

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _non_negative(text: str) -> int:
    """argparse type of a count option: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--max-states",
        type=_non_negative,
        default=core.DEFAULT_MAX_STATES,
        help="cap on visited search states and enumerated permutations (default: "
        f"{core.DEFAULT_MAX_STATES}, the library's default too)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permball",
        description="Exact block- and prefix-transposition distances, balls, "
        "generating sets and bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="distance from a permutation to the identity")
    p.add_argument("--model", choices=("td", "ptd"), required=True)
    p.add_argument("perm")
    _common(p)

    p = sub.add_parser("neighbors", help="all permutations one operation away")
    p.add_argument("--model", choices=("td", "ptd"), required=True)
    p.add_argument("perm")
    p.add_argument("--count-only", action="store_true")
    _common(p)

    p = sub.add_parser("ball", help="all permutations within distance k of the identity")
    p.add_argument("--model", choices=("td", "ptd"), required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    _common(p)

    p = sub.add_parser("genset", help="generating set of the distance-k ball")
    p.add_argument("--model", choices=("td", "ptd"), required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--method", choices=("direct", "constructive"), default="direct")
    _common(p)

    p = sub.add_parser("basis", help="basis (minimal excluded permutations) of the ball")
    p.add_argument("--model", choices=("td", "ptd"), required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--probe-extra-length", action="store_true", dest="probe")
    _common(p)

    p = sub.add_parser("count-irreducible", help="number of plus-irreducible permutations")
    p.add_argument("-n", type=_non_negative, required=True, help="permutation length")
    _common(p)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--model", choices=("td", "ptd"), default=None,
                   help="restrict to one model (default: both)")
    p.add_argument("-k", type=_non_negative, default=2)
    p.add_argument("--max-n", type=_non_negative, default=6)
    p.add_argument("--golden", default=None, help="path to an alternative expected-values file")
    _common(p)

    return parser


def _listing(perms: tuple[core.Perm, ...], count_only: bool = False) -> dict[str, Any]:
    """The ``count`` of a result's permutations and, unless ``count_only``, their ``elements``."""
    listing: dict[str, Any] = {"count": len(perms)}
    if not count_only:
        listing["elements"] = [core.format_perm(q) for q in perms]
    return listing


def _run_command(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    """Execute one subcommand; return (result payload, exit code)."""
    max_states = args.max_states
    if hasattr(args, "perm"):
        p = core.parse_perm(args.perm)

    if args.command == "distance":
        # distance refuses a reduction longer than the packed code itself
        d = models.distance(p, args.model, max_states=max_states)
        return {"distance": d}, EXIT_OK

    if args.command == "neighbors":
        # neighbors has no length bound of its own
        if len(p) > models._PACK_MAX:
            raise BudgetError(f"length {len(p)} exceeds the supported length {models._PACK_MAX}")
        return _listing(models.neighbors(p, args.model), args.count_only), EXIT_OK

    if args.command == "ball":
        found = models.ball(args.n, args.k, args.model, max_states=max_states)
        return _listing(found, args.count_only), EXIT_OK

    if args.command == "genset":
        report = genset.generating_set(args.k, args.model, args.method, max_states=max_states)
        length = genset.element_length(args.k, args.model)
        return {"element_length": length, **_listing(report.elements)}, EXIT_OK

    if args.command == "basis":
        report = compute_basis(args.k, args.model, probe_extra=args.probe, max_states=max_states)
        result = {"length_bound": report.length_bound_used, **_listing(report.elements)}
        if report.probe is not None:
            result["probe_length"] = report.probe.length
            result["probe_found"] = [core.format_perm(q) for q in report.probe.elements]
        return result, EXIT_OK

    if args.command == "count-irreducible":
        core.check_budget(args.n * args.n, max_states)  # the recurrence's cost is about n^2
        count = 1 if args.n == 0 else core.plus_irreducible_count(args.n - 1)
        return {"count": count}, EXIT_OK

    if args.command == "verify":
        tags = [Model(args.model)] if args.model else [Model.BLOCK, Model.PREFIX]
        golden = verify.load_golden(args.golden)
        results = verify.run_verification(tags, args.k, args.max_n, golden, max_states)
        if all(r.status == "SKIPPED" for r in results):
            raise BudgetError(f"all {len(results)} checks were skipped, so nothing was checked")
        payload = {
            "checks": [
                {"name": r.name, "status": r.status, "detail": r.detail} for r in results
            ],
            "all_passed": all(r.status != "FAIL" for r in results),
        }
        code = EXIT_OK if payload["all_passed"] else EXIT_VERIFY_FAILED
        return payload, code

    raise ValueError(f"unknown command {args.command!r}")


def _format_text(envelope: dict[str, Any]) -> str:
    lines = [f"command: {envelope['command']}"]
    if envelope["model"] is not None:
        lines.append(f"model: {envelope['model']}")
    lines += [f"{key}: {value}" for key, value in envelope["parameters"].items()]
    result = envelope["result"]
    if "checks" in result:
        for check in result["checks"]:
            lines.append(f"{check['status']:<7}  {check['name']}  [{check['detail']}]")
        lines.append(f"all_passed: {result['all_passed']}")
    else:
        for key, value in result.items():
            if isinstance(value, list):
                lines.append(f"{key}:")
                lines += [f"  {item}" for item in value]
            else:
                lines.append(f"{key}: {value}")
    lines.append(f"elapsed_seconds: {envelope['elapsed_seconds']:.3f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # The envelope is rendered inside the try as well: rendering can fail too,
    # e.g. on an integer too long for str().
    try:
        result, code = _run_command(args)
        envelope = {
            "command": args.command,
            "model": getattr(args, "model", None),
            "parameters": {
                key: getattr(args, key)
                for key in ("k", "n", "method", "max_n", "perm")
                if hasattr(args, key)
            },
            "result": result,
            "elapsed_seconds": time.perf_counter() - started,
        }
        text = json.dumps(envelope, indent=2) if args.format == "json" else _format_text(envelope)
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
