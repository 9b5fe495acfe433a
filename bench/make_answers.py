"""Regenerate ``answers.json``: the pool of permutations the distance-stream
workload draws its queries from, with their exact distances.

Each entry is checked twice, by ``permball.distance`` and by the independent
search in ``oracle.py``, and the script stops if they disagree. Run it from
the repository root; it takes several minutes:

    python3 bench/make_answers.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import permball  # noqa: E402

POOL_SEED = 20180807
DRAWS = {8: 160, 9: 160, 10: 120}
#: Queries whose bidirectional search visits more states than this are the
#: deepest ones (td n=10 at distance 6, ptd n=10 at distance 7, td n=9 at
#: distance 5); only the first DEEP_KEEP of them per length and model are
#: solved and kept, the rest are counted as drawn and dropped.
DEEP_STATES = 400_000
DEEP_KEEP = 6


def main() -> None:
    rng = random.Random(POOL_SEED)
    pool: dict[str, dict[str, list]] = {}
    drawn: dict[str, dict[str, dict[str, int]]] = {}
    for model in ("td", "ptd"):
        pool[model], drawn[model] = {}, {}
        for n, draws in DRAWS.items():
            entries, seen, freq, deep = [], set(), Counter(), 0
            started = time.perf_counter()
            while len(seen) < draws:
                p = tuple(rng.sample(range(1, n + 1), n))
                if p in seen:
                    continue
                seen.add(p)
                try:
                    d = permball.distance(p, model, max_states=DEEP_STATES)
                except permball.BudgetError:
                    deep += 1
                    if deep > DEEP_KEEP:
                        freq["deep"] += 1
                        continue
                    d = permball.distance(p, model)
                expected = oracle.distance(p, model)
                if d != expected:
                    sys.exit(f"disagreement on {p} ({model}): engine {d}, oracle {expected}")
                freq[str(d)] += 1
                entries.append([permball.format_perm(p), d])
            pool[model][str(n)] = entries
            drawn[model][str(n)] = dict(sorted(freq.items()))
            print(f"{model} n={n}: {dict(sorted(freq.items()))} "
                  f"in {time.perf_counter() - started:.1f}s", flush=True)
    out = {
        "about": "random permutations with exact distances, cross-checked by "
        "permball.distance and bench/oracle.py; regenerate with make_answers.py",
        "pool_seed": POOL_SEED,
        "drawn_by_distance": drawn,
        "pool": pool,
    }
    (HERE / "answers.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
