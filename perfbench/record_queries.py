"""Regenerate perfbench/queries.json: the pool of CLI requests the ``queries``
workload samples from, with the stdout each one produced when recorded.

The answers are the reference the benchmark checks against, so rerun this
only on a commit whose CLI output is known to be right, and say so in the
change that commits the new file:

    python3 perfbench/record_queries.py
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import QUERIES_FILE, call_cli  # noqa: E402

POOL_SEED = 2003
POOL_FACTOR = 4  # pool entries per request drawn, per stratum

# Requests drawn from each stratum per lap; 400 in all.  stats9 (al on
# length 9, about 100 ms each) is 25 of them, so the 95th percentile falls
# inside that one stratum and does not jump between strata from seed to seed.
MIX = {
    "stats5": 30, "stats6": 30, "stats7": 25, "stats8": 15, "stats9": 25,
    "decompose": 60,
    "contains": 75,
    "fit": 40,
    "growth-alpha": 25,
    "growth-recurrence": 25,
    "mu": 25,
    "basis": 25,
}


def perm_text(rng: random.Random, n: int) -> str:
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return ("" if n <= 9 else ",").join(map(str, vals))


def fit_request(rng: random.Random) -> list[str]:
    max_order = rng.randint(3, 5)
    n_terms = 2 * max_order + 2 + rng.randint(0, 4)
    if rng.random() < 0.25:
        # Not C-finite: Catalan, central binomial or factorial numbers.
        kind = rng.choice(("catalan", "binomial", "factorial"))
        seq, a = [], 1
        for n in range(1, n_terms + 1):
            if kind == "factorial":
                a *= n
                seq.append(a)
            else:
                b = 1
                for j in range(n):
                    b = b * (2 * n - j) // (j + 1)
                seq.append(b // (n + 1) if kind == "catalan" else b)
    else:
        order = rng.randint(1, 4)
        coeffs = [rng.randint(-2, 3) for _ in range(order - 1)] + [rng.choice((-1, 1, 2))]
        seq = [rng.randint(1, 5) for _ in range(order)]
        while len(seq) < n_terms:
            seq.append(sum(c * seq[-i] for i, c in enumerate(coeffs, 1)))
    return ["fit", "--seq", ",".join(map(str, seq)), "--max-order", str(max_order)]


def recurrence_request(rng: random.Random) -> list[str]:
    while True:
        coeffs = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        if sum(coeffs) >= 2:  # a positive root above 1 exists
            return ["growth", "--recurrence", ",".join(map(str, coeffs))]


def mu_request(rng: random.Random) -> list[str]:
    lo = rng.randrange(7, 62, 2)
    if rng.random() < 0.5:
        return ["mu", str(lo)]
    return ["mu", f"{lo}..{lo + 2 * rng.randint(1, 12)}"]


def make_request(stratum: str, rng: random.Random) -> list[str]:
    if stratum.startswith("stats"):
        return ["stats", perm_text(rng, int(stratum[5:]))]
    if stratum == "decompose":
        return ["decompose", perm_text(rng, rng.randint(8, 24)), "--k", str(rng.randint(2, 4))]
    if stratum == "contains":
        return ["contains", perm_text(rng, rng.randint(3, 6)), perm_text(rng, rng.randint(20, 60))]
    if stratum == "fit":
        return fit_request(rng)
    if stratum == "growth-alpha":
        return ["growth", "--alpha", str(rng.randint(2, 12)),
                "--tol", rng.choice(("1e-6", "1e-9", "1e-12"))]
    if stratum == "growth-recurrence":
        return recurrence_request(rng)
    if stratum == "mu":
        return mu_request(rng)
    if stratum == "basis":
        gens = [perm_text(rng, rng.randint(5, 6)) for _ in range(rng.randint(1, 2))]
        return ["basis", "--closure-of", ",".join(gens), "--max-len", str(rng.randint(5, 7))]
    raise ValueError(stratum)


def main() -> int:
    rng = random.Random(POOL_SEED)
    strata: dict[str, list[dict]] = {}
    for stratum, count in MIX.items():
        seen: set[tuple[str, ...]] = set()
        entries: list[dict] = []
        attempts = 0
        while len(entries) < POOL_FACTOR * count and attempts < 100 * count:
            attempts += 1
            argv = make_request(stratum, rng)
            if tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            code, out = call_cli(argv)
            if code != 0:
                print(f"skipped (exit {code}): {' '.join(argv)}", file=sys.stderr)
                continue
            entries.append({"argv": argv, "stdout": out})
        if len(entries) < count:
            raise SystemExit(f"stratum {stratum}: only {len(entries)} requests")
        strata[stratum] = entries
    pool = {"pool_seed": POOL_SEED, "mix": MIX, "strata": strata}
    with open(QUERIES_FILE, "w") as fh:
        json.dump(pool, fh, indent=0, sort_keys=False)
        fh.write("\n")
    print(f"wrote {sum(len(v) for v in strata.values())} requests to {QUERIES_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
