"""The four benchmark workloads and the checks on their answers.

Each workload reaches the library through module objects (``EN.count_avoiders``
and so on), never through the ``permclass`` package re-exports, so that a
tracer that patches module attributes sees the benchmark's calls.

A pass is one unit of work that is timed.  For the three batch workloads the
pass is the pipeline and counts as one request; for ``queries`` it is one lap
over the request stream and each CLI call is a request.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import permclass.antichain as AC
import permclass.cli as CLI
import permclass.enumeration as EN
import permclass.growth as GR
import permclass.perm as P

HERE = Path(__file__).resolve().parent
QUERIES_FILE = HERE / "queries.json"

QUAD_COUNTS = [1, 2, 5, 12, 28, 65, 152, 355, 829, 1936, 4521, 10558]
QUAD_FIT = (1, 2, 2, 1, 1)
CATALAN_COUNTS = [comb(2 * n, n) // (n + 1) for n in range(1, 12)]
# sha256 of the sorted basis of the closure of mu(15) up to length 11, one
# permutation per line, as computed at the commit that added this benchmark.
MU15_BASIS_SIZE = 165
MU15_BASIS_SHA256 = "ef36ba615e0518739423f99c9bff8dc293ac1bfeb65ee9e6b85b0c53734374c7"


class Ops:
    """Runs checked operations; an exception or a failed check counts as one
    failed operation.  Each operation gets a request id for the tracer, and
    its start and end times are kept for the pacer (see pacer.py)."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.spans: list[tuple[float, float]] = []

    def run(self, label: str, fn: Callable, check: Callable[[object], bool]):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request_id = self.attempted
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # a crash is a failed operation, not a crash of the run
            self.spans.append((t0, time.perf_counter()))
            self._fail(label, repr(exc))
            return None
        self.spans.append((t0, time.perf_counter()))
        try:
            ok = check(value)
        except Exception as exc:  # a check that cannot run is a mismatch
            ok = False
            value = exc
        if not ok:
            self._fail(label, f"unexpected answer {value!r:.200}")
        return value

    def _fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {detail}")


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"warm-up gave a wrong answer: {what}")


def perms_digest(perms) -> str:
    lines = sorted((len(p), p.values) for p in perms)
    text = "\n".join(",".join(map(str, v)) for _, v in lines)
    return hashlib.sha256(text.encode()).hexdigest()


def _horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _root_ok(poly, est) -> bool:
    """The bracket rounds to 2.33529 and the polynomial changes sign on it."""
    lo, hi = est.bracket
    inside = Fraction(2335285, 10 ** 6) <= lo <= hi < Fraction(2335295, 10 ** 6)
    s_lo, s_hi = _horner(poly.coeffs, lo), _horner(poly.coeffs, hi)
    return inside and (s_lo == 0 or s_hi == 0 or (s_lo < 0) != (s_hi < 0))


class CountQuad:
    """The paper's headline pipeline: count, state machine, fit, growth."""

    request_is_pass = True

    def setup(self, seed: int) -> None:
        self.n = len(QUAD_COUNTS)

    def warm_up(self) -> None:
        _expect(EN.count_avoiders(EN.QUAD_BASIS, 9) == QUAD_COUNTS[:9], "counts")
        poly = GR.char_poly(EN.fit_recurrence(QUAD_COUNTS, 5))
        _expect(_root_ok(poly, GR.dominant_root(poly)), "growth")

    def run_pass(self, ops: Ops) -> None:
        counts = ops.run("count_avoiders(QUAD_BASIS, 12)",
                         lambda: EN.count_avoiders(EN.QUAD_BASIS, self.n),
                         lambda c: c == QUAD_COUNTS)
        ops.run("abcde_counts(12)", lambda: EN.abcde_counts(self.n),
                lambda c: c == QUAD_COUNTS)
        rec = ops.run("fit_recurrence(counts, 5)",
                      lambda: EN.fit_recurrence(counts, 5),
                      lambda r: r is not None and r.coeffs == QUAD_FIT)
        poly = ops.run("char_poly", lambda: GR.char_poly(rec),
                       lambda p: p.coeffs == (1, -1, -2, -2, -1, -1))
        ops.run("dominant_root", lambda: GR.dominant_root(poly),
                lambda est: _root_ok(poly, est))


class CountCatalan:
    """One pattern, growth rate 4: the enumeration layer under a wide level.

    fit_recurrence runs at order 4, the largest order that 11 terms allow
    (it needs 2 * order + 2 terms)."""

    request_is_pass = True

    def setup(self, seed: int) -> None:
        self.basis = [P.Perm.from_text("123")]

    def warm_up(self) -> None:
        _expect(EN.count_avoiders(self.basis, 8) == CATALAN_COUNTS[:8], "counts")

    def run_pass(self, ops: Ops) -> None:
        counts = ops.run("count_avoiders([123], 11)",
                         lambda: EN.count_avoiders(self.basis, 11),
                         lambda c: c == CATALAN_COUNTS)
        ops.run("fit_recurrence(catalan, 4)",
                lambda: EN.fit_recurrence(counts, 4), lambda r: r is None)


class Antichain:
    """Long patterns against long hosts, tree certificates, basis search."""

    request_is_pass = True

    def setup(self, seed: int) -> None:
        self.antichain_indices = range(7, 72, 2)
        self.certificate_indices = range(7, 202, 2)

    def warm_up(self) -> None:
        perms = list(AC.SHORT_BASIS) + [AC.mu(i) for i in range(7, 30, 2)]
        _expect(AC.is_antichain(perms) == (True, None), "antichain")
        _expect(all(AC.tree_isomorphic(AC.perm_graph(AC.mu(i)), AC.double_fork(i))
                    for i in range(7, 50, 2)), "certificates")
        _expect(len(AC.basis_up_to(AC.ClosureOf((AC.mu(11),)), 8)) > 0, "basis")
        _expect(AC.basis_up_to(AC.AvoidanceBasis(EN.QUAD_BASIS), 6) == set(EN.QUAD_BASIS),
                "quad basis")

    def run_pass(self, ops: Ops) -> None:
        perms = list(AC.SHORT_BASIS) + [AC.mu(i) for i in self.antichain_indices]
        ops.run("is_antichain(SHORT_BASIS + mu(7..71))",
                lambda: AC.is_antichain(perms), lambda v: v == (True, None))
        for i in self.certificate_indices:
            ops.run(f"certificate mu({i})",
                    lambda i=i: AC.tree_isomorphic(AC.perm_graph(AC.mu(i)),
                                                   AC.double_fork(i)),
                    lambda ok: ok is True)
        ops.run("basis_up_to(ClosureOf(mu(15)), 11)",
                lambda: AC.basis_up_to(AC.ClosureOf((AC.mu(15),)), 11),
                lambda b: len(b) == MU15_BASIS_SIZE
                and perms_digest(b) == MU15_BASIS_SHA256)
        ops.run("basis_up_to(AvoidanceBasis(QUAD_BASIS), 8)",
                lambda: AC.basis_up_to(AC.AvoidanceBasis(EN.QUAD_BASIS), 8),
                lambda b: b == set(EN.QUAD_BASIS))


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI request; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = CLI.main(list(argv))
    return code, out.getvalue()


def load_pool() -> dict:
    with open(QUERIES_FILE) as fh:
        return json.load(fh)


def sample_stream(pool: dict, seed: int) -> list[dict]:
    """The seed's request stream: a fixed number of requests per stratum,
    drawn from the recorded pool, in a seeded order."""
    rng = random.Random(seed)
    stream: list[dict] = []
    for stratum, count in pool["mix"].items():
        stream.extend(rng.sample(pool["strata"][stratum], count))
    rng.shuffle(stream)
    return stream


class Queries:
    """A closed loop with one client: CLI requests sent in-process, the next
    only after the previous one returns."""

    request_is_pass = False

    def setup(self, seed: int) -> None:
        pool = load_pool()
        self.stream = sample_stream(pool, seed)
        # Warm-up requests do not depend on the seed: the first of each stratum.
        self.warm = [entries[0] for entries in pool["strata"].values()]

    def warm_up(self) -> None:
        for req in self.warm:
            _expect(call_cli(req["argv"]) == (0, req["stdout"]), " ".join(req["argv"]))

    def run_pass(self, ops: Ops) -> None:
        for req in self.stream:
            ops.run(" ".join(req["argv"]), lambda req=req: call_cli(req["argv"]),
                    lambda got, req=req: got == (0, req["stdout"]))


WORKLOADS = {
    "count-quad": CountQuad,
    "count-catalan": CountCatalan,
    "antichain": Antichain,
    "queries": Queries,
}
