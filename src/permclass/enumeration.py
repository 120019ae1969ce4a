"""Exact enumeration of avoidance classes and C-finite sequence machinery.

Counting is done with Python's arbitrary-precision integers throughout.  One
engine, `avoider_levels`, builds level n >= 1 of an avoidance class from the
one-point extensions (insert the new maximum n) of level n - 1, which is sound
because avoidance classes are downward closed; level 0 is {()} unless () is in
the basis.  A level is a list of value tuples.  Its parents avoid the basis,
so a child can only contain a basis element b through n, with b's maximum
at the insertion position; that pinned search runs before the child is
built, and `Perm`s are made only for the level `enumerate_avoiders` returns.
Downward closures are not built here: `antichain` fills them in by one-point
deletion.
The five-state insertion machine is hard-wired to the quadruple
basis {123, 3214, 2143, 15432} and is cross-validated against the generic
enumerator in the tests.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import perm as P
from .errors import InvalidSequence, NeedMoreTerms, UseSeedVector
from .perm import Perm

QUAD_BASIS = tuple(Perm.from_text(t) for t in ("123", "3214", "2143", "15432"))
TRIPLE_BASIS = QUAD_BASIS[:3]
PAIR_BASIS = QUAD_BASIS[:2]


def avoider_levels(basis: Iterable[Perm]) -> Iterator[list[tuple[int, ...]]]:
    """The avoiders of the basis, as lists of value tuples, one list per
    length 0, 1, 2, ... without end.

    A child of an avoider contains b only through its new maximum m, which
    must then play b's maximum: so it is pruned iff the parent has an
    occurrence of b minus its maximum with the entries left of that maximum
    at indices < pos and the rest at indices >= pos (pos being where m goes).
    Lists suffice because one-point extensions never repeat.
    """
    level: list[tuple[int, ...]] = [()]
    pins = []
    for b in basis:
        if not b:  # every permutation contains ()
            level = []
            continue
        top = b.values.index(len(b))
        rest = b.values[:top] + b.values[top + 1:]
        pins.append((P._bounding_refs(rest), top))
    yield level
    for m in count(1):
        level = [
            vals[:pos] + (m,) + vals[pos:]
            for vals in level
            for pos in range(m)
            if not any(P._occurs_split(refs, vals, top, pos) for refs, top in pins)
        ]
        yield level


def enumerate_avoiders(basis: Iterable[Perm], n: int) -> set[Perm]:
    """All length-n permutations avoiding every basis element (empty for
    n < 0)."""
    if n < 0:
        return set()
    return {Perm(vals) for vals in next(islice(avoider_levels(basis), n, None))}


def count_avoiders(basis: Iterable[Perm], max_n: int) -> list[int]:
    """|S_n(basis)| for n = 1..max_n (index 0 holds n = 1; empty for
    max_n < 1)."""
    levels = islice(avoider_levels(basis), 1, None)
    return [len(level) for _, level in zip(range(max_n), levels)]


class StateVector(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    e: int

    def total(self) -> int:
        return sum(self)


SEED = StateVector(0, 0, 0, 0, 1)  # n = 1 convention


def abcde_census(n: int) -> StateVector:
    """Classify the quadruple-basis avoiders of length n by their first one
    or two values (n >= 2; the n = 1 seed is the SEED constant)."""
    if n < 2:
        raise UseSeedVector("census defined for n >= 2; use SEED for n = 1")
    counts = [0, 0, 0, 0, 0]
    for p in enumerate_avoiders(QUAD_BASIS, n):
        first = p[0]
        if first == n - 1:
            counts[0] += 1
        elif first == n - 2:
            counts[1] += 1
        elif first <= n - 3:
            counts[2] += 1
        elif p[1] >= n - 3:
            counts[3] += 1
        else:
            counts[4] += 1
    return StateVector(*counts)


def abcde_step(v: StateVector) -> StateVector:
    """One insertion step of the five-state machine (the transfer matrix at
    x = 1)."""
    a, b, c, d, e = v
    return StateVector(2 * d + e, a, b, a + b + d + e, c)


def abcde_counts(max_n: int) -> list[int]:
    """Totals of the evolved state vector for n = 1..max_n."""
    v = SEED
    out = [v.total()]
    for _ in range(1, max_n):
        v = abcde_step(v)
        out.append(v.total())
    return out[:max_n]


@dataclass(frozen=True)
class LinearRecurrence:
    """u_n = c_1 u_{n-1} + ... + c_d u_{n-d} with given initial terms
    u_1..u_d."""

    coeffs: tuple[Fraction, ...]
    initial: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)


def _as_int(x: Fraction):
    return int(x) if x.denominator == 1 else x


def eval_recurrence(r: LinearRecurrence, max_n: int) -> list:
    """Terms u_1..u_max_n, exact; integer-valued terms come back as ints."""
    vals = [Fraction(u) for u in r.initial[:max_n]]
    while len(vals) < max_n:
        vals.append(
            sum(c * vals[-i] for i, c in enumerate(r.coeffs, 1))
        )
    return [_as_int(v) for v in vals]


def _solve_consistent(
    rows: list[list[Fraction]],
) -> Optional[list[Fraction]]:
    """Gaussian elimination on an augmented system; returns a particular
    solution (free variables zero) or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0]) - 1
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(mat)):
        if mat[i][-1] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        sol[col] = mat[i][-1]
    return sol


def fit_recurrence(
    seq: Sequence[int], max_order: int
) -> Optional[LinearRecurrence]:
    """Minimal-order constant-coefficient recurrence consistent with every
    provided term, or None if no order up to max_order fits.

    Requires at least 2*max_order + 2 terms so every candidate order is
    checked against at least two more equations than it has unknowns.
    """
    n_terms = len(seq)
    if n_terms < 2 * max_order + 2:
        raise NeedMoreTerms(
            f"need >= {2 * max_order + 2} terms for max order {max_order}, "
            f"got {n_terms}"
        )
    for d in range(1, max_order + 1):
        rows = [
            [Fraction(seq[n - 1 - i]) for i in range(1, d + 1)]
            + [Fraction(seq[n - 1])]
            for n in range(d + 1, n_terms + 1)
        ]
        sol = _solve_consistent(rows)
        if sol is not None:
            return LinearRecurrence(tuple(sol), tuple(seq[:d]))
    return None


@dataclass(frozen=True)
class RationalGF:
    """numerator / denominator as coefficient tuples in ascending degree;
    the denominator has nonzero constant term."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def series(self, n_terms: int) -> list[int]:
        """Power-series coefficients of x^1..x^n_terms."""
        num = list(self.numerator) + [0] * (
            max(0, n_terms + 1 - len(self.numerator))
        )
        den = self.denominator
        out: list[Fraction] = []
        for k in range(n_terms + 1):
            acc = Fraction(num[k])
            for i in range(1, min(k, len(den) - 1) + 1):
                acc -= den[i] * out[k - i]
            out.append(acc / den[0])
        return [_as_int(v) for v in out[1:]]


def gf_from_recurrence(r: LinearRecurrence) -> RationalGF:
    """Generating function sum_{n>=1} u_n x^n of the recurrence's sequence."""
    d = r.order
    den_frac = [Fraction(1)] + [-c for c in r.coeffs]
    scale = math.lcm(*(c.denominator for c in den_frac))
    den = [int(c * scale) for c in den_frac]
    u = [0] + list(r.initial)  # u[0] = 0: series starts at x^1
    num = []
    for j in range(d + 1):
        num.append(sum(den[i] * u[j - i] for i in range(min(j, d) + 1)))
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return RationalGF(tuple(num), tuple(den))


def to_bfile_lines(seq: Sequence[int]) -> list[str]:
    """OEIS b-file style lines, 1-indexed."""
    return [f"{n} {v}" for n, v in enumerate(seq, 1)]


def parse_sequence_text(text: str) -> list[int]:
    """Read a sequence from b-file lines, a JSON array, or comma/whitespace
    separated integers."""
    s = text.strip()
    if not s:
        raise InvalidSequence("empty sequence input")
    if s.startswith("["):
        try:
            vals = json.loads(s)
        except (ValueError, RecursionError) as exc:
            raise InvalidSequence(f"bad JSON sequence: {exc}") from None
        if any(type(v) is not int for v in vals):  # rejects floats and bools
            raise InvalidSequence(f"JSON sequence entries must be integers: {s!r}")
        return vals
    try:
        lines = [ln for ln in s.splitlines() if ln.strip() and not ln.startswith("#")]
        if all(len(ln.split()) == 2 for ln in lines) and len(lines) > 1:
            pairs = [(int(a), int(b)) for a, b in (ln.split() for ln in lines)]
            if [a for a, _ in pairs] == list(range(pairs[0][0], pairs[0][0] + len(pairs))):
                return [b for _, b in pairs]
        fields = s.split(",")
        if len(fields) > 1 and not all(f.strip() for f in fields):
            raise ValueError(f"empty comma-separated field in {s!r}")
        return [int(t) for f in fields for t in f.split()]
    except ValueError as exc:
        raise InvalidSequence(f"not an integer sequence: {exc}") from None
