"""Exact enumeration of avoidance classes and C-finite sequence machinery.

Counting is done with Python's arbitrary-precision integers throughout.  One
engine, `avoider_levels`, walks the generating tree of an avoidance class:
level n >= 1 is made of the one-point extensions (insert the new maximum n)
of level n - 1, which is sound because avoidance classes are downward
closed; level 0 is {()} unless () is in the basis.  A level is a list of
value tuples, each with its active sites (where the next maximum can go).
A child's sites are found among its parent's, each tested by `perm._search`,
the search `contains` runs, on the parent: the two new maxima are pinned,
and each other entry is held to one segment of the parent by its mask; so
a level's size is the number of active sites one level down,
`count_avoiders` never builds its last level, and `Perm`s are made only for
the level `enumerate_avoiders` returns.
Downward closures are not built here: `antichain` fills them in by one-point
deletion.
The five-state insertion machine is hard-wired to the quadruple
basis {123, 3214, 2143, 15432}; the tests check it against a census of the
generic enumerator's avoiders.
Everything here takes and returns numbers: reading sequences from text is
the CLI's job.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import perm as P
from .errors import NeedMoreTerms
from .perm import Perm

QUAD_BASIS = tuple(Perm.from_text(t) for t in ("123", "3214", "2143", "15432"))
TRIPLE_BASIS = QUAD_BASIS[:3]
PAIR_BASIS = QUAD_BASIS[:2]


_Level = list[tuple[tuple[int, ...], tuple[int, ...]]]


def avoider_levels(basis: Iterable[Perm]) -> Iterator[_Level]:
    """The avoiders of the basis B, one list per length 0, 1, 2, ... without
    end.  Each avoider sigma of length n comes as (values, sites): its active
    sites are the indices s in 0..n at which inserting n + 1 gives an
    avoider, in increasing order.

    Level n + 1 is made of the children sigma' = sigma with m = n + 1
    inserted at p, for p an active site of sigma (lists suffice, because
    one-point extensions never repeat).  The sites of sigma' follow in three
    steps.

    1. Inheritance.  Deleting m from sigma' with m + 1 inserted at s leaves
       sigma with its new maximum at s (if s <= p) or s - 1 (if s > p), and
       avoidance classes are downward closed.  So the only candidates are
       sigma's active sites q, with q < p kept as q, q > p shifted to q + 1,
       and p split into p and p + 1.
    2. Both maxima pinned.  Let tau be sigma' with m + 1 at a candidate
       whose site in sigma is q.  Deleting m + 1 from tau leaves sigma', and
       deleting m leaves sigma with its maximum at q: both avoid B.  So an
       occurrence in tau of b in B uses m + 1 and m, which then play b's
       largest and second largest entries, in the same order (m + 1 comes
       first for the candidates from q <= p, second for those from q >= p).
       Such an occurrence exists iff sigma has one of b without its two
       largest entries, cut into three segments where those entries go: at
       indices before min(q, p), from there to max(q, p), and from there on.
       `perm._search` finds it on sigma itself, with each entry's mask the
       indices of its segment; tau is not built for it, and sigma's
       `_below_masks` are made once for all its children.
    3. Counting.  Level n + 1 has one member per active site of level n, so
       its size is known before it is built.

    Level 0 is [()] with site 0, unless B holds () (every level is empty)
    or 1 (() has no site); basis elements that short never come up in
    step 2.
    """
    left, right = [], []  # b's maximum before / after its second maximum
    short = set()
    for b in basis:
        if len(b) < 2:
            short.add(len(b))
            continue
        top = b.values.index(len(b))
        second = b.values.index(len(b) - 1)
        rest = tuple(v for v in b.values if v < len(b) - 1)
        # the segment (0, 1 or 2, as in step 2) of each entry of rest
        cuts = (min(top, second), max(top, second) - 1)
        segs = tuple((j >= cuts[0]) + (j >= cuts[1]) for j in range(len(rest)))
        (left if top < second else right).append((P._bounding_refs(rest), segs))
    level: _Level = [] if 0 in short else [((), () if 1 in short else (0,))]
    yield level

    search = P._search

    def active(vals, lt, sites, p):
        out = []
        for q in sites:
            lo, hi = (q, p) if q <= p else (p, q)
            cut = (1 << lo) - 1  # masks[g]: the indices of segment g
            masks = (cut, (1 << hi) - 1 - cut, lt[-1] >> hi << hi)
            if q <= p:
                for refs, segs in left:
                    if search(refs, vals, lt, [masks[g] for g in segs]):
                        break
                else:
                    out.append(q)
            if q >= p:
                for refs, segs in right:
                    if search(refs, vals, lt, [masks[g] for g in segs]):
                        break
                else:
                    out.append(q + 1)
        return tuple(out)

    for m in count(1):
        level = [
            (vals[:p] + (m,) + vals[p:], active(vals, lt, sites, p))
            for vals, sites in level
            for lt in [P._below_masks(vals)]  # once per parent
            for p in sites
        ]
        yield level


def enumerate_avoiders(basis: Iterable[Perm], n: int) -> set[Perm]:
    """All length-n permutations avoiding every basis element (empty for
    n < 0): the children of level n - 1 at their active sites."""
    if n < 0:
        return set()
    if n == 0:
        return {Perm(vals) for vals, _ in next(avoider_levels(basis))}
    level = next(islice(avoider_levels(basis), n - 1, None))
    return {Perm(vals[:p] + (n,) + vals[p:]) for vals, sites in level for p in sites}


def count_avoiders(basis: Iterable[Perm], max_n: int) -> list[int]:
    """|S_n(basis)| for n = 1..max_n (index 0 holds n = 1; empty for
    max_n < 1), each summed over the active sites of the level below, so
    level max_n is never built."""
    levels = zip(range(max_n), avoider_levels(basis))
    return [sum(len(sites) for _, sites in level) for _, level in levels]


class StateVector(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    e: int

    def total(self) -> int:
        return sum(self)


SEED = StateVector(0, 0, 0, 0, 1)  # n = 1 convention


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


def fit_recurrence(
    seq: Sequence[int], max_order: int
) -> Optional[LinearRecurrence]:
    """Minimal-order constant-coefficient recurrence consistent with every
    provided term, or None if no order up to max_order fits.

    Requires at least 2*max_order + 2 terms so every candidate order is
    checked against at least two more equations than it has unknowns.

    One Berlekamp-Massey pass (Massey, Shift-register synthesis and BCH
    decoding, 1969) over the N terms keeps the shortest recurrence C(x) =
    1 - c_1 x - ... - c_L x^L that makes every term read so far, where a
    length-L recurrence makes u_n for n = L + 1..N and c_L may be 0.  L is
    the linear complexity of the terms read; it never decreases, so the
    pass gives up as soon as L > max_order.  An order-d fit is a length-d
    recurrence (pad with zero coefficients), so the least order is
    d = max(L, 1); the all-zero sequence has L = 0 and fits order 1 with
    coefficient 0.

    The order-L fit (L >= 1) is unique when N >= 2L, and the term count
    gives N >= 2*max_order + 2 > 2L.
    Massey's Theorem 1: if a length-l recurrence makes u_1..u_n but not
    u_{n+1}, every recurrence that makes u_1..u_{n+1} has length at least
    n + 1 - l.  Let C and C' both have length L and make u_1..u_N, and
    extend the terms forever by C.  If C' first failed at some u_{n+1},
    n >= N, the theorem would bound C's length below by n + 1 - L > L.  So
    C and C' make the same infinite sequence.  If they differed, C - C'
    divided by its lowest term a x^k (k >= 1) would be a recurrence of
    length L - k < L that makes it, against the minimality of L.  So the
    order-L linear equations in c_1..c_L have exactly one solution.
    """
    n_terms = len(seq)
    if n_terms < 2 * max_order + 2:
        raise NeedMoreTerms(
            f"need >= {2 * max_order + 2} terms for max order {max_order}, "
            f"got {n_terms}"
        )
    # conn is C(x) from the constant term up; prev is C(x) as it was before
    # the last change of L, when its discrepancy was prev_disc, shift steps
    # ago.  Neither has more than L + 1 coefficients.
    conn, prev, prev_disc, shift, length = [Fraction(1)], [Fraction(1)], 1, 1, 0
    for n in range(n_terms):
        disc = sum(c * seq[n - i] for i, c in enumerate(conn))
        if disc:
            new = conn + [Fraction(0)] * (len(prev) + shift - len(conn))
            scale = disc / prev_disc
            for i, b in enumerate(prev, shift):
                new[i] -= scale * b
            if 2 * length <= n:
                length, prev, prev_disc, shift = n + 1 - length, conn, disc, 0
                if length > max_order:
                    return None
            conn = new
        shift += 1
    order = max(length, 1)
    if order > max_order:
        return None
    conn += [Fraction(0)] * (order + 1 - len(conn))
    return LinearRecurrence(tuple(-c for c in conn[1:]), tuple(seq[:order]))


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
