"""Block decompositions of permutations and derived statistics.

A permutation splits uniquely into up-blocks (maximal summands under the
direct sum) and dually into down-blocks under the skew sum.  Both come from
one cut rule on raw values (`_cuts`), which compares entries and never ranks
them, so it applies unchanged to any slice of a permutation.  From the cuts
we get the maximal block sizes h+, h-, the greedy interval statistic s_k,
and the longest-alternating statistic al, which is computed in O(n^2) from
runs above and below each value threshold, without any containment test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from . import perm as P
from .errors import EmptyInput, UseSegStatUnbounded
from .perm import Perm

UNBOUNDED = math.inf  # s_1; compares above every integer


@dataclass(frozen=True)
class Decomposition:
    direction: str  # "up" | "down"
    blocks: tuple[Perm, ...]

    def rebuild(self) -> Perm:
        op = P.direct_sum if self.direction == "up" else P.skew_sum
        out = self.blocks[0]
        for b in self.blocks[1:]:
            out = op(out, b)
        return out


def _cuts(vals: Sequence[int], sign: int) -> list[int]:
    """0 and the end (exclusive) of each up-block of a sequence of distinct
    numbers, or of each down-block for sign = -1.

    An up-block ends after index i iff every entry up to i is below every
    entry after it: prefix max < suffix min.  Only order relations are used,
    and negating the values turns the down-block rule into this one.
    """
    s = [sign * v for v in vals]
    lows = list(accumulate(reversed(s), min))[::-1] + [math.inf]
    return [0] + [i for i, hi in enumerate(accumulate(s, max), 1) if hi < lows[i]]


def _longest_block(vals: Sequence[int], sign: int) -> int:
    cuts = _cuts(vals, sign)
    return max(b - a for a, b in zip(cuts, cuts[1:]))


def _small(vals: Sequence[int], k: int) -> bool:
    return _longest_block(vals, 1) < k or _longest_block(vals, -1) < k


def _nonempty(p: Perm, what: str) -> tuple[int, ...]:
    if len(p) == 0:
        raise EmptyInput(f"{what} of the empty permutation")
    return p.values


def _decomposition(p: Perm, direction: str, sign: int) -> Decomposition:
    vals = _nonempty(p, "decomposition")
    cuts = _cuts(vals, sign)
    blocks = (P.pattern_of(vals[a:b]) for a, b in zip(cuts, cuts[1:]))
    return Decomposition(direction, tuple(blocks))


def up_decomposition(p: Perm) -> Decomposition:
    return _decomposition(p, "up", 1)


def down_decomposition(p: Perm) -> Decomposition:
    return _decomposition(p, "down", -1)


def is_up_indecomposable(p: Perm) -> bool:
    return len(p) > 0 and len(_cuts(p.values, 1)) == 2


def is_down_indecomposable(p: Perm) -> bool:
    return len(p) > 0 and len(_cuts(p.values, -1)) == 2


def h_plus(p: Perm) -> int:
    """Maximum up-block length."""
    return _longest_block(_nonempty(p, "h+"), 1)


def h_minus(p: Perm) -> int:
    """Maximum down-block length."""
    return _longest_block(_nonempty(p, "h-"), -1)


def is_alternating(p: Perm) -> bool:
    """Every value at an odd position exceeds every value at an even position.

    Vacuously true when either side is empty (n <= 1).
    """
    odd = p.values[0::2]
    even = p.values[1::2]
    if not odd or not even:
        return True
    return min(odd) > max(even)


def al(p: Perm) -> int:
    """Maximum length of an alternating pattern of p or of its inverse.

    An alternating occurrence is exactly a subsequence whose entries alternate
    above and at-or-below some threshold t, starting above (for t take its
    largest even-position entry).  For a fixed t the longest one takes an entry
    from each run of the word [v > t for v in values] after its leading lows,
    so al is the largest such run count over t = 0..n-1, for p and its
    inverse: O(n^2), with no containment test.
    """
    if len(p) == 0:
        raise EmptyInput("al of the empty permutation")
    best = 0
    for values in (p.values, P.inverse(p).values):
        for t in range(len(values)):
            word = [False] + [v > t for v in values]  # leading lows start no run
            best = max(best, sum(a != b for a, b in zip(word, word[1:])))
    return best


def in_small_block_class(p: Perm, k: int) -> bool:
    """True iff all up-blocks or all down-blocks of p are shorter than k."""
    return _small(_nonempty(p, "block class test"), k)


def k_decomposition(p: Perm, k: int) -> list[tuple[int, int]]:
    """Greedy partition of [n] into maximal intervals whose restrictions have
    all up-blocks or all down-blocks shorter than k.  Intervals are returned
    as inclusive 1-based (start, end) pairs.  The cut rule reads each
    interval's raw slice of values, which has the blocks of its restriction.
    """
    if k < 2:
        raise UseSegStatUnbounded("k-decomposition needs k >= 2")
    vals = _nonempty(p, "k-decomposition")
    parts: list[tuple[int, int]] = []
    start = 0
    while start < len(vals):
        end = start + 1
        # membership is downward closed, so the first failure is final
        while end < len(vals) and _small(vals[start:end + 1], k):
            end += 1
        parts.append((start + 1, end))
        start = end
    return parts


def s_k(p: Perm, k: int):
    """Number of intervals of the k-decomposition; UNBOUNDED for k = 1."""
    _nonempty(p, "s_k")
    if k == 1:
        return UNBOUNDED
    return len(k_decomposition(p, k))
