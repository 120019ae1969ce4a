"""Block decompositions of permutations and derived statistics.

A permutation splits uniquely into up-blocks (maximal summands under the
direct sum) and dually into down-blocks under the skew sum.  From these we
get the maximal block sizes h+, h-, the greedy interval statistic s_k, and
the longest-alternating statistic al, which is computed in O(n^2) from runs
above and below each value threshold, without any containment test.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import perm as P
from .errors import EmptyInput, UseSegStatUnbounded
from .perm import Perm


class Unbounded:
    """Singleton marker for an unbounded statistic (s_1)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unbounded"


UNBOUNDED = Unbounded()


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


def up_blocks(p: Perm) -> list[Perm]:
    blocks: list[Perm] = []
    start, mx = 0, 0
    for i, v in enumerate(p.values, 1):
        mx = max(mx, v)
        if mx == i:
            blocks.append(P.pattern_of(p.values[start:i]))
            start = i
    return blocks


def down_blocks(p: Perm) -> list[Perm]:
    n = len(p)
    blocks: list[Perm] = []
    start, mn = 0, n + 1
    for i, v in enumerate(p.values, 1):
        mn = min(mn, v)
        if mn == n - i + 1:
            blocks.append(P.pattern_of(p.values[start:i]))
            start = i
    return blocks


def up_decomposition(p: Perm) -> Decomposition:
    if len(p) == 0:
        raise EmptyInput("decomposition of the empty permutation")
    return Decomposition("up", tuple(up_blocks(p)))


def down_decomposition(p: Perm) -> Decomposition:
    if len(p) == 0:
        raise EmptyInput("decomposition of the empty permutation")
    return Decomposition("down", tuple(down_blocks(p)))


def is_up_indecomposable(p: Perm) -> bool:
    return len(p) > 0 and len(up_blocks(p)) == 1


def is_down_indecomposable(p: Perm) -> bool:
    return len(p) > 0 and len(down_blocks(p)) == 1


def h_plus(p: Perm) -> int:
    """Maximum up-block length."""
    if len(p) == 0:
        raise EmptyInput("h+ of the empty permutation")
    return max(len(b) for b in up_blocks(p))


def h_minus(p: Perm) -> int:
    """Maximum down-block length."""
    if len(p) == 0:
        raise EmptyInput("h- of the empty permutation")
    return max(len(b) for b in down_blocks(p))


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
    return h_plus(p) < k or h_minus(p) < k


def k_decomposition(p: Perm, k: int) -> list[tuple[int, int]]:
    """Greedy partition of [n] into maximal intervals whose restrictions have
    all up-blocks or all down-blocks shorter than k.  Intervals are returned
    as inclusive 1-based (start, end) pairs.
    """
    if k < 2:
        raise UseSegStatUnbounded("k-decomposition needs k >= 2")
    if len(p) == 0:
        raise EmptyInput("k-decomposition of the empty permutation")
    n = len(p)
    parts: list[tuple[int, int]] = []
    pos = 1
    while pos <= n:
        end = pos
        # membership is downward closed, so the first failure is final
        while end + 1 <= n and in_small_block_class(
            P.restriction(p, range(pos, end + 2)), k
        ):
            end += 1
        parts.append((pos, end))
        pos = end + 1
    return parts


def s_k(p: Perm, k: int):
    """Number of intervals of the k-decomposition; Unbounded for k = 1."""
    if len(p) == 0:
        raise EmptyInput("s_k of the empty permutation")
    if k == 1:
        return UNBOUNDED
    return len(k_decomposition(p, k))

