"""Finite permutations in one-line notation and the basic operators on them.

A permutation of length n is a bijection of [n] = {1, ..., n}, stored as the
tuple (p(1), ..., p(n)).  The empty permutation (n = 0) is a valid value.
All values are immutable; every function here is pure.

Text format: a plain digit string for n <= 9 ("2143"), comma-separated values
otherwise ("8,11,10,6,9,4,7,1,5,3,2").  str() emits the same convention.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import or_
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInflation, InvalidPointSet, InvalidSequence


@dataclass(frozen=True)
class Perm:
    values: tuple[int, ...] = ()

    def __post_init__(self):
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise InvalidSequence(f"not a permutation of 1..{n}: {self.values}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __str__(self) -> str:
        if len(self) <= 9:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)

    def __lt__(self, other: "Perm") -> bool:
        return (len(self), self.values) < (len(other), other.values)

    @cached_property
    def _host_masks(self) -> tuple[list[int], list[list[int]]]:
        """The `contains` data of self as a host, made on first use: its
        `_below_masks` lt, and for each quadrant q and count t, rows[q][t],
        the bitmask of the indices whose q-th `_quadrants` count is >= t."""
        lt = _below_masks(self.values)
        a, b, c, d = ([0] * len(self) for _ in range(4))  # by quadrant, then count
        for x, (e, f, g, h) in enumerate(_quadrants(self.values, lt)):
            bit = 1 << x
            a[e] |= bit
            b[f] |= bit
            c[g] |= bit
            d[h] |= bit
        # suffix unions: a[t] becomes the indices whose first count is >= t, ...
        return lt, [list(accumulate(row[::-1], or_))[::-1] for row in (a, b, c, d)]

    @cached_property
    def _pattern_data(self) -> tuple[list[tuple[int, int, int, int]], _Refs]:
        """The `contains` data of self as a pattern, made on first use: its
        `_quadrants` and its `_bounding_refs`."""
        return _quadrants(self.values, _below_masks(self.values)), _bounding_refs(self.values)

    @classmethod
    def from_text(cls, text: str) -> "Perm":
        s = text.strip()
        if s == "":
            return cls(())
        # int() alone would also take a sign or '_' digit groups, and
        # isdigit() also passes '²', which int() rejects
        fields = [t.strip() for t in s.split(",")] if "," in s else list(s)
        if not all(t.isdecimal() for t in fields):
            raise InvalidSequence(f"bad permutation text: {text!r}")
        return cls(tuple(int(t) for t in fields))


EMPTY = Perm(())


def identity(n: int) -> Perm:
    return Perm(tuple(range(1, n + 1)))


def decreasing(n: int) -> Perm:
    return Perm(tuple(range(n, 0, -1)))


def pattern_of(seq: Sequence[int]) -> Perm:
    """The unique permutation order-isomorphic to a sequence of distinct ints."""
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        raise InvalidSequence(f"entries not distinct: {seq}")
    rank = {v: r for r, v in enumerate(sorted(seq), 1)}
    return Perm(tuple(rank[v] for v in seq))


def restriction(p: Perm, indices: Iterable[int]) -> Perm:
    """Pattern of p at the given 1-based positions."""
    idx = sorted(set(indices))
    if idx and (idx[0] < 1 or idx[-1] > len(p)):
        raise InvalidPointSet(f"positions out of range 1..{len(p)}: {idx}")
    return pattern_of(tuple(p.values[i - 1] for i in idx))


def _delete(vals: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The values of a permutation with the entry at 0-based index i dropped
    and every value above it lowered by one."""
    x = vals[i]
    return tuple([v if v < x else v - 1 for v in vals if v != x])


def delete(p: Perm, i: int) -> Perm:
    """Pattern of p with the point at 1-based position i removed."""
    if not 1 <= i <= len(p):
        raise InvalidPointSet(f"position out of range: {i}")
    return Perm(_delete(p.values, i - 1))


def deletions(p: Perm) -> set[Perm]:
    """All distinct one-point-deletion patterns of p."""
    return {Perm(_delete(p.values, i)) for i in range(len(p))}


_Refs = tuple[list[int | None], list[int | None], list[int]]


def _bounding_refs(pv: Sequence[int]) -> _Refs:
    """For each index j of the pattern values pv, the earlier index whose
    value is the nearest below pv[j], and the one nearest above (None if
    there is none); and the backjump target of j: the largest index t < j
    that bounds some entry in this way (-1 if there is none)."""
    k = len(pv)
    lo_ref: list[int | None] = [None] * k
    hi_ref: list[int | None] = [None] * k
    for j in range(k):
        for i in range(j):
            if pv[i] < pv[j] and (lo_ref[j] is None or pv[i] > pv[lo_ref[j]]):
                lo_ref[j] = i
            if pv[i] > pv[j] and (hi_ref[j] is None or pv[i] < pv[hi_ref[j]]):
                hi_ref[j] = i
    bounding = set(lo_ref) | set(hi_ref)
    back, t = [], -1
    for j in range(k):
        back.append(t)
        if j in bounding:
            t = j
    return lo_ref, hi_ref, back


def _search(refs: _Refs, hv: Sequence[int], lt: Sequence[int],
            cand: Sequence[int]) -> bool:
    """True iff the host values hv (a permutation of 1..len(hv)) have an
    occurrence of the pattern whose `_bounding_refs` are refs, with entry j
    at a host index in the bitmask cand[j].  lt is the host's
    `_below_masks`.  `contains` passes the indices that pass its quadrant
    filter; the enumeration engine passes each entry the segment of the
    parent it must lie in.

    Depth-first search over host indices, kept on an explicit stack
    (`chosen`).  Each candidate value must lie strictly between the
    already-matched values that tightest-bound the pattern value from below
    and above, which prunes hard on long hosts.  Host indices are sets of
    bits: lt[c] holds those whose value is below c, so the admissible
    indices for entry j, from index i on, are one mask, and its lowest bit
    is the next placement.

    When entry j cannot be placed, the search backjumps to entry back[j],
    the nearest earlier entry that bounds some entry, instead of moving
    entry j - 1 on.  This loses no occurrence, for any fixed masks.  The
    entries j, j + 1, ... can be placed only through their start index (one
    past the index of entry j - 1), the masks cand[j], cand[j + 1], ...,
    and the values of the earlier entries that bound them.  If entry j - 1
    bounds no entry, moving it right changes only the start index, and a
    larger start index leaves a subset of the placements, so entry j fails
    again.  So no placement of entry j - 1 leads to an occurrence, and the
    same argument, with entry j - 1 in place of entry j, passes over each
    entry down to back[j].  With back[j] = -1 no placement of entry 0 leads
    anywhere.
    """
    lo_ref, hi_ref, back = refs
    k, n = len(lo_ref), len(hv)
    chosen = [0] * k
    j = i = 0  # entry j is tried at host indices i, i + 1, ...
    while j < k:
        lo, hi = lo_ref[j], hi_ref[j]
        floor = 0 if lo is None else hv[chosen[lo]]
        ceiling = n + 1 if hi is None else hv[chosen[hi]]
        fits = ((lt[ceiling] ^ lt[floor + 1]) & cand[j]) >> i
        if fits:  # entry j placed at its lowest fitting index
            i += (fits & -fits).bit_length() - 1
            chosen[j] = i
            j += 1
            i += 1
        else:  # entry j cannot be placed: move entry back[j] on
            j = back[j]
            if j < 0:
                return False
            i = chosen[j] + 1
    return True


def _below_masks(vals: Sequence[int]) -> list[int]:
    """lt[c] for c = 0, ..., n + 1: the bitmask of the indices of the
    permutation values vals (of 1..n) whose value is below c."""
    bits = [0] * (len(vals) + 1)  # bits[v]: the index of value v, as a bit
    for x, v in enumerate(vals):
        bits[v] = 1 << x
    return [0, *accumulate(bits, or_)]


def _quadrants(vals: Sequence[int], lt: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """For each index x of the permutation values vals, with lt their
    `_below_masks`, the numbers of entries earlier and below, earlier and
    above, later and below, and later and above entry x."""
    n = len(vals)
    out = []
    for x, w in enumerate(vals):
        eb = (lt[w] & ((1 << x) - 1)).bit_count()
        out.append((eb, x - eb, w - 1 - eb, n - w - x + eb))
    return out


def contains(pat: Perm, host: Perm) -> bool:
    """True iff host has a subsequence order-isomorphic to pat.

    `_search` with entry j allowed only the indices in cand[j]: those whose
    quadrant counts (earlier/later entries, below/above in value) are each
    at least entry j's.  That loses no occurrence (the quadrant lemma): an
    occurrence sends the entries before and below entry j one-to-one to
    entries before and below the image of j, and likewise in the other
    three quadrants.  If some cand[j] is empty, there is no occurrence.

    Only the pairing is made per call: the k mask ANDs that give cand, and
    the search.  What depends on one operand alone is made once per `Perm`
    and kept on it.  The host half, `Perm._host_masks`, holds lt and the
    host's quadrant masks: for each quadrant and count t, the indices whose
    count there is at least t.  The pattern half, `Perm._pattern_data`,
    holds the pattern's quadrant counts and its `_bounding_refs`.  Keeping
    them is sound because a `Perm`'s values never change, and ==, hash and
    repr read only the values.  Nothing is shared between equal `Perm`s;
    the data lives as long as the `Perm` it belongs to.
    """
    if len(pat.values) > len(host.values):
        return False
    lt, (a, b, c, d) = host._host_masks
    quads, refs = pat._pattern_data
    cand = [a[e] & b[f] & c[g] & d[h] for e, f, g, h in quads]
    return all(cand) and _search(refs, host.values, lt, cand)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p.values, 1):
        out[v - 1] = i
    return Perm(tuple(out))


def reverse(p: Perm) -> Perm:
    return Perm(p.values[::-1])


def complement(p: Perm) -> Perm:
    n = len(p)
    return Perm(tuple(n + 1 - v for v in p.values))


def direct_sum(s: Perm, t: Perm) -> Perm:
    n = len(s)
    return Perm(s.values + tuple(n + v for v in t.values))


def skew_sum(s: Perm, t: Perm) -> Perm:
    m = len(t)
    return Perm(tuple(m + v for v in s.values) + t.values)


def inflate(skeleton: Perm, parts: Sequence[Perm]) -> Perm:
    """Replace the i-th point of the skeleton by a block patterned on parts[i].

    Block i occupies consecutive positions; its values are offset by the total
    size of the blocks whose skeleton value is smaller.
    """
    m = len(skeleton)
    if len(parts) != m:
        raise InvalidInflation(f"expected {m} parts, got {len(parts)}")
    if any(len(t) == 0 for t in parts):
        raise InvalidInflation("inflation parts must be nonempty")
    sizes = [len(t) for t in parts]
    offset = [0] * m
    for i in range(m):
        offset[i] = sum(sizes[j] for j in range(m) if skeleton[j] < skeleton[i])
    out: list[int] = []
    for i, t in enumerate(parts):
        out.extend(offset[i] + v for v in t.values)
    return Perm(tuple(out))
