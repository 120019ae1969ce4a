from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, permutations
from typing import Iterator, Optional, Sequence

from hypothesis import strategies as st

from permclass import Perm
from permclass import perm as P
from permclass.antichain import PermGraph
from permclass.enumeration import (
    PAIR_BASIS,
    QUAD_BASIS,
    LinearRecurrence,
    StateVector,
    enumerate_avoiders,
)
from permclass.errors import EmptyInput, NeedMoreTerms
from permclass.perm import deletions, pattern_of, restriction


def perms(min_size=0, max_size=6):
    return st.permutations(range(1, max_size + 1)).flatmap(
        lambda vals: st.integers(min_size, max_size).map(
            lambda k: Perm(tuple(__rank(vals[:k])))
        )
    )


def __rank(seq):
    order = {v: r for r, v in enumerate(sorted(seq), 1)}
    return [order[v] for v in seq]


def perms_of(n):
    return st.permutations(range(1, n + 1)).map(lambda v: Perm(tuple(v)))


def all_perms(n: int) -> Iterator[Perm]:
    """All n! permutations of length n, in lexicographic order."""
    for vals in permutations(range(1, n + 1)):
        yield Perm(vals)


def _perms(text):
    return tuple(Perm.from_text(t) for t in text.split(","))


# Bases the fast enumeration and basis code is checked on against brute force.
ORACLE_BASES = {
    "none": (),
    "empty-perm": (Perm(()),),
    "1": _perms("1"),
    "12": _perms("12"),
    "123": _perms("123"),
    "132,4321": _perms("132,4321"),
    "pair": PAIR_BASIS,
    "quad": QUAD_BASIS,
    "2413,3142": _perms("2413,3142"),
    "25314": _perms("25314"),
    "21,123": _perms("21,123"),  # no avoider of length 3 or more
}


@lru_cache(maxsize=1 << 12)
def _shapes(host, k):
    """The argsorts of the length-k subsequences of host, from all index subsets."""
    ks = range(k)
    return {tuple(sorted(ks, key=s.__getitem__)) for s in combinations(host, k)}


def contains_oracle(pat, host):
    """Whether host contains pat: a subsequence is order-isomorphic to pat
    iff it has the same argsort.  Results are cached per host and length."""
    shape = tuple(sorted(range(len(pat)), key=pat.values.__getitem__))
    return shape in _shapes(host.values, len(pat))


@cache
def brute_avoiders(basis, n):
    """Length-n permutations avoiding every element of basis, from all n!."""
    return frozenset(
        q for q in all_perms(n) if not any(contains_oracle(b, q) for b in basis)
    )


def brute_contains_through_new_max(pat, q, pos):
    """Whether q with the new maximum len(q) + 1 inserted at index pos has an
    occurrence of pat that uses that index, from all index subsets."""
    child = q.values[:pos] + (len(q) + 1,) + q.values[pos:]
    return any(
        pos in idx and pattern_of(tuple(child[i] for i in idx)) == pat
        for idx in combinations(range(len(child)), len(pat))
    )


def brute_contains_through_two_new_maxima(pat, q, p, s):
    """Whether q with m = len(q) + 1 inserted at index p, and then m + 1 at
    index s of the result, has an occurrence of pat that uses both, from all
    index subsets."""
    m = len(q) + 1
    child = q.values[:p] + (m,) + q.values[p:]
    child = child[:s] + (m + 1,) + child[s:]
    both = {child.index(m), child.index(m + 1)}
    return any(
        both <= set(idx) and pattern_of(tuple(child[i] for i in idx)) == pat
        for idx in combinations(range(len(child)), len(pat))
    )


def plain_occurs_split(refs, hv: Sequence[int],
                       splits: Sequence[int] = (), sites: Sequence[int] = ()) -> bool:
    """Whether the host values hv have an occurrence of the pattern whose
    (lo_ref, hi_ref) from `perm._bounding_refs` are refs, cut into segments:
    with splits = (c_1, ..., c_r) and sites = (s_1, ..., s_r), both
    non-decreasing, the pattern entries at indices in [c_g, c_{g+1}) lie at
    host indices in [s_g, s_{g+1}), where c_0 = s_0 = 0, c_{r+1} is the
    pattern length and s_{r+1} = len(hv); no cuts means plain containment.

    The reference for `perm._search`, with the masks of `segment_masks`:
    a scan of one index at a time in each entry's window (its segment, less
    room for the segment's later entries), with chronological backtracking,
    where an entry that cannot be placed always moves entry j - 1 on."""
    lo_ref, hi_ref = refs
    k, n = len(lo_ref), len(hv)
    starts: list[int] = []
    stops: list[int] = []
    a = s = 0
    for b, t in zip((*splits, k), (*sites, n)):
        for j in range(a, b):
            starts.append(s)
            stops.append(t - b + j + 1)
        a, s = b, t
    chosen = [0] * k
    j = i = 0  # entry j is tried at host indices i, i + 1, ...
    while j < k:
        lo, hi = lo_ref[j], hi_ref[j]
        floor = 0 if lo is None else hv[chosen[lo]]
        ceiling = n + 1 if hi is None else hv[chosen[hi]]
        stop = stops[j]
        if i < starts[j]:
            i = starts[j]
        while i < stop and not floor < hv[i] < ceiling:
            i += 1
        if i < stop:  # entry j placed: go on to entry j + 1
            chosen[j] = i
            j += 1
            i += 1
        elif j == 0:
            return False
        else:  # entry j cannot be placed: move entry j - 1 on
            j -= 1
            i = chosen[j] + 1
    return True


def segment_masks(k: int, n: int, splits: Sequence[int] = (),
                  sites: Sequence[int] = ()) -> list[int]:
    """The masks for `perm._search` that hold a length-k pattern to the
    segments of a length-n host that `plain_occurs_split` takes as splits
    and sites: entry j in [c_g, c_{g+1}) gets the indices in [s_g, s_{g+1})."""
    masks: list[int] = []
    a = s = 0
    for b, t in zip((*splits, k), (*sites, n)):
        masks += [(1 << t) - (1 << s)] * (b - a)
        a, s = b, t
    return masks


def brute_search(pat, host, cand) -> bool:
    """Whether host has an occurrence of pat with entry j at an index in the
    bitmask cand[j], from all index subsets."""
    return any(
        all(cand[j] >> x & 1 for j, x in enumerate(idx))
        and pattern_of(tuple(host.values[x] for x in idx)) == pat
        for idx in combinations(range(len(host)), len(pat))
    )


def brute_active_sites(basis, vals):
    """The indices at which inserting len(vals) + 1 into the values vals
    gives a permutation avoiding every element of basis."""
    m = len(vals) + 1
    return tuple(
        s for s in range(m)
        if not any(
            contains_oracle(b, Perm(vals[:s] + (m,) + vals[s:])) for b in basis
        )
    )


def abcde_census(n: int) -> StateVector:
    """The state vector of the five-state machine at length n >= 2, read off
    the quadruple-basis avoiders of length n by their first one or two
    values (the n = 1 vector is the machine's SEED)."""
    assert n >= 2, "the census starts at n = 2"
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


def brute_minimal_non_members(level, max_len):
    """Minimal non-members of length <= max_len of the class whose length-n
    members are level(n), found by trying every permutation."""
    found, below = set(), frozenset()
    for n in range(max_len + 1):
        inside = level(n)
        found.update(
            q for q in all_perms(n) if q not in inside and deletions(q) <= below
        )
        below = inside
    return found


def alternating_perms(m: int) -> Iterator[Perm]:
    """All alternating permutations of length m (odd positions carry the top values)."""
    hi_count = (m + 1) // 2
    high = range(m - hi_count + 1, m + 1)
    low = range(1, m - hi_count + 1)
    for ho in permutations(high):
        for lo in permutations(low):
            vals = [0] * m
            vals[0::2] = ho
            vals[1::2] = lo
            yield Perm(tuple(vals))


def brute_al(p: Perm) -> int:
    """al by trying every alternating permutation, longest first, against p
    and its inverse."""
    if len(p) == 0:
        raise EmptyInput("al of the empty permutation")
    pinv = P.inverse(p)
    for m in range(len(p), 0, -1):
        for a in alternating_perms(m):
            if P.contains(a, p) or P.contains(a, pinv):
                return m
    raise AssertionError("unreachable: length 1 always matches")


def brute_block_lengths(q: Perm, direction: str) -> list[int]:
    """Up- or down-block lengths of q by the rank rule: an up-block ends at
    position i iff the first i values are 1..i (their maximum is i), a
    down-block iff they are n-i+1..n (their minimum is n - i + 1)."""
    n, lengths, start = len(q), [], 0
    for i in range(1, n + 1):
        head = q.values[:i]
        if (max(head) == i) if direction == "up" else (min(head) == n - i + 1):
            lengths.append(i - start)
            start = i
    return lengths


def brute_k_decomposition(q: Perm, k: int) -> list[tuple[int, int]]:
    """The greedy k-decomposition of q, growing each interval while the
    restriction to it has all up-blocks or all down-blocks shorter than k."""
    def small(sub):
        return any(max(brute_block_lengths(sub, d)) < k for d in ("up", "down"))

    parts, pos = [], 1
    while pos <= len(q):
        end = pos
        while end < len(q) and small(restriction(q, range(pos, end + 2))):
            end += 1
        parts.append((pos, end))
        pos = end + 1
    return parts


def brute_perm_graph(q: Perm) -> PermGraph:
    """The ascent graph of q, from all index pairs."""
    v = q.values
    edges = frozenset(
        (i + 1, j + 1)
        for i, j in combinations(range(len(v)), 2)
        if v[i] < v[j]
    )
    return PermGraph(len(v), edges)


def brute_is_tree(g) -> bool:
    """Whether the graph g is a tree: n - 1 edges and every vertex reached
    from vertex 1 by a search."""
    if g.n == 0 or len(g.edges) != g.n - 1:
        return False
    seen, stack = {1}, [1]
    while stack:
        v = stack.pop()
        for e in g.edges:
            if v in e:
                w = e[0] + e[1] - v
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == g.n


def brute_tree_isomorphic(a, b) -> bool:
    """Whether the trees a and b (at most 7 vertices) are isomorphic: some
    relabelling of a's vertices maps its edges onto b's."""
    if a.n != b.n:
        return False
    target = {frozenset(e) for e in b.edges}
    return any(
        {frozenset((sigma[x - 1], sigma[y - 1])) for x, y in a.edges} == target
        for sigma in permutations(range(1, a.n + 1))
    )


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


def gauss_fit_recurrence(
    seq: Sequence[int], max_order: int
) -> Optional[LinearRecurrence]:
    """`enumeration.fit_recurrence` by Gaussian elimination at each order
    from 1 to max_order in turn, the first consistent one winning."""
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
