"""The mu family of pairwise-incomparable permutations, its graph
certificates, and finite class/basis computations.

mu(i) (odd i >= 7) is built so that its ascent graph is a double fork: a path
with one pendant hung on the second and one on the penultimate path vertex.
The certificate checks only that each mu(i)'s ascent graph is isomorphic to
the double fork on i vertices; that double forks of distinct sizes do not
embed in one another is not checked here.  Incomparability itself is
verified by the direct pairwise containment check.  Both graphs are
`PermGraph` values.  Members of an avoidance class come from the
enumeration engine, `enumeration.avoider_levels`.  A downward closure is held
as sets of value tuples by length, filled in by one-point deletion
(`perm._delete`); `Perm`s are made only for the sets handed back to callers.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from . import enumeration as EN
from . import perm as P
from .errors import InvalidIndex, NotATree
from .perm import Perm


@dataclass(frozen=True)
class PermGraph:
    """Ascent graph: vertex i is the point (i, p(i)); i-j is an edge iff the
    two points form an ascent."""

    n: int
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class AvoidanceBasis:
    perms: tuple[Perm, ...]


@dataclass(frozen=True)
class ClosureOf:
    perms: tuple[Perm, ...]


ClassSpec = AvoidanceBasis | ClosureOf

SHORT_BASIS = EN.QUAD_BASIS


def mu(i: int) -> Perm:
    """Member of the infinite antichain, indexed by its length (odd, >= 7)."""
    if i < 7 or i % 2 == 0:
        raise InvalidIndex(f"index must be odd and >= 7, got {i}")
    k = (i - 5) // 2
    vals = [2 * k + 2, 2 * k + 5, 2 * k + 4]
    for j in range(k, 1, -1):
        vals.extend((2 * j, 2 * j + 3))
    vals.extend((1, 5, 3, 2))
    return Perm(tuple(vals))


def perm_graph(p: Perm) -> PermGraph:
    """The ascent graph of p, in O(n log n + edges): visit the indices in
    increasing order of value; the ascents ending at index j are then the
    pairs (i, j) with i an index already seen and i < j."""
    v = p.values
    seen: list[int] = []  # sorted
    edges: list[tuple[int, int]] = []
    for j in sorted(range(len(v)), key=v.__getitem__):
        edges.extend((i + 1, j + 1) for i in seen[:bisect_left(seen, j)])
        insort(seen, j)
    return PermGraph(len(v), frozenset(edges))


def double_fork(i: int) -> PermGraph:
    """Path on i-2 vertices with pendants at the second and penultimate
    path vertices; i vertices total."""
    if i < 6:
        raise InvalidIndex(f"double fork needs >= 6 vertices, got {i}")
    path_len = i - 2
    edges = {(j, j + 1) for j in range(1, path_len)}
    edges.add((2, path_len + 1))
    edges.add((path_len - 1, path_len + 2))
    return PermGraph(i, frozenset(edges))


def tree_canonical(g: PermGraph) -> str:
    """Canonical form of an unlabeled tree, found by peeling leaves layer by
    layer; raises NotATree if g is not a tree.  With n - 1 edges, g is a
    tree iff it has no cycle, and a cycle's vertices never become leaves, so
    the peel runs out of leaves with more than 2 vertices left.

    A vertex's code is "(" + the sorted codes of its neighbours peeled
    before it + ")".  A vertex is peeled only after all its neighbours but
    one, so its code is then final: the rooted code of the subtree hanging
    from it away from the center(s).  The form is the sorted codes of the
    one or two centers left at the end; two centers split the tree at their
    edge into halves, so equal forms mean isomorphic trees.  Codes are
    strings, not nested tuples, so comparing deep ones needs no recursion.
    """
    not_a_tree = NotATree(f"not a tree: {g.n} vertices, {len(g.edges)} edges")
    if g.n == 0 or len(g.edges) != g.n - 1:
        raise not_a_tree
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for a, b in g.edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    degree = {v: len(adj[v]) for v in adj}
    below: dict[int, list[str]] = {v: [] for v in adj}
    leaves = deque(v for v, d in degree.items() if d <= 1)
    remaining = g.n
    while remaining > 2 and leaves:
        layer = len(leaves)
        remaining -= layer
        for _ in range(layer):
            v = leaves.popleft()
            degree[v] = 0
            code = "(" + "".join(sorted(below[v])) + ")"
            for w in adj[v]:
                if degree[w] > 0:
                    below[w].append(code)
                    degree[w] -= 1
                    if degree[w] == 1:
                        leaves.append(w)
    if len(leaves) != remaining:
        raise not_a_tree
    return "".join(sorted("(" + "".join(sorted(below[c])) + ")" for c in leaves))


def is_tree(g: PermGraph) -> bool:
    try:
        tree_canonical(g)
    except NotATree:
        return False
    return True


def tree_isomorphic(a: PermGraph, b: PermGraph) -> bool:
    return tree_canonical(a) == tree_canonical(b)


def is_antichain(
    ps: Iterable[Perm],
) -> tuple[bool, Optional[tuple[Perm, Perm]]]:
    """Pairwise incomparability check; on failure returns a comparable pair
    (pattern, host) as witness."""
    items = sorted(set(ps))
    # Sorted by (length, values): a later permutation is never inside an earlier one.
    for a, b in combinations(items, 2):
        if P.contains(a, b):
            return False, (a, b)
    return True, None


def _closure_by_length(
    gens: Iterable[Perm], floor: int
) -> dict[int, set[tuple[int, ...]]]:
    """The downward closure of the generators as sets of value tuples keyed
    by length, filled in from the longest generator down to length floor."""
    by_len: dict[int, set[tuple[int, ...]]] = defaultdict(set)
    for g in gens:
        by_len[len(g)].add(g.values)
    if not by_len:
        return by_len
    for length in range(max(by_len), floor, -1):
        below = by_len[length - 1]
        for vals in by_len[length]:
            below.update(P._delete(vals, i) for i in range(length))
    return by_len


def normalize_basis(perms: Iterable[Perm]) -> tuple[Perm, ...]:
    """Keep only the containment-minimal elements.

    In (length, values) order a permutation contains only earlier ones, and
    if it contains any, it contains a minimal one, kept earlier.
    """
    kept: list[Perm] = []
    for p in sorted(set(perms)):
        if not any(P.contains(q, p) for q in kept):
            kept.append(p)
    return tuple(kept)


def members(c: ClassSpec, n: int) -> set[Perm]:
    """Length-n members of the class."""
    if isinstance(c, AvoidanceBasis):
        return EN.enumerate_avoiders(c.perms, n)
    return {Perm(vals) for vals in _closure_by_length(c.perms, n).get(n, ())}


def basis_up_to(c: ClassSpec, max_len: int) -> set[Perm]:
    """All containment-minimal non-members of length <= max_len.

    For Av(B) these are the minimal elements of B: a minimal non-member
    contains some b in B, which is a non-member too, so the two are equal.
    For a closure, deleting the maximum m of a minimal non-member of length
    m leaves a member, so the candidates are the insertions of m into the
    members of length m - 1; an empty class has the empty permutation as
    its only minimal non-member.
    """
    if isinstance(c, AvoidanceBasis):
        return set(normalize_basis(b for b in c.perms if len(b) <= max_len))
    by_len = _closure_by_length(c.perms, 0)
    basis: set[tuple[int, ...]] = set()
    if max_len >= 0 and not by_len:
        basis.add(())
    for m in range(1, max_len + 1):
        below, level = by_len.get(m - 1, ()), by_len.get(m, ())
        candidates = (
            vals[:pos] + (m,) + vals[pos:] for vals in below for pos in range(m)
        )
        basis.update(
            q for q in candidates
            if q not in level and all(P._delete(q, i) in below for i in range(m))
        )
    return {Perm(vals) for vals in basis}
