from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ORACLE_BASES,
    all_perms,
    brute_avoiders,
    brute_is_tree,
    brute_minimal_non_members,
    brute_perm_graph,
    brute_tree_isomorphic,
    perms_of,
)
from permclass import Perm
from permclass.antichain import (
    AvoidanceBasis,
    ClosureOf,
    SHORT_BASIS,
    PermGraph,
    basis_up_to,
    double_fork,
    is_antichain,
    is_tree,
    members,
    mu,
    perm_graph,
    tree_canonical,
    tree_isomorphic,
)
from permclass.errors import InvalidIndex, NotATree
from permclass.perm import (
    contains,
    decreasing,
    deletions,
    restriction,
)

p = Perm.from_text

# Generator sets the closure code is checked on against brute force; the
# last two hold a generator contained in another one.
CLOSURE_GENS = {
    "none": (),
    "2413": (p("2413"),),
    "2413,3142": (p("2413"), p("3142")),
    "mu7": (mu(7),),
    "2413,132": (p("2413"), p("132")),
    "mu7,2413": (mu(7), p("2413")),
}


def brute_closure(gens, n):
    """Length-n members of the downward closure of gens, from all n!."""
    return {q for q in all_perms(n) if any(contains(q, g) for g in gens)}


class TestMu:
    def test_displayed_members(self):
        assert mu(7) == p("4761532")
        assert mu(9).values == (6, 9, 8, 4, 7, 1, 5, 3, 2)
        assert mu(11).values == (8, 11, 10, 6, 9, 4, 7, 1, 5, 3, 2)

    def test_lengths(self):
        for i in range(7, 32, 2):
            assert len(mu(i)) == i

    def test_invalid_indices(self):
        for bad in (5, 6, 8, 0):
            with pytest.raises(InvalidIndex):
                mu(bad)


class TestPermGraph:
    def test_mu7_edges(self):
        g = perm_graph(mu(7))
        assert g.edges == frozenset(
            {(1, 2), (1, 3), (1, 5), (4, 5), (4, 6), (4, 7)}
        )

    def test_triangle(self):
        assert perm_graph(p("123")).edges == frozenset(
            {(1, 2), (1, 3), (2, 3)}
        )

    def test_decreasing_edgeless(self):
        assert perm_graph(decreasing(6)).edges == frozenset()

    def test_matches_brute_force_exhaustive(self):
        for n in range(8):
            for q in all_perms(n):
                assert perm_graph(q) == brute_perm_graph(q)

    @given(perms_of(30))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_length_30(self, q):
        assert perm_graph(q) == brute_perm_graph(q)

    def test_matches_brute_force_mu(self):
        for i in range(7, 52, 2):
            assert perm_graph(mu(i)) == brute_perm_graph(mu(i))

    def test_monotone_under_containment(self):
        # the ascent graph of a restriction is the induced subgraph on the
        # chosen positions
        for n in range(2, 7):
            for q in all_perms(n):
                g = perm_graph(q)
                for k in range(1, n):
                    for idx in combinations(range(1, n + 1), k):
                        sub = perm_graph(restriction(q, idx))
                        relabel = {pos: r for r, pos in enumerate(idx, 1)}
                        induced = frozenset(
                            (relabel[a], relabel[b])
                            for a, b in g.edges
                            if a in relabel and b in relabel
                        )
                        assert sub.edges == induced


class TestDoubleFork:
    def test_smallest(self):
        t = double_fork(6)
        assert t.n == 6
        assert len(t.edges) == 5
        degs = sorted(
            sum(1 for e in t.edges if v in e) for v in range(1, 7)
        )
        assert degs == [1, 1, 1, 1, 3, 3]

    def test_degree_sequence_7(self):
        t = double_fork(7)
        degs = sorted(
            (sum(1 for e in t.edges if v in e) for v in range(1, 8)),
            reverse=True,
        )
        assert degs == [3, 3, 2, 1, 1, 1, 1]

    def test_sizes(self):
        t = double_fork(9)
        assert t.n == 9 and len(t.edges) == 8

    def test_invalid(self):
        with pytest.raises(InvalidIndex):
            double_fork(5)


@st.composite
def labelled_trees(draw, n):
    """A tree on 1..n: under a random labelling, each vertex after the
    first hangs from an earlier one."""
    labels = draw(st.permutations(range(1, n + 1)))
    edges = frozenset(
        tuple(sorted((labels[draw(st.integers(0, v - 1))], labels[v])))
        for v in range(1, n)
    )
    return PermGraph(n, edges)


class TestTreeIsomorphism:
    def test_mu_certificates(self):
        for i in range(7, 32, 2):
            g = perm_graph(mu(i))
            assert is_tree(g)
            assert tree_isomorphic(g, double_fork(i))

    def test_different_sizes(self):
        assert not tree_isomorphic(double_fork(7), double_fork(9))

    def test_relabeling(self):
        t = double_fork(8)
        shift = {v: v % 8 + 1 for v in range(1, 9)}
        relabeled = PermGraph(
            8,
            frozenset(
                tuple(sorted((shift[a], shift[b]))) for a, b in t.edges
            ),
        )
        assert tree_isomorphic(t, relabeled)

    def test_path_vs_fork(self):
        path = PermGraph(7, frozenset((j, j + 1) for j in range(1, 7)))
        assert not tree_isomorphic(path, double_fork(7))

    def test_not_a_tree(self):
        cycle = PermGraph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
        with pytest.raises(NotATree):
            tree_canonical(cycle)
        disconnected = PermGraph(4, frozenset({(1, 2), (1, 3)}))
        with pytest.raises(NotATree):
            tree_canonical(disconnected)

    @given(st.integers(1, 7).flatmap(
        lambda n: st.tuples(labelled_trees(n), labelled_trees(n))))
    @settings(max_examples=300, deadline=None)
    def test_isomorphism_oracle(self, pair):
        a, b = pair
        assert tree_isomorphic(a, b) == brute_tree_isomorphic(a, b)

    def test_is_tree_exhaustive(self):
        # every simple graph on 0..5 vertices, against a search from vertex 1
        for n in range(6):
            pairs = list(combinations(range(1, n + 1), 2))
            for size in range(len(pairs) + 1):
                for edges in combinations(pairs, size):
                    g = PermGraph(n, frozenset(edges))
                    assert is_tree(g) == brute_is_tree(g)


class TestIsAntichain:
    def test_mu_with_short_basis(self):
        family = list(SHORT_BASIS) + [mu(i) for i in range(7, 16, 2)]
        ok, witness = is_antichain(family)
        assert ok and witness is None

    def test_mu_to_41_with_short_basis(self):
        family = list(SHORT_BASIS) + [mu(i) for i in range(7, 42, 2)]
        assert is_antichain(family) == (True, None)

    def test_comparable_pair(self):
        ok, witness = is_antichain([p("12"), p("123")])
        assert not ok
        assert witness == (p("12"), p("123"))

    def test_singleton(self):
        assert is_antichain([p("2143")]) == (True, None)

    def test_agrees_with_double_loop(self):
        sets = [
            [p("123"), p("321"), p("2143")],
            [p("12"), p("21"), p("132")],
            list(SHORT_BASIS),
        ]
        for family in sets:
            ok, _ = is_antichain(family)
            direct = not any(
                a != b and contains(a, b)
                for a in family
                for b in family
            )
            assert ok == direct


class TestClosure:
    def test_single_descent(self):
        assert members(ClosureOf((p("21"),)), 2) == {p("21")}

    def test_patterns_of_2413(self):
        assert members(ClosureOf((p("2413"),)), 3) == {
            p("132"),
            p("213"),
            p("231"),
            p("312"),
        }

    def test_empty_generators(self):
        assert members(ClosureOf(()), 3) == set()

    def test_downward_closed(self):
        spec = ClosureOf((p("2413"), p("35142")))
        for n in range(2, 5):
            level = members(spec, n)
            below = members(spec, n - 1)
            for q in level:
                assert deletions(q) <= below


class TestBasis:
    def test_avoidance_basis_is_fixed_point(self):
        spec = AvoidanceBasis((p("123"), p("3214")))
        assert basis_up_to(spec, 6) == {p("123"), p("3214")}

    def test_closure_of_2413(self):
        spec = ClosureOf((p("2413"),))
        assert basis_up_to(spec, 4) == {
            p("123"),
            p("321"),
            p("2143"),
            p("3142"),
            p("3412"),
        }

    def test_empty_class(self):
        assert basis_up_to(AvoidanceBasis((p("1"),)), 3) == {p("1")}

    def test_output_is_antichain(self):
        for spec in (
            ClosureOf((p("2413"), p("3142"))),
            AvoidanceBasis((p("132"), p("4321"))),
        ):
            basis = basis_up_to(spec, 5)
            ok, _ = is_antichain(basis)
            assert ok

    def test_class_agreement(self):
        # avoiding the computed basis must reproduce the class on all
        # lengths up to the cutoff
        spec = ClosureOf((p("2413"),))
        L = 6
        basis = basis_up_to(spec, L)
        for n in range(1, L + 1):
            want = members(spec, n)
            got = {
                q
                for q in all_perms(n)
                if not any(contains(b, q) for b in basis)
            }
            assert got == want


@pytest.mark.parametrize("max_len", range(7))
class TestBasisOracle:
    @pytest.mark.parametrize(
        "basis",
        [*ORACLE_BASES.values(), (p("123"), p("12"))],
        ids=[*ORACLE_BASES.keys(), "123,12"],
    )
    def test_avoidance_basis(self, basis, max_len):
        want = brute_minimal_non_members(
            lambda n: brute_avoiders(basis, n), max_len
        )
        assert basis_up_to(AvoidanceBasis(basis), max_len) == want

    @pytest.mark.parametrize(
        "gens", CLOSURE_GENS.values(), ids=CLOSURE_GENS.keys()
    )
    def test_closure(self, gens, max_len):
        want = brute_minimal_non_members(
            lambda n: brute_closure(gens, n), max_len
        )
        assert basis_up_to(ClosureOf(gens), max_len) == want


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("gens", CLOSURE_GENS.values(), ids=CLOSURE_GENS.keys())
def test_closure_members_oracle(gens, n):
    assert members(ClosureOf(gens), n) == brute_closure(gens, n)
