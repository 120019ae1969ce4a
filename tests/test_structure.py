import functools
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permclass import Perm
from permclass.antichain import mu
from permclass.errors import EmptyInput, UseSegStatUnbounded
from permclass.perm import (
    EMPTY,
    contains,
    decreasing,
    deletions,
    direct_sum,
    identity,
    restriction,
)
from permclass.structure import (
    UNBOUNDED,
    _cuts,
    al,
    down_decomposition,
    h_minus,
    h_plus,
    in_small_block_class,
    is_alternating,
    is_down_indecomposable,
    is_up_indecomposable,
    k_decomposition,
    s_k,
    up_decomposition,
)

from conftest import (
    all_perms,
    alternating_perms,
    brute_al,
    brute_block_lengths,
    brute_k_decomposition,
    perms,
)

p = Perm.from_text


class TestDecomposition:
    def test_example(self):
        assert up_decomposition(p("21534")).blocks == (p("21"), p("312"))

    def test_identity_singletons(self):
        assert up_decomposition(identity(5)).blocks == (p("1"),) * 5
        assert down_decomposition(decreasing(5)).blocks == (p("1"),) * 5

    def test_decreasing_one_block(self):
        assert up_decomposition(decreasing(5)).blocks == (decreasing(5),)
        assert down_decomposition(identity(5)).blocks == (identity(5),)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            up_decomposition(EMPTY)
        with pytest.raises(EmptyInput):
            h_plus(EMPTY)

    def test_reconstruction_exhaustive(self):
        for n in range(1, 7):
            for q in all_perms(n):
                assert up_decomposition(q).rebuild() == q
                assert down_decomposition(q).rebuild() == q

    def test_blocks_indecomposable(self):
        for n in range(1, 7):
            for q in all_perms(n):
                assert all(
                    is_up_indecomposable(b)
                    for b in up_decomposition(q).blocks
                )
                assert all(
                    is_down_indecomposable(b)
                    for b in down_decomposition(q).blocks
                )


class TestH:
    def test_examples(self):
        assert h_plus(identity(6)) == 1
        assert h_plus(decreasing(6)) == 6
        assert h_plus(p("21534")) == 3

    @given(perms(min_size=1))
    def test_bounds(self, q):
        assert 1 <= h_plus(q) <= len(q)
        assert 1 <= h_minus(q) <= len(q)


def lengths(cuts):
    return [b - a for a, b in zip(cuts, cuts[1:])]


class TestCutRule:
    """The rank-free cut rule against the rank rule of `brute_block_lengths`."""

    @given(perms(min_size=1, max_size=11), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_rank_rule(self, q, data):
        assert h_plus(q) == max(brute_block_lengths(q, "up"))
        assert h_minus(q) == max(brute_block_lengths(q, "down"))
        for k in (2, 3, 4):
            assert k_decomposition(q, k) == brute_k_decomposition(q, k)
        # a raw slice has the blocks of its restriction
        a = data.draw(st.integers(0, len(q) - 1))
        b = data.draw(st.integers(a + 1, len(q)))
        sub = restriction(q, range(a + 1, b + 1))
        assert lengths(_cuts(q.values[a:b], 1)) == brute_block_lengths(sub, "up")
        assert lengths(_cuts(q.values[a:b], -1)) == brute_block_lengths(sub, "down")

    def test_examples(self):
        assert _cuts((2, 1, 5, 3, 4), 1) == [0, 2, 5]
        assert _cuts((30, 10, 20), -1) == [0, 1, 3]
        assert _cuts((), 1) == [0]

    def test_unbounded_compares_with_integers(self):
        assert s_k(p("21"), 1) > 10**100


class TestAlternating:
    def test_examples(self):
        assert is_alternating(p("3142"))
        assert not is_alternating(p("12"))
        assert is_alternating(p("1"))
        assert is_alternating(EMPTY)

    def test_generator_is_sound_and_complete(self):
        for m in range(1, 6):
            gen = set(alternating_perms(m))
            direct = {q for q in all_perms(m) if is_alternating(q)}
            assert gen == direct


class TestAl:
    def test_examples(self):
        assert al(p("123")) == 1
        assert al(p("21")) == 2
        assert al(p("3142")) == 4

    def test_empty(self):
        with pytest.raises(EmptyInput):
            al(EMPTY)

    def test_matches_brute_force_search(self):
        for n in range(1, 7):
            for q in all_perms(n):
                assert al(q) == brute_al(q)

    def test_mu_13(self):
        # the brute-force search (brute_al) found this value once, in 150 s
        assert al(mu(13)) == 6

    def test_brute_force_oracle(self):
        # oracle: scan all subsets of positions of p and of its inverse
        from permclass.perm import inverse

        def oracle(q):
            best = 0
            for host in (q, inverse(q)):
                n = len(host)
                for k in range(1, n + 1):
                    for idx in combinations(range(1, n + 1), k):
                        if is_alternating(restriction(host, idx)):
                            best = max(best, k)
            return best

        for n in range(1, 6):
            for q in all_perms(n):
                assert al(q) == oracle(q)


class TestKDecomposition:
    def test_monotone_segments(self):
        assert k_decomposition(p("2143"), 2) == [(1, 2), (3, 4)]

    def test_identity_single_interval(self):
        assert k_decomposition(identity(6), 2) == [(1, 6)]

    def test_s2_example(self):
        assert s_k(p("2143"), 2) == 2

    def test_s1_unbounded(self):
        assert s_k(p("2143"), 1) is UNBOUNDED
        assert s_k(identity(3), 1) is UNBOUNDED

    def test_s2_identity(self):
        assert s_k(identity(8), 2) == 1

    def test_k_too_small(self):
        with pytest.raises(UseSegStatUnbounded):
            k_decomposition(p("21"), 1)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            s_k(EMPTY, 2)

    def test_intervals_cover_and_qualify(self):
        for n in range(1, 7):
            for q in all_perms(n):
                for k in (2, 3):
                    parts = k_decomposition(q, k)
                    flat = [i for a, b in parts for i in range(a, b + 1)]
                    assert flat == list(range(1, n + 1))
                    for a, b in parts:
                        assert in_small_block_class(
                            restriction(q, range(a, b + 1)), k
                        )

    def test_greedy_is_minimal(self):
        # DP over intervals gives the minimum weak-decomposition size;
        # the greedy decomposition must attain it.
        @functools.lru_cache(maxsize=None)
        def member(vals, k):
            return in_small_block_class(Perm(vals), k)

        def min_weak(q, k):
            n = len(q)
            best = [0] + [n + 1] * n
            for j in range(1, n + 1):
                for i in range(1, j + 1):
                    sub = restriction(q, range(i, j + 1))
                    if member(sub.values, k):
                        best[j] = min(best[j], best[i - 1] + 1)
            return best[n]

        for n in range(1, 8):
            for q in all_perms(n):
                for k in (2, 3):
                    assert s_k(q, k) == min_weak(q, k)


class TestStructureLemmas:
    def test_indecomposable_descent(self):
        # every up-indecomposable of length 2..6 has an up-indecomposable
        # pattern one shorter; dually for down
        for n in range(2, 7):
            for q in all_perms(n):
                if is_up_indecomposable(q):
                    assert any(
                        is_up_indecomposable(d) for d in deletions(q)
                    )
                if is_down_indecomposable(q):
                    assert any(
                        is_down_indecomposable(d) for d in deletions(q)
                    )

    def test_one_point_continuity(self):
        # al and s_k change by at most 2 under one-point insertion
        for n in range(2, 6):
            for tau in all_perms(n):
                for sigma in deletions(tau):
                    assert al(tau) <= al(sigma) + 2
                    for k in (2, 3):
                        assert s_k(tau, k) <= s_k(sigma, k) + 2

    def test_layered_sums_count(self):
        # direct sums of decreasing blocks of total length n are exactly
        # the 2^(n-1) compositions of n, all distinct
        for n in range(1, 9):
            built = set()
            stack = [(EMPTY, 0)]
            while stack:
                q, used = stack.pop()
                if used == n:
                    built.add(q)
                    continue
                for size in range(1, n - used + 1):
                    stack.append((direct_sum(q, decreasing(size)), used + size))
            assert len(built) == 2 ** (n - 1)
            assert all(
                all(len(b) <= n and b == decreasing(len(b))
                    for b in up_decomposition(q).blocks)
                for q in built
            )

    @given(perms(min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_alternating_pattern_realized(self, q):
        from permclass.perm import inverse

        m = al(q)
        assert any(
            contains(a, q) or contains(a, inverse(q))
            for a in alternating_perms(m)
        )
