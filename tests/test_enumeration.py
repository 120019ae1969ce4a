import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ORACLE_BASES,
    abcde_census,
    all_perms,
    brute_active_sites,
    brute_avoiders,
    gauss_fit_recurrence,
)
from permclass import Perm
from permclass.antichain import AvoidanceBasis, members
from permclass.enumeration import (
    LinearRecurrence,
    PAIR_BASIS,
    QUAD_BASIS,
    SEED,
    StateVector,
    TRIPLE_BASIS,
    abcde_counts,
    abcde_step,
    avoider_levels,
    count_avoiders,
    enumerate_avoiders,
    eval_recurrence,
    fit_recurrence,
    gf_from_recurrence,
)
from permclass.errors import NeedMoreTerms
from permclass.perm import delete, inverse

p = Perm.from_text

S_TABLE = [1, 2, 5, 12, 28, 65, 152, 355, 829, 1936, 4521, 10558]
S_REC = LinearRecurrence(
    tuple(Fraction(c) for c in (1, 2, 2, 1, 1)), (1, 2, 5, 12, 28)
)
T_REC = LinearRecurrence((Fraction(2), Fraction(1)), (1, 2))


def catalan(n):
    return comb(2 * n, n) // (n + 1)


class TestEnumerate:
    def test_123_avoiders_length_3(self):
        got = enumerate_avoiders([p("123")], 3)
        assert got == set(all_perms(3)) - {p("123")}

    def test_no_basis(self):
        assert enumerate_avoiders([], 3) == set(all_perms(3))

    def test_quad_basis_length_4(self):
        assert len(enumerate_avoiders(QUAD_BASIS, 4)) == 12

    def test_deletion_closed(self):
        for n in range(2, 7):
            level = enumerate_avoiders(QUAD_BASIS, n)
            below = enumerate_avoiders(QUAD_BASIS, n - 1)
            for q in level:
                for i in range(1, n + 1):
                    assert delete(q, i) in below

    def test_max_position_bound(self):
        # quad-basis avoiders always place the maximum within the first
        # three positions
        for n in range(2, 11):
            for q in enumerate_avoiders(QUAD_BASIS, n):
                assert inverse(q)[n - 1] <= 3


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("basis", ORACLE_BASES.values(), ids=ORACLE_BASES.keys())
class TestEnumerateOracle:
    def test_enumerate_avoiders(self, basis, n):
        assert enumerate_avoiders(basis, n) == brute_avoiders(basis, n)

    def test_count_avoiders(self, basis, n):
        want = [len(brute_avoiders(basis, k)) for k in range(1, n + 1)]
        assert count_avoiders(basis, n) == want

    def test_members(self, basis, n):
        assert members(AvoidanceBasis(basis), n) == brute_avoiders(basis, n)


@pytest.mark.parametrize("basis", ORACLE_BASES.values(), ids=ORACLE_BASES.keys())
def test_active_sites_match_oracle(basis):
    for n, level in zip(range(8), avoider_levels(basis)):
        assert {Perm(vals) for vals, _ in level} == brute_avoiders(basis, n)
        for vals, sites in level:
            assert sites == brute_active_sites(basis, vals)


def test_negative_lengths_are_empty():
    assert enumerate_avoiders(QUAD_BASIS, -1) == set()
    assert members(AvoidanceBasis(QUAD_BASIS), -1) == set()
    assert count_avoiders(QUAD_BASIS, -3) == []


class TestCounts:
    def test_quad_table(self):
        assert count_avoiders(QUAD_BASIS, 12) == S_TABLE

    def test_triple_recurrence(self):
        t = count_avoiders(TRIPLE_BASIS, 10)
        assert t[:2] == [1, 2]
        for n in range(3, 11):
            assert t[n - 1] == 2 * t[n - 2] + t[n - 3]

    def test_pair_fibonacci(self):
        fib = [0, 1]
        while len(fib) < 21:
            fib.append(fib[-1] + fib[-2])
        # fib[k] holds F_{k+1} under the F_1 = 0 indexing
        want = [fib[2 * n - 1] for n in range(1, 9)]
        assert count_avoiders(PAIR_BASIS, 8) == want
        assert want[3] == 13

    def test_catalan(self):
        assert count_avoiders([p("123")], 7) == [catalan(n) for n in range(1, 8)]

    def test_separable_schroeder(self):
        # Av(2413, 3142) counts the large Schroeder numbers r_{n-1}, from
        # (n + 1) r_n = 3(2n - 1) r_{n-1} - (n - 2) r_{n-2}; the two basis
        # elements hold the entries left of both maxima, between them and
        # right of them, so every segment mask is used
        r = [1, 2]
        for n in range(2, 10):
            r.append((3 * (2 * n - 1) * r[n - 1] - (n - 2) * r[n - 2]) // (n + 1))
        assert count_avoiders([p("2413"), p("3142")], 10) == r
        assert r[-1] == 206098

    def test_quad_13(self):
        assert count_avoiders(QUAD_BASIS, 13)[-1] == abcde_counts(13)[-1] == 24656

    def test_basis_monotone(self):
        small = count_avoiders(PAIR_BASIS, 7)
        big = count_avoiders(QUAD_BASIS, 7)
        assert all(b <= s for s, b in zip(small, big))


class TestStateMachine:
    def test_census_n2(self):
        assert abcde_census(2) == StateVector(1, 0, 0, 1, 0)

    def test_seed(self):
        assert SEED == StateVector(0, 0, 0, 0, 1)

    def test_census_totals(self):
        assert abcde_census(3).total() == 5

    def test_step_examples(self):
        assert abcde_step(SEED) == StateVector(1, 0, 0, 1, 0)
        assert abcde_step(StateVector(1, 0, 0, 1, 0)) == StateVector(2, 1, 0, 2, 0)
        assert abcde_step(StateVector(0, 0, 0, 0, 0)) == StateVector(0, 0, 0, 0, 0)

    def test_step_matches_census(self):
        v = SEED
        for n in range(2, 9):
            v = abcde_step(v)
            assert v == abcde_census(n)

    def test_totals_match_brute_force(self):
        assert abcde_counts(12) == S_TABLE


class TestRecurrences:
    def test_extend_s(self):
        vals = eval_recurrence(S_REC, 13)
        assert vals[:12] == S_TABLE
        assert vals[12] == 24656

    def test_extend_t(self):
        assert eval_recurrence(T_REC, 5) == [1, 2, 5, 12, 29]

    def test_constant(self):
        rec = LinearRecurrence((Fraction(1),), (7,))
        assert eval_recurrence(rec, 6) == [7] * 6

    def test_fit_s(self):
        rec = fit_recurrence(S_TABLE, 5)
        assert rec is not None
        assert rec.order == 5
        assert rec.coeffs == tuple(Fraction(c) for c in (1, 2, 2, 1, 1))

    def test_fit_t(self):
        t = count_avoiders(TRIPLE_BASIS, 10)
        rec = fit_recurrence(t, 4)
        assert rec is not None
        assert rec.order == 2
        assert rec.coeffs == (Fraction(2), Fraction(1))

    def test_catalan_no_fit(self):
        cat = [catalan(n) for n in range(1, 13)]
        assert fit_recurrence(cat, 5) is None

    def test_need_more_terms(self):
        with pytest.raises(NeedMoreTerms):
            fit_recurrence([1, 2, 3], 4)

    def test_fit_round_trip_exact(self):
        for coeffs, init in [((3, -1), (1, 4)), ((1, 1, 1), (1, 1, 2))]:
            rec = LinearRecurrence(
                tuple(Fraction(c) for c in coeffs), init
            )
            seq = eval_recurrence(rec, 4 * len(coeffs) + 4)
            fitted = fit_recurrence(seq, len(coeffs))
            assert fitted.coeffs == rec.coeffs

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.lists(st.integers(1, 5), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_reproduces_extension(self, coeffs, init):
        d = len(coeffs)
        rec = LinearRecurrence(
            tuple(Fraction(c) for c in coeffs), tuple(init[:d])
        )
        seq = eval_recurrence(rec, 2 * d + 6)
        fitted = fit_recurrence(seq[: 2 * d + 2], d)
        assert fitted is not None
        assert fitted.order <= d
        assert eval_recurrence(fitted, len(seq)) == seq

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_gaussian_elimination(self, data):
        # zero-heavy, random, or made by a recurrence of order up to
        # max_order + 2, with at least the 2 * max_order + 2 terms needed
        max_order = data.draw(st.integers(-1, 6))
        least = max(0, 2 * max_order + 2)
        n = data.draw(st.integers(least, least + 10))
        kind = data.draw(st.sampled_from(["zero-heavy", "random", "recurrence"]))
        if kind == "zero-heavy":
            terms = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
            seq = data.draw(st.lists(terms, min_size=n, max_size=n))
        elif kind == "random":
            terms = st.integers(-10**6, 10**6)
            seq = data.draw(st.lists(terms, min_size=n, max_size=n))
        else:
            d = data.draw(st.integers(1, max(1, max_order + 2)))
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
            init = data.draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
            rec = LinearRecurrence(tuple(map(Fraction, coeffs)), tuple(init))
            seq = eval_recurrence(rec, n)
        assert fit_recurrence(seq, max_order) == gauss_fit_recurrence(seq, max_order)

    def test_edge_cases_match_gaussian_elimination(self):
        cases = [([0] * 12, 5), ([0, 0], 0), ([3, 5], 0), ([], -1), ([2], -1)]
        for seq, max_order in cases:
            assert fit_recurrence(seq, max_order) == gauss_fit_recurrence(seq, max_order)
        assert fit_recurrence([0] * 12, 5) == LinearRecurrence((Fraction(0),), (0,))
        assert fit_recurrence([0, 0], 0) is None
        assert fit_recurrence([], -1) is None

    def test_random_terms_give_up_early(self):
        rng = random.Random(0)
        seq = [rng.randrange(10**9) for _ in range(3000)]
        start = time.perf_counter()
        assert fit_recurrence(seq, 5) is None
        assert time.perf_counter() - start < 5


class TestGeneratingFunctions:
    def test_s_gf(self):
        gf = gf_from_recurrence(S_REC)
        assert gf.numerator == (0, 1, 1, 1, 1, 1)
        assert gf.denominator == (1, -1, -2, -2, -1, -1)

    def test_t_denominator(self):
        assert gf_from_recurrence(T_REC).denominator == (1, -2, -1)

    def test_geometric(self):
        rec = LinearRecurrence((Fraction(1),), (1,))
        gf = gf_from_recurrence(rec)
        assert gf.numerator == (0, 1)
        assert gf.denominator == (1, -1)

    def test_series_matches_eval(self):
        for rec in (S_REC, T_REC):
            assert gf_from_recurrence(rec).series(25) == eval_recurrence(rec, 25)
