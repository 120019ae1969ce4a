import time
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permclass import Perm
from permclass.enumeration import (
    LinearRecurrence,
    count_avoiders,
    fit_recurrence,
    QUAD_BASIS,
    TRIPLE_BASIS,
)
from permclass.errors import (
    InvalidIndex,
    NoRootAboveOne,
    Unsupported,
)
from permclass.growth import (
    IntPolynomial,
    alpha,
    char_poly,
    dominant_root,
)

S_REC = LinearRecurrence(
    tuple(Fraction(c) for c in (1, 2, 2, 1, 1)), (1, 2, 5, 12, 28)
)
T_REC = LinearRecurrence((Fraction(2), Fraction(1)), (1, 2))


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_from_roots(roots, lead=1, other=(1,)):
    """lead * prod(x - r) * other, scaled by a positive constant to integer
    coefficients; `other` carries factors with no real root."""
    coeffs = [Fraction(lead)]
    for factor in [(1, -Fraction(r)) for r in roots] + [other]:
        coeffs = _times(coeffs, factor)
    den = lcm(*(c.denominator for c in coeffs))
    return IntPolynomial(tuple(int(c * den) for c in coeffs))


def assert_brackets_largest(p, roots, tol=1e-9):
    """The bracket (lo, hi] holds max(roots), exactly, and no other root."""
    est = dominant_root(p, tol)
    lo, hi = est.bracket
    top = max(roots)
    assert lo == hi == top or lo < top <= hi
    assert hi - lo <= Fraction(tol)
    assert not any(lo < r <= hi for r in roots if r != top)


class TestCharPoly:
    def test_quintic(self):
        assert char_poly(S_REC).coeffs == (1, -1, -2, -2, -1, -1)

    def test_quadratic(self):
        assert char_poly(T_REC).coeffs == (1, -2, -1)

    def test_trivial(self):
        rec = LinearRecurrence((Fraction(1),), (1,))
        assert char_poly(rec).coeffs == (1, -1)

    def test_non_integer_rejected(self):
        rec = LinearRecurrence((Fraction(1, 2),), (1,))
        with pytest.raises(Unsupported):
            char_poly(rec)


class TestDominantRoot:
    def test_quintic_root(self):
        est = dominant_root(IntPolynomial((1, -1, -2, -2, -1, -1)), 1e-9)
        assert abs(est.value - 2.33529) < 1e-5

    def test_silver_root(self):
        est = dominant_root(IntPolynomial((1, -2, -1)), 1e-9)
        assert abs(est.value - 2.41421) < 1e-5

    def test_fibonacci_squared_root(self):
        est = dominant_root(IntPolynomial((1, -3, 1)), 1e-9)
        assert abs(est.value - 2.61803) < 1e-5

    def test_bracket_certificate(self):
        poly = IntPolynomial((1, -1, -2, -2, -1, -1))
        est = dominant_root(poly, 1e-9)
        lo, hi = est.bracket
        assert float(hi - lo) <= 2 * est.error * (1 + 1e-9) + 1e-18
        assert Fraction(2335285, 10 ** 6) <= lo < hi < Fraction(2335295, 10 ** 6)
        s_lo, s_hi = poly.eval(lo), poly.eval(hi)
        assert (s_lo < 0) != (s_hi < 0)

    def test_no_root(self):
        with pytest.raises(NoRootAboveOne, match=r"no real root in \(1, 2\]"):
            dominant_root(IntPolynomial((1, 0, 1)), 1e-9)

    def test_bad_tol(self):
        for tol in (0.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(Unsupported):
                dominant_root(IntPolynomial((1, -2)), tol)


class TestCertifiedRoot:
    """Polynomials built from chosen rational roots, so the largest real
    root is known exactly."""

    @pytest.mark.parametrize("roots, lead, other", [
        # two roots 1/1000 apart above a third
        pytest.param([2, Fraction(3001, 1000), Fraction(3002, 1000)], 1, (1,), id="clustered"),
        # repeated roots: p never changes sign at 3
        pytest.param([3, 3], 1, (1,), id="double"),
        pytest.param([3, 3, 2], 1, (1,), id="double-over-simple"),
        pytest.param([2, 2, 2, Fraction(5, 2), Fraction(5, 2)], 1, (1,), id="triple-and-double"),
        pytest.param([1, 3], 1, (1,), id="root-at-one"),
        pytest.param([1, 1, Fraction(5, 2)], 1, (1,), id="double-root-at-one"),
        # the first sign midpoint of (1, 3] is the root 2
        pytest.param([2], 1, (1,), id="root-at-midpoint"),
        # x - c has its root at B - 1, as close to Cauchy's bound as a root gets
        pytest.param([7], 1, (1,), id="root-at-bound-minus-one"),
        pytest.param([Fraction(3, 2), Fraction(7, 3)], 6, (1,), id="non-monic"),
        pytest.param([Fraction(5, 4), 2, -3], -4, (1,), id="negative-leading"),
        # complex roots with real part above 1 do not count
        pytest.param([Fraction(9, 4)], 1, (1, -3, 3), id="complex-pair"),
    ])
    def test_largest_root_in_bracket(self, roots, lead, other):
        assert_brackets_largest(poly_from_roots(roots, lead, other), roots)

    def test_largest_root_at_count_endpoint(self):
        # B = 13; the count halving keeps (1, 7], (1, 4] (both roots),
        # (2.5, 4] and then (3.25, 4], whose closed end is the root 4
        est = dominant_root(poly_from_roots([3, 4]))
        assert est.bracket == (4, 4) and est.value == 4.0 and est.error == 0

    @pytest.mark.parametrize("poly", [
        # (x-1)^3, the recurrence of C(n,2)+1
        pytest.param(poly_from_roots([1, 1, 1]), id="triple-root-at-one"),
        pytest.param(poly_from_roots([Fraction(1, 2), -5]), id="half-and-minus-five"),
        pytest.param(poly_from_roots([1]), id="x-1"),
        pytest.param(poly_from_roots([Fraction(1, 3)], 3, (1, -3, 3)), id="complex-above-one"),
        pytest.param(IntPolynomial((5,)), id="constant"),
    ])
    def test_no_root_above_one(self, poly):
        with pytest.raises(NoRootAboveOne, match=r"no real root in \(1, "):
            dominant_root(poly)

    def test_binomial_plus_one_has_no_root_above_one(self):
        rec = fit_recurrence([comb(n, 2) + 1 for n in range(1, 13)], 5)
        assert char_poly(rec).coeffs == (1, -3, 3, -1)
        with pytest.raises(NoRootAboveOne):
            dominant_root(char_poly(rec))

    @given(
        st.lists(st.fractions(-4, 6, max_denominator=6), min_size=1, max_size=5),
        st.sampled_from([1, -1, 2, 3, -5]),
        st.sampled_from([(1,), (1, 0, 1), (1, 1, 1), (1, -3, 3)]),
        st.sampled_from([1e-3, 1e-9, 1e-12]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_chosen_roots(self, roots, lead, other, tol):
        p = poly_from_roots(roots, lead, other)
        if max(roots) > 1:
            assert_brackets_largest(p, roots, tol)
        else:
            with pytest.raises(NoRootAboveOne):
                dominant_root(p, tol)


class TestAlpha:
    def test_golden(self):
        assert abs(alpha(2).value - 1.61803) < 1e-5

    def test_hierarchy_strictly_increasing_below_two(self):
        vals = [alpha(i, 1e-9).value for i in range(2, 13)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < 2 for v in vals)
        assert all(v < 2 for v in (alpha(i, 1e-6).value for i in range(13, 21)))

    def test_invalid(self):
        with pytest.raises(InvalidIndex):
            alpha(1)
        with pytest.raises(Unsupported):
            alpha(5, 0.0)

    def test_bracket_changes_sign_inside_proved_bounds(self):
        for i in range(2, 41):
            p = IntPolynomial((1,) + (-1,) * i)
            lo, hi = alpha(i, 1e-12).bracket
            assert 2 - Fraction(1, 2 ** (i - 1)) <= lo < hi <= 2
            assert p.eval(lo) < 0 < p.eval(hi)

    def test_agrees_with_dominant_root(self):
        for i in range(2, 13):
            lo, hi = alpha(i).bracket
            d_lo, d_hi = dominant_root(IntPolynomial((1,) + (-1,) * i)).bracket
            assert max(lo, d_lo) < min(hi, d_hi)

    def test_large_index_is_fast(self):
        start = time.perf_counter()
        est = alpha(2000)
        assert time.perf_counter() - start < 0.1
        assert est.value == 2.0
        assert est.bracket == (2 - Fraction(1, 2 ** 1999), 2)


class TestEmpiricalGrowth:
    """The ratio of the last two counts against the certified growth."""

    def test_quad_table_ratio(self):
        s = count_avoiders(QUAD_BASIS, 12)
        root = dominant_root(char_poly(fit_recurrence(s, 5)))
        assert s[-2:] == [4521, 10558]
        assert abs(s[-1] / s[-2] - root.value) < 1e-3

    def test_catalan_heads_to_four(self):
        cat = count_avoiders([Perm.from_text("123")], 10)
        assert cat == [comb(2 * n, n) // (n + 1) for n in range(1, 11)]
        ratios = [b / a for a, b in zip(cat, cat[1:])]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert 3 < ratios[-1] < 4


class TestGrowthAboveOne:
    def test_increasing_sequences_have_root_above_one(self):
        from permclass.enumeration import eval_recurrence

        for rec in (S_REC, T_REC):
            vals = eval_recurrence(rec, 12)
            assert all(a < b for a, b in zip(vals, vals[1:]))
            assert dominant_root(char_poly(rec), 1e-9).value > 1
