from fractions import Fraction
from math import comb

import pytest

from permclass.enumeration import (
    LinearRecurrence,
    count_avoiders,
    QUAD_BASIS,
    TRIPLE_BASIS,
)
from permclass.errors import (
    InvalidIndex,
    NoRootAboveOne,
    Undefined,
    Unsupported,
)
from permclass.growth import (
    IntPolynomial,
    alpha,
    char_poly,
    dominant_root,
    empirical_growth,
)

S_REC = LinearRecurrence(
    tuple(Fraction(c) for c in (1, 2, 2, 1, 1)), (1, 2, 5, 12, 28)
)
T_REC = LinearRecurrence((Fraction(2), Fraction(1)), (1, 2))


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
        s_lo, s_hi = poly.eval(lo), poly.eval(hi)
        assert (s_lo < 0) != (s_hi < 0)

    def test_no_root(self):
        with pytest.raises(NoRootAboveOne):
            dominant_root(IntPolynomial((1, 0, 1)), 1e-9)

    def test_bad_tol(self):
        for tol in (0.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(Unsupported):
                dominant_root(IntPolynomial((1, -2)), tol)


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


class TestEmpiricalGrowth:
    def test_quad_table_ratio(self):
        s = count_avoiders(QUAD_BASIS, 12)
        est = empirical_growth(s)
        assert est.index == 12
        assert abs(est.ratio - 10558 / 4521) < 1e-12
        assert abs(est.ratio - 2.3353) < 1e-3

    def test_constant(self):
        assert empirical_growth([4, 4, 4]).ratio == 1.0

    def test_catalan_heads_to_four(self):
        cat = [comb(2 * n, n) // (n + 1) for n in range(1, 11)]
        ratios = [cat[i + 1] / cat[i] for i in range(len(cat) - 1)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert 3 < empirical_growth(cat).ratio < 4

    def test_undefined(self):
        with pytest.raises(Undefined):
            empirical_growth([5])
        with pytest.raises(Undefined):
            empirical_growth([0, 0])


class TestGrowthAboveOne:
    def test_increasing_sequences_have_root_above_one(self):
        from permclass.enumeration import eval_recurrence

        for rec in (S_REC, T_REC):
            vals = eval_recurrence(rec, 12)
            assert all(a < b for a, b in zip(vals, vals[1:]))
            assert dominant_root(char_poly(rec), 1e-9).value > 1
