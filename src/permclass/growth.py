"""Growth-rate constants: characteristic polynomials and certified largest
real roots above 1.

`dominant_root` isolates roots exactly.  A Sturm sequence counts the
distinct real roots in any interval, so a count of zero above 1 is a proof
that there is no root there, and bisecting on the count leaves a bracket
that provably holds the largest real root and no other.  Bisection on the
exact sign then narrows that bracket to the tolerance.  All arithmetic is
over the rationals.  Degrees here are tiny; correctness beats speed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .enumeration import LinearRecurrence
from .errors import InvalidIndex, NoRootAboveOne, Unsupported


@dataclass(frozen=True)
class IntPolynomial:
    """Integer coefficients, highest degree first; leading coefficient
    nonzero."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] == 0:
            raise Unsupported(f"bad coefficient list: {self.coeffs}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, x: Fraction) -> Fraction:
        """p(x) for x = n/d, as d^deg p(n/d) / d^deg: Horner's rule in
        integers."""
        n, d = x.numerator, x.denominator
        acc, d_pow = 0, 1
        for c in self.coeffs:
            acc = acc * n + c * d_pow
            d_pow *= d
        return Fraction(acc, d_pow // d)


class RootEstimate(NamedTuple):
    value: float
    error: float
    bracket: tuple[Fraction, Fraction]


def char_poly(r: LinearRecurrence) -> IntPolynomial:
    """x^d - c_1 x^{d-1} - ... - c_d for an integer-coefficient recurrence."""
    if any(c.denominator != 1 for c in map(Fraction, r.coeffs)):
        raise Unsupported("characteristic polynomial needs integer coefficients")
    return IntPolynomial((1,) + tuple(-int(c) for c in r.coeffs))


# Coefficient lists below are highest degree first; the zero polynomial is
# the empty list.

def _derivative(a: Sequence) -> list:
    d = len(a) - 1
    return [c * (d - k) for k, c in enumerate(a[:-1])]


def _divmod(a: Sequence, b: Sequence) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b over the rationals."""
    rem = [Fraction(c) for c in a]
    quot = []
    while len(rem) >= len(b):
        f = rem[0] / b[0]
        quot.append(f)
        rem = [r - f * c for r, c in zip(rem[1:], b[1:])] + rem[len(b):]
    while rem and rem[0] == 0:
        del rem[0]
    return quot, rem


def _primitive(a: Sequence) -> tuple[int, ...]:
    """The positive rational multiple of a with coprime integer
    coefficients (a positive multiple has the same sign everywhere)."""
    if not a:
        return ()
    den = math.lcm(*(Fraction(c).denominator for c in a))
    ints = [int(c * den) for c in a]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def _square_free(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), scaled to be primitive with p's leading sign: the
    real roots of p, each simple.  A square-free primitive p comes back
    unchanged."""
    a, b = p.coeffs, _primitive(_derivative(p.coeffs))
    while b:
        a, b = b, _primitive(_divmod(a, b)[1])
    if a[0] < 0:
        a = tuple(-c for c in a)
    return IntPolynomial(_primitive(_divmod(p.coeffs, a)[0]))


def _sturm_chain(q: IntPolynomial) -> list[IntPolynomial]:
    """q, q', and then minus the remainder of each term divided by the next,
    scaled by a positive constant; it ends at a nonzero constant because q
    is square-free."""
    chain = [q.coeffs, _primitive(_derivative(q.coeffs))]
    while chain[-1]:
        rem = _divmod(chain[-2], chain[-1])[1]
        chain.append(_primitive([-c for c in rem]))
    return [IntPolynomial(s) for s in chain[:-1]]


def _variations(chain: list[IntPolynomial], x: Fraction) -> int:
    """Sign changes along the chain at x, zeros dropped."""
    signs = [v > 0 for v in (s.eval(x) for s in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _tolerance(tol: float) -> Fraction:
    if not (math.isfinite(tol) and tol > 0):
        raise Unsupported(f"tolerance must be positive and finite, got {tol}")
    return Fraction(tol)


def _bisect(f, lo: Fraction, hi: Fraction, tol: Fraction) -> RootEstimate:
    """Halve (lo, hi] down to width tol around the one root of f in it,
    where f > 0 at hi and f < 0 just above lo."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if f_mid == 0:
            return RootEstimate(float(mid), 0.0, (mid, mid))
        if f_mid > 0:
            hi = mid
        else:
            lo = mid
    mid = (lo + hi) / 2
    return RootEstimate(float(mid), float((hi - lo) / 2), (lo, hi))


def dominant_root(p: IntPolynomial, tol: float = 1e-9) -> RootEstimate:
    """The largest real root of p, certified, if it lies above 1.

    Every root lies below B = 1 + max|c_i| (Cauchy's bound; the integer
    leading coefficient is at least 1 in size).  Let q = p / gcd(p, p'),
    which has the real roots of p, each simple.  By Sturm's theorem, if V(x)
    counts the sign changes of q's Sturm sequence at x, V(a) - V(b) is the
    number of distinct real roots in (a, b], for any a < b: V drops by one
    just left of each root of q and nowhere else.

    If V(1) = V(B), p has no real root above 1, and `NoRootAboveOne` says so
    with that proof.  Otherwise the bracket is halved, keeping (mid, hi]
    when it holds a root and (lo, mid] when it does not, until (lo, hi]
    holds exactly one root: the largest.  Bisection on the exact sign of q
    then narrows (lo, hi] to width at most `tol`; the sign of q at hi is the
    opposite of its sign just above lo.

    Guarantee of every return: the largest real root of p lies in the
    half-open bracket (lo, hi], no other root of p does, and q changes sign
    across it.  A bracket (x, x) means q(x) = 0 exactly, and x is the root.
    For square-free primitive p (the quad polynomial, say), q is p.
    """
    tol = _tolerance(tol)
    chain = _sturm_chain(_square_free(p))
    lo, hi = Fraction(1), Fraction(1 + max(abs(c) for c in p.coeffs))
    v_lo, v_hi = _variations(chain, lo), _variations(chain, hi)
    if v_lo == v_hi:
        raise NoRootAboveOne(f"no real root in (1, {hi}]")
    while v_lo - v_hi > 1:
        mid = (lo + hi) / 2
        v_mid = _variations(chain, mid)
        if v_mid > v_hi:
            lo, v_lo = mid, v_mid
        else:
            hi = mid
    q = chain[0]
    q_hi = q.eval(hi)
    if q_hi == 0:  # the count halving stopped on the root itself
        return RootEstimate(float(hi), 0.0, (hi, hi))
    return _bisect(q.eval if q_hi > 0 else lambda x: -q.eval(x), lo, hi, tol)


def alpha(i: int, tol: float = 1e-9) -> RootEstimate:
    """The largest real root of p = x^i - x^{i-1} - ... - x - 1, i >= 2.

    The coefficients of p change sign once, so by Descartes' rule of signs
    p has exactly one positive root r; as p(0) = -1, p < 0 on (0, r) and
    p > 0 above r.  For x > 1, p(x) has the sign of
    f(x) = (x - 1) p(x) = x^i (x - 2) + 1.  So r lies in (a, 2) with
    a = 2 - 2^(1-i):
      - f(2) = 1 > 0;
      - f(a) = 1 - 2 (a/2)^i < 0, since (a/2)^i = (1 - 2^-i)^i
        > 1 - i 2^-i >= 1/2 (Bernoulli's inequality, strict for i >= 2).
    Bisection starts from that bracket and reads each sign from f, one
    power of x, not a degree-i Horner pass; for i >= 1 - log2(tol) the
    bracket is already narrow enough.  f(x) is never 0 there: r is
    irrational, as a rational root of the monic p would be an integer
    dividing 1, and p(1) = 1 - i.
    """
    if i < 2:
        raise InvalidIndex(f"index must be >= 2, got {i}")
    tol = _tolerance(tol)

    def f(x: Fraction) -> int:  # d^(i+1) f(n/d), in integers: the sign of f(x)
        n, d = x.numerator, x.denominator
        return n ** i * (n - 2 * d) + d ** (i + 1)

    return _bisect(f, 2 - Fraction(1, 2 ** (i - 1)), Fraction(2), tol)
