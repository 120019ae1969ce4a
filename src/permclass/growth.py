"""Growth-rate constants: characteristic polynomials and real roots above 1.

Roots are located by bisection with exact rational sign evaluation, so every
returned estimate carries a bracket on which the polynomial provably changes
sign, and so holds a root.  That this root is the largest one is not
certified (see `dominant_root`).  Degrees here are tiny; correctness beats
speed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .enumeration import LinearRecurrence
from .errors import InvalidIndex, NoRootAboveOne, Undefined, Unsupported

_GRID_STEPS = 1024


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
        acc = Fraction(0)
        for c in self.coeffs:
            acc = acc * x + c
        return acc


class RootEstimate(NamedTuple):
    value: float
    error: float
    bracket: tuple[Fraction, Fraction]


def char_poly(r: LinearRecurrence) -> IntPolynomial:
    """x^d - c_1 x^{d-1} - ... - c_d for an integer-coefficient recurrence."""
    if any(c.denominator != 1 for c in map(Fraction, r.coeffs)):
        raise Unsupported("characteristic polynomial needs integer coefficients")
    return IntPolynomial((1,) + tuple(-int(c) for c in r.coeffs))


def dominant_root(p: IntPolynomial, tol: float = 1e-9) -> RootEstimate:
    """A real root in (1, 1 + max|c_i|], by exact-sign bisection.

    The interval is cut into a fixed grid of cells and the rightmost cell
    whose endpoints differ in sign is bisected.  What is certified: the
    polynomial changes sign on the returned bracket, so the bracket holds a
    root.  What is not: that this root is the largest.  Roots that share a
    grid cell can cancel each other's sign change (two roots in one cell
    show none, and a root of even multiplicity never shows one), so a larger
    root can be missed; if every root above 1 is missed, `NoRootAboveOne`
    is raised although such a root exists.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise Unsupported(f"tolerance must be positive and finite, got {tol}")
    bound = Fraction(1 + max(abs(c) for c in p.coeffs))
    lo = hi = None
    step = (bound - 1) / _GRID_STEPS
    x_hi = bound
    s_hi = p.eval(x_hi)
    for k in range(_GRID_STEPS, 0, -1):
        x_lo = 1 + (k - 1) * step
        s_lo = p.eval(x_lo)
        if s_hi == 0:
            return RootEstimate(float(x_hi), 0.0, (x_hi, x_hi))
        if (s_lo < 0) != (s_hi < 0):
            lo, hi = x_lo, x_hi
            break
        x_hi, s_hi = x_lo, s_lo
    if lo is None:
        raise NoRootAboveOne(f"no sign change in (1, {bound}]")
    s_lo = p.eval(lo)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s_mid = p.eval(mid)
        if s_mid == 0:
            return RootEstimate(float(mid), 0.0, (mid, mid))
        if (s_mid < 0) == (s_lo < 0):
            lo, s_lo = mid, s_mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    return RootEstimate(float(mid), float((hi - lo) / 2), (lo, hi))


def alpha(i: int, tol: float = 1e-9) -> RootEstimate:
    """Largest positive real root of x^i - x^{i-1} - ... - x - 1."""
    if i < 2:
        raise InvalidIndex(f"index must be >= 2, got {i}")
    return dominant_root(IntPolynomial((1,) + (-1,) * i), tol)


class GrowthEstimate(NamedTuple):
    ratio: float
    index: int  # n of the numerator term


def empirical_growth(seq: Sequence[int]) -> GrowthEstimate:
    """Ratio of the last two terms; a quick sanity check on asymptotics."""
    if len(seq) < 2 or seq[-2] <= 0 or seq[-1] <= 0:
        raise Undefined("growth ratio needs two trailing positive terms")
    return GrowthEstimate(seq[-1] / seq[-2], len(seq))
