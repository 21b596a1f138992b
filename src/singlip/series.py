"""Integer quotient series for the blow-up simulator.

A coordinate function on a branch is a quotient num/den of polynomials in
the branch parameter t, ``{exponent: int}`` dicts with den a unit at 0,
divided by the gcd of all their coefficients, signed so that den(0) > 0.

It is known modulo t^P, P infinite when exact: the parametrization is, and
so is a quotient by an exact monomial.  Any other division v/u, o = ord u,
has P = min(P_v - o, ord v + P_u - 2o, horizon), v's error shifted by o
and u's carried through, and keeps num below P and den below P - ord num.
That is sound because den is a unit at 0: changing it by O(t^(P - ord num))
changes num/den by O(t^P).  So subtracting a nonzero constant from a series
of order s > 0 loses s.

The resolver reads only orders and values at 0.  An order with no nonzero
term stored below P, or a division leaving P < 1, raises
``PrecisionExhausted``.  A resolution reads a branch up to n times its last
characteristic or coincidence exponent (Wall 2004, *Singular Points of
Plane Curves*), and ``tower.resolve_curve`` doubles the horizon until then.
Besides num, den and P, a series keeps that horizon and its order, found
once when it is built and None where ``ord`` raises.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional


class PrecisionExhausted(Exception):
    """A decision would read a term past a series' precision."""


def _mul(a: dict, b: dict, shift: int, limit) -> dict:
    """a * b / t^shift, keeping the terms below ``limit``."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb - shift
            if e < limit:
                out[e] = out.get(e, 0) + ca * cb
    return out


class RatSeries(NamedTuple):
    """num/den over Z, den a unit at 0, known modulo t^prec."""

    num: dict
    den: dict
    prec: float  # an int, or math.inf when exact
    horizon: int
    order: Optional[float]  # ord(): an int or math.inf; None if it raises

    @classmethod
    def make(cls, poly: dict, horizon: int) -> "RatSeries":
        """The exact series of a polynomial with rational coefficients."""
        d = math.lcm(*(c.denominator for c in poly.values()))  # gcd 1 with num
        num = {e: c.numerator * (d // c.denominator) for e, c in poly.items()}
        return cls(num, {0: d}, math.inf, horizon, min(num, default=math.inf))

    @classmethod
    def _reduced(cls, num: dict, den: dict, prec, horizon: int) -> "RatSeries":
        g = math.gcd(*num.values(), *den.values()) * (-1 if den[0] < 0 else 1)
        if g != 1 or 0 in num.values():  # else num/den is reduced already
            num = {e: c // g for e, c in num.items() if c}
            den = {e: c // g for e, c in den.items()}
        order = min(num) if num else math.inf if prec == math.inf else None
        return cls(num, den, prec, horizon, order)

    def ord(self):
        """t-order, infinite for the exact zero series."""
        if self.order is None:
            raise PrecisionExhausted
        return self.order

    def constant(self) -> Fraction:
        """Value at t = 0."""
        return Fraction(self.num.get(0, 0), self.den[0])

    def sub_const(self, c: Fraction) -> "RatSeries":
        prec = self.prec if not c or self.prec == math.inf else self.prec - self.ord()
        p, q = c.numerator, c.denominator
        num = {e: q * a for e, a in self.num.items()}
        for e, b in self.den.items():
            num[e] = num.get(e, 0) - p * b
        # den matters below prec - ord num only, and num's order may have risen
        limit = prec - min((e for e, a in num.items() if a), default=0)
        den = {e: q * b for e, b in self.den.items() if e < limit}
        return RatSeries._reduced(num, den, prec, self.horizon)

    def div(self, other: "RatSeries") -> "RatSeries":
        """self / other, factoring other's t-order into the numerator side."""
        o, so = other.ord(), self.ord()
        if so == math.inf:
            return self
        assert o <= so and o < math.inf, "division by zero or to a pole"
        monomial = other.prec == math.inf and len(other.num) == len(other.den) == 1
        prec = min(self.prec - o, so + other.prec - 2 * o,
                   math.inf if monomial else self.horizon)
        # never true: every stored exponent lies below its series' prec, so
        # o <= so < P_self and o < P_other put both bounds at 1 or more, and
        # the resolver's horizon is at least 2; kept as an independent check
        if prec < 1:
            raise PrecisionExhausted
        return RatSeries._reduced(_mul(self.num, other.den, o, prec),
                                  _mul(self.den, other.num, o, max(prec + o - so, 1)),
                                  prec, self.horizon)
