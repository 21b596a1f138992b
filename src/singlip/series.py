"""Exact one-variable series arithmetic for the blow-up simulator.

Branch strict transforms are tracked through blow-ups as pairs of local
coordinate functions evaluated on the branch parametrization.  Divisions of
the form v/u produce genuine power series with infinitely many terms, so a
truncated representation would force precision management; instead every
coordinate function is stored as an exact quotient of polynomials in t with
a denominator that is a unit at t = 0.  The resolver reads only orders and
constant terms (values at t = 0) off these quotients, so both are exact and
no precision is ever lost.

Polynomials are ``{exponent: coefficient}`` dicts over Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

Poly = dict


def pclean(p: Poly) -> Poly:
    return {e: c for e, c in p.items() if c}


def padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return pclean(out)


def pscale(a: Poly, k: Fraction) -> Poly:
    return pclean({e: c * k for e, c in a.items()})


def pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return pclean(out)


def pord(a: Poly):
    return min(a) if a else None


@dataclass(frozen=True)
class RatSeries:
    """Quotient num/den of polynomials in t, den a unit at 0."""

    num: Poly
    den: Poly

    @classmethod
    def make(cls, num: Poly, den: Poly | None = None) -> "RatSeries":
        den = {0: Fraction(1)} if den is None else pclean(den)
        num = pclean(num)
        if den.get(0, Fraction(0)) == 0:
            raise DomainError("RatSeries denominator must be a unit at 0")
        return cls(num, den)

    def ord(self):
        return pord(self.num)

    def constant(self) -> Fraction:
        """Value at t = 0."""
        return self.num.get(0, 0) / self.den[0]

    def sub_const(self, c: Fraction) -> "RatSeries":
        return RatSeries.make(padd(self.num, pscale(self.den, -c)), self.den)

    def div(self, other: "RatSeries") -> "RatSeries":
        """self / other, factoring other's t-order into the numerator side."""
        o = other.ord()
        if o is None:
            raise DomainError("division by the zero series")
        shifted = {e - o: c for e, c in other.num.items()}
        num = pmul(self.num, other.den)
        den = pmul(self.den, shifted)
        so = self.ord()
        if so is not None and so < o:
            raise DomainError("division would produce a pole")
        num = {e - o: c for e, c in num.items()}
        return RatSeries.make(num, den)
