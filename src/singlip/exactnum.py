"""Exact scalar arithmetic: rationals and plus-type continued fractions.

Rationals are plain ``fractions.Fraction`` values; the standard library
already keeps them in lowest terms with a positive denominator, which is
exactly the invariant we need.  Nothing in this module (or anywhere else in
the package) rounds: floats appear only in test oracles.

A "plus" continued fraction is the expansion

    [a1, a2, ..., ar]+  =  a1 + 1/(a2 + 1/(a3 + ...))

with ``a1 >= 0`` (so values below 1 are allowed, e.g. 1/2 = [0,2]+) and
``ai >= 1`` afterwards.  Canonical form ends with a term >= 2 whenever there
is more than one term, which makes the expansion of a rational unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InputError

Rational = Fraction
RationalLike = Union[int, Fraction]


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, "p/q" strings and {"num","den"} dicts."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return Fraction(value["num"], value["den"])
    raise InputError(f"cannot interpret {value!r} as a rational number")


def rational_to_json(r: Fraction) -> dict:
    return {"num": r.numerator, "den": r.denominator}


@dataclass(frozen=True)
class PlusContinuedFraction:
    """Canonical plus continued fraction [a1, ..., ar]+ of a rational >= 0."""

    terms: tuple[int, ...]

    def __post_init__(self):
        t = self.terms
        if not t:
            raise InputError("continued fraction needs at least one term")
        if t[0] < 0 or any(a < 1 for a in t[1:]):
            raise InputError(f"invalid plus continued fraction terms {t}")
        if len(t) >= 2 and t[-1] < 2:
            raise InputError(f"non-canonical final term in {t}")

    def value(self) -> Fraction:
        v = Fraction(self.terms[-1])
        for a in reversed(self.terms[:-1]):
            v = a + 1 / v
        return v

    def approximants(self) -> tuple[Fraction, ...]:
        """Values of the prefixes [a1]+, [a1,a2]+, ..., the full value last."""
        out = []
        for k in range(1, len(self.terms) + 1):
            v = Fraction(self.terms[k - 1])
            for a in reversed(self.terms[: k - 1]):
                v = a + 1 / v
            out.append(v)
        return tuple(out)

    def blowup_approximants(self) -> tuple[Fraction, ...]:
        """One value per unit increment of a term: [1], [1,1], [1,1,1],
        [1,1,2] for [1,1,2]+.  These are the approximation numbers matching
        the sum(terms) point blow-ups resolving a single characteristic
        exponent, in creation order."""
        out = []
        for k, a in enumerate(self.terms):
            start = 1 if k > 0 else (0 if a == 0 else 1)
            for partial in range(start, a + 1):
                v = Fraction(partial)
                for t in reversed(self.terms[:k]):
                    v = t + 1 / v
                out.append(v)
        return tuple(out)

    def __iter__(self):
        return iter(self.terms)


def cf_expand(r: RationalLike) -> PlusContinuedFraction:
    """Canonical plus-continued-fraction expansion of a rational r >= 0."""
    r = Fraction(r)
    if r < 0:
        raise InputError(f"cf_expand needs a non-negative rational, got {r}")
    terms = [r.numerator // r.denominator]
    rest = r - terms[0]
    while rest:
        r = 1 / rest
        a = r.numerator // r.denominator
        rest = r - a
        terms.append(a)
    return PlusContinuedFraction(tuple(terms))


def cf_approximants(cf: PlusContinuedFraction) -> tuple[Fraction, ...]:
    return cf.approximants()
