"""Exact arithmetic: rationals and fraction-free integer elimination.

Rationals are plain ``fractions.Fraction`` values; the standard library
already keeps them in lowest terms with a positive denominator, which is
exactly the invariant we need.  Nothing in this module (or anywhere else in
the package) rounds: floats appear only in test oracles.

Every linear-algebra question about an intersection matrix (determinant,
signs of the leading principal minors, exact solves) goes through the one
Bareiss elimination ``eliminate`` below.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import InputError

Rational = Fraction


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, "p/q" strings and {"num","den"} dicts of
    integers; anything else, a zero denominator included, is an
    InputError."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    try:
        if isinstance(value, str):
            return Fraction(value)
        if (isinstance(value, dict) and set(value) == {"num", "den"}
                and all(isinstance(x, int) for x in value.values())):
            return Fraction(value["num"], value["den"])
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"cannot interpret {value!r} as a rational number")


def rational_to_json(r: Fraction) -> dict:
    return {"num": r.numerator, "den": r.denominator}


class Elimination(NamedTuple):
    minors: tuple                 # leading principal minors of order 1, 2, ...
    determinant: int
    solution: Optional[tuple]     # Fractions; None without rhs or if singular


def eliminate(matrix: Sequence[Sequence[int]],
              rhs: Optional[Sequence[int]] = None) -> Elimination:
    """Fraction-free Gaussian elimination of a square integer matrix
    (Bareiss 1968), optionally augmented by an integer right-hand side.

    Without row swaps the k-th pivot is the leading principal minor of
    order k (Sylvester's identity) and every division is exact.  Rows are
    swapped only when a pivot vanishes; that vanishing minor is the last
    one reported, since the later pivots are minors of the permuted matrix.
    The solve is fraction-free too: by Cramer's rule det * x is an integer
    vector, recovered from the triangular system by exact divisions.
    """
    n = len(matrix)
    rows = [list(row) + ([rhs[i]] if rhs is not None else [])
            for i, row in enumerate(matrix)]
    minors = []
    swapped = False
    sign = prev = 1
    for k in range(n):
        if not swapped:
            minors.append(rows[k][k])
        if rows[k][k] == 0:
            swapped = True
            pivot = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if pivot is None:
                return Elimination(tuple(minors), 0, None)
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for r in range(k + 1, n):
            row = rows[r]
            f = row[k]
            row[k + 1:] = [(p * a - f * b) // prev
                           for a, b in zip(row[k + 1:], top[k + 1:])]
        prev = p
    solution = None
    if rhs is not None:
        y = [0] * n
        for i in reversed(range(n)):
            acc = prev * rows[i][n] - sum(rows[i][j] * y[j]
                                          for j in range(i + 1, n))
            y[i] = acc // rows[i][i]
        solution = tuple(Fraction(v, prev) for v in y)
    return Elimination(tuple(minors), sign * prev, solution)
