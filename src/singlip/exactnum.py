"""Exact arithmetic: rationals and fraction-free integer elimination.

Rationals are plain ``fractions.Fraction`` values; the standard library
already keeps them in lowest terms with a positive denominator, which is
exactly the invariant we need.  Nothing in this module (or anywhere else in
the package) rounds: floats appear only in test oracles.

Every linear-algebra question about an intersection matrix (determinant,
signs of the leading principal minors, exact solves) goes through the one
Bareiss elimination ``eliminate``, on sparse rows in an order the caller
picks.  Eliminating a vertex joins its later neighbours; in any order with
each tree vertex before its parent, here reverse breadth-first, each has
one, its parent, so nothing fills in (Parter 1961).  No caller's answer
depends on the order: a symmetric permutation keeps the determinant and
permutes the solution, which the caller maps back; Sylvester's criterion
holds in any order, and a zero minor fails it in any; singularity and
integrality belong to the matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import InputError

_RATIONAL_KEYS = frozenset(("num", "den"))


def is_int(x) -> bool:
    """An integer that is not a bool: JSON ``true`` is not the number 1.
    ``json.loads`` yields exact ints, so the exact test comes first."""
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, "p/q" strings of ASCII digits with an optional
    sign and {"num","den"} dicts of integers; anything else, a bool, a decimal
    or exponent string or a zero denominator included, is an InputError."""
    try:
        if isinstance(value, dict):   # exact types first, as json.loads gives them
            if len(value) == 2 and (type(value.get("num")) is type(value.get("den")) is int
                                    or value.keys() == _RATIONAL_KEYS
                                    and all(map(is_int, value.values()))):
                return Fraction(value["num"], value["den"])
        elif is_int(value) or isinstance(value, Fraction):
            return Fraction(value)
        elif isinstance(value, str) and value.isascii():
            # not all Fraction reads: it expands "1e-99999999" to 10**99999999
            num, slash, den = value.lstrip("+-").partition("/")
            if num.isdigit() and (den.isdigit() or not slash):
                return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    text = repr(value)  # cut, so that a long value does not fill the message
    text = text if len(text) <= 60 else f"{text[:40]}... ({len(text)} characters)"
    raise InputError(f"cannot interpret {text} as a rational number")


def rational_to_json(r: Fraction) -> dict:
    return {"num": r.numerator, "den": r.denominator}


class Elimination(NamedTuple):
    minors: tuple                 # leading principal minors of order 1, 2, ...
    determinant: int
    solution: Optional[tuple]     # Fractions; None without rhs or if singular


def eliminate(rows: Sequence[dict],
              rhs: Optional[Sequence[int]] = None) -> Elimination:
    """Fraction-free Gaussian elimination (Bareiss 1968) of a square integer
    matrix of sparse rows, ``rows[i]`` mapping a column to its entry (a
    missing column is zero), optionally augmented by an integer right-hand
    side.

    Without row swaps the k-th pivot is the leading principal minor of
    order k (Sylvester's identity) and every division is exact.  A zero
    pivot swaps in the first row below that is non-zero in its column; that
    vanishing minor is the last one reported.  By Cramer's rule det * x is
    an integer vector, solved from the triangular rows by exact divisions;
    when det is 1 or -1, x = det * (det * x) is integral and needs no gcd.

    Rows are updated lazily.  A step with pivot p_k scales each row that is
    zero in the pivot column by p_k / p_(k-1); over steps s+1..k that
    telescopes to p_k / p_s.  So a row records the step it is current at
    and is touched only when a pivot column hits it, where the update
    divides by p_s instead of p_(k-1), or when it becomes the pivot row and
    is scaled.  Scaling keeps zeros zero, so stale rows answer the hit
    tests.  Each column lists the rows that held it, so the work is the
    number of non-zeros, fill-in included.
    """
    n = len(rows)
    rows = [{**row, n: b} if b else dict(row)    # rhs is column n
            for row, b in zip(rows, rhs or [0] * n)]
    cols = [[] for _ in range(n + 1)]    # cols[j]: rows with column j
    for r, row in enumerate(rows):
        for j in row:
            cols[j].append(r)
    pivots = [1]         # pivots[s] = p_s, the pivot of step s
    current = [0] * n    # rows[r] holds its value after step current[r]
    minors = []
    swapped = False
    sign = 1
    for k in range(n):           # step k + 1
        if not rows[k].get(k):
            if not swapped:
                minors.append(0)
            swapped = True
            pivot = min((r for r in cols[k] if r > k and rows[r].get(k)),
                        default=None)
            if pivot is None:
                return Elimination(tuple(minors), 0, None)
            rows[k], rows[pivot] = rows[pivot], rows[k]
            current[k], current[pivot] = current[pivot], current[k]
            sign = -sign
            for j in rows[pivot]:        # the row moved down, listed again
                cols[j].append(pivot)
        top = rows[k]
        if current[k] != k:      # bring it up to date
            p, q = pivots[k], pivots[current[k]]
            for j in top:
                top[j] = top[j] * p // q
        p = top.pop(k)           # the pivot row keeps its columns past k
        if not swapped:
            minors.append(p)
        for r in cols[k]:
            row = rows[r]
            if r > k and row.get(k):
                f = row.pop(k)
                q = pivots[current[r]]
                for j in row:
                    row[j] = (p * row[j] - f * top.get(j, 0)) // q
                for j, b in top.items():
                    if j not in row:     # fill-in
                        row[j] = -f * b // q
                        cols[j].append(r)
                current[r] = k + 1
        pivots.append(p)
    solution, det = None, pivots[n]
    if rhs is not None:          # y[n] = -det puts -det * rhs_i in row i's sum
        y = [0] * n + [-det]
        for i in range(n - 1, -1, -1):
            acc = 0
            for j, a in rows[i].items():
                acc -= a * y[j]
            y[i] = acc // pivots[i + 1]
        solution = (tuple(map(Fraction, [v * det for v in y[:n]])) if det in (1, -1)
                    else tuple(Fraction(v, det) for v in y[:n]))
    return Elimination(tuple(minors), sign * det, solution)
