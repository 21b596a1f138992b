"""Exact arithmetic: rationals and fraction-free integer elimination.

Rationals are plain ``fractions.Fraction`` values; the standard library
already keeps them in lowest terms with a positive denominator, which is
exactly the invariant we need.  Nothing in this module (or anywhere else in
the package) rounds: floats appear only in test oracles.

Every linear-algebra question about an intersection matrix (determinant,
signs of the leading principal minors, exact solves) goes through the one
Bareiss elimination ``eliminate`` below.  Intersection matrices of
resolution graphs are tridiagonal for chains and nearly so for trees, so
``eliminate`` scales a row lazily: it touches a row only when a pivot
column hits it or it becomes the pivot row, and the scalings of the steps
it skipped telescope to one exact factor.  Scaling by a ratio of non-zero
pivots keeps every zero entry zero and every non-zero one non-zero, so
the zero tests read the stale rows as they are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import InputError


def is_int(x) -> bool:
    """An integer that is not a bool: JSON ``true`` is not the number 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, "p/q" strings and {"num","den"} dicts of
    integers; anything else, a bool or a zero denominator included, is an
    InputError."""
    if is_int(value) or isinstance(value, Fraction):
        return Fraction(value)
    try:
        if isinstance(value, str):
            return Fraction(value)
        if (isinstance(value, dict) and set(value) == {"num", "den"}
                and all(map(is_int, value.values()))):
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

    Rows are updated lazily.  Step k, with pivot p_k (p_0 = 1), only
    scales a row whose entry in the pivot column is zero, by p_k / p_(k-1);
    after a run of such steps s+1..k the row is its value after step s
    times p_k / p_s.  So each row keeps the last step it was brought up to
    date at, and is touched only when a pivot column hits it or it becomes
    the pivot row.  A hit at step k applies the Bareiss update to the stale
    entries and divides by p_s instead of p_(k-1), which gives the same
    exact integers; a new pivot row, by position or by a swap, is scaled by
    p_(k-1) / p_s.  Pivots are non-zero, so a stale entry is zero exactly
    when the current one is, and the hit tests and the swap search read
    stale rows.  Every row is current at its own pivot step, which is all
    the back substitution reads.  A chain's tridiagonal matrix thus costs
    O(n^2) instead of O(n^3).
    """
    n = len(matrix)
    rows = [list(row) + ([rhs[i]] if rhs is not None else [])
            for i, row in enumerate(matrix)]
    pivots = [1]         # pivots[s] = p_s, the pivot of step s
    current = [0] * n    # rows[r] holds its value after step current[r]

    def bring_up(r, k):          # rows[r] to its value after step k
        s = current[r]
        if s != k:
            p, q = pivots[k], pivots[s]
            rows[r][k:] = [a * p // q for a in rows[r][k:]]
            current[r] = k

    minors = []
    swapped = False
    sign = 1
    for k in range(n):           # step k + 1
        bring_up(k, k)
        if not swapped:
            minors.append(rows[k][k])
        if rows[k][k] == 0:
            swapped = True
            pivot = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if pivot is None:
                return Elimination(tuple(minors), 0, None)
            rows[k], rows[pivot] = rows[pivot], rows[k]
            current[k], current[pivot] = current[pivot], current[k]
            sign = -sign
            bring_up(k, k)
        top = rows[k]
        p = top[k]
        for r in range(k + 1, n):
            row = rows[r]
            f = row[k]
            if f:
                q = pivots[current[r]]
                row[k + 1:] = [(p * a - f * b) // q
                               for a, b in zip(row[k + 1:], top[k + 1:])]
                current[r] = k + 1
        pivots.append(p)
    prev = pivots[n]
    solution = None
    if rhs is not None:
        y = [0] * n
        for i in reversed(range(n)):
            acc = prev * rows[i][n] - sum(rows[i][j] * y[j]
                                          for j in range(i + 1, n))
            y[i] = acc // rows[i][i]
        solution = tuple(Fraction(v, prev) for v in y)
    return Elimination(tuple(minors), sign * prev, solution)
