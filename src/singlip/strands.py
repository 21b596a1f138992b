"""Plane curve germs as Puiseux branches, their strands, and contact data.

A branch ``y = sum a_e x^e`` with rational exponents of common denominator n
cuts the line x = t in n points, the *strands*: the j-th strand multiplies
the coefficient of x^(m/n) by zeta_n^(j*m).  Distances between strands decay
as t^q for rational contact exponents q, and the symmetric matrix of all
pairwise contacts is the combinatorial core of the outer Lipschitz geometry
of the germ.

Coefficients of the input branches are rational; roots of unity enter only
through the conjugation twist, so every strand coefficient is a monomial
a * zeta_N^k with a rational and N the lcm of the branch denominators.  It
is stored as the exact key (a, k), normalised so that equal coefficients
have equal keys; contacts are then tuple comparisons, with no field
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from .errors import InputError
from .exactnum import as_rational, rational_to_json

INFINITY = None  # sentinel for infinite contact, kept exact on purpose


@dataclass(frozen=True)
class PuiseuxBranch:
    """One Puiseux branch: strictly increasing exponents >= 1, coeffs != 0.

    ``denominator`` is the minimal common denominator of the exponents; the
    constructor checks minimality rather than silently renormalising, since
    a non-minimal denominator means the caller is describing a non-reduced
    branch (fewer genuine strands than claimed).
    """

    denominator: int
    terms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        n = self.denominator
        if n < 1:
            raise InputError("branch denominator must be a positive integer")
        prev = None
        nums = []
        for exp, coeff in self.terms:
            if coeff == 0:
                raise InputError("zero coefficient in branch term")
            if exp < 1:
                raise InputError(f"branch exponent {exp} below 1")
            if prev is not None and exp <= prev:
                raise InputError("branch exponents must strictly increase")
            if (exp * n).denominator != 1:
                raise InputError(f"exponent {exp} not over denominator {n}")
            nums.append((exp * n).numerator)
            prev = exp
        if math.gcd(n, *nums) != 1:
            raise InputError(f"denominator {n} is not minimal for {nums}")

    @classmethod
    def from_terms(cls, terms: Sequence[tuple]) -> "PuiseuxBranch":
        """Build from (exponent, coefficient) pairs, computing the minimal n."""
        pairs = sorted((as_rational(e), as_rational(c)) for e, c in terms)
        n = reduce(math.lcm, (e.denominator for e, _ in pairs), 1)
        return cls(n, tuple(pairs))

    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(e for e, _ in self.terms)

    def parametrization(self) -> tuple[dict, dict]:
        """(x(t), y(t)) as exponent->coefficient dicts with x = t^n."""
        n = self.denominator
        x = {n: Fraction(1)}
        y = {int(e * n): c for e, c in self.terms}
        return x, y

    def to_json(self) -> dict:
        return {"denominator": self.denominator,
                "terms": [{"exp": rational_to_json(e),
                           "coeff": rational_to_json(c)} for e, c in self.terms]}


@dataclass(frozen=True)
class Strand:
    """One of the n conjugate series of a branch, over a common order N.

    ``series`` holds (exponent, (a, k)) in increasing exponent order; the
    coefficient is a * zeta_N^k with a != 0, keyed by ``coefficient_key``.
    """

    branch_index: int
    twist: int
    order: int
    series: tuple[tuple[Fraction, tuple[Fraction, int]], ...]


def coefficient_key(a: Fraction, k: int, order: int) -> tuple[Fraction, int]:
    """Normal form of a * zeta_order^k: k reduced mod order, and below
    order/2 when order is even, by zeta^(order/2) = -1."""
    # a zeta^k = b zeta^l forces zeta^(k-l) = b/a to be a rational root of
    # unity, i.e. +-1, so after this reduction equal values have equal keys
    k %= order
    if order % 2 == 0 and k >= order // 2:
        return -a, k - order // 2
    return a, k


def _strands_of_branch(index: int, branch: PuiseuxBranch, order: int) -> list[Strand]:
    n = branch.denominator
    step = order // n
    out = []
    for j in range(n):
        series = tuple((e, coefficient_key(a, j * (e * n).numerator * step, order))
                       for e, a in branch.terms)
        out.append(Strand(index, j, order, series))
    return out


def strands_of(curve: Sequence[PuiseuxBranch]) -> list[Strand]:
    """All strands of the curve over N = lcm of the branch denominators.

    Rejects curves containing two copies of the same branch (identical
    strand sets), which are non-reduced and have no finite contact data.
    """
    if not curve:
        raise InputError("curve needs at least one branch")
    order = reduce(math.lcm, (b.denominator for b in curve), 1)
    per_branch = [_strands_of_branch(i, b, order) for i, b in enumerate(curve)]
    for i in range(len(curve)):
        for k in range(i + 1, len(curve)):
            series_i = {s.series for s in per_branch[i]}
            series_k = {s.series for s in per_branch[k]}
            if series_i == series_k:
                raise InputError(f"branches {i} and {k} have identical strand sets")
    return [s for group in per_branch for s in group]


def strand_contact(s: Strand, t: Strand) -> Optional[Fraction]:
    """Smallest exponent where the two series differ; None (infinity) if equal."""
    if s.order != t.order:
        raise InputError("strands expanded over different orders")
    # at the first differing term either the keys differ at one exponent,
    # or the smaller exponent is missing (coefficient 0) from the other
    # series; stored coefficients are never 0
    for x, y in zip(s.series, t.series):
        if x != y:
            return min(x[0], y[0])
    a, b = len(s.series), len(t.series)
    if a == b:
        return INFINITY
    return s.series[b][0] if a > b else t.series[a][0]


@dataclass(frozen=True)
class ContactMatrix:
    """Symmetric matrix of strand contacts with infinite diagonal."""

    size: int
    entries: tuple[tuple[Optional[Fraction], ...], ...]

    def q(self, j: int, k: int) -> Optional[Fraction]:
        return self.entries[j][k]

    def finite_values(self) -> set[Fraction]:
        return {v for row in self.entries for v in row if v is not None}

    def check_ultrametric(self) -> list[tuple[int, int, int]]:
        """Triples (j,k,l) violating q(j,l) >= min(q(j,k), q(k,l)), None
        counting as infinity.

        The leaf contacts of any carrousel tree form an ultrametric matrix
        with infinite diagonal, and such a matrix is the leaf contact matrix
        of its own tree.  So a matrix the round trip gives back has no
        violation, and the cubic scan only runs for one it does not (never
        one built by ``contact_matrix``).
        """
        from .carrousel import build_carrousel_tree, leaf_contacts
        if leaf_contacts(build_carrousel_tree(self)).entries == self.entries:
            return []

        def below(v, w):  # v < w with None as infinity
            return v is not None and (w is None or v < w)
        rows = self.entries
        m = self.size
        return [(j, k, l) for j in range(m) for k in range(m) for l in range(m)
                if below(rows[j][l], rows[j][k]) and below(rows[j][l], rows[k][l])]

    def to_json(self) -> dict:
        rows = [["inf" if v is None else rational_to_json(v) for v in row]
                for row in self.entries]
        return {"size": self.size, "entries": rows}


def contact_matrix(curve: Sequence[PuiseuxBranch]) -> ContactMatrix:
    strands = strands_of(curve)
    m = len(strands)
    rows = [[None] * m for _ in range(m)]
    for j in range(m):
        for k in range(j + 1, m):
            rows[j][k] = rows[k][j] = strand_contact(strands[j], strands[k])
    return ContactMatrix(m, tuple(tuple(r) for r in rows))


def branch_char_exponents(branch: PuiseuxBranch) -> set[Fraction]:
    """Exponents that enlarge the denominator lattice of the earlier ones."""
    out = set()
    lattice = 1
    for e, _ in branch.terms:
        if lattice % e.denominator != 0:
            out.add(e)
            lattice = math.lcm(lattice, e.denominator)
    return out


def coincidence_exponent(a: PuiseuxBranch, b: PuiseuxBranch) -> Fraction:
    """Max strand contact between two distinct branches."""
    pair = strands_of([a, b])
    best = None
    for s in pair:
        if s.branch_index != 0:
            continue
        for t in pair:
            if t.branch_index != 1:
                continue
            q = strand_contact(s, t)
            if q is INFINITY:
                raise InputError("branches share a strand; not distinct")
            if best is None or q > best:
                best = q
    return best


@dataclass(frozen=True)
class HornJumpProfile:
    """Component counts of a shrinking horn around one strand's arc.

    ``thresholds`` are the distinct finite contacts with the base strand in
    decreasing order; ``counts[i]`` is the component count for horn exponents
    between thresholds[i-1] and thresholds[i] (counts[0] = 1 above all of
    them, the last entry is the full strand count).
    """

    base: int
    thresholds: tuple[Fraction, ...]
    counts: tuple[int, ...]

    def pairs(self) -> list[tuple[Fraction, int]]:
        return [(t, self.counts[i + 1]) for i, t in enumerate(self.thresholds)]

    def to_json(self) -> dict:
        return {"base": self.base,
                "thresholds": [rational_to_json(t) for t in self.thresholds],
                "counts": list(self.counts)}


def horn_jump_profile(matrix: ContactMatrix, base: int) -> HornJumpProfile:
    if not 0 <= base < matrix.size:
        raise InputError(f"base strand {base} out of range")
    row = [matrix.q(base, k) for k in range(matrix.size)]
    thresholds = sorted({v for v in row if v is not None}, reverse=True)
    counts = [1]
    for t in thresholds:
        counts.append(1 + sum(1 for v in row if v is not None and v >= t))
    return HornJumpProfile(base, tuple(thresholds), tuple(counts))
