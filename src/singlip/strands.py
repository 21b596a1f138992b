"""Plane curve germs as Puiseux branches, their strands, and contact data.

A branch ``y = sum a_e x^e`` with rational exponents of common denominator n
cuts the line x = t in n points, the *strands*: the j-th strand multiplies
the coefficient of x^(m/n) by zeta_n^(j*m).  Distances between strands decay
as t^q for rational contact exponents q, and the symmetric matrix of all
pairwise contacts is the combinatorial core of the outer Lipschitz geometry
of the germ.

Coefficients of the input branches are rational; roots of unity enter only
through the conjugation twist, so every strand term is a monomial
p/q * zeta_N^k * x^(m/N) with N the lcm of the branch denominators.  It
is stored as the integer key (m, k, p, q), normalised so that equal terms
have equal keys; contacts are then comparisons of small integers, each
the numerator m of an exponent m/N.

The monodromy x^(1/N) -> zeta_N x^(1/N), the carrousel's rotation, takes
the j-th strand of each branch to its (j+1)-th.  It multiplies the
coefficient at exponent e of every strand by the same zeta_N^(e*N), so it
keeps equal keys equal and unequal ones unequal: contacts are invariant.

A contact matrix keeps its distinct finite contacts once, increasing and
then None (infinity), and per strand a row of ranks into them.  Ranks
compare as contacts do, so every N^2 pass runs on small integers too.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import InputError, ResourceCapExceeded
from .exactnum import as_rational, rational_to_json
from .jsonio import RankRows

DEFAULT_STRAND_CAP = 1024


class _BranchFields(NamedTuple):
    denominator: int
    terms: tuple[tuple[Fraction, Fraction], ...]


class PuiseuxBranch(_BranchFields):
    """One Puiseux branch: strictly increasing exponents >= 1, coeffs != 0.

    ``denominator`` is the minimal common denominator of the exponents; the
    constructor checks minimality rather than silently renormalising, since
    a non-minimal denominator means the caller is describing a non-reduced
    branch (fewer genuine strands than claimed).  ``_make`` and
    ``_replace`` skip these checks, so nothing calls them on a branch.
    """

    __slots__ = ()

    def __new__(cls, denominator: int, terms: tuple):
        n = denominator
        if n < 1:
            raise InputError("branch denominator must be a positive integer")
        prev = None
        nums = []
        for exp, coeff in terms:
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
        return super().__new__(cls, denominator, terms)

    @classmethod
    def from_terms(cls, terms: Sequence[tuple]) -> "PuiseuxBranch":
        """Build from (exponent, coefficient) pairs, computing the minimal n."""
        pairs = sorted((as_rational(e), as_rational(c)) for e, c in terms)
        n = reduce(math.lcm, (e.denominator for e, _ in pairs), 1)
        return cls(n, tuple(pairs))

    def parametrization(self) -> tuple[dict, dict]:
        """(x(t), y(t)) as exponent->coefficient dicts with x = t^n."""
        n = self.denominator
        return {n: Fraction(1)}, {int(e * n): c for e, c in self.terms}

    def to_json(self) -> dict:
        return {"denominator": self.denominator,
                "terms": [{"exp": rational_to_json(e),
                           "coeff": rational_to_json(c)} for e, c in self.terms]}


class Strand(NamedTuple):
    """One of the n conjugate series of a branch, over a common order N.

    ``series`` holds one key (m, k, p, q) per term p/q * zeta_N^k * x^(m/N),
    in increasing m, with (k, p, q) from ``coefficient_key`` and p != 0.
    Its twist is its position among its branch's strands in ``strands_of``.
    """

    branch_index: int
    order: int
    series: tuple[tuple[int, int, int, int], ...]


def coefficient_key(a: Fraction, k: int, order: int) -> tuple[int, int, int]:
    """Normal form (k, p, q) of a * zeta_order^k with a = p/q: k reduced mod
    order, and below order/2 when order is even, by zeta^(order/2) = -1."""
    # a zeta^k = b zeta^l forces zeta^(k-l) = b/a to be a rational root of
    # unity, i.e. +-1, so after this reduction equal values have equal keys
    k %= order
    if order % 2 == 0 and k >= order // 2:
        return k - order // 2, -a.numerator, a.denominator
    return k, a.numerator, a.denominator


def _strands_of_branch(index: int, branch: PuiseuxBranch, order: int) -> list[Strand]:
    # e = m/N, and the denominator of e divides N
    terms = [(e.numerator * (order // e.denominator), a) for e, a in branch.terms]
    return [Strand(index, order, tuple((m, *coefficient_key(a, j * m, order))
                                       for m, a in terms))
            for j in range(branch.denominator)]


def strands_of(curve: Sequence[PuiseuxBranch],
               strand_cap: int = DEFAULT_STRAND_CAP) -> list[Strand]:
    """All strands over N of a curve that ``check_curve`` accepts."""
    order = check_curve(curve, strand_cap)
    return [s for i, b in enumerate(curve) for s in _strands_of_branch(i, b, order)]


def check_curve(curve: Sequence[PuiseuxBranch],
                strand_cap: int = DEFAULT_STRAND_CAP) -> int:
    """N = lcm of the branch denominators.  Rejects an empty curve, one of
    more than ``strand_cap`` strands, and two copies of a branch (identical
    strand sets: non-reduced, no finite contact data).  Those need equal
    exponents, so only branches that share their denominator and term
    count with another are expanded."""
    if not curve:
        raise InputError("curve needs at least one branch")
    count = sum(b.denominator for b in curve)
    if count > strand_cap:
        raise ResourceCapExceeded(f"strand cap {strand_cap} exceeded: {count} strands")
    order = reduce(math.lcm, (b.denominator for b in curve), 1)
    shapes = Counter((b.denominator, len(b.terms)) for b in curve)
    first: dict = {}
    for k, b in enumerate(curve):
        if shapes[b.denominator, len(b.terms)] > 1:
            i = first.setdefault(frozenset(
                s.series for s in _strands_of_branch(k, b, order)), k)
            if i != k:
                raise InputError(f"branches {i} and {k} have identical strand sets")
    return order


def strand_contact(s: Strand, t: Strand) -> Optional[int]:
    """The numerator m of the smallest exponent m/N (N = ``s.order``) where
    the two series differ; None (infinity) if they are equal."""
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
        return None
    return s.series[b][0] if a > b else t.series[a][0]


def ranking(keys) -> dict:
    """The rank of each distinct key, increasing, with None (infinity) last;
    the dict lists the keys in rank order."""
    return {q: r for r, q in enumerate((*sorted(set(keys) - {None}), None))}


class _MatrixFields(NamedTuple):
    size: int
    values: tuple[Optional[Fraction], ...]
    ranks: tuple[tuple[int, ...], ...]


class ContactMatrix(_MatrixFields):
    """Symmetric matrix of strand contacts with infinite diagonal, in rank
    form (module docstring): q(j, k) is ``values[ranks[j][k]]``.  The
    constructor ranks a matrix of entries, equal values one rank; ``_make``
    takes a rank form as it is, and is never given a value unsorted,
    repeated or unused."""

    __slots__ = ()

    def __new__(cls, size: int, entries):
        rank = ranking(chain.from_iterable(entries))
        return super().__new__(cls, size, tuple(rank), tuple(
            tuple(map(rank.__getitem__, row)) for row in entries))

    def __getnewargs__(self):  # pickle and copy call __new__ with these
        return self.size, self.entries

    @property
    def entries(self) -> tuple[tuple[Optional[Fraction], ...], ...]:
        return tuple(tuple(map(self.values.__getitem__, row)) for row in self.ranks)

    def q(self, j: int, k: int) -> Optional[Fraction]:
        return self.values[self.ranks[j][k]]

    def finite_values(self) -> set[Fraction]:
        return set(self.values[:-1])

    def rendered(self, text) -> RankRows:
        """The rows, as tuples, with ``text`` applied once per value."""
        values = tuple(map(text, self.values))
        rows = RankRows(itemgetter(*row)(values) if len(row) > 1
                        else tuple(map(values.__getitem__, row)) for row in self.ranks)
        rows.__dict__.update(values=values, ranks=self.ranks)
        return rows

    def check_ultrametric(self) -> list[tuple[int, int, int]]:
        """Triples (j,k,l) violating q(j,l) >= min(q(j,k), q(k,l)), None
        counting as infinity: none when the matrix is its own tree's leaf
        contacts, as a curve's is (those have none), else the cubic scan."""
        from .carrousel import build_carrousel_tree, leaf_contacts
        back = leaf_contacts(build_carrousel_tree(self))
        return [] if back == self else _violations(self.ranks)

    def to_json(self) -> dict:
        return {"size": self.size, "entries": self.rendered(
            lambda v: "inf" if v is None else rational_to_json(v))}


def _violations(rows) -> list[tuple[int, int, int]]:
    m = range(len(rows))
    return [(j, k, l) for j in m for k in m for l in m
            if rows[j][l] < rows[j][k] and rows[j][l] < rows[k][l]]


def contact_matrix(curve: Sequence[PuiseuxBranch],
                   strand_cap: int = DEFAULT_STRAND_CAP) -> ContactMatrix:
    """Contacts of all strands from the twist-0 row of each branch: the
    monodromy (module docstring) gives q((i,a),(k,b)) = q((i,0),(k,(b-a)
    mod n_k)), so row (i, a) is row (i, 0) with each branch block rotated
    right by a.  B*N contacts for B branches and N strands, ranked as
    integers m of the contacts m/N, with one Fraction per distinct value."""
    strands = strands_of(curve, strand_cap)
    sizes = [b.denominator for b in curve]
    starts = list(accumulate(sizes, initial=0))
    heads = [[strand_contact(strands[start], t) for t in strands]
             for start in starts[:-1]]
    rank = ranking(chain.from_iterable(heads))
    order = strands[0].order
    values = tuple(m if m is None else Fraction(m, order) for m in rank)
    rows = []
    for head, n in zip(heads, sizes):
        head = tuple(map(rank.__getitem__, head))
        # block k of row a is the k-th block of the head rotated right by a
        twice = [(k, head[c:c + k] * 2) for c, k in zip(starts, sizes)]
        rows += map(tuple, map(chain.from_iterable, zip(*(
            [b[k - a % k:2 * k - a % k] for a in range(n)] for k, b in twice))))
    return ContactMatrix._make((len(strands), values, tuple(rows)))


def coincidence_exponent(a: PuiseuxBranch, b: PuiseuxBranch) -> Fraction:
    """Max strand contact between two distinct branches: by the orbit rule
    of ``contact_matrix``, the max over the strands of ``b`` against the
    twist-0 strand of ``a``.  It is finite, as the strands of a branch are
    one monodromy orbit and ``strands_of`` rejects equal orbits."""
    pair = strands_of([a, b])
    return Fraction(max(strand_contact(pair[0], t) for t in pair[a.denominator:]),
                    pair[0].order)


class HornJumpProfile(NamedTuple):
    """Component counts of a shrinking horn around one strand's arc.

    ``thresholds`` are the distinct finite contacts with the base strand in
    decreasing order; ``counts[i]`` is the component count for horn exponents
    between thresholds[i-1] and thresholds[i] (counts[0] = 1 above all of
    them, the last entry is the full strand count).
    """

    base: int
    thresholds: tuple[Fraction, ...]
    counts: tuple[int, ...]

    def to_json(self) -> dict:
        return {"base": self.base,
                "thresholds": [rational_to_json(t) for t in self.thresholds],
                "counts": list(self.counts)}


def horn_jump_profile(matrix: ContactMatrix, base: int) -> HornJumpProfile:
    if not 0 <= base < matrix.size:
        raise InputError(f"base strand {base} out of range")
    per_rank = Counter(matrix.ranks[base])
    del per_rank[len(matrix.values) - 1]  # infinity
    ranks = sorted(per_rank, reverse=True)
    return HornJumpProfile(base, tuple(map(matrix.values.__getitem__, ranks)),
                           tuple(accumulate(map(per_rank.__getitem__, ranks), initial=1)))
