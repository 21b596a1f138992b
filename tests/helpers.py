"""Shared test utilities: strand exponents and contacts as Fractions,
numeric oracles, the pairwise contact matrix, Fraction-comparing
references for the carrousel tree, leaf contacts,
rendering and horn profiles of a contact matrix, characteristic
exponents, a reference determinant, the dense intersection matrix and
dense Bareiss elimination with the sparse rows they are compared through,
relabelled graphs, random curve generation, towers
replayed from the blow-up event log, the plain forms of the resolver's
series product, series reduction and graph blow-up, A'Campo's Alexander polynomial of a
tower, the curvette oracle for inner rates, graph-level blow-ups of
towers, the piece labels of a decomposition, the C² decomposition of a
tower built piece by piece, the quadratic reference amalgamation, a
small DOT syntax checker used to validate emitted graphs, the CLI run
in-process, the CLI table's commands and argparse's reading of a command
line, and a fresh interpreter that imports this checkout."""

from __future__ import annotations

import cmath
import io
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from pathlib import Path

from singlip import PuiseuxBranch, strand_contact, strands_of
from singlip.cli import _CLI, build_parser, main
from singlip.decomp import Decomposition, Piece
from singlip.errors import DomainError, SinglipError
from singlip.exactnum import Elimination
from singlip.carrousel import CarrouselNode, CarrouselTree
from singlip.strands import ContactMatrix, HornJumpProfile
from singlip.dualgraph import CURVE_FUNCTION, GENERIC_LINEAR, DualGraph, DualTree


def exponents(strand) -> list[Fraction]:
    """The exponents m/N of the strand's terms, increasing."""
    return [Fraction(m, strand.order) for m, *_ in strand.series]


def contact(s, t):
    """``strand_contact`` of two strands as the exponent m/N, or None."""
    m = strand_contact(s, t)
    return None if m is None else Fraction(m, s.order)


def coefficient_value(strand, exp) -> complex:
    """Numeric value p/q * exp(2 pi i k / N) of the strand's coefficient
    key (k, p, q) at ``exp``, 0 when the series has no such term."""
    for m, k, p, q in strand.series:
        if Fraction(m, strand.order) == exp:
            return p / q * cmath.exp(2j * cmath.pi * k / strand.order)
    return 0j


def eval_strand(strand, t: float) -> complex:
    """Numeric value of a strand series at x = t (t > 0 real)."""
    return sum(coefficient_value(strand, e) * t ** float(e)
               for e in exponents(strand))


def numeric_contact(s, s2, q: Fraction, samples=(1e-2, 1e-3, 1e-4),
                    rel_tol: float = 0.05) -> bool:
    """Check |s(t) - s2(t)| / t^q converges to a nonzero constant.

    The default samples match exponent gaps of 1/2 or larger; pass
    samples=None to pick points small enough for the strands' own
    denominator (gaps of 1/n need much smaller t for 5% stability).
    """
    diff = None
    if samples is None:
        # adaptive sampling for small exponent gaps; direct subtraction of
        # float values underflows there, so evaluate the difference series
        # (coefficients subtracted exactly) instead
        exps = sorted({*exponents(s), *exponents(s2)})
        n = max(e.denominator for e in exps)
        samples = tuple(10.0 ** (-2 * n * k) for k in (1, 2, 3))
        diff = [(e, coefficient_value(s, e) - coefficient_value(s2, e))
                for e in exps]
    ratios = []
    for t in samples:
        if diff is None:
            d = abs(eval_strand(s, t) - eval_strand(s2, t))
        else:
            d = abs(sum(c * t ** float(e) for e, c in diff))
        ratios.append(d / t ** float(q))
    if any(r == 0 for r in ratios):
        return False
    return abs(ratios[-1] - ratios[-2]) <= rel_tol * abs(ratios[-1])


def pairwise_contact_matrix(curve) -> ContactMatrix:
    """Reference contact matrix: the contact of every pair of strands,
    with no use of the monodromy."""
    strands = strands_of(curve)
    m = len(strands)
    rows = [[None] * m for _ in range(m)]
    for j in range(m):
        for k in range(j + 1, m):
            rows[j][k] = rows[k][j] = contact(strands[j], strands[k])
    return ContactMatrix(m, tuple(tuple(r) for r in rows))


# -- references for the rank form of contact matrices ------------------------
#
# The library reads a contact matrix as ranks into its table of values; these
# read only ``q`` and ``entries`` and compare Fractions, as the code did
# before the rank form.


def reference_carrousel_tree(matrix: ContactMatrix) -> CarrouselTree:
    """Carrousel tree by Fraction comparisons: each strand joins the first
    class whose first strand has contact above the vertex weight with it."""

    def split(strands, weight):
        groups = []
        for s in strands:
            for g in groups:
                q = matrix.q(g[0], s)
                if q is not None and q > weight:
                    g.append(s)
                    break
            else:
                groups.append([s])
        return CarrouselNode(weight, tuple(
            split(g, min(matrix.q(g[0], s) for s in g[1:])) if len(g) > 1
            else CarrouselNode(None, leaf=g[0]) for g in groups))

    return CarrouselTree(split(list(range(matrix.size)), Fraction(1)), matrix.size)


def pairwise_leaf_contacts(tree: CarrouselTree) -> ContactMatrix:
    """Leaf contacts by a loop over every pair of leaves below each vertex."""
    rows = [[None] * tree.size for _ in range(tree.size)]

    def walk(node):
        if node.is_leaf():
            return [node.leaf]
        groups = [walk(c) for c in node.children]
        for i in range(len(groups)):
            for k in range(i + 1, len(groups)):
                for x in groups[i]:
                    for y in groups[k]:
                        rows[x][y] = rows[y][x] = node.weight
        return [x for g in groups for x in g]

    walk(tree.root)
    return ContactMatrix(tree.size, tuple(map(tuple, rows)))


def rendered_by_id(matrix: ContactMatrix, text) -> tuple[tuple, ...]:
    """The entry rows, as tuples, with ``text`` applied once per distinct
    entry object."""
    seen = {}
    for row in matrix.entries:
        seen.update(zip(map(id, row), row))
    get = {i: text(v) for i, v in seen.items()}.__getitem__
    return tuple(tuple(map(get, map(id, row))) for row in matrix.entries)


def reference_horn_profile(matrix: ContactMatrix, base: int) -> HornJumpProfile:
    """Horn jump profile counted entry by entry over one row of Fractions."""
    row = [matrix.q(base, k) for k in range(matrix.size)]
    thresholds = sorted({v for v in row if v is not None}, reverse=True)
    counts = [1 + sum(1 for v in row if v is not None and v >= t) for t in thresholds]
    return HornJumpProfile(base, tuple(thresholds), (1, *counts))


def branch_char_exponents(branch: PuiseuxBranch) -> set[Fraction]:
    """Exponents that enlarge the denominator lattice of the earlier ones."""
    out = set()
    lattice = 1
    for e, _ in branch.terms:
        if lattice % e.denominator != 0:
            out.add(e)
            lattice = math.lcm(lattice, e.denominator)
    return out


def fraction_det(matrix) -> int:
    """Reference determinant: plain Gaussian elimination over Fractions,
    swapping rows at a zero pivot.  Independent of ``exactnum.eliminate``."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return det.numerator


def sparse_rows(matrix) -> list[dict]:
    """A dense matrix as ``exactnum.eliminate`` rows: column -> non-zero."""
    return [{j: a for j, a in enumerate(row) if a} for row in matrix]


def intersection_matrix(graph) -> list[list[int]]:
    """Dense intersection matrix in ``graph.ids()`` order; a double edge
    adds 2 off the diagonal."""
    ids = graph.ids()
    index = {v: i for i, v in enumerate(ids)}
    m = [[0] * len(ids) for _ in ids]
    for v in ids:
        m[index[v]][index[v]] = graph.vertices[v].self_intersection
    for a, b in graph.edges:
        m[index[a]][index[b]] += 1
        m[index[b]][index[a]] += 1
    return m


def dense_eliminate(matrix, rhs=None) -> Elimination:
    """Reference for ``exactnum.eliminate``: the same lazy Bareiss
    elimination on a dense matrix, scanning every row below the pivot at
    every step.  A row not hit by a pivot column is left stale and scaled
    by p_k / p_s when it is next read; see ``exactnum.eliminate``."""
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


def relabelled(graph, rng: random.Random) -> tuple[DualGraph, dict]:
    """The same graph with its vertex ids renamed ``r0``, ``r1``, ... at
    random and its vertices, edges and arrows added in a shuffled order,
    so its elimination order differs; and the renaming."""
    new = [f"r{i}" for i in range(len(graph.ids()))]
    rng.shuffle(new)
    name = dict(zip(graph.ids(), new))
    out = DualGraph()
    for vid in rng.sample(graph.ids(), len(new)):
        v = graph.vertices[vid]
        out.add_vertex(name[vid], v.self_intersection, v.genus, v.rate,
                       v.multiplicities, v.flags, v.rate_vector)
    for a, b in rng.sample(graph.edges, len(graph.edges)):
        out.add_edge(name[a], name[b])
    for a in rng.sample(graph.arrows, len(graph.arrows)):
        out.add_arrow(name[a.vertex], a.name, a.multiplicity, a.kind, a.branch)
    return out, name


def random_branch(rng: random.Random, max_den: int = 6,
                  max_terms: int = 3) -> PuiseuxBranch:
    n = rng.randint(1, max_den)
    count = rng.randint(1, max_terms)
    pool = [Fraction(k, n) for k in range(n, 4 * n)]
    exps = sorted(rng.sample(pool, min(count, len(pool))))
    terms = [(e, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))) for e in exps]
    return PuiseuxBranch.from_terms(terms)


def random_curve(rng: random.Random, max_branches: int = 2,
                 max_den: int = 6) -> list[PuiseuxBranch]:
    while True:
        try:
            branches = [random_branch(rng, max_den)
                        for _ in range(rng.randint(1, max_branches))]
            strands_of(branches)  # validates distinctness
            return branches
        except SinglipError:
            continue


# -- towers from the event log ----------------------------------------------
#
# Vertex ids equal event indices.  A center names the curves through the
# blown-up point: ("origin",), ("free", e, c) on curve e with landing
# constant c (the tag "axis" for the point on the strict transform of the
# chart axis, landing constant 0), or ("satellite", e, e') on two curves.


def replay_prefixes(events):
    """Yield the tower after each event, rebuilt from the log alone with
    ``DualTree.blow_up``: f gains the local multiplicities of the branches
    through the center, h is 1 at the origin only.  The same tree object is
    grown in place."""
    tree = DualTree()
    for ev in events:
        curves = ev.center[1:3] if ev.center[0] == "satellite" else ev.center[1:2]
        tree.blow_up(ev.index, list(curves), {
            CURVE_FUNCTION: sum(m for _, m in ev.branches_through),
            GENERIC_LINEAR: int(ev.center[0] == "origin")})
        yield tree


def replay_events(events) -> DualTree:
    """The whole tower: the replayed tree, the generic-linear arrow on the
    first curve, and each branch's arrow on the curve of the last center
    it passes through."""
    last = {}
    for tree, ev in zip(replay_prefixes(events), events):
        last.update((bid, ev.index) for bid, _ in ev.branches_through)
    tree.add_arrow(0, GENERIC_LINEAR, 1, "generic-linear")
    for bid, vertex in sorted(last.items()):
        tree.add_arrow(vertex, CURVE_FUNCTION, 1, "branch", bid)
    return tree


def _blow_up_arrow(tree: DualTree, arrow_index: int):
    """Blow up the point where an arrow (a strict transform) meets its
    curve, in place; the arrow moves to the new exceptional curve."""
    arrow = tree.arrows[arrow_index]
    new = len(tree.vertices)
    tree.blow_up(new, (arrow.vertex,), {arrow.name: arrow.multiplicity})
    tree.arrows[arrow_index] = arrow._replace(vertex=new)


def blow_all_double_points(tree: DualTree) -> DualTree:
    """Blow up every intersection point of f's total transform: all edges
    plus the points where its arrows meet their curves.  Decorative arrows
    of other functions are left alone."""
    out = tree.copy()
    for a, b in sorted(tree.edges):
        out.blow_up(len(out.vertices), (a, b))
    for i, arrow in enumerate(tree.arrows):
        if arrow.name == CURVE_FUNCTION:
            _blow_up_arrow(out, i)
    return out


def extend_arrow_chain(tree: DualTree, arrow_index: int, steps: int) -> DualTree:
    """Blow up an arrow's attachment point repeatedly (a chain of free
    points following the strict transform)."""
    out = tree.copy()
    for _ in range(steps):
        _blow_up_arrow(out, arrow_index)
    return out


def summary(d) -> list[str]:
    """The sorted piece labels of a decomposition, e.g. ["A(1,5/3)", "B(1)"]."""
    return sorted(p.describe() for p in d.pieces.values())


# -- references for the resolver's kernels ------------------------------------
#
# The plain forms of the series product, the series reduction and the
# graph blow-up: the library's faster forms must give equal dicts and
# records, zero-valued keys included (a den keeps them, and ``div``'s
# monomial test counts them).


def reference_mul(a: dict, b: dict, shift: int, limit) -> dict:
    """a * b / t^shift below ``limit``, term by term."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb - shift
            if e < limit:
                out[e] = out.get(e, 0) + ca * cb
    return out


def reference_reduced(num: dict, den: dict) -> tuple[dict, dict]:
    """num and den divided by the gcd of all their coefficients, signed so
    that den[0] > 0, with num's zero coefficients dropped."""
    g = math.gcd(*num.values(), *den.values()) * (-1 if den[0] < 0 else 1)
    return ({e: c // g for e, c in num.items() if c},
            {e: c // g for e, c in den.items()})


def reference_make(poly: dict) -> tuple[dict, dict]:
    """num and den of the exact series of a polynomial with rational
    coefficients, scaled by Fraction products."""
    d = math.lcm(*(c.denominator for c in poly.values()))
    return {e: int(c * d) for e, c in poly.items()}, {0: d}


def reference_blow_up(graph: DualGraph, vid, curves, strict=None):
    """``DualGraph.blow_up`` through ``add_vertex`` and ``add_edge``, which
    check every value again."""
    old = [graph.vertices[e] for e in curves]
    strict = strict or {}
    names = {n for v in old for n in v.multiplicities} | set(strict)
    mults = {n: sum(v.multiplicities.get(n, 0) for v in old)
             + strict.get(n, 0) for n in sorted(names)}
    vector = tuple(map(sum, zip({0: (1, 1), 1: (1, 0), 2: (0, 0)}[len(old)],
                                *(v.rate_vector for v in old))))
    new = graph.add_vertex(vid, -1, multiplicities=mults, rate_vector=vector)
    for e in curves:
        graph.vertices[e].self_intersection -= 1
        graph.add_edge(e, vid)
    if len(curves) == 2:
        graph.remove_edge(*curves)
    return new


def graph_state(graph: DualGraph) -> tuple:
    """Every vertex record, with its multiplicities in their key order, the
    edges, the adjacency lists and the arrows, to compare two graphs by."""
    records = [(v.id, v.self_intersection, v.genus, v.rate, type(v.rate),
                list(v.multiplicities.items()), v.flags, v.rate_vector)
               for v in map(graph.vertices.__getitem__, graph.ids())]
    return (records, list(graph.edges),
            {vid: list(ws) for vid, ws in graph._adjacent.items()},
            list(graph.arrows))


# -- the C² decomposition built piece by piece, a reference for csquare -------

def reference_csquare(tree: DualTree) -> Decomposition:
    """``csquare.csquare_decomposition`` as it was before it built its
    pieces in one pass: each piece added under the next pid, with keyword
    fields, and each edge's two rates sorted as Fractions."""
    pieces, adjacency = {}, set()

    def add(kind, rates, joins=(), **fields):
        pid = len(pieces)
        pieces[pid] = Piece(pid, kind, rates, **fields)
        adjacency.update(frozenset((pid, j)) for j in joins)

    arrowed = {a.vertex for a in tree.arrows}
    for v in tree.vertices:
        q = v.rate
        arrows = v.id in arrowed
        valence = tree.valence(v.id)
        if v.id == tree.root:
            kind, rates = "conical", (Fraction(1),)
        elif valence == 1 and not arrows:
            kind, rates = "D", (q,)
        elif valence == 2 and not arrows:
            kind, rates = "A", (q, q)
        else:
            kind, rates = "B", (q,)
        add(kind, rates, support=frozenset([v.id]), node=v.id)
    for a, b in sorted(tree.edges):
        add("A", tuple(sorted((tree.vertices[a].rate, tree.vertices[b].rate))),
            (a, b), edge_support=frozenset([(min(a, b), max(a, b))]))
    return Decomposition("csquare", pieces, adjacency)


# -- the quadratic amalgamation, a reference for csquare.amalgamate -----------

def _other(rates: tuple, q) -> Fraction:
    """The rate of a two-rate piece other than q (q when both are q)."""
    return rates[1] if rates[0] == q else rates[0]


def _rule(x: Piece, y: Piece):
    """The first amalgamation rule that applies to the adjacent pieces x, y
    in this orientation, as (eliminated rate, ordering pid, kept pid, new
    kind, new rates); kind and rates are None when the kept piece stays as
    it is.  None when no rule applies."""
    low = min(x.pid, y.pid)
    # A(q,q') u A(q',q'') = A(q,q'')
    if x.kind == y.kind == "A" and (shared := set(x.rates) & set(y.rates)):
        s = max(shared)
        return s, low, low, "A", tuple(sorted((_other(x.rates, s),
                                               _other(y.rates, s))))
    # A(q,q') u D(q') = D(q)
    if x.kind == "A" and y.kind == "D" and y.rates[0] in x.rates:
        s = y.rates[0]
        return s, low, low, "D", (_other(x.rates, s),)
    # D(q) melts into a B or conical piece of the same rate
    if (x.kind == "D" and y.kind in ("B", "conical") and not y.special
            and x.rates[0] == y.rates[0]):
        return x.rates[0], x.pid, y.pid, None, None
    # rate-1 pieces merge into a conical piece
    if y.kind == "conical" and all(q == 1 for q in x.rates):
        return Fraction(1), low, low, "conical", (Fraction(1),)
    return None


def reference_amalgamate(d: Decomposition) -> Decomposition:
    """``csquare.amalgamate`` as it was before its rule heap: after every
    merge it takes the max over all pending rules of (eliminated rate,
    lowest ordering pid, lowest pair), compared as Fractions, and rebuilds
    the rules without the pairs at the two merged pieces.  Quadratic in
    the pieces, and the oracle for the heap's merge order."""
    pieces = dict(d.pieces)
    nbrs = defaultdict(set)
    rules: dict = {}

    def evaluate(a, b):
        a, b = sorted((a, b))
        if a in pieces and b in pieces:
            found = _rule(pieces[a], pieces[b]) or _rule(pieces[b], pieces[a])
            if found:
                rules[a, b] = found

    for a, b in d.adjacency:
        nbrs[a].add(b)
        nbrs[b].add(a)
        evaluate(a, b)
    while rules:
        pair = max(rules, key=lambda p: (rules[p][0], -rules[p][1], -p[0], -p[1]))
        _, _, keep, kind, rates = rules[pair]
        drop = pair[1] if keep == pair[0] else pair[0]
        kept, gone = pieces[keep], pieces.pop(drop)
        new = kept if kind is None else Piece(keep, kind, rates)
        pieces[keep] = new._replace(support=kept.support | gone.support,
                                    edge_support=kept.edge_support | gone.edge_support)
        rules = {p: r for p, r in rules.items()
                 if keep not in p and drop not in p}
        nbrs[keep] = (nbrs[keep] | nbrs.pop(drop)) - {keep, drop}
        for w in nbrs[keep]:
            nbrs[w] = nbrs[w] - {drop} | {keep}
            evaluate(keep, w)
    return Decomposition(d.mode, pieces,
                         {frozenset((a, b)) for a in nbrs for b in nbrs[a]})


def alexander_polynomial(tree: DualTree) -> list[int]:
    """A'Campo's Alexander polynomial of the curve resolved by ``tree``,
    (t - 1) * prod_v (t^m_v - 1)^(delta_v - 2), with m_v the multiplicity
    of f on the curve v and delta_v its valence plus its f arrows; integer
    coefficients from the constant term up.  The factors with a negative
    exponent divide the others exactly."""
    num, den = [-1, 1], [1]
    arrows = Counter(a.vertex for a in tree.arrows if a.name == CURVE_FUNCTION)
    for v in tree.vertices:
        m = v.multiplicities[CURVE_FUNCTION]
        factor = [-1] + [0] * (m - 1) + [1]
        k = tree.valence(v.id) + arrows[v.id] - 2
        for _ in range(abs(k)):
            if k > 0:
                num = _int_poly_mul(num, factor)
            else:
                den = _int_poly_mul(den, factor)
    quotient = [0] * (len(num) - len(den) + 1)
    for i in reversed(range(len(quotient))):  # den is monic
        quotient[i] = c = num[i + len(den) - 1]
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert not any(num), "A'Campo's product is not a polynomial"
    return quotient


def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def creation_chain(events, vertex) -> list:
    """Coordinate changes from the point blown up to create ``vertex`` back
    to the origin.  A point of the curve e with local coordinates (u, v)
    relates to those (U, V) of the point blown up to create e by
    ("c1", c): U = u, V = u (v + c), or ("c2",): U = u v, V = u.  A
    satellite center (e, e') is c2 when e' is the first curve through the
    point that created e, and c1 with constant 0 when it is the second."""
    chain = []
    center = events[vertex].center
    while center[0] != "origin":
        e = center[1]
        parent = events[e].center
        if center[0] == "free":
            chain.append(("c1", Fraction(0) if center[2] == "axis" else center[2]))
        elif center[2] == parent[1]:
            chain.append(("c2",))
        else:
            chain.append(("c1", Fraction(0)))
        center = parent
    return chain


def _pushdown(chain, c: Fraction):
    """The curvette (t, c t) at a point, in the origin's coordinates."""
    a, b = {1: Fraction(1)}, {1: Fraction(c)}
    for t in chain:
        if t[0] == "c1":
            b = pmul(a, padd(b, {0: t[1]}))
        else:
            a, b = pmul(a, b), dict(a)
    return a, b


def curvette_pair(events, tree, vertex) -> tuple[PuiseuxBranch, PuiseuxBranch]:
    """Two curvettes of the exceptional curve ``vertex``, synthesized from
    the event log: smooth curves through two distinct free points of the
    curve, pushed down to the origin, normalised to a common x-coordinate
    scale and expanded as Puiseux branches.  The paper defines the inner
    rate of the curve as their contact exponent."""
    chain = creation_chain(events, vertex)
    rate = tree.vertices[vertex].rate
    n = pord(_pushdown(chain, Fraction(1))[0])
    # the pair differs first at t-order n*rate, so the series only needs
    # to be exact slightly beyond it
    k = (n * rate.numerator) // rate.denominator + 3
    a1, b1 = _pushdown(chain, Fraction(2 ** n))
    a2, b2 = _pushdown(chain, Fraction(3 ** n))
    kappa1 = a1[pord(a1)]
    kappa2 = a2[pord(a2)]
    rho = _nth_root(kappa2 / kappa1, n)
    a2, b2 = _reparametrize(a2, rho), _reparametrize(b2, rho)
    scale = 1 / kappa1
    g1 = _puiseux_from_parametrization(pscale(a1, scale), b1, k)
    g2 = _puiseux_from_parametrization(pscale(a2, scale), b2, k)
    return g1, g2


def pclean(p: dict) -> dict:
    return {e: c for e, c in p.items() if c}


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return pclean(out)


def pscale(a: dict, k: Fraction) -> dict:
    return pclean({e: c * k for e, c in a.items()})


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return pclean(out)


def pord(a: dict):
    return min(a) if a else None


def ptrunc(a: dict, k: int) -> dict:
    return {e: c for e, c in a.items() if e < k}


def pmul_trunc(a: dict, b: dict, k: int) -> dict:
    out = {}
    for ea, ca in a.items():
        if ea >= k:
            continue
        for eb, cb in b.items():
            e = ea + eb
            if e < k:
                out[e] = out.get(e, Fraction(0)) + ca * cb
    return pclean(out)


def ppow_trunc(a: dict, d: int, k: int) -> dict:
    """a**d mod t^k by binary exponentiation."""
    out = {0: Fraction(1)}
    base = ptrunc(a, k)
    while d:
        if d & 1:
            out = pmul_trunc(out, base, k)
        base = pmul_trunc(base, base, k)
        d >>= 1
    return out


def series_fractional_power(p: dict, alpha: Fraction, k: int) -> dict:
    """(1 + w)^alpha mod t^k for p = 1 + w with ord w >= 1 (binomial series)."""
    if p.get(0) != 1:
        raise DomainError("fractional power needs constant term 1")
    w = ptrunc({e: c for e, c in p.items() if e != 0}, k)
    out = {0: Fraction(1)}
    term = {0: Fraction(1)}
    binom = Fraction(1)
    j = 0
    while True:
        j += 1
        binom *= (alpha - (j - 1)) / j
        term = pmul_trunc(term, w, k)
        if not term:
            break
        out = padd(out, pscale(term, binom))
    return pclean(out)


def _int_nth_root(x: int, n: int) -> int:
    if x < 2 or n == 1:
        return x
    guess = 1 << (-(-x.bit_length() // n))
    while True:
        nxt = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if nxt >= guess:
            return guess
        guess = nxt


def _nth_root(r: Fraction, n: int) -> Fraction:
    num = _int_nth_root(r.numerator, n)
    den = _int_nth_root(r.denominator, n)
    if Fraction(num, den) ** n != r:
        raise DomainError(f"{r} has no rational {n}-th root")
    return Fraction(num, den)


def _reparametrize(p, rho: Fraction):
    """Substitute t -> t/rho in a polynomial."""
    return pclean({e: c / rho ** e for e, c in p.items()})


def _puiseux_from_parametrization(x, y, k: int) -> PuiseuxBranch:
    """Re-expand a polynomial parametrization (x(t), y(t)) as a Puiseux
    branch y(x) with all terms of t-order below k.

    x must be monic of some order n up to a unit (after the caller's
    scaling), so x^(m/n) = t^m * U^m with U = (1+w)^(1/n) computed once;
    the expansion peels leading terms of y against these exact powers."""
    n = pord(x)
    if n is None or x[n] != 1:
        raise DomainError("parametrization must have monic leading x-term")
    w = pclean({e - n: c for e, c in x.items() if e != n})  # x = t^n (1 + w)
    unit = series_fractional_power(padd({0: Fraction(1)}, w), Fraction(1, n), k)
    terms = []
    rest = ptrunc(dict(y), k)
    upow = {0: Fraction(1)}
    m_cur = 0
    while rest:
        o = pord(rest)
        if o >= k:
            break
        upow = pmul_trunc(upow, ppow_trunc(unit, o - m_cur, k), k)
        m_cur = o
        c = rest[o]
        terms.append((Fraction(o, n), c))
        peel = pscale({e + o: v for e, v in upow.items() if e + o < k}, -c)
        rest = pclean(ptrunc(padd(rest, peel), k))
    if any(e < 1 for e, _ in terms):
        raise DomainError("curvette has an exponent below 1")
    return PuiseuxBranch.from_terms(terms)

_TOKEN = re.compile(r'''
    "(?:[^"\\]|\\.)*"     |  # quoted string
    \[|\]|\{|\}|;|=|,|--|->  |
    [A-Za-z0-9_.\-]+
''', re.VERBOSE)


def parse_dot(text: str) -> dict:
    """Tiny structural DOT parser: validates the syntax we emit and counts
    nodes and edges.  Raises ValueError on malformed input."""
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(text):
        if text[pos:m.start()].strip():
            raise ValueError(f"unexpected characters {text[pos:m.start()]!r}")
        tokens.append(m.group(0))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"trailing characters {text[pos:]!r}")
    if not tokens or tokens[0] not in ("graph", "digraph"):
        raise ValueError("must start with graph/digraph")
    edge_op = "--" if tokens[0] == "graph" else "->"
    i = 1
    if tokens[i] != "{":
        i += 1  # optional graph name
    if tokens[i] != "{":
        raise ValueError("missing opening brace")
    i += 1
    nodes, edges = set(), []

    def skip_attrs(j):
        if j < len(tokens) and tokens[j] == "[":
            depth = 1
            j += 1
            while j < len(tokens) and depth:
                if tokens[j] == "[":
                    depth += 1
                elif tokens[j] == "]":
                    depth -= 1
                j += 1
        return j

    while i < len(tokens) and tokens[i] != "}":
        if tokens[i] == ";":
            i += 1
            continue
        if tokens[i] == "node":
            i = skip_attrs(i + 1)
            continue
        name = tokens[i]
        i += 1
        if i < len(tokens) and tokens[i] == edge_op:
            other = tokens[i + 1]
            i = skip_attrs(i + 2)
            edges.append((name, other))
            nodes.update((name, other))
        else:
            i = skip_attrs(i)
            nodes.add(name)
    if i >= len(tokens) or tokens[i] != "}":
        raise ValueError("missing closing brace")
    return {"nodes": nodes, "edges": edges}


def run_cli(*argv) -> tuple[int, str, str | None]:
    """``singlip *argv`` in-process: exit code, stdout and stderr; stderr
    None for a usage error, whose text is argparse's."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), None
    return code, out.getvalue(), err.getvalue()


def cli_commands(node=_CLI, words=()) -> list:
    """(words, arguments) of every command in the CLI table."""
    _, arguments, then = node
    if isinstance(then, str):
        return [(list(words), arguments)]
    return [c for word, child in then.items()
            for c in cli_commands(child, (*words, word))]


@cache
def _parser():
    return build_parser()


def parsed(argv):
    """vars() of argparse's namespace for ``argv``, or its exit code."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


def checkout_env() -> dict:
    """The environment of a fresh interpreter that imports singlip from this
    checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(*argv) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter under ``checkout_env``; it
    must exit 0."""
    return subprocess.run([sys.executable, *argv], env=checkout_env(),
                          check=True, capture_output=True, text=True, timeout=60)
