"""A tower's decomposition of the plane into pieces, and their amalgamation;
no command calls them yet (ROADMAP item 10).  The tests check that on the
curve fixtures' towers this gives the initial decomposition's pieces."""

import math
from collections import defaultdict
from fractions import Fraction
from heapq import heappop, heappush

from .decomp import Decomposition, Piece, _rates_between
from .dualgraph import DualTree


def csquare_decomposition(tree: DualTree) -> Decomposition:
    """Per-vertex geometric decomposition of the plane attached to a tower:
    one piece per exceptional curve (conical at the root, D at arrowless
    leaves, A(q,q) at arrowless valence-2 vertices, B otherwise) and one
    A(q,q')-piece per edge."""
    d = Decomposition("csquare")
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
        d.add(kind, rates, support=frozenset([v.id]), node=v.id)
    # tower ids are creation positions, so the piece of vertex v has pid v
    for a, b in sorted(tree.edges):
        d.add("A", _rates_between(tree, a, b), (a, b),
              edge_support=frozenset([(min(a, b), max(a, b))]))
    return d


def _rule(x: Piece, rx: tuple, y: Piece, ry: tuple, one: int):
    """The first amalgamation rule that applies to the adjacent pieces x, y
    of integer rates rx, ry (1 is ``one``) in this orientation, as
    (eliminated rate, ordering pid, kept pid, new kind, new rates); kind and
    rates are None when the kept piece stays as it is.  None when none does."""
    low = min(x.pid, y.pid)
    # A(q,q') u A(q',q'') = A(q,q''): the rate other than s is the sum less s
    if x.kind == y.kind == "A" and (shared := set(rx) & set(ry)):
        s = max(shared)
        return s, low, low, "A", tuple(sorted((sum(rx) - s, sum(ry) - s)))
    # A(q,q') u D(q') = D(q)
    if x.kind == "A" and y.kind == "D" and ry[0] in rx:
        return ry[0], low, low, "D", (sum(rx) - ry[0],)
    # D(q) melts into a B or conical piece of the same rate
    if (x.kind == "D" and y.kind in ("B", "conical") and not y.special
            and rx[0] == ry[0]):
        return rx[0], x.pid, y.pid, None, None
    # rate-1 pieces merge into a conical piece
    if y.kind == "conical" and all(r == one for r in rx):
        return one, low, low, "conical", (one,)
    return None


def amalgamate(d: Decomposition) -> Decomposition:
    """Run the amalgamation rules to a stable state in canonical order.

    Rules: adjacent A-pieces sharing a rate merge; a D absorbs across its
    A-collar; a D melts into an adjacent B (or conical) piece of the same
    rate; adjacent all-rate-1 pieces merge into a conical piece.  Each step
    merges the pair whose rule eliminates the highest rate, then has the
    lowest ordering pid (the D's for a melt, else the lower of the two),
    then the lowest pair: a heap holds the pending rules under that key.  A
    rule reads only its two pieces, so a merge drops the rules at both and
    pushes those of the pairs at the kept piece; a popped key that is no
    longer its pair's rule is skipped.  That is O(P log P) on P pieces of
    bounded valence.  Confluence under relabeling is checked by the tests.
    """
    pieces = dict(d.pieces)
    # the rules read a rate q as the integer q * lcm: a Fraction compares slowly
    objs = {id(q): q for p in pieces.values() for q in p.rates}
    lcm = math.lcm(*(q.denominator for q in objs.values()))
    scaled = {i: q.numerator * (lcm // q.denominator) for i, q in objs.items()}
    values = {lcm: Fraction(1)} | {scaled[i]: q for i, q in objs.items()}
    ints = {pid: tuple([scaled[id(q)] for q in p.rates]) for pid, p in pieces.items()}
    nbrs = defaultdict(set)
    rules: dict = {}
    heap: list = []

    def evaluate(a, b):
        a, b = (a, b) if a < b else (b, a)
        if a in pieces and b in pieces:
            x, rx, y, ry = pieces[a], ints[a], pieces[b], ints[b]
            found = _rule(x, rx, y, ry, lcm) or _rule(y, ry, x, rx, lcm)
            if found:
                key = (-found[0], found[1], a, b)
                rules[a, b] = (key, *found[2:])
                heappush(heap, key)

    for a, b in d.adjacency:
        nbrs[a].add(b)
        nbrs[b].add(a)
        evaluate(a, b)
    while heap:
        key = heappop(heap)
        rule = rules.get(key[2:])
        if rule is None or rule[0] != key:
            continue  # stale: the pair merged or was evaluated again since
        _, keep, kind, new = rule
        drop = key[3] if keep == key[2] else key[2]
        for v in (keep, drop):
            for w in nbrs[v]:
                rules.pop((v, w) if v < w else (w, v), None)
        kept, gone = pieces[keep], pieces.pop(drop)
        support = kept.support | gone.support
        edges = kept.edge_support | gone.edge_support
        if kind is None:
            pieces[keep] = kept._replace(support=support, edge_support=edges)
        else:
            ints[keep] = new
            pieces[keep] = Piece(keep, kind, tuple([values[r] for r in new]),
                                 support, edges)
        nbrs[keep] = (nbrs[keep] | nbrs.pop(drop)) - {keep, drop}
        for w in nbrs[keep]:
            nbrs[w] = nbrs[w] - {drop} | {keep}
            evaluate(keep, w)
    return Decomposition(d.mode, pieces,
                         {frozenset((a, b)) for a in nbrs for b in nbrs[a]})
