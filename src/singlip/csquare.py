"""A tower's decomposition of the plane into pieces, and their amalgamation;
no command calls them (ROADMAP item 30 moves them into the tests).  The
tests check that on the curve fixtures' towers this gives the initial
decomposition's pieces.  Both run on plain data and build each ``Piece``
once, at the end."""

import math
from collections import defaultdict
from fractions import Fraction
from heapq import heappop, heappush

from .decomp import Decomposition, Piece
from .dualgraph import DualTree


def csquare_decomposition(tree: DualTree) -> Decomposition:
    """Per-vertex geometric decomposition of the plane attached to a tower:
    one piece per exceptional curve (conical at the root, D at arrowless
    leaves, A(q,q) at arrowless valence-2 vertices, B otherwise), vertex v's
    under pid v, then one A(q,q')-piece per edge in sorted edge order, its
    rates ordered by cross-multiplying their rate vectors."""
    vertices, root, empty = tree.vertices, tree.root, frozenset()
    arrowed = {a.vertex for a in tree.arrows}
    pieces, adjacency = {}, set()
    for vid, v in enumerate(vertices):  # tower ids are creation positions
        q, valence = v.rate, tree.valence(vid)
        if vid == root:
            kind, rates = "conical", (Fraction(1),)
        elif valence == 1 and vid not in arrowed:
            kind, rates = "D", (q,)
        elif valence == 2 and vid not in arrowed:
            kind, rates = "A", (q, q)
        else:
            kind, rates = "B", (q,)
        pieces[vid] = Piece(vid, kind, rates, frozenset((vid,)), empty, False, vid)
    for pid, (a, b) in enumerate(sorted(tree.edges), len(vertices)):
        x, y = vertices[a], vertices[b]
        (p, q), (r, s) = x.rate_vector, y.rate_vector
        rates = (x.rate, y.rate) if r * q >= p * s else (y.rate, x.rate)
        pieces[pid] = Piece(pid, "A", rates, empty, frozenset([(min(a, b), max(a, b))]))
        adjacency.update((frozenset((pid, a)), frozenset((pid, b))))
    return Decomposition("csquare", pieces, adjacency)


def _rule(x: tuple, y: tuple, one: int):
    """The first amalgamation rule that applies to the adjacent pieces x, y,
    rows (pid, kind, integer rates in ``Piece`` order with 1 read as ``one``,
    special), in this orientation, as (eliminated rate, ordering pid, kept
    pid, new kind, new rates), kind and rates None if the kept piece stays."""
    (xp, xk, rx, _), (yp, yk, ry, ys) = x, y
    low = xp if xp < yp else yp
    # A(q,q') u A(q',q'') = A(q,q''): s the higher shared rate, 0 if none (rates > 0)
    if xk == yk == "A" and (s := rx[1] if rx[1] in ry else rx[0] if rx[0] in ry else 0):
        u, v = sum(rx) - s, sum(ry) - s  # the rate other than s is the sum less s
        return s, low, low, "A", (u, v) if u <= v else (v, u)
    # A(q,q') u D(q') = D(q)
    if xk == "A" and yk == "D" and ry[0] in rx:
        return ry[0], low, low, "D", (sum(rx) - ry[0],)
    # D(q) melts into a B or conical piece of the same rate
    if xk == "D" and yk in ("B", "conical") and not ys and rx[0] == ry[0]:
        return rx[0], xp, yp, None, None
    # rate-1 pieces merge into a conical piece
    if yk == "conical" and all(r == one for r in rx):
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
    The run keeps per-pid tables (a row of kind, integer rates and special
    flag, the member pids, the neighbours) and changes them in place; each
    surviving piece is built at the end, with one union of its members'
    supports, and one that a rule rebuilt has no special flag or node.
    """
    pieces = d.pieces
    # the rules read a rate q as the integer q * lcm: a Fraction compares slowly
    objs = {id(q): q for p in pieces.values() for q in p.rates}
    lcm = math.lcm(*(q.denominator for q in objs.values()))
    scaled = {i: q.numerator * (lcm // q.denominator) for i, q in objs.items()}
    rows = {pid: (pid, p.kind, tuple([scaled[id(q)] for q in p.rates]), p.special)
            for pid, p in pieces.items()}
    members = {pid: [pid] for pid in pieces}
    nbrs, rules, heap, rebuilt = defaultdict(set), {}, [], {}

    def evaluate(a, b):
        a, b = (a, b) if a < b else (b, a)
        x, y = rows.get(a), rows.get(b)
        if x and y:
            found = _rule(x, y, lcm) or _rule(y, x, lcm)
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
        near, far = nbrs[keep], nbrs.pop(drop)
        for v, ws in ((keep, near), (drop, far)):
            for w in ws:
                rules.pop((v, w) if v < w else (w, v), None)
        del rows[drop]
        if kind is not None:
            rows[keep] = rebuilt[keep] = (keep, kind, new, False)
        members[keep] += members.pop(drop)
        for w in far:
            nbrs[w].discard(drop)
            nbrs[w].add(keep)
        near |= far
        near -= {keep, drop}
        for w in near:
            evaluate(keep, w)

    out = {}
    for pid, group in members.items():
        p = pieces[pid]
        if group[1:]:
            support = frozenset().union(*[pieces[m].support for m in group])
            edges = frozenset().union(*[pieces[m].edge_support for m in group])
            row = rebuilt.get(pid)
            p = (Piece(pid, row[1], tuple(Fraction(q, lcm) for q in row[2]), support, edges)
                 if row else p._replace(support=support, edge_support=edges))
        out[pid] = p
    return Decomposition(d.mode, out, {frozenset((a, b)) for a in nbrs for b in nbrs[a]})
