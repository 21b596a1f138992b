"""Carrousel trees: the rooted contact trees of plane curve germs.

The tree is built from a contact matrix by one recursive split.  The root
has weight 1; a vertex of weight q splits its strands into the classes of
contact above q, and a class of two or more strands becomes a child vertex
weighted by the least contact inside it, so every vertex but the root
branches.  For an ultrametric matrix, as every curve's is, the leaf
contacts of the tree (the weight of each pair's deepest common ancestor)
give the matrix back.  Two germs are outer Lipschitz equivalent exactly
when their carrousel trees are isomorphic as rooted weighted trees, so
isomorphism here is a decision procedure.

Decorations m, n, r, s record how the denominator lattice grows down each
root path; the reduction step collapses groups of r isomorphic sibling
subtrees to one representative, which is the Eggers-style quotient by the
implicit conjugation action.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import InputError, ResourceCapExceeded
from .exactnum import rational_to_json
from .strands import ContactMatrix, ranking

# Leaves lie at most this many levels below the root: each tree walk takes
# about two Python frames a level, and JSON output two nestings, which this
# keeps well under the default recursion limit of 1000.
MAX_DEPTH = 400


class CarrouselNode(NamedTuple):
    """Vertex of a carrousel tree; leaves carry a strand id, no weight."""

    weight: Optional[Fraction]
    children: tuple["CarrouselNode", ...] = ()
    leaf: Optional[int] = None
    m: Optional[int] = None
    n: Optional[int] = None
    r: Optional[int] = None
    s: Optional[int] = None
    edge_label: Optional[int] = None  # set by the Eggers reduction

    def is_leaf(self) -> bool:
        return self.weight is None

    def encoding(self, with_decorations: bool = False):
        """Canonical encoding: children sorted by (weight, encoding)."""
        if self.is_leaf():
            return ("leaf",)
        # a missing decoration encodes as -1, below every real one, so that
        # siblings with and without an edge label still compare
        deco = tuple(-1 if v is None else v for v in (
            self.m, self.n, self.r, self.s, self.edge_label)) if with_decorations else ()
        kids = sorted(c.encoding(with_decorations) for c in self.children)
        return ("v", self.weight, deco, tuple(kids))

    def to_json(self) -> dict:
        if self.is_leaf():
            return {"leaf": self.leaf}
        out = {"q": rational_to_json(self.weight),
               "children": [c.to_json() for c in self.children]}
        for name in ("m", "n", "r", "s", "edge_label"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out


class CarrouselTree(NamedTuple):
    root: CarrouselNode
    size: int  # number of strands

    def encoding(self, with_decorations: bool = False):
        return self.root.encoding(with_decorations)

    def to_json(self) -> dict:
        return {"strands": self.size, "root": self.root.to_json()}


def build_carrousel_tree(matrix: ContactMatrix) -> CarrouselTree:
    """Contact tree of the matrix, split recursively from a root of weight 1.

    A vertex of weight q splits its strands into the classes of contact
    above q, listed by least strand.  A class of one strand is a leaf; a
    larger one is a vertex weighted by the least contact with its first
    strand, so no vertex but the root is unary.  An infinite (None) entry
    joins no class, so a matrix with one off the diagonal never comes back
    from ``leaf_contacts``.  Contacts are compared by rank.  A tree deeper
    than ``MAX_DEPTH`` levels is ``ResourceCapExceeded``."""
    ranks, inf = matrix.ranks, len(matrix.values) - 1

    def split(strands: list[int], weight: Fraction, top: int,
              depth: int) -> CarrouselNode:
        # contact is ultrametric: the first strand left takes its class, all
        # above ``top`` in its row.  Its least contact splits off, so any matrix ends
        if depth == MAX_DEPTH:   # its children would lie deeper
            raise ResourceCapExceeded(f"carrousel depth limit {MAX_DEPTH} exceeded")
        kids = []
        while strands:
            first = strands.pop(0)
            row = ranks[first]
            group = [s for s in strands if top < row[s] < inf]
            if group:
                strands = [s for s in strands if not top < row[s] < inf]
                low = min(group, key=row.__getitem__)
                kids.append(split([first, *group], matrix.q(first, low), row[low],
                                  depth + 1))
            else:
                kids.append(CarrouselNode(None, leaf=first))
        return CarrouselNode(weight, tuple(kids))

    top = sum(v <= 1 for v in matrix.values[:-1]) - 1  # ranks above it exceed 1
    return CarrouselTree(split(list(range(matrix.size)), Fraction(1), top, 0),
                         matrix.size)


def decorate(tree: CarrouselTree) -> CarrouselTree:
    """Attach m, n, r, s to every internal vertex (r, s absent at the root)."""

    def walk(node: CarrouselNode, parent_q: Optional[Fraction],
             parent_n: Optional[int]) -> CarrouselNode:
        if node.is_leaf():
            return node
        q = node.weight
        if parent_q is not None and q <= parent_q:
            raise InputError(f"weights not increasing: {parent_q} then {q}")
        n = math.lcm(parent_n or 1, q.denominator)
        r = s = None
        if parent_n is not None:
            r, s = n // parent_n, int(n * (q - parent_q))
        kids = tuple(walk(c, q, n) for c in node.children)
        return node._replace(children=kids, m=(q * n).numerator, n=n, r=r, s=s)

    return CarrouselTree(walk(tree.root, None, None), tree.size)


def reduce_to_eggers(tree: CarrouselTree) -> CarrouselTree:
    """Collapse each group of r isomorphic sibling subtrees to one.

    Below a vertex with decoration r, the subtrees fall (for a genuine
    curve) into isomorphism classes of size k*r or k*r + 1; each full group
    of r keeps a single representative, an extra subtree keeps an edge
    label r.  Any other class size signals inconsistent input.
    """

    def reduce_node(node: CarrouselNode) -> CarrouselNode:
        if node.is_leaf():
            return node
        kids = [reduce_node(c) for c in node.children]
        r = node.r or 1
        if r == 1:
            return node._replace(children=tuple(kids))
        by_shape: dict = {}
        for c in kids:
            by_shape.setdefault(c.encoding(with_decorations=True), []).append(c)
        new_kids = []
        for shape in sorted(by_shape):
            group = by_shape[shape]
            full, extra = divmod(len(group), r)
            if extra not in (0, 1):
                raise InputError(
                    f"subtree group of size {len(group)} not 0 or 1 mod r={r}")
            new_kids.extend(group[:full])
            if extra:
                new_kids.append(group[full * r]._replace(edge_label=r))
        return node._replace(children=tuple(new_kids))

    if tree.root.n is None and not tree.root.is_leaf():
        raise InputError("reduce_to_eggers needs a decorated tree")
    return CarrouselTree(reduce_node(tree.root), tree.size)


def trees_isomorphic(a: CarrouselTree, b: CarrouselTree) -> bool:
    """Root- and weight-preserving isomorphism of two carrousel trees."""
    return a.encoding() == b.encoding()


def leaf_contacts(tree: CarrouselTree) -> ContactMatrix:
    """The round-trip oracle: contact of two leaves is the weight of their
    deepest common ancestor.  A leaf reads its row off one row in depth-first
    order on which its branching ancestors paint their ranks, deepest last."""
    leaves, weights = [], []

    def span(node: CarrouselNode):  # (node, first leaf, end, child spans)
        start = len(leaves)
        kids = [span(c) for c in node.children]
        if node.is_leaf():
            leaves.append(node.leaf)
        elif len(kids) > 1:
            weights.append(node.weight)
        return node, start, len(leaves), kids

    root = span(tree.root)
    rank = ranking(weights)
    inf = len(rank) - 1
    row, rows = [inf] * len(leaves), [()] * tree.size
    order = sorted(range(len(leaves)), key=leaves.__getitem__)
    pick = itemgetter(*order) if len(order) > 1 else tuple  # one key: no tuple

    def fill(kids, here: int):
        for node, start, end, below in kids:
            if node.is_leaf():
                row[start] = inf
                rows[node.leaf] = pick(row)
            else:
                deeper = rank.get(node.weight, here)
                row[start:end] = [deeper] * (end - start)
                fill(below, deeper)
            row[start:end] = [here] * (end - start)

    fill([root], inf)
    return ContactMatrix._make((tree.size, tuple(rank), tuple(rows)))
