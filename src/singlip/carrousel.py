"""Carrousel trees: the rooted contact trees of plane curve germs.

The tree is built from a contact matrix by taking, for each contact value q
(always including 1), the equivalence classes of strands under "contact at
least q", wiring classes by inclusion, weighting each class vertex with its
q, and suppressing valence-2 vertices.  Two germs are outer Lipschitz
equivalent exactly when their carrousel trees are isomorphic as rooted
weighted trees, so isomorphism here is a decision procedure.

Decorations m, n, r, s record how the denominator lattice grows down each
root path; the reduction step collapses groups of r isomorphic sibling
subtrees to one representative, which is the Eggers-style quotient by the
implicit conjugation action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError
from .exactnum import rational_to_json
from .strands import ContactMatrix


@dataclass(frozen=True)
class CarrouselNode:
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

    def leaves(self) -> list[int]:
        if self.is_leaf():
            return [self.leaf]
        return [x for c in self.children for x in c.leaves()]

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


@dataclass(frozen=True)
class CarrouselTree:
    root: CarrouselNode
    size: int  # number of strands

    def leaves(self) -> list[int]:
        return self.root.leaves()

    def encoding(self, with_decorations: bool = False):
        return self.root.encoding(with_decorations)

    def to_json(self) -> dict:
        return {"strands": self.size, "root": self.root.to_json()}


def build_carrousel_tree(matrix: ContactMatrix) -> CarrouselTree:
    """Contact-class tree of the matrix, valence-2 vertices suppressed.

    The level set is the finite contact values together with 1, so the root
    always has weight 1 even when no two strands have contact exactly 1.
    """
    m = matrix.size
    values = sorted(matrix.finite_values() | {Fraction(1)}, reverse=True)

    def classes(strands: Sequence[int], level: Fraction) -> list[list[int]]:
        # the relation is transitive (ultrametric), so one representative
        # per group is enough; union-find is overkill at these sizes
        groups: list[list[int]] = []
        for s in strands:
            for g in groups:
                q = matrix.q(s, g[0])
                if q is None or q >= level:
                    g.append(s)
                    break
            else:
                groups.append([s])
        return groups

    def build(strands: Sequence[int], idx: int) -> CarrouselNode:
        weight = values[idx]
        if idx == 0:
            kids = [CarrouselNode(None, leaf=s) for s in sorted(strands)]
        else:
            kids = [build(g, idx - 1) for g in classes(strands, values[idx - 1])]
        return CarrouselNode(weight, tuple(kids))

    def suppress(node: CarrouselNode, is_root: bool) -> CarrouselNode:
        if node.is_leaf():
            return node
        kids = tuple(suppress(c, False) for c in node.children)
        if not is_root and len(kids) == 1:
            return kids[0]
        return replace(node, children=kids)

    root = suppress(build(list(range(m)), len(values) - 1), True)
    return CarrouselTree(root, m)


def decorate(tree: CarrouselTree) -> CarrouselTree:
    """Attach m, n, r, s to every internal vertex (r, s absent at the root)."""

    def walk(node: CarrouselNode, parent_q: Optional[Fraction],
             parent_n: Optional[int]) -> CarrouselNode:
        if node.is_leaf():
            return node
        q = node.weight
        if parent_q is not None and q <= parent_q:
            raise InputError(f"weights not increasing: {parent_q} then {q}")
        n = q.denominator if parent_n is None else math.lcm(parent_n, q.denominator)
        m_ = (q * n).numerator
        if parent_n is None:
            r = s = None
        else:
            r = n // parent_n
            s = int(n * (q - parent_q))
        kids = tuple(walk(c, q, n) for c in node.children)
        return replace(node, children=kids, m=m_, n=n, r=r, s=s)

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
            return replace(node, children=tuple(kids))
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
                new_kids.append(replace(group[full * r], edge_label=r))
        return replace(node, children=tuple(new_kids))

    if tree.root.n is None and not tree.root.is_leaf():
        raise InputError("reduce_to_eggers needs a decorated tree")
    return CarrouselTree(reduce_node(tree.root), tree.size)


def trees_isomorphic(a: CarrouselTree, b: CarrouselTree) -> bool:
    """Root- and weight-preserving isomorphism of two carrousel trees."""
    return a.encoding() == b.encoding()


def leaf_contacts(tree: CarrouselTree) -> ContactMatrix:
    """Recover the contact matrix: contact of two leaves is the weight of
    their deepest common ancestor.  Used as the round-trip oracle."""
    m = tree.size
    rows = [[None] * m for _ in range(m)]

    def walk(node: CarrouselNode):
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
    return ContactMatrix(m, tuple(tuple(r) for r in rows))
