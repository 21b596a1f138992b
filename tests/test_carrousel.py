import random
from fractions import Fraction as F

import pytest

from helpers import random_curve
from singlip import (PuiseuxBranch, build_carrousel_tree, contact_matrix,
                     decorate, leaf_contacts, reduce_to_eggers,
                     trees_isomorphic)
from singlip.carrousel import MAX_DEPTH
from singlip.errors import InputError
from singlip.fixtures import curve_carrousel_example, load_fixture
from singlip.strands import ContactMatrix


def branch(*terms):
    return PuiseuxBranch.from_terms([(F(e), F(c)) for e, c in terms])


def tree_of(curve):
    return build_carrousel_tree(contact_matrix(curve))


def shape(node):
    """(weight, sorted child shapes); leaves collapse to 'leaf'."""
    if node.is_leaf():
        return "leaf"
    return (node.weight, tuple(sorted(map(repr, (shape(c) for c in node.children)))))


def test_paper_tree_shape():
    t = tree_of(curve_carrousel_example())
    root = t.root
    assert root.weight == 1 and len(root.children) == 1
    mid = root.children[0]
    assert mid.weight == F(3, 2) and len(mid.children) == 3
    groups = sorted((c.weight, len(c.children)) for c in mid.children)
    assert groups == [(F(13, 6), 3), (F(13, 6), 3), (F(5, 2), 2)]


def test_trivial_trees():
    t = tree_of([branch((2, 1))])
    assert t.root.weight == 1 and len(t.root.children) == 1
    assert t.root.children[0].is_leaf()

    t = tree_of([branch(("3/2", 1))])
    assert t.root.weight == 1
    (v,) = t.root.children
    assert v.weight == F(3, 2) and len(v.children) == 2
    assert all(c.is_leaf() for c in v.children)


def test_decorations():
    t = decorate(tree_of(curve_carrousel_example()))
    root = t.root
    assert (root.m, root.n) == (1, 1) and root.r is None and root.s is None
    mid = root.children[0]
    assert (mid.m, mid.n, mid.r, mid.s) == (3, 2, 2, 1)
    for child in mid.children:
        if child.weight == F(13, 6):
            assert (child.n, child.r, child.s) == (6, 3, 4)
        else:
            assert child.weight == F(5, 2)
            assert (child.n, child.r, child.s) == (2, 1, 2)


def test_decorate_rejects_nonmonotone():
    from singlip.carrousel import CarrouselNode, CarrouselTree
    leaf = CarrouselNode(None, leaf=0)
    leaf2 = CarrouselNode(None, leaf=1)
    inner = CarrouselNode(F(5, 4), (leaf, leaf2))
    bad = CarrouselTree(CarrouselNode(F(3, 2), (inner, CarrouselNode(None, leaf=2))), 3)
    with pytest.raises(InputError):
        decorate(bad)


def test_eggers_reduction_single_branch():
    t = decorate(tree_of([branch(("3/2", 1))]))
    r = reduce_to_eggers(t)
    (v,) = r.root.children
    assert v.weight == F(3, 2)
    assert len(v.children) == 1  # the two conjugate leaves collapsed


def test_eggers_reduction_paper_tree():
    r = reduce_to_eggers(decorate(tree_of(curve_carrousel_example())))
    mid = r.root.children[0]
    kinds = sorted((c.weight, len(c.children), c.edge_label) for c in mid.children)
    # the two isomorphic 13/6-subtrees collapse to one (triple of leaves
    # collapsed inside), the extra 5/2-subtree keeps edge label r = 2
    assert kinds == [(F(13, 6), 1, None), (F(5, 2), 2, 2)]


def test_eggers_reduction_mixed_edge_labels():
    # the 7/4-subtrees below 5/3 are compared after the inner reduction has
    # labelled some of them, so labelled and unlabelled siblings meet
    a = branch(("3/2", 1), ("7/4", 1), ("11/6", 1))
    b = branch(("3/2", 1), ("5/3", 1), ("7/4", 1))
    r = reduce_to_eggers(decorate(tree_of([a, b])))
    (mid,) = r.root.children[0].children
    assert mid.weight == F(5, 3)
    kids = [(c.weight, c.edge_label, len(c.children)) for c in mid.children]
    assert kids == [(F(7, 4), None, 1), (F(7, 4), 3, 1)]
    swapped = reduce_to_eggers(decorate(tree_of([b, a])))
    assert swapped.encoding(with_decorations=True) == r.encoding(with_decorations=True)


def test_eggers_reduction_trivial():
    t = decorate(tree_of([branch((2, 1))]))
    r = reduce_to_eggers(t)
    assert r.encoding() == t.encoding()


def test_isomorphism_decides_equivalence():
    a = tree_of(curve_carrousel_example())
    assert trees_isomorphic(a, a)
    b = tree_of([branch(("5/2", 1))])
    assert not trees_isomorphic(a, b)
    # same exponents and contacts under different coefficients
    c = tree_of([branch(("3/2", 2), ("13/6", 5)), branch(("5/2", -1))])
    assert trees_isomorphic(a, c)


def _check_layout(node, parent_weight):
    """Weights rise strictly, a non-root vertex branches, and children come
    in order of their least strand; returns the least strand below."""
    if node.is_leaf():
        return node.leaf
    assert parent_weight is None or node.weight > parent_weight
    assert parent_weight is None or len(node.children) >= 2
    least = [_check_layout(c, node.weight) for c in node.children]
    assert least == sorted(least)
    return least[0]


def test_round_trip_matrix_reconstruction():
    # with the round trip, these checks of the layout fix the tree (and so
    # the output bytes) uniquely
    rng = random.Random(21)
    curves = [load_fixture(name) for name in
              ("carrousel-example", "cusp-53", "curve-32-74")]
    curves += [random_curve(rng, max_branches=4) for _ in range(60)]
    for curve in curves:
        m = contact_matrix(curve)
        t = build_carrousel_tree(m)
        assert leaf_contacts(t).entries == m.entries
        assert t.root.weight == 1
        _check_layout(t.root, None)


def test_strand_permutation_invariance():
    rng = random.Random(22)
    for _ in range(40):
        curve = random_curve(rng, max_branches=3)
        m = contact_matrix(curve)
        perm = list(range(m.size))
        rng.shuffle(perm)
        rows = tuple(tuple(m.q(perm[j], perm[k]) for k in range(m.size))
                     for j in range(m.size))
        m2 = ContactMatrix(m.size, rows)
        assert trees_isomorphic(build_carrousel_tree(m),
                                build_carrousel_tree(m2))


def test_canonical_equality_iff_isomorphic():
    rng = random.Random(23)
    trees = [tree_of(random_curve(rng, max_branches=2)) for _ in range(25)]
    for a in trees:
        for b in trees:
            assert trees_isomorphic(a, b) == (a.encoding() == b.encoding())


def test_eggers_reduction_rejects_bad_group_sizes():
    # five isomorphic subtrees under r = 3 is 2 mod 3: not a union of
    # conjugation orbits plus at most one extra tree
    from singlip.carrousel import CarrouselNode, CarrouselTree
    leaves = tuple(CarrouselNode(None, leaf=i) for i in range(5))
    inner = CarrouselNode(F(4, 3), leaves, m=4, n=3, r=3, s=1)
    root = CarrouselNode(F(1), (inner,), m=1, n=1)
    with pytest.raises(InputError):
        reduce_to_eggers(CarrouselTree(root, 5))


def test_eggers_reduction_rejects_undecorated_tree():
    with pytest.raises(InputError, match="needs a decorated tree"):
        reduce_to_eggers(tree_of(curve_carrousel_example()))


def test_carrousel_depth_limit_leaves_wide_trees_alone():
    # MAX_DEPTH + 100 pairs of strands, the pairs apart at contact 1 and
    # each pair at its own contact: two levels and far more contacts than
    # the limit
    pairs = MAX_DEPTH + 100
    ranks = tuple(tuple(pairs + 1 if j == k else j // 2 + 1 if j // 2 == k // 2
                        else 0 for k in range(2 * pairs)) for j in range(2 * pairs))
    matrix = ContactMatrix._make((2 * pairs, (*map(F, range(1, pairs + 2)), None),
                                  ranks))
    tree = build_carrousel_tree(matrix)
    assert len(tree.root.children) == pairs
    assert all(len(c.children) == 2 for c in tree.root.children)
    assert leaf_contacts(tree) == matrix
