"""Randomized property suites.  Each suite runs at least 200 seeded cases;
the generators draw curves with at most the stated branch counts,
denominators and term counts, so every case finishes quickly while still
exercising satellite chains, shared centers and conjugate contacts."""

import random

from helpers import curvette_pair, random_curve
from singlip import (build_carrousel_tree, coincidence_exponent,
                     contact_matrix, csquare_decomposition, leaf_contacts,
                     resolve_curve, verify_tower)
from singlip.decomp import Decomposition, Piece, amalgamate
from singlip.tower import branch_contact


def test_ultrametric_inequality_200():
    rng = random.Random(101)
    for _ in range(200):
        m = contact_matrix(random_curve(rng, max_branches=4, max_den=6))
        assert not m.check_ultrametric()
        finite = m.finite_values()
        assert all(v >= 1 for v in finite)


def test_carrousel_round_trip_200():
    rng = random.Random(102)
    for _ in range(200):
        m = contact_matrix(random_curve(rng, max_branches=3, max_den=6))
        tree = build_carrousel_tree(m)
        assert leaf_contacts(tree).entries == m.entries


def test_tower_invariants_200():
    rng = random.Random(103)
    for _ in range(200):
        curve = random_curve(rng, max_branches=2, max_den=6)
        _, tree = resolve_curve(curve)
        report = verify_tower(tree)
        assert report.ok, (curve, report.problems())


def test_rate_vectors_equal_curvette_contacts_200():
    rng = random.Random(104)
    checked = 0
    cases = 0
    while cases < 200:
        curve = random_curve(rng, max_branches=2, max_den=6)
        events, tree = resolve_curve(curve)
        for v in tree.vertices:
            g1, g2 = curvette_pair(events, tree, v.id)
            assert coincidence_exponent(g1, g2) == v.rate, (curve, v.id)
            checked += 1
        cases += 1
    assert checked >= 200


def _relabel(d: Decomposition, perm: dict) -> Decomposition:
    out = Decomposition(d.mode)
    for pid, p in d.pieces.items():
        out.pieces[perm[pid]] = Piece(perm[pid], p.kind, p.rates, p.support,
                                      p.edge_support, p.special, p.node)
    out.adjacency = {frozenset(perm[x] for x in pair) for pair in d.adjacency}
    return out


def _shape(d: Decomposition):
    key = {}
    for p in d.pieces.values():
        key[p.pid] = (p.kind, p.rates, tuple(sorted(p.support)),
                      tuple(sorted(p.edge_support)))
    pieces = sorted(key.values())
    adjacency = sorted(sorted((key[a], key[b])) for a, b in
                       (tuple(pair) for pair in d.adjacency))
    return pieces, adjacency


def test_amalgamation_confluence_200():
    rng = random.Random(105)
    for _ in range(200):
        curve = random_curve(rng, max_branches=2, max_den=5)
        _, tree = resolve_curve(curve)
        d = csquare_decomposition(tree)
        stable = amalgamate(d)
        reference = _shape(stable)
        ids = list(d.pieces)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        perm = dict(zip(ids, shuffled))
        permuted = _relabel(d, perm)
        assert _shape(amalgamate(permuted)) == reference
        assert amalgamate(stable).to_json() == stable.to_json()


def test_tree_branch_contacts_match_strand_contacts_200():
    # the deepest common vertex of two branch arrows carries exactly the
    # strand-theoretic coincidence exponent: a global check of every
    # center-sharing decision made during the resolution
    rng = random.Random(106)
    checked = 0
    while checked < 200:
        curve = random_curve(rng, max_branches=3, max_den=6)
        if len(curve) < 2:
            continue
        _, tree = resolve_curve(curve)
        for i in range(len(curve)):
            for j in range(i + 1, len(curve)):
                expected = coincidence_exponent(curve[i], curve[j])
                assert branch_contact(tree, i, j) == expected, (curve, i, j)
                checked += 1
