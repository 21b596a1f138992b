"""Randomized property suites.  Each suite runs at least 200 seeded cases;
the generators draw curves with at most the stated branch counts,
denominators and term counts, so every case finishes quickly while still
exercising satellite chains, shared centers and conjugate contacts."""

import random
from collections import Counter
from fractions import Fraction
from functools import cache

from helpers import (alexander_polynomial, curvette_pair, random_curve,
                     reference_amalgamate, reference_csquare)
from singlip import (PuiseuxBranch, build_carrousel_tree, build_decomposition,
                     coincidence_exponent, contact_matrix, csquare_decomposition,
                     laufer_double_cover, laufer_parity_prepare, leaf_contacts,
                     resolve_curve, strands_of, verify_tower)
from singlip.csquare import amalgamate
from singlip.decomp import Decomposition, Piece
from singlip.errors import DomainError
from singlip.fixtures import fixture_kind, fixture_names, load_fixture
from singlip.jsonio import parse_tower, tower_to_json
from singlip.dualgraph import CURVE_FUNCTION, branch_contact


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


def test_tower_json_round_trip_200():
    """Reading a tower document back and writing it again gives the
    document less its events, which the reader ignores."""
    rng = random.Random(110)
    curves = [load_fixture(n) for n in fixture_names() if fixture_kind(n) == "curve"]
    curves += [random_curve(rng, 3, 6) for _ in range(200)]
    for curve in curves:
        events, tree = resolve_curve(curve)
        doc = tower_to_json(tree, events)
        assert "events" in doc
        assert tower_to_json(parse_tower(doc)) == {
            k: v for k, v in doc.items() if k != "events"}


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


def _random_pieces(rng: random.Random, count: int, special=False) -> Decomposition:
    """A tree of random pieces over a few rates.  Unlike a tower's, an
    A-piece here may have three A-neighbours, and then the merge order
    decides the result.  With ``special``, each A(q,q)- and B-piece is
    special with probability 1/2: a special A(q,q)-piece keeps its flag
    while no rule changes it, and no D melts into a special B-piece."""
    pieces, adjacency = {}, set()
    rates = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
    for pid in range(count):
        kind = rng.choice(("A", "A", "A", "D", "B", "conical"))
        if kind == "A":
            pair = tuple(sorted(rng.choices(rates, k=2)))
        else:
            pair = (Fraction(1),) if kind == "conical" else (rng.choice(rates),)
        flag = (special and (kind == "B" or kind == "A" and pair[0] == pair[1])
                and rng.random() < 0.5)
        pieces[pid] = Piece(pid, kind, pair, frozenset([pid]), special=flag)
        if pid:
            adjacency.add(frozenset((pid, rng.randrange(pid))))
    return Decomposition("random", pieces, adjacency)


@cache
def _amalgamation_cases() -> tuple:
    """Towers of random curves, the chains x^((k+1)/k), which hold a live
    rule at every pair of neighbouring A-pieces, and random piece trees."""
    rng = random.Random(108)
    towers = [resolve_curve(random_curve(rng, max_branches=3, max_den=6))[1]
              for _ in range(300)]
    towers += [resolve_curve([PuiseuxBranch.from_terms([(Fraction(k + 1, k), 1)])])[1]
               for k in (*range(1, 41), 100, 200)]
    return towers, [_random_pieces(rng, rng.randint(2, 30)) for _ in range(300)]


def test_csquare_matches_construction_reference_300():
    # the same pieces, objects equal field for field, under the same pids
    # and in the same order as the construction through keyword fields
    for tower in _amalgamation_cases()[0]:
        d, reference = csquare_decomposition(tower), reference_csquare(tower)
        assert d.to_json() == reference.to_json()
        assert list(d.pieces.items()) == list(reference.pieces.items())
        assert d.adjacency == reference.adjacency


def test_amalgamate_matches_quadratic_reference_300():
    # the heap merges in the reference's order, so pids, rates and supports
    # agree object for object.  On towers the order does not show in the
    # result; on the random piece trees it does
    towers, trees = _amalgamation_cases()
    for d in [*map(csquare_decomposition, towers), *trees]:
        assert amalgamate(d).to_json() == reference_amalgamate(d).to_json()


def test_amalgamate_matches_quadratic_reference_with_special_pieces():
    # the inner decompositions of the rated graph fixtures, where
    # minimal-singularity's special P-nodes m4 and m7 give special
    # A(q,q)-pieces, and random piece trees with special pieces
    cases = []
    for name in fixture_names():
        graph = load_fixture(name)
        if fixture_kind(name) == "graph" and all(
                v.rate is not None for v in graph.vertices.values()):
            cases.append(build_decomposition(graph, "inner"))
    assert sum(p.special for d in cases for p in d.pieces.values()) >= 2
    rng = random.Random(109)
    trees = [_random_pieces(rng, rng.randint(2, 30), special=True) for _ in range(300)]
    assert sum(p.special for d in trees for p in d.pieces.values()) > 300
    for d in cases + trees:
        assert amalgamate(d).to_json() == reference_amalgamate(d).to_json()


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


def test_cover_determinant_is_alexander_at_minus_one_300():
    # the double cover z^2 + f is the double branched cover of S^3 over the
    # link of f, so |H_1| = |det| of its graph equals |Delta_f(-1)|, and
    # Delta_f(-1) = 0 means H_1 is infinite: the cover graph has a curve
    # of positive genus or a cycle
    rng = random.Random(107)
    built = 0
    for _ in range(300):
        _, tree = resolve_curve(random_curve(rng, max_branches=3, max_den=6))
        try:
            cover = laufer_double_cover(laufer_parity_prepare(tree))
        except DomainError:
            continue  # outside the combinatorial case of the construction
        built += 1
        delta = alexander_polynomial(tree)
        at_minus_one = sum(c * (-1) ** i for i, c in enumerate(delta))
        if at_minus_one:
            assert abs(cover.determinant()) == abs(at_minus_one), tree.arrows
        else:
            cycles = len(cover.edges) - len(cover.vertices) + 1
            assert cycles > 0 or any(v.genus for v in cover.vertices.values())
    assert built >= 50


def test_milnor_number_three_ways_and_intersections_two_ways_300():
    # Teissier from the strands, Milnor from the events, A'Campo from the
    # tower; intersection numbers of branches from strand contacts and by
    # Noether's formula over the infinitely near points
    rng = random.Random(108)
    pairs = 0
    for _ in range(300):
        curve = random_curve(rng, max_branches=3, max_den=6)
        strands = strands_of(curve)
        m = contact_matrix(curve)
        n = len(strands)
        teissier = sum(m.entries[j][k] for j in range(n) for k in range(n)
                       if j != k) - n + 1
        events, tree = resolve_curve(curve)
        delta = sum(e * (e - 1) // 2 for e in
                    (sum(mu for _, mu in ev.branches_through) for ev in events))
        milnor = 2 * delta - len(curve) + 1
        arrows = Counter(a.vertex for a in tree.arrows if a.name == CURVE_FUNCTION)
        acampo = 1 - sum(v.multiplicities[CURVE_FUNCTION]
                         * (2 - tree.valence(v.id) - arrows[v.id])
                         for v in tree.vertices)
        assert teissier == milnor == acampo, curve
        assert len(alexander_polynomial(tree)) - 1 == milnor, curve
        local = [dict(ev.branches_through) for ev in events]
        for i in range(len(curve)):
            for j in range(i + 1, len(curve)):
                by_contacts = sum(m.entries[a][b] for a in range(n) for b in range(n)
                                  if strands[a].branch_index == i
                                  and strands[b].branch_index == j)
                noether = sum(x.get(i, 0) * x.get(j, 0) for x in local)
                assert by_contacts == noether, (curve, i, j)
                pairs += 1
    assert pairs >= 200
