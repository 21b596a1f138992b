"""The rank form of contact matrices against Fraction-comparing references.

``ContactMatrix`` stores its distinct contacts once and one row of ranks
per strand; ``build_carrousel_tree``, ``leaf_contacts``, ``rendered``,
``finite_values`` and ``horn_jump_profile`` read the ranks.  The references
in ``helpers`` read the entries as Fractions, as the library did before."""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest

from helpers import (pairwise_contact_matrix, pairwise_leaf_contacts, random_curve,
                     reference_carrousel_tree, reference_horn_profile,
                     rendered_by_id)
from singlip import (PuiseuxBranch, build_carrousel_tree, contact_matrix, decorate,
                     horn_jump_profile, leaf_contacts, reduce_to_eggers, strands)
from singlip.exactnum import rational_to_json
from singlip.fixtures import fixture_kind, fixture_names, load_fixture
from singlip.strands import ContactMatrix


def _curves():
    rng = random.Random(2022)
    curves = [load_fixture(n) for n in fixture_names() if fixture_kind(n) == "curve"]
    return curves + [random_curve(rng, 3, 6) for _ in range(300)]


def _json(v):
    return "inf" if v is None else rational_to_json(v)


def _variants(m: ContactMatrix, rng: random.Random):
    """The matrix, its entries under a strand permutation, and its entries
    as fresh Fraction objects (no two entries share one)."""
    perm = list(range(m.size))
    rng.shuffle(perm)
    rows = m.entries
    yield m
    yield ContactMatrix(m.size, tuple(tuple(rows[j][k] for k in perm) for j in perm))
    yield ContactMatrix(m.size, tuple(
        tuple(None if v is None else F(v.numerator, v.denominator) for v in row)
        for row in rows))


def _assert_matches_references(m: ContactMatrix):
    tree, ref = build_carrousel_tree(m), reference_carrousel_tree(m)
    assert tree.to_json() == ref.to_json()
    assert (reduce_to_eggers(decorate(tree)).to_json()
            == reduce_to_eggers(decorate(ref)).to_json())
    assert leaf_contacts(tree) == pairwise_leaf_contacts(ref) == m
    assert m.to_json() == {"size": m.size, "entries": rendered_by_id(m, _json)}
    assert m.rendered(str) == rendered_by_id(m, str)
    assert m.finite_values() == {v for row in m.entries for v in row} - {None}
    for base in range(m.size):
        assert horn_jump_profile(m, base) == reference_horn_profile(m, base)


def test_rank_form_matches_references():
    rng = random.Random(7)
    for curve in _curves():
        for m in _variants(contact_matrix(curve), rng):
            _assert_matches_references(m)


def test_rank_form_is_canonical():
    # the fast constructor, the entry constructor and the pairwise contacts
    # give one matrix: values sorted and distinct, each one taken
    for curve in _curves()[:60]:
        m = contact_matrix(curve)
        assert m == ContactMatrix(m.size, m.entries) == pairwise_contact_matrix(curve)
        finite = m.values[:-1]
        assert m.values[-1] is None and list(finite) == sorted(set(finite))
        assert {r for row in m.ranks for r in row} == set(range(len(m.values)))


def test_equal_values_in_distinct_objects_share_a_rank():
    m = ContactMatrix(3, ((None, F(3, 2), F(6, 4)), (F(3, 2), None, F(2)),
                          (F(3, 2), F(2), None)))
    assert m.values == (F(3, 2), F(2), None)
    assert m.ranks == ((2, 0, 0), (0, 2, 1), (0, 1, 2))
    assert m.q(0, 2) == F(3, 2) and m.q(1, 1) is None


def test_pickle_and_copy_keep_the_matrix():
    m = contact_matrix(load_fixture("carrousel-example"))
    assert pickle.loads(pickle.dumps(m)) == copy.copy(m) == copy.deepcopy(m) == m


@pytest.fixture
def scans(monkeypatch):
    """Calls of the cubic scan of ``check_ultrametric``."""
    calls = []
    scan = strands._violations

    def spy(rows):
        calls.append(len(rows))
        return scan(rows)

    monkeypatch.setattr(strands, "_violations", spy)
    return calls


def test_built_matrices_skip_the_cubic_scan(scans):
    # a one-branch curve has a unary root: no contact equals its weight 1,
    # so a values table holding 1 would miss the round trip every time
    one_branch = [[PuiseuxBranch.from_terms([(F(3, 2), 1)])],
                  [PuiseuxBranch.from_terms([(F(3, 2), 1), (F(7, 4), 2)])],
                  [PuiseuxBranch.from_terms([(F(1), 1)])]]
    for curve in one_branch + _curves():
        assert contact_matrix(curve).check_ultrametric() == []
    assert scans == []


def test_a_violation_runs_the_scan(scans):
    m = contact_matrix(load_fixture("cusp-53"))
    rows = [list(r) for r in m.entries]
    rows[0][1] = rows[1][0] = F(1)
    bent = ContactMatrix(m.size, tuple(map(tuple, rows)))
    assert bent.check_ultrametric() == [(0, 2, 1), (1, 2, 0)]
    assert scans == [m.size]
