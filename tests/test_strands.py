import cmath
import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from helpers import (branch_char_exponents, coefficient_value, contact,
                     numeric_contact, pairwise_contact_matrix, random_branch,
                     random_curve)
from singlip import (PuiseuxBranch, coincidence_exponent, contact_matrix, fixtures,
                     horn_jump_profile, resolve_curve, strand_contact, strands_of)
from singlip.errors import InputError, ResourceCapExceeded
from singlip.fixtures import curve_carrousel_example
from singlip.jsonio import dumps
from singlip.strands import (DEFAULT_STRAND_CAP, ContactMatrix, _strands_of_branch,
                              check_curve, coefficient_key)


def branch(*terms):
    return PuiseuxBranch.from_terms([(F(e), F(c)) for e, c in terms])


def test_strand_counts():
    assert len(strands_of(curve_carrousel_example())) == 8
    assert len(strands_of([branch((2, 1))])) == 1
    two = strands_of([branch(("3/2", 1))])
    assert len(two) == 2
    # twist rule: coefficients +1 and -1 at exponent 3/2
    coeffs = sorted(coefficient_value(s, F(3, 2)).real for s in two)
    assert coeffs == pytest.approx([-1.0, 1.0])


def test_duplicate_branches_rejected():
    with pytest.raises(InputError):
        strands_of([branch(("3/2", 1)), branch(("3/2", -1))])  # same strand set
    with pytest.raises(InputError):
        strands_of([branch((2, 1)), branch((2, 1))])
    with pytest.raises(InputError):
        strands_of([branch(("5/4", 2)), branch(("5/4", -2))])
    # a sign flip on 3/2 alone is no conjugate: -1 = zeta_4^(6j) needs j
    # odd, while 1 = zeta_4^(7j) needs 4 | j
    assert len(strands_of([branch(("3/2", 1), ("7/4", 1)),
                           branch(("3/2", -1), ("7/4", 1))])) == 8


def test_duplicate_branches_error_names_the_first_repeat():
    # branches 0 and 3 are conjugate as well, but branch 2 is the first to
    # repeat an earlier branch's strand set, that of branch 1
    curve = [branch(("3/2", 1)), branch(("5/4", 2)), branch(("5/4", -2)),
             branch(("3/2", -1))]
    with pytest.raises(InputError,
                       match="^branches 1 and 2 have identical strand sets$"):
        strands_of(curve)


def _conjugate(b: PuiseuxBranch) -> PuiseuxBranch:
    # x^(1/n) -> -x^(1/n) for even n: the sign of a_e flips where e*n is odd
    n = b.denominator
    odd = [n % 2 == 0 and (e * n).numerator % 2 for e, _ in b.terms]
    return PuiseuxBranch(n, tuple((e, -c if o else c) for (e, c), o in zip(b.terms, odd)))


def test_duplicate_check_matches_comparing_every_strand_set():
    # check_curve expands only branches that share their denominator and
    # term count with another; it must name the pair that comparing the
    # strand sets of all branches names
    rng = random.Random(29)
    repeats = 0
    for _ in range(600):
        curve = [random_branch(rng, 4, 2) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 2)):
            copy = rng.choice([lambda b: b, _conjugate])(rng.choice(curve))
            curve.insert(rng.randint(0, len(curve)), copy)
        order = math.lcm(*(b.denominator for b in curve))
        first, expected = {}, None
        for k, b in enumerate(curve):
            i = first.setdefault(frozenset(
                s.series for s in _strands_of_branch(k, b, order)), k)
            if i != k:
                expected = f"branches {i} and {k} have identical strand sets"
                break
        try:
            assert check_curve(curve) == order and expected is None
        except InputError as caught:
            assert str(caught) == expected
            repeats += 1
    assert 200 < repeats < 500


def test_coefficient_key_normal_form():
    for order in (2, 4, 6, 12):
        half = order // 2
        for k in range(-order, 2 * order):
            for a in (F(1), F(-3, 2)):
                assert coefficient_key(a, k + half, order) == coefficient_key(-a, k, order)
                l, p, q = coefficient_key(a, k, order)
                assert 0 <= l < half and q > 0
                assert abs(p / q * cmath.exp(2j * cmath.pi * l / order)
                           - float(a) * cmath.exp(2j * cmath.pi * k / order)) < 1e-9
    for order in (1, 3, 5, 9):
        for k in range(-order, 2 * order):
            assert coefficient_key(F(2, 3), k, order) == (k % order, 2, 3)
    # (m, k, p, q): 1 * x^(3/2) and -1 * x^(3/2) over N = 2
    keys = {s.series for s in strands_of([branch(("3/2", 1))])}
    assert keys == {((3, 0, 1, 1),), ((3, 0, -1, 1),)}


def test_strand_contact_same_branch():
    s, t = strands_of([branch(("3/2", 1))])
    assert strand_contact(s, t) == 3  # 3/2 over N = 2
    q = contact(s, t)
    assert q == F(3, 2)
    assert numeric_contact(s, t, q)
    assert strand_contact(s, s) is None  # infinity


def test_strand_contact_aligned_conjugates():
    # same twist sign on 3/2, different on 13/6
    strands = strands_of([branch(("3/2", 1), ("13/6", 1))])
    values = {contact(s, t) for i, s in enumerate(strands) for t in strands[i + 1:]}
    assert values == {F(3, 2), F(13, 6)}
    pair = [(s, t) for i, s in enumerate(strands) for t in strands[i + 1:]
            if contact(s, t) == F(13, 6)]
    assert all(numeric_contact(s, t, F(13, 6)) for s, t in pair)


def test_contact_matrix_paper_example():
    m = contact_matrix(curve_carrousel_example())
    assert m.size == 8
    assert m.finite_values() == {F(3, 2), F(13, 6), F(5, 2)}
    assert all(m.q(j, j) is None for j in range(8))
    assert not m.check_ultrametric()


def test_contact_matrix_single_smooth_branch():
    m = contact_matrix([branch((2, 1))])
    assert m.size == 1
    assert m.q(0, 0) is None
    assert m.finite_values() == set()


def test_contact_matrix_two_close_branches():
    # y = x^{3/2}+cx^2 vs y = x^{3/2}+c'x^2: contacts {3/2, 2}, and the
    # intersection multiplicity 7 equals the sum of the four pairwise
    # contacts (cross-checked numerically via parametrizations)
    a = branch(("3/2", 1), (2, 1))
    b = branch(("3/2", 1), (2, 3))
    m = contact_matrix([a, b])
    values = sorted(m.finite_values())
    assert min(values) == F(3, 2)
    assert max(values) == F(2)
    cross = [m.q(j, k) for j in (0, 1) for k in (2, 3)]
    assert sum(cross) == 7


def test_char_exponents():
    assert branch_char_exponents(branch(("3/2", 1), ("13/6", 1))) == {F(3, 2), F(13, 6)}
    assert branch_char_exponents(branch(("5/2", 1))) == {F(5, 2)}
    assert branch_char_exponents(branch((2, 1), (3, 1))) == set()
    # non-characteristic later exponent over the same lattice
    assert branch_char_exponents(branch(("3/2", 1), ("5/2", 2))) == {F(3, 2)}


def test_coincidence_exponent():
    a, b = curve_carrousel_example()
    assert coincidence_exponent(a, b) == F(3, 2)
    assert coincidence_exponent(branch((2, 1)), branch((2, 1), (5, 1))) == 5
    assert coincidence_exponent(branch(("3/2", 1), ("5/2", 1)),
                                branch(("3/2", 1), ("5/2", 2))) == F(5, 2)


def test_horn_jump_profiles_paper():
    m = contact_matrix(curve_carrousel_example())
    # strands 0..5 belong to the 6-strand branch, 6..7 to y = x^{5/2}
    p = horn_jump_profile(m, 6)
    assert p.thresholds == (F(5, 2), F(3, 2))
    assert p.counts == (1, 2, 8)
    p = horn_jump_profile(m, 0)
    assert p.thresholds == (F(13, 6), F(3, 2))
    assert p.counts == (1, 3, 8)
    assert list(zip(p.thresholds, p.counts[1:])) == [(F(13, 6), 3),
                                                     (F(3, 2), 8)]


def test_horn_profile_trivial():
    m = contact_matrix([branch((2, 1))])
    p = horn_jump_profile(m, 0)
    assert p.thresholds == ()
    assert p.counts == (1,)
    with pytest.raises(InputError):
        horn_jump_profile(m, 5)


def test_contact_invariance_under_scaling_and_reorder():
    rng = random.Random(11)
    for _ in range(40):
        curve = random_curve(rng, max_branches=3)
        m = contact_matrix(curve)
        entries = sorted(v for row in m.entries for v in row if v is not None)
        scaled = [PuiseuxBranch.from_terms(
            [(e, c * F(rng.choice([1, 2, 3, 5]), rng.choice([1, 2])))
             for e, c in b.terms]) for b in curve]
        m2 = contact_matrix(scaled)
        entries2 = sorted(v for row in m2.entries for v in row if v is not None)
        assert entries == entries2
        m3 = contact_matrix(list(reversed(curve)))
        entries3 = sorted(v for row in m3.entries for v in row if v is not None)
        assert entries == entries3


def test_numeric_contact_oracle_random():
    rng = random.Random(12)
    for _ in range(20):
        curve = random_curve(rng, max_branches=2, max_den=4)
        strands = strands_of(curve)
        for i, s in enumerate(strands):
            for t in strands[i + 1:]:
                q = contact(s, t)
                if q is not None:
                    assert numeric_contact(s, t, q, samples=None), (curve, q)


def test_branch_validation():
    with pytest.raises(InputError):
        PuiseuxBranch.from_terms([(F(1, 2), F(1))])  # exponent below 1
    with pytest.raises(InputError):
        PuiseuxBranch.from_terms([(F(3, 2), F(0))])  # zero coefficient
    with pytest.raises(InputError):
        PuiseuxBranch(4, ((F(3, 2), F(1)),))  # non-minimal denominator
    # the constructor itself checks, not only from_terms, which sorts
    with pytest.raises(InputError):
        PuiseuxBranch(2, ((F(3, 2), F(0)),))  # zero coefficient
    with pytest.raises(InputError):
        PuiseuxBranch(2, ((F(2), F(1)), (F(3, 2), F(1))))  # exponents decrease
    with pytest.raises(InputError):
        PuiseuxBranch(2, ((F(3, 2), F(1)), (F(3, 2), F(2))))  # exponent repeats
    b = PuiseuxBranch.from_terms([(F(3, 2), F(1)), (F(2), F(1))])
    assert b.denominator == 2


@pytest.mark.parametrize("call, message", [
    (lambda: PuiseuxBranch(0, ()), "branch denominator must be a positive integer"),
    (lambda: PuiseuxBranch(2, ((F(4, 3), 1),)), "exponent 4/3 not over denominator 2"),
    (lambda: strands_of([]), "curve needs at least one branch"),
    (lambda: strand_contact(strands_of([branch(("3/2", 1))])[0],
                            strands_of([branch(("4/3", 1))])[0]),
     "strands expanded over different orders"),
], ids=["denominator-zero", "exponent-off-denominator", "no-branches",
        "contact-across-orders"])
def test_strand_layer_input_errors(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


def test_horn_counts_monotone_random():
    rng = random.Random(13)
    for _ in range(60):
        m = contact_matrix(random_curve(rng, max_branches=3))
        for base in range(m.size):
            p = horn_jump_profile(m, base)
            assert p.counts[0] == 1
            assert p.counts[-1] == m.size
            assert list(p.counts) == sorted(p.counts)
            assert all(p.counts[i] < p.counts[i + 1]
                       for i in range(len(p.counts) - 1))


def test_coincidence_is_max_over_strand_pairs_and_at_least_one():
    rng = random.Random(14)
    for _ in range(40):
        curve = random_curve(rng, max_branches=2)
        if len(curve) < 2:
            continue
        q = coincidence_exponent(curve[0], curve[1])
        assert q >= 1
        strands = strands_of(curve)
        pairs = [contact(s, t) for s in strands for t in strands
                 if s.branch_index == 0 and t.branch_index == 1]
        assert q == max(pairs)


def _float_contacts(curve):
    """Contacts from the complex values c * exp(2 pi i j m / n) of the
    branch terms, strands ordered as strands_of orders them."""
    values = [{e: float(c) * cmath.exp(2j * cmath.pi * j * (e * b.denominator).numerator
                                       / b.denominator) for e, c in b.terms}
              for b in curve for j in range(b.denominator)]
    m = len(values)
    rows = [[None] * m for _ in range(m)]
    for j in range(m):
        for k in range(m):
            exps = sorted(set(values[j]) | set(values[k]))
            rows[j][k] = next((e for e in exps if abs(
                values[j].get(e, 0) - values[k].get(e, 0)) > 1e-9), None)
    return tuple(tuple(r) for r in rows)


def test_contact_matrix_matches_complex_values():
    rng = random.Random(15)
    for _ in range(150):
        curve = random_curve(rng, max_branches=3, max_den=8)
        assert contact_matrix(curve).entries == _float_contacts(curve), curve


def _plain_json(matrix) -> dict:
    """The contacts document with a fresh object for every entry."""
    return {"size": matrix.size,
            "entries": [["inf" if v is None else {"num": v.numerator,
                                                  "den": v.denominator}
                         for v in row] for row in matrix.entries]}


def _assert_matches_pairwise(curve):
    m, ref = contact_matrix(curve), pairwise_contact_matrix(curve)
    assert m.entries == ref.entries, curve
    assert dumps(m.to_json()) == dumps(_plain_json(ref)), curve
    assert dumps(ref.to_json()) == dumps(_plain_json(ref)), curve


def _wide_shapes():
    """Curves shaped like the benchmark's wide rungs: branches with n = 1,
    and later branches that start with the first branch's head term."""
    return [
        [branch((2, 1)), branch((3, 1))],
        [branch((2, 1)), branch((2, 1), (3, 1)), branch((2, 1), (5, 2))],
        [branch(("3/2", 1), ("7/4", 1)), branch(("3/2", 1), ("13/8", 1)),
         branch((2, 3))],
        [branch(("5/4", 1), ("11/8", -1)), branch(("5/4", 1), ("7/5", 2))],
        [branch(("3/2", 1), ("5/3", 1)), branch(("3/2", 1), ("9/5", 1)),
         branch(("3/2", 2))],
        [branch(("3/2", 1), ("37/24", 2)), branch((2, 1), ("33/16", 1))],
    ]


def test_contact_matrix_matches_pairwise_reference():
    curves = [fixtures.load_fixture(name) for name in fixtures.fixture_names()
              if fixtures.fixture_kind(name) == "curve"]
    assert len(curves) == 3
    rng = random.Random(17)
    curves += [random_curve(rng, 3, 8) for _ in range(300)]
    curves += _wide_shapes()
    assert max(sum(b.denominator for b in c) for c in curves) >= 24
    for curve in curves:
        _assert_matches_pairwise(curve)


def test_contact_matrix_compares_no_fractions(monkeypatch):
    # exponents and coefficients are integer keys over N: a Fraction is
    # built once per distinct contact, and never compared or hashed
    rng = random.Random(3)
    curves = [random_curve(rng, max_branches=3) for _ in range(50)]
    calls = Counter()
    for name in ("__eq__", "__hash__", "_richcmp"):
        def spy(*args, name=name, method=getattr(F, name)):
            calls[name] += 1
            return method(*args)
        monkeypatch.setattr(F, name, spy)
    for curve in curves:
        contact_matrix(curve)
    monkeypatch.undo()
    assert calls == Counter()


def test_contact_matrix_of_1000_strands_is_fast():
    # one branch of 1000 strands: the twist-0 row and 999 rotations of it;
    # its 499500 pairs one by one take over a second
    curve = [branch(("3/2", 1), ("7/4", 1), ("2001/1000", 1))]
    start = time.perf_counter()
    m = contact_matrix(curve)
    elapsed = time.perf_counter() - start
    assert m.size == 1000
    assert set(m.entries[0]) == {None, F(3, 2), F(7, 4), F(2001, 1000)}
    # twists 250 apart agree at 3/2, twists 500 apart at 7/4 as well
    assert [m.q(0, 1), m.q(0, 250), m.q(0, 500), m.q(250, 750)] == [
        F(3, 2), F(7, 4), F(2001, 1000), F(2001, 1000)]
    assert elapsed < 0.5, f"1000 strands took {elapsed:.2f} s"


def test_finite_values_of_1000_strands_is_fast():
    # a million entries ranked into a table of four values: read off the
    # table, they cost three Fraction hashes; a set of the entries took over
    # half a second
    m = contact_matrix([branch(("3/2", 1), ("7/4", 1), ("2001/1000", 1))])
    start = time.perf_counter()
    values = m.finite_values()
    elapsed = time.perf_counter() - start
    assert values == {F(3, 2), F(7, 4), F(2001, 1000)}
    assert elapsed < 0.3, f"finite values of 1000 strands took {elapsed:.2f} s"


def test_finite_values_are_the_set_of_entries():
    curves = [fixtures.load_fixture(name) for name in fixtures.fixture_names()
              if fixtures.fixture_kind(name) == "curve"]
    rng = random.Random(17)
    curves += [random_curve(rng, 3, 6) for _ in range(50)]
    for curve in curves:
        m = contact_matrix(curve)
        assert m.finite_values() == {v for row in m.entries for v in row
                                     if v is not None}
    # equal values in distinct objects, as a matrix read from JSON has them
    m = ContactMatrix(3, ((None, F(3, 2), F(3, 2)), (F(3, 2), None, F(2)),
                          (F(3, 2), F(2), None)))
    assert m.finite_values() == {F(3, 2), F(2)}
    assert m.rendered(str) == (("None", "3/2", "3/2"), ("3/2", "None", "2"),
                               ("3/2", "2", "None"))


def test_strand_cap():
    curve = [branch(("3/2", 1), ("13/6", 1)), branch(("5/2", 1))]  # 8 strands
    assert len(strands_of(curve, strand_cap=8)) == 8
    for build in (strands_of, contact_matrix, resolve_curve):
        with pytest.raises(ResourceCapExceeded, match="strand cap 7"):
            build(curve, strand_cap=7)
    # one exponent of denominator 10^6: refused before any strand is built
    huge = [branch(("1000001/1000000", 1))]
    start = time.perf_counter()
    for build in (strands_of, contact_matrix, resolve_curve):
        with pytest.raises(ResourceCapExceeded, match="1000000 strands"):
            build(huge)
    assert time.perf_counter() - start < 0.5
    assert DEFAULT_STRAND_CAP >= 1000


def _brute_violations(matrix):
    def key(v):
        return math.inf if v is None else v
    m = matrix.size
    return [(j, k, l) for j in range(m) for k in range(m) for l in range(m)
            if key(matrix.q(j, l)) < min(key(matrix.q(j, k)), key(matrix.q(k, l)))]


def _matrix(rows):
    return ContactMatrix(len(rows), tuple(tuple(r) for r in rows))


def test_check_ultrametric_hand_made():
    cases = [
        [[None, 2, 1], [2, None, 2], [1, 2, None]],
        [[None, None, 1], [None, None, 2], [1, 2, None]],  # infinite off-diagonal
        [[1, 2], [2, None]],  # finite diagonal
        [[None, 2], [3, None]],  # not symmetric, yet no violating triple
        [[None, F(3, 2), F(3, 2)], [F(3, 2), None, F(5, 2)], [F(3, 2), F(5, 2), None]],
    ]
    for rows in cases:
        m = _matrix(rows)
        assert m.check_ultrametric() == _brute_violations(m), rows
    assert _matrix(cases[0]).check_ultrametric()
    assert not _matrix(cases[-1]).check_ultrametric()


def test_check_ultrametric_perturbed_random():
    rng = random.Random(16)
    seen_bad = 0
    for _ in range(80):
        m = contact_matrix(random_curve(rng, max_branches=3))
        assert m.check_ultrametric() == []
        if m.size < 3:
            continue
        rows = [list(r) for r in m.entries]
        pool = sorted(m.finite_values()) + [F(1), F(7, 5), None]
        for _ in range(rng.randint(1, 3)):
            j, k = rng.sample(range(m.size), 2)
            rows[j][k] = rows[k][j] = rng.choice(pool)
        bent = _matrix(rows)
        expected = _brute_violations(bent)
        seen_bad += bool(expected)
        assert bent.check_ultrametric() == expected
    assert seen_bad > 20
