import random
from fractions import Fraction as F

import pytest

from helpers import (dense_eliminate, fraction_det, intersection_matrix,
                     relabelled, sparse_rows)
from singlip import fixtures, resolve_curve, solve_multiplicities, tower_to_graph
from singlip.errors import InputError
from singlip.exactnum import as_rational, eliminate
from singlip.dualgraph import DualGraph


def _leading(matrix, k):
    return [row[:k] for row in matrix[:k]]


def _reference_minors(matrix):
    """Leading principal minors up to and including the first zero one."""
    out = []
    for k in range(1, len(matrix) + 1):
        out.append(fraction_det(_leading(matrix, k)))
        if out[-1] == 0:
            break
    return tuple(out)


def _reference_negative_definite(matrix):
    # the per-minor determinant loop the elimination replaced
    for k in range(1, len(matrix) + 1):
        if fraction_det(_leading(matrix, k)) * (-1) ** k <= 0:
            return False
    return True


def _cramer(matrix, rhs):
    det = fraction_det(matrix)
    return tuple(F(fraction_det([row[:i] + [b] + row[i + 1:]
                                 for row, b in zip(matrix, rhs)]), det)
                 for i in range(len(matrix)))


def _check(matrix, rhs):
    e = eliminate(sparse_rows(matrix), rhs)
    assert e.determinant == fraction_det(matrix)
    assert e.minors == _reference_minors(matrix)
    if e.determinant == 0 or rhs is None:
        assert e.solution is None
    else:
        assert e.solution == _cramer(matrix, rhs)
        assert [sum(a * x for a, x in zip(row, e.solution))
                for row in matrix] == list(rhs)
    return e


def test_eliminate_hand_cases():
    swap = _check([[0, 1], [1, 0]], [3, 4])
    assert (swap.minors, swap.determinant, swap.solution) == ((0,), -1, (4, 3))
    assert _check([[1, 2], [2, 4]], [1, 1]).minors == (1, 0)
    assert _check([[0, 0], [0, 0]], [0, 0]).determinant == 0
    assert eliminate([]) == ((), 1, None)
    assert eliminate([], []) == ((), 1, ())
    assert eliminate(sparse_rows([[-2]])).minors == (-2,)
    # a zero pivot past the first step, recovered by a swap
    assert _check([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [1, 2, 3]).determinant == -1


def test_eliminate_matches_fraction_reference_random():
    rng = random.Random(7)
    swaps = singular = 0
    for trial in range(400):
        n = rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if trial % 4 == 1:                 # singular: last row a combination
            coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
            m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m))
                     for j in range(n)]
        elif trial % 4 == 2:               # zero leading pivot
            m[0][0] = 0
        rhs = [rng.randint(-5, 5) for _ in range(n)]
        e = _check(m, rhs)
        swaps += 0 in e.minors
        singular += e.determinant == 0
    assert swaps > 50 and singular > 50


def _sparse_matrix(rng, kind, n):
    """Tridiagonal, block-diagonal or random-density; diagonal entries
    are sometimes zero or positive."""
    m = [[0] * n for _ in range(n)]
    if kind == 0:
        for i in range(1, n):
            m[i - 1][i] = rng.choice([0, 1, 1, -1, 2])
            m[i][i - 1] = rng.choice([m[i - 1][i], rng.randint(-2, 2)])
    elif kind == 1:
        start = 0
        while start < n:
            block = range(start, min(n, start + rng.randint(1, 4)))
            for i in block:
                for j in block:
                    m[i][j] = rng.randint(-3, 3)
            start = block.stop
    else:
        density = rng.random() / 2
        for i in range(n):
            for j in range(i):
                if rng.random() < density:
                    m[i][j] = m[j][i] = rng.randint(-2, 2)
                    if rng.random() < 0.2:
                        m[j][i] = rng.randint(-2, 2)
    for i in range(n):
        if kind != 1 or m[i][i] == 0:
            m[i][i] = rng.choice([-4, -3, -2, -2, -1, 0, 1, 2])
    return m


def test_eliminate_matches_fraction_reference_sparse():
    # most rows are skipped at most steps here, so their lazy scaling,
    # and swaps into rows left stale, are checked against the reference
    rng = random.Random(11)
    swaps = singular = 0
    for trial in range(1000):
        n = rng.randint(1, 10)
        m = _sparse_matrix(rng, trial % 3, n)
        rhs = [rng.randint(-5, 5) for _ in range(n)] if trial % 2 else None
        e = _check(m, rhs)
        swaps += 0 in e.minors
        singular += e.determinant == 0
    assert swaps > 100 and singular > 50


def test_eliminate_matches_dense_reference():
    # random dense, sparse, non-symmetric and singular matrices, with and
    # without a right-hand side, each also with its rows and columns
    # permuted alike, against the dense kernel of the same elimination
    rng = random.Random(13)
    swaps = singular = solved = 0
    for trial in range(3000):
        n = rng.randint(1, 12)
        if trial % 3 == 0:
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        else:
            m = _sparse_matrix(rng, trial % 3, n)
        if trial % 5 == 1 and n > 1:       # singular: last row a combination
            coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
            m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m))
                     for j in range(n)]
        perm = rng.sample(range(n), n)
        for matrix in (m, [[m[i][j] for j in perm] for i in perm]):
            rhs = ([rng.randint(-5, 5) for _ in range(n)]
                   if rng.random() < 0.5 else None)
            rows = sparse_rows(matrix)
            for row in rows[::2]:            # explicit zeros are allowed
                row.setdefault(rng.randrange(n), 0)
            before = [dict(row) for row in rows]
            e = eliminate(rows, rhs)
            assert e == dense_eliminate(matrix, rhs), (matrix, rhs)
            assert rows == before            # the input is not changed
            swaps += 0 in e.minors and e.determinant != 0
            singular += e.determinant == 0
            solved += e.solution is not None
    assert swaps > 500 and singular > 1000 and solved > 1500


def _unimodular(rng, n):
    """L U with L lower and U upper triangular, both with diagonals of 1
    and -1: a matrix of determinant 1 or -1."""
    def triangle(lower):
        return [[rng.choice((1, -1)) if i == j else
                 rng.randint(-2, 2) if (j < i) == lower else 0
                 for j in range(n)] for i in range(n)]
    lo, up = triangle(True), triangle(False)
    return [[sum(lo[i][k] * up[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_solutions_over_unit_and_other_determinants():
    # a solution over a determinant of 1 or -1 is built from integers, any
    # other one from num/det; both as the dense kernel gives them
    rng = random.Random(17)
    units = others = 0
    for trial in range(600):
        n = rng.randint(1, 9)
        m = _unimodular(rng, n)
        if trial % 2:                       # one row times k: det times k
            i, k = rng.randrange(n), rng.choice((2, 3, -2, 5))
            m[i] = [k * a for a in m[i]]
        rhs = [rng.randint(-5, 5) for _ in range(n)]
        e = eliminate(sparse_rows(m), rhs)
        assert e == dense_eliminate(m, rhs), (m, rhs)
        assert e.determinant == fraction_det(m)
        assert all(type(x) is F for x in e.solution)
        if e.determinant in (1, -1):
            units += 1
            assert all(x.denominator == 1 for x in e.solution)
        else:
            others += 1
    assert units > 250 and others > 250


def _random_tree_graph(rng, n):
    g = DualGraph()
    for i in range(n):
        g.add_vertex(i, rng.choice([-1, -2, -2, -3]))
        if i:
            g.add_edge(rng.randrange(i), i)
    return g


def test_negative_definite_matches_per_minor_loop():
    rng = random.Random(3)
    shuffle = random.Random(5)
    seen = set()
    for _ in range(150):
        tree = _random_tree_graph(rng, rng.randint(1, 12))
        for g in (tree, relabelled(tree, shuffle)[0]):
            m = intersection_matrix(g)
            expected = _reference_negative_definite(m)
            assert g.is_negative_definite() == expected
            assert g.determinant() == fraction_det(m) == tree.determinant()
            seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("name", fixtures.fixture_names())
def test_fixture_intersection_matrices(name):
    graph = fixtures.load_fixture(name)
    if fixtures.fixture_kind(name) == "curve":
        _, tower = resolve_curve(graph)
        assert tower.determinant() == fraction_det(intersection_matrix(tower))
        graph = tower_to_graph(tower)
    m = intersection_matrix(graph)
    e = eliminate(sparse_rows(m))
    assert e.determinant == graph.determinant() == fraction_det(m), name
    assert e.minors == _reference_minors(m), name
    assert graph.is_negative_definite() == _reference_negative_definite(m)
    ids = graph.ids()
    for arrow in sorted({a.name for a in graph.arrows}):
        rhs = [0] * len(ids)
        for a in graph.arrows:
            if a.name == arrow:
                rhs[ids.index(a.vertex)] -= a.multiplicity
        expected = dict(zip(ids, _cramer(m, rhs)))
        assert solve_multiplicities(graph, arrow, strict=False).coefficients \
            == expected, (name, arrow)


def test_as_rational_accepts_and_rejects():
    assert as_rational("3/2") == F(3, 2)
    assert as_rational({"num": -4, "den": 6}) == F(-2, 3)
    assert as_rational(5) == 5
    assert as_rational("-7") == -7 and as_rational("+0/5") == 0
    # decimal and exponent strings are malformed, however short: Fraction
    # would expand "1e-99999999" into a power of ten
    for bad in ("1/0", "x", {"num": 1, "den": 0}, {"num": 1.5, "den": 2},
                {"num": 1}, 0.5, None, [1, 2], True, {"num": True, "den": 2},
                "0.5", "1e3", "1e-99999999", " 2/3", "1_000", "3/", "/3", "-",
                "--1", "2/-3", "\u0663"):
        with pytest.raises(InputError):
            as_rational(bad)


def test_as_rational_cuts_a_long_value_in_its_message():
    # a repr of up to 60 characters is echoed whole, a longer one is cut to
    # its first 40 and its length
    for bad, text in (("x" * 58, repr("x" * 58)),
                      ("x" * 59, "'" + "x" * 39 + "... (61 characters)"),
                      (list(range(30)), "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1"
                                        "... (110 characters)")):
        with pytest.raises(InputError) as caught:
            as_rational(bad)
        assert str(caught.value) == f"cannot interpret {text} as a rational number"
