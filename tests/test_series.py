"""Integer quotient series against exact power series: every value a
quotient claims is its value modulo t^prec, and an order that raises
``PrecisionExhausted`` has no nonzero term below prec.

The reference series are computed modulo the prime 2^61 - 1, where exact
rational arithmetic on a few hundred terms costs little; the coefficients
here are small, so no nonzero one vanishes modulo the prime.  The product,
the reduction and the exact series also match their plain forms in
``helpers`` dict for dict, on signed, large and sparse coefficients."""

import math
import random
from fractions import Fraction as F

import pytest

from helpers import random_curve, reference_make, reference_mul, reference_reduced
from singlip import resolve_curve
from singlip.series import PrecisionExhausted, RatSeries, _mul

P = 2 ** 61 - 1
DEPTH = 120  # terms of the reference series


def _mod(c) -> int:
    c = F(c)
    return c.numerator * pow(c.denominator, -1, P) % P


def _expand(num: dict, den: dict, k: int) -> list:
    """The first k coefficients of num/den (den a unit at 0), modulo P."""
    inv = pow(_mod(den[0]), -1, P)
    den = {j: _mod(d) for j, d in den.items() if j}
    out = []
    for i in range(k):
        acc = _mod(num.get(i, 0)) - sum(d * out[i - j] for j, d in den.items() if j <= i)
        out.append(acc * inv % P)
    return out


def _div(a: list, b: list) -> list:
    """a / b of two coefficient lists, b of order o <= ord a; the result
    has the terms that both lists determine."""
    o = next(i for i, c in enumerate(b) if c)
    k = min(len(a), len(b)) - o
    return _expand(dict(enumerate(a[o:])), dict(enumerate(b[o:k + o])), k)


def _check(s: RatSeries, ref: list) -> bool:
    """s agrees with the reference below its precision, and so do its
    order and constant; False when its order is past its precision."""
    k = min(s.prec, len(ref))
    assert _expand(s.num, s.den, k) == ref[:k]
    assert _mod(s.constant()) == ref[0]
    try:
        o = s.ord()
    except PrecisionExhausted:
        assert not any(ref[:s.prec])
        return False
    if o == math.inf:
        assert s.prec == math.inf and not any(ref)
    else:
        assert not any(ref[:o]) and (o >= len(ref) or ref[o])
    return True


def test_quotients_are_known_to_their_precision():
    # the resolver's steps on random pairs (t^n, y(t)): divide the larger
    # order by the smaller, and take the constant off a quotient that has one
    rng = random.Random(3)
    steps = 0
    for _ in range(400):
        horizon = rng.randint(1, 24)
        n = rng.randint(1, 6)
        x = {n: F(1)}
        y = {e: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
             for e in rng.sample(range(n, 4 * n + 2), rng.randint(1, 4))}
        u, v = RatSeries.make(x, horizon), RatSeries.make(y, horizon)
        ru, rv = _expand(x, {0: 1}, DEPTH), _expand(y, {0: 1}, DEPTH)
        for _ in range(10):
            try:
                if v.ord() < u.ord():
                    u, v, ru, rv = v, u.div(v), rv, _div(ru, rv)
                else:
                    v, rv = v.div(u), _div(rv, ru)
                    c = v.constant()
                    if c:
                        v, rv = v.sub_const(c), [(rv[0] - _mod(c)) % P] + rv[1:]
            except PrecisionExhausted:
                break
            steps += 1
            if not (_check(u, ru) and _check(v, rv)):
                break
    assert steps > 1000


def test_exact_series_stay_exact():
    y = RatSeries.make({}, 4)  # y = 0
    x = RatSeries.make({1: F(1)}, 4)
    assert y.ord() == math.inf and y.div(x) is y
    line = RatSeries.make({1: F(2, 3)}, 4).div(x)
    assert (line.num, line.den, line.prec) == ({0: 2}, {0: 3}, math.inf)
    assert line.sub_const(line.constant()).ord() == math.inf
    # a quotient by a series that is not a monomial is cut at the horizon
    q = x.div(RatSeries.make({1: F(1), 2: F(1)}, 4))
    assert q.prec == 4 and q.num == {0: 1} and q.den == {0: 1, 1: 1}
    r = RatSeries.make({2: F(1)}, 4).div(RatSeries.make({1: F(1), 2: F(1)}, 4))
    assert (r.num, r.den, r.prec) == ({1: 1}, {0: 1, 1: 1}, 4)
    # den is kept below 4 - ord r only, so subtracting a constant loses 1
    assert r.sub_const(F(1)).prec == 3


def _recording(method, out: list):
    def record(*args):
        out.append(method(*args))
        return out[-1]
    return record


def test_resolver_series_keep_their_terms_below_precision(monkeypatch):
    # why div's "prec < 1" raise never fires: every exponent a series stores
    # lies below its prec, so the order of a divisor and of a dividend are
    # both below their precisions.  Every den also stays below prec - ord
    # num: a quotient keeps no more, and a constant taken off drops the rest
    built, quotients = [], []
    monkeypatch.setattr(RatSeries, "_reduced", classmethod(
        _recording(RatSeries._reduced.__func__, built)))
    monkeypatch.setattr(RatSeries, "div", _recording(RatSeries.div, quotients))
    rng = random.Random(5)
    for _ in range(300):
        resolve_curve(random_curve(rng, 3))
    assert len(quotients) > 1000 and len(built) > len(quotients)
    for s in built + quotients:
        assert s.prec >= 1
        assert all(e < s.prec for e in (*s.num, *s.den))
    for s in built:
        if s.num:
            assert all(e < s.prec - min(s.num) for e in s.den)


def _coefficient(rng: random.Random) -> int:
    # mostly small, so that products cancel; sometimes past 2^128
    big = rng.random() < 0.2
    return rng.choice([-1, 1]) * (10 ** rng.randint(20, 45) if big else rng.randint(1, 3))


def _sparse(rng: random.Random, spread: int) -> dict:
    exps = rng.sample(range(spread), rng.randint(1, min(6, spread)))
    return {e: _coefficient(rng) for e in exps}


def _expected_order(num: dict, prec):
    return min(num) if num else math.inf if prec == math.inf else None


def test_products_and_reductions_match_their_plain_forms():
    # equal dicts, zero-valued keys included: a den keeps them, and div's
    # monomial test counts them
    rng = random.Random(17)
    seen = dict.fromkeys(("zero term", "gcd above 1", "negative den", "gcd 1"), 0)
    for _ in range(3000):
        a, b = _sparse(rng, 8), _sparse(rng, rng.choice([3, 8, 40]))
        shift = rng.randint(0, 3)
        limit = math.inf if rng.random() < 0.5 else rng.randint(0, 12)
        num = _mul(a, b, shift, limit)
        assert num == reference_mul(a, b, shift, limit)
        den = _sparse(rng, 6)
        den[0] = _coefficient(rng)
        k = rng.choice([1, 1, 2, 6, 10 ** 30])
        num = {e: c * k for e, c in num.items()}
        den = {e: c * k for e, c in den.items()}
        prec = math.inf if rng.random() < 0.3 else rng.randint(1, 12)
        s = RatSeries._reduced(dict(num), dict(den), prec, 9)
        ref_num, ref_den = reference_reduced(num, den)
        assert (s.num, s.den, s.prec, s.horizon) == (ref_num, ref_den, prec, 9)
        assert s.order == _expected_order(ref_num, prec)
        gcd = math.gcd(*num.values(), *den.values())
        seen["zero term"] += 0 in num.values()
        seen["gcd above 1"] += gcd > 1
        seen["negative den"] += den[0] < 0
        seen["gcd 1"] += gcd == 1 and den[0] > 0 and 0 not in num.values()
    assert min(seen.values()) > 100, seen


def test_exact_series_match_their_plain_form():
    rng = random.Random(19)
    for _ in range(500):
        poly = {e: F(_coefficient(rng), rng.choice([1, 2, 3, 7, 10 ** 25]))
                for e in rng.sample(range(1, 30), rng.randint(0, 5))}
        s = RatSeries.make(poly, 12)
        assert (s.num, s.den) == reference_make(poly)
        assert s.order == min(s.num, default=math.inf) == s.ord()


def test_an_order_past_precision_raises_every_time():
    s = RatSeries._reduced({0: 0}, {0: -3}, 4, 4)
    assert (s.num, s.den, s.order) == ({}, {0: 1}, None)
    for _ in range(2):
        with pytest.raises(PrecisionExhausted):
            s.ord()
