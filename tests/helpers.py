"""Shared test utilities: numeric oracles, random curve generation, and a
small DOT syntax checker used to validate emitted graphs."""

from __future__ import annotations

import cmath
import random
import re
from fractions import Fraction

from singlip import PuiseuxBranch, strands_of
from singlip.errors import SinglipError


def coefficient_value(strand, exp) -> complex:
    """Numeric value a * exp(2 pi i k / N) of the strand's coefficient
    (a, k) at ``exp``, 0 when the series has no such term."""
    for e, (a, k) in strand.series:
        if e == exp:
            return float(a) * cmath.exp(2j * cmath.pi * k / strand.order)
    return 0j


def eval_strand(strand, t: float) -> complex:
    """Numeric value of a strand series at x = t (t > 0 real)."""
    return sum(coefficient_value(strand, e) * t ** float(e)
               for e, _ in strand.series)


def numeric_contact(s, s2, q: Fraction, samples=(1e-2, 1e-3, 1e-4),
                    rel_tol: float = 0.05) -> bool:
    """Check |s(t) - s2(t)| / t^q converges to a nonzero constant.

    The default samples match exponent gaps of 1/2 or larger; pass
    samples=None to pick points small enough for the strands' own
    denominator (gaps of 1/n need much smaller t for 5% stability).
    """
    diff = None
    if samples is None:
        # adaptive sampling for small exponent gaps; direct subtraction of
        # float values underflows there, so evaluate the difference series
        # (coefficients subtracted exactly) instead
        n = max(e.denominator for e, _ in list(s.series) + list(s2.series))
        samples = tuple(10.0 ** (-2 * n * k) for k in (1, 2, 3))
        exps = sorted({e for e, _ in s.series} | {e for e, _ in s2.series})
        diff = [(e, coefficient_value(s, e) - coefficient_value(s2, e))
                for e in exps]
    ratios = []
    for t in samples:
        if diff is None:
            d = abs(eval_strand(s, t) - eval_strand(s2, t))
        else:
            d = abs(sum(c * t ** float(e) for e, c in diff))
        ratios.append(d / t ** float(q))
    if any(r == 0 for r in ratios):
        return False
    return abs(ratios[-1] - ratios[-2]) <= rel_tol * abs(ratios[-1])


def random_branch(rng: random.Random, max_den: int = 6,
                  max_terms: int = 3) -> PuiseuxBranch:
    n = rng.randint(1, max_den)
    count = rng.randint(1, max_terms)
    pool = [Fraction(k, n) for k in range(n, 4 * n)]
    exps = sorted(rng.sample(pool, min(count, len(pool))))
    terms = [(e, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))) for e in exps]
    return PuiseuxBranch.from_terms(terms)


def random_curve(rng: random.Random, max_branches: int = 2,
                 max_den: int = 6) -> list[PuiseuxBranch]:
    while True:
        try:
            branches = [random_branch(rng, max_den)
                        for _ in range(rng.randint(1, max_branches))]
            strands_of(branches)  # validates distinctness
            return branches
        except SinglipError:
            continue


_TOKEN = re.compile(r'''
    "(?:[^"\\]|\\.)*"     |  # quoted string
    \[|\]|\{|\}|;|=|,|--|->  |
    [A-Za-z0-9_.\-]+
''', re.VERBOSE)


def parse_dot(text: str) -> dict:
    """Tiny structural DOT parser: validates the syntax we emit and counts
    nodes and edges.  Raises ValueError on malformed input."""
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(text):
        if text[pos:m.start()].strip():
            raise ValueError(f"unexpected characters {text[pos:m.start()]!r}")
        tokens.append(m.group(0))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"trailing characters {text[pos:]!r}")
    if not tokens or tokens[0] not in ("graph", "digraph"):
        raise ValueError("must start with graph/digraph")
    edge_op = "--" if tokens[0] == "graph" else "->"
    i = 1
    if tokens[i] != "{":
        i += 1  # optional graph name
    if tokens[i] != "{":
        raise ValueError("missing opening brace")
    i += 1
    nodes, edges = set(), []

    def skip_attrs(j):
        if j < len(tokens) and tokens[j] == "[":
            depth = 1
            j += 1
            while j < len(tokens) and depth:
                if tokens[j] == "[":
                    depth += 1
                elif tokens[j] == "]":
                    depth -= 1
                j += 1
        return j

    while i < len(tokens) and tokens[i] != "}":
        if tokens[i] == ";":
            i += 1
            continue
        if tokens[i] == "node":
            i = skip_attrs(i + 1)
            continue
        name = tokens[i]
        i += 1
        if i < len(tokens) and tokens[i] == edge_op:
            other = tokens[i + 1]
            i = skip_attrs(i + 2)
            edges.append((name, other))
            nodes.update((name, other))
        else:
            i = skip_attrs(i)
            nodes.add(name)
    if i >= len(tokens) or tokens[i] != "}":
        raise ValueError("missing closing brace")
    return {"nodes": nodes, "edges": edges}
