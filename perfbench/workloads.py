"""Seeded inputs for the four benchmark workloads.

Every workload is a list of *rungs*.  A rung is one input shape (a strand
count, a number of characteristic pairs, a graph size, a CLI subcommand)
with a small fixed pool of variants.  The variants are generated from a
constant pool seed, so the reference digests in ``reference.json`` cover
every input the benchmark can ever send.  The run seed decides the order
in which the cases are sent, and the relabellings that the isomorphism
checks use.

A run sends the same slots (each rung's first few variants) whatever its
seed, in a few passes whose order the seed draws; that is what keeps the
medians and tails of two runs comparable.  The library only ever receives
the serialised documents.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from singlip import fixtures, jsonio, resolve_curve, strands_of, tower_to_graph
from singlip.errors import InputError
from singlip.exactnum import as_rational
from singlip.strands import PuiseuxBranch

WORKLOADS = ("curves-wide", "curves-deep", "graphs-large", "cli-batch")
VARIANTS = 6
POOL_SEED = 20071604
COEFFS = (-3, -2, -1, 1, 2, 3)
SECOND = "{second}"  # argv placeholder for a CLI case's second input file
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "tower-graphs.json")

# Per-case budget in CPU seconds of the workload process (ITIMER_PROF) or,
# for cli-batch, wall seconds of the child.  The k = 5 resolutions take
# 3.3 to 5.8 s; k = 6 takes about 100 s and is stopped by the budget.
BUDGET_S = {"curves-wide": 10.0, "curves-deep": 10.0, "graphs-large": 10.0,
            "cli-batch": 10.0}


@dataclass
class Case:
    """One input: ``doc`` is the serialised document the library parses.

    ``extra`` holds the other documents of a graph case (relabelled and
    perturbed copies); a CLI case keeps its call in ``argv``/``env`` and
    its request document, unserialised, in ``request``.  ``meta`` holds
    what the cross-checks need to know about the input (its ADE name)."""

    id: str
    rung: str
    doc: str = ""
    extra: dict = field(default_factory=dict)
    argv: tuple = ()
    env: dict = field(default_factory=dict)
    request: object = None
    malformed: bool = False
    meta: dict = field(default_factory=dict)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- curves --------------------------------------------------------------------

def _characteristic_terms(exp_rng: random.Random, coef_rng: random.Random,
                          factors, first_num=None, max_step: int = 3,
                          coeffs=COEFFS) -> list:
    """Terms whose exponents have denominators f1, f1*f2, ... exactly."""
    terms = []
    n, e = 1, Fraction(1)
    for f in factors:
        prev_n, n = n, n * f
        if first_num is not None and not terms:
            cand = Fraction(first_num, n)
        else:
            cand = e + Fraction(exp_rng.randint(1, max_step), n)
        while math.lcm(prev_n, cand.denominator) != n:
            cand += Fraction(1, n)
        e = cand
        terms.append((e, Fraction(coef_rng.choice(coeffs))))
    return terms


def _distinct(branches) -> bool:
    """False when two branches are the same curve (conjugate strands)."""
    try:
        strands_of(branches)
    except InputError:
        return False
    return True


def _curve_doc(branches) -> str:
    return jsonio.dumps(jsonio.curve_to_json(branches))


def _wide_curve(exp_rng: random.Random, coef_rng: random.Random, spec) -> list:
    """Branches with the given factor tuples; a later branch may start with
    the first term of the first branch, which gives it contact > 1 with
    that branch without changing its denominator."""
    branches = []
    head = None
    for factors in spec:
        terms = _characteristic_terms(exp_rng, coef_rng, factors)
        if (head is not None and head[0] < terms[0][0]
                and factors[0] % head[0].denominator == 0
                and exp_rng.random() < 0.7):
            terms = [head] + terms
        if head is None:
            head = terms[0]
        branches.append(PuiseuxBranch.from_terms(terms))
    return branches


# strand count = sum of the products of each branch's factors; the
# branches of one rung have distinct denominators, so they are never the
# same curve
WIDE_RUNGS = {
    "s24": [(2, 12)],
    "s26": [(2, 5), (16,)],
    "s30": [(3, 6), (12,)],
    "s34": [(2, 6), (4, 4), (6,)],
    "s40": [(2, 8), (24,)],
    "s44": [(4, 7), (16,)],
    "s48": [(48,)],
    "s56": [(4, 8), (24,)],
    "s64": [(4, 16)],
    "s80": [(2, 40)],
}

DEEP_RUNGS = {
    # one branch, k characteristic pairs, denominators products of 2 and 3
    "k3-222": [(2, 2, 2)],
    "k3-223": [(2, 2, 3)],
    "k3-232": [(2, 3, 2)],
    "k3-322": [(3, 2, 2)],
    "k3-233": [(2, 3, 3)],
    "k3-323": [(3, 2, 3)],
    "k3-332": [(3, 3, 2)],
    "k3-333": [(3, 3, 3)],
    "k3x2-222": [(2, 2, 2), (2, 2, 2)],
    "k3x2-223": [(2, 2, 3), (2, 3, 2)],
    "k3x2-322": [(3, 2, 2), (2, 2, 2)],
    "k3x2-333": [(3, 3, 3), (2,)],
    "k4-2222": [(2, 2, 2, 2)],
    "k4x2-2222": [(2, 2, 2, 2), (2, 2, 2)],
    "k4-2322": [(2, 3, 2, 2)],
    "k4-3222": [(3, 2, 2, 2)],
    "k5-22222": [(2, 2, 2, 2, 2)],
}
# The Baseline k = 6 rung: y = sum x^((2^(i+1)-1)/2^i), i = 1..6.
K6_RUNG = "k6-baseline"


def _deep_curve(exp_rng: random.Random, coef_rng: random.Random, spec) -> list:
    """Exponents (f1+1)/f1 < ... each one step of 1/n above the last, the
    shape of the Baseline k-pair ladder.  Coefficients are +-1: the
    resolver's cost grows with their size, and the variants of a rung
    should cost the same."""
    while True:
        branches = [PuiseuxBranch.from_terms(_characteristic_terms(
            exp_rng, coef_rng, factors, first_num=factors[0] + 1, max_step=1,
            coeffs=(-1, 1)))
            for factors in spec]
        if len(branches) == 1 or _distinct(branches):
            return branches


def _k6_curve(rng: random.Random) -> list:
    terms = [(Fraction(2 ** (i + 1) - 1, 2 ** i), Fraction(rng.choice(COEFFS)))
             for i in range(1, 7)]
    return [PuiseuxBranch.from_terms(terms)]


def _curve_cases(workload: str, rungs: dict, make) -> list:
    """The variants of a rung share their exponents and differ in their
    coefficients, so that they cost about the same."""
    out = []
    for rung, spec in rungs.items():
        coef_rng = random.Random(f"{POOL_SEED}:{workload}:{rung}")
        for v in range(VARIANTS):
            exp_rng = random.Random(f"{POOL_SEED}:{workload}:{rung}:exponents")
            curve = make(exp_rng, coef_rng, spec)
            out.append(Case(f"{rung}/{v}", rung, _curve_doc(curve)))
    return out


def curves_wide_pool() -> list:
    return _curve_cases("curves-wide", WIDE_RUNGS, _wide_curve)


def curves_deep_pool() -> list:
    cases = _curve_cases("curves-deep", DEEP_RUNGS, _deep_curve)
    rng = random.Random(f"{POOL_SEED}:curves-deep:{K6_RUNG}")
    for v in range(VARIANTS):
        cases.append(Case(f"{K6_RUNG}/{v}", K6_RUNG, _curve_doc(_k6_curve(rng))))
    return cases


# -- graphs --------------------------------------------------------------------

def _binary_tree_curve(rng: random.Random, leaves: int, exps) -> list:
    """Branches whose coefficient sequences are the root-to-leaf paths of a
    random binary tree: branches separate where their paths split.  Sibling
    coefficients differ in absolute value, so no two branches are
    conjugate."""
    paths = []

    def split(prefix, count, level):
        if count == 1 or level == len(exps):
            paths.append(prefix)
            return
        left = rng.randint(1, count - 1)
        a, b = (m * rng.choice((-1, 1)) for m in rng.sample((1, 2, 3), 2))
        split(prefix + [a], left, level + 1)
        split(prefix + [b], count - left, level + 1)

    split([], leaves, 0)
    return [PuiseuxBranch.from_terms([(Fraction(e), Fraction(c))
                                      for e, c in zip(exps, p)]) for p in paths]


def tower_graph_json(curve) -> dict:
    """Resolution graph of the curve, L-flag on the generic-linear arrows."""
    _, tree = resolve_curve(curve)
    flags = {a.vertex: ("L",) for a in tree.arrows if a.kind == "generic-linear"}
    return jsonio.graph_to_json(tower_to_graph(tree, flags))


def chain_graph_json(k: int) -> dict:
    """A_k (k odd): a chain of k (-2)-curves, L-nodes at both ends, inner
    rate min(i, k + 1 - i) at the i-th curve, h-multiplicity 1."""
    vertices = [{"id": f"E{i}", "self_intersection": -2, "genus": 0,
                 "rate": {"num": min(i, k + 1 - i), "den": 1},
                 "multiplicities": {"h": 1},
                 "flags": ["L"] if i in (1, k) else []}
                for i in range(1, k + 1)]
    return {"format": jsonio.GRAPH_FORMAT, "vertices": vertices,
            "edges": [[f"E{i}", f"E{i + 1}"] for i in range(1, k)],
            "arrows": [{"vertex": "E1", "name": "h", "multiplicity": 1,
                        "kind": "generic-linear"},
                       {"vertex": f"E{k}", "name": "h", "multiplicity": 1,
                        "kind": "generic-linear"}]}


# Leaves of the binary tree; the levels have exponents 3/2, 2, 5/2, ...
# One graph per rung: graphs of one size but another tree shape differ
# several-fold in elimination cost.
TOWER_RUNGS = {"tower20": 20, "tower40": 40, "tower60": 60, "tower80": 80}
TOWER_EXPS = ["3/2", "2", "5/2", "3", "7/2", "4", "9/2", "5"]
CHAIN_RUNGS = {"chainA15": 15, "chainA31": 31, "chainA63": 63, "chainA99": 99}


def generate_tower_graphs() -> dict:
    """Rung -> graph documents.  Resolving these curves takes seconds, so
    the documents are generated once and stored in ``data/``; the
    graphs-large process then never runs the strand or resolver layers."""
    out = {}
    for rung, leaves in TOWER_RUNGS.items():
        rng = random.Random(f"{POOL_SEED}:graphs-large:{rung}")
        out[rung] = [tower_graph_json(_binary_tree_curve(rng, leaves, TOWER_EXPS))]
    return out


def relabel(doc: dict, rng: random.Random) -> dict:
    """Same graph, vertex ids renamed and vertices and edges reordered."""
    ids = [v["id"] for v in doc["vertices"]]
    new = [f"r{i}" for i in range(len(ids))]
    rng.shuffle(new)
    name = dict(zip(ids, new))
    vertices = [dict(v, id=name[v["id"]]) for v in doc["vertices"]]
    rng.shuffle(vertices)
    edges = [[name[a], name[b]] for a, b in doc["edges"]]
    rng.shuffle(edges)
    arrows = [dict(a, vertex=name[a["vertex"]]) for a in doc["arrows"]]
    return {"format": doc["format"], "vertices": vertices, "edges": edges,
            "arrows": arrows}


def perturb(doc: dict) -> dict:
    """Same graph with the rate of its first L-node raised by one, which
    changes the rate of that node's piece in both signatures."""
    out = json.loads(json.dumps(doc))
    target = min((v for v in out["vertices"] if "L" in v["flags"]),
                 key=lambda v: str(v["id"]))
    rate = as_rational(target["rate"]) + 1
    target["rate"] = {"num": rate.numerator, "den": rate.denominator}
    return out


def _graph_case(case_id: str, rung: str, doc: dict, rng: random.Random) -> Case:
    extra = {}
    if all(v.get("rate") is not None for v in doc["vertices"]):
        extra = {"relabelled": jsonio.dumps(relabel(doc, rng)),
                 "perturbed": jsonio.dumps(perturb(doc))}
    return Case(case_id, rung, jsonio.dumps(doc), extra=extra)


def graphs_large_pool(seed: int) -> list:
    relabel_rng = random.Random(f"{seed}:relabel")
    with open(DATA, encoding="utf-8") as fh:
        towers = json.load(fh)
    out = []
    for rung in TOWER_RUNGS:
        for v, doc in enumerate(towers[rung]):
            out.append(_graph_case(f"{rung}/{v}", rung, doc, relabel_rng))
    for rung, k in CHAIN_RUNGS.items():
        case = _graph_case(f"{rung}/0", rung, chain_graph_json(k), relabel_rng)
        case.meta["ade"] = f"a{k}"
        out.append(case)
    for name in fixtures.fixture_names():
        if fixtures.fixture_kind(name) == "graph":
            doc = jsonio.graph_to_json(fixtures.load_fixture(name))
            case = _graph_case(f"fixture-{name}/0", f"fixture-{name}", doc,
                               relabel_rng)
            if name[0] in "ade" and name[1:].isdigit():
                case.meta["ade"] = name
            out.append(case)
    return out


# -- CLI ----------------------------------------------------------------------

def _small_curve(rng: random.Random) -> list:
    while True:
        branches = []
        for _ in range(rng.randint(1, 2)):
            n = rng.choice((2, 3, 4, 6))
            terms = _characteristic_terms(rng, rng, (n,))
            if rng.random() < 0.5:
                terms.append((terms[-1][0] + Fraction(rng.randint(1, 3), n),
                              Fraction(rng.choice(COEFFS))))
            branches.append(PuiseuxBranch.from_terms(terms))
        if _distinct(branches):
            return branches


def _tower_doc(curve) -> dict:
    events, tree = resolve_curve(curve)
    return jsonio.tower_to_json(tree, events)


def _malformed(shape: int, rng: random.Random):
    """The seven malformed inputs listed in ROADMAP item 5, as
    (argv, request document, env)."""
    curve = jsonio.curve_to_json(_small_curve(rng))
    tower = _tower_doc([fixtures.curve_cusp_53()[0]])
    graph = jsonio.graph_to_json(fixtures.load_fixture(
        rng.choice(("e8", "d4", "a3"))))
    if shape == 0:  # tower vertex without rate_vector
        del tower["vertices"][-1]["rate_vector"]
        return ("verify", "-"), tower, {}
    if shape == 1:  # vertices as a string
        graph["vertices"] = "E1"
        return ("graph", "thickthin", "-"), graph, {}
    if shape == 2:  # multiplicities as a list
        graph["vertices"][0]["multiplicities"] = [1, 2]
        return ("graph", "thickthin", "-"), graph, {}
    if shape == 3:  # exponent with zero denominator
        curve["branches"][0]["terms"][0]["exp"] = "1/0"
        return ("curve", "contacts", "-"), curve, {}
    if shape == 4:  # non-numeric rate
        graph["vertices"][0]["rate"] = "x"
        return ("graph", "thickthin", "-"), graph, {}
    if shape == 5:  # tower edge to a missing vertex
        tower["edges"].append([0, len(tower["vertices"]) + 5])
        return ("verify", "-"), tower, {}
    # non-numeric event cap in the environment
    return ("curve", "resolve", "-"), curve, {"SINGLIP_EVENT_CAP": "abc"}


def cli_pool(seed: int) -> list:
    """One rung per CLI call shape; variants vary the document."""
    rated = ["e8", "e8-nash", "d4", "a1", "a2", "a3", "minimal-singularity"]
    graph_names = [n for n in fixtures.fixture_names()
                   if fixtures.fixture_kind(n) == "graph"]
    curve_names = [n for n in fixtures.fixture_names()
                   if fixtures.fixture_kind(n) == "curve"]
    all_names = fixtures.fixture_names()
    relabel_rng = random.Random(f"{seed}:relabel")
    out = []

    def add(rung, v, argv, request=None, env=None, malformed=False,
            second=None):
        case = Case(f"{rung}/{v}", rung, argv=tuple(argv), env=env or {},
                    request=request, malformed=malformed)
        if second is not None:
            case.extra["second"] = jsonio.dumps(second)
        out.append(case)

    def curve_json(rng, v):
        if v < len(curve_names):
            return jsonio.curve_to_json(fixtures.load_fixture(curve_names[v]))
        return jsonio.curve_to_json(_small_curve(rng))

    def graph_json(name):
        return jsonio.graph_to_json(fixtures.load_fixture(name))

    for v in range(VARIANTS):
        rng = random.Random(f"{POOL_SEED}:cli-batch:{v}")
        add("fixtures-list", v, ["fixtures", "list"])
        add("fixtures-dump", v, ["fixtures", "dump",
                                 all_names[(3 * v) % len(all_names)]])
        add("contacts-json", v, ["--format", "json", "curve", "contacts", "-"],
            curve_json(rng, v))
        add("carrousel-dot", v, ["--format", "dot", "curve", "carrousel",
                                 "--reduce", "-"], curve_json(rng, v))
        add("carrousel-text", v, ["curve", "carrousel", "-"], curve_json(rng, v))
        add("horns-text", v, ["curve", "horns", "--base", "0", "-"],
            curve_json(rng, v))
        add("horns-json", v, ["--format", "json", "curve", "horns", "--base",
                              "1", "-"], curve_json(rng, v))
        add("resolve-json", v, ["--format", "json", "curve", "resolve", "-"],
            curve_json(rng, v))
        add("resolve-dot", v, ["--format", "dot", "curve", "resolve", "-"],
            curve_json(rng, v))
        first = curve_json(rng, v)
        second = first if v % 2 else curve_json(rng, v + 1)
        add("equiv-text", v, ["curve", "equiv", "-", SECOND], first,
            second=second)
        add("mult-json", v, ["--format", "json", "graph", "mult", "--arrow",
                             "h", "-"], graph_json(graph_names[v * 2 % len(graph_names)]))
        add("laufer-text", v, ["graph", "laufer", "-"], curve_json(rng, v))
        if v % 2:
            pencil = (["--gen", "x", "--gen", "y:2"], graph_json("e8"))
        else:
            pencil = (["--gen", "f", "--gen", "h"],
                      tower_graph_json(_binary_tree_curve(rng, 4, ["3/2", "2"])))
        add("pencil-json", v, ["--format", "json", "graph", "pencil",
                               *pencil[0], "--resolve", "-"], pencil[1])
        add("thickthin-text", v, ["graph", "thickthin", "-"],
            graph_json(graph_names[(v * 5 + 1) % len(graph_names)]))
        mode = ("initial", "inner", "outer")[v % 3]
        add("decompose-dot", v, ["--format", "dot", "graph", "decompose",
                                 "--mode", mode, "-"],
            graph_json(rated[v % len(rated)]))
        add("decompose-json", v, ["--format", "json", "graph", "decompose",
                                  "--mode", mode, "-"],
            graph_json(rated[(v + 1) % len(rated)]))
        add("thickthin-json", v, ["--format", "json", "graph", "thickthin", "-"],
            graph_json(rated[(v + 3) % len(rated)]))
        add("signature-json", v, ["--format", "json", "graph", "signature",
                                  "--metric", "inner", "-"],
            graph_json(rated[(v + 2) % len(rated)]))
        g = graph_json(rated[(v + 4) % len(rated)])
        add("signature-compare", v, ["graph", "signature", "--metric", "outer",
                                     "-", SECOND], g,
            second=relabel(g, relabel_rng))
        verify_doc = (graph_json(graph_names[v * 3 % len(graph_names)]), _tower_doc(
            _small_curve(rng)), curve_json(rng, v))[v % 3]
        add("verify-text", v, ["verify", "-"], verify_doc)
        for slot in ("malformed-a", "malformed-b"):
            shape = (v + (0 if slot == "malformed-a" else 3)) % 7
            argv, request, env = _malformed(shape, rng)
            add(slot, v, argv, request, env, malformed=True)
    return out


# -- sequences -----------------------------------------------------------------

def pool(workload: str, seed: int) -> list:
    if workload == "curves-wide":
        return curves_wide_pool()
    if workload == "curves-deep":
        return curves_deep_pool()
    if workload == "graphs-large":
        return graphs_large_pool(seed)
    if workload == "cli-batch":
        return cli_pool(seed)
    raise ValueError(f"unknown workload {workload!r}")


def rungs_of(cases: list) -> dict:
    out: dict = {}
    for case in cases:
        out.setdefault(case.rung, []).append(case)
    return out


# Slots of a rung in a run (1 when not listed): the first ``weight``
# variants of the rung, repeated when the rung has fewer.  The weights give
# every gated workload at least 40 slots, enough for a 75th percentile with
# ten samples beyond it, and they put the 50th and 75th percentiles inside
# runs of slots of similar cost, away from a jump in cost between rungs.
WEIGHTS = {
    "s24": 6, "s26": 6, "s30": 6, "s34": 6, "s40": 3, "s44": 3, "s48": 5,
    "s56": 2, "s64": 2,
    "k3-222": 5, "k3-232": 5, "k3-322": 5, "k3-223": 5, "k3x2-222": 5,
    "k3-233": 4, "k3-332": 4, "k3-323": 4, "k3x2-322": 4,
    "k3-333": 6, "k3x2-333": 6,
    "fixture-a1": 2, "fixture-a2": 2, "fixture-a3": 2, "fixture-d4": 2,
    "fixture-e6": 2, "fixture-e7": 2, "fixture-d5": 2, "fixture-a4": 2,
    "fixture-e8": 3, "fixture-e8-nash": 3, "fixture-minimal-singularity": 3,
    "tower20": 3, "chainA31": 3,
    "fixtures-list": 2, "fixtures-dump": 2, "contacts-json": 2,
    "carrousel-dot": 2, "carrousel-text": 2, "horns-text": 2, "horns-json": 2,
    "resolve-json": 2, "resolve-dot": 2, "equiv-text": 2, "mult-json": 2,
    "laufer-text": 2, "pencil-json": 2, "thickthin-text": 2,
    "decompose-dot": 2, "decompose-json": 2, "thickthin-json": 2,
    "signature-json": 2, "signature-compare": 2, "verify-text": 2,
    "malformed-a": 2, "malformed-b": 2,
}

# Nominal seconds of one pass over a run's slots on the machine the
# benchmark was tuned on (2 vCPUs of a shared host); ``--seconds`` is
# turned into a whole number of passes with it.
PASS_S = {"curves-wide": 10.5, "curves-deep": 13.0, "graphs-large": 6.2,
          "cli-batch": 13.0}
MIN_PASSES = 2


def weight(rung: str) -> int:
    return WEIGHTS.get(rung, 1)


def slots(cases: list) -> list:
    """The cases of one run, the same for every seed: each rung's first
    ``weight`` variants.  So every run sends the same work, and its
    attempted and failed operations do not depend on the seed."""
    by_rung = rungs_of(cases)
    return [by_rung[name][j % len(by_rung[name])]
            for name in sorted(by_rung) for j in range(weight(name))]


def passes_for(workload: str, seconds: float) -> int:
    """A fixed number of passes, so that the amount of work (and the count
    of operations) does not depend on how fast the machine happens to be."""
    return max(MIN_PASSES, int(seconds / PASS_S[workload] + 0.5))


def passes(run_slots: list, seed: int, count: int):
    """``count`` passes over the slots, each in an order drawn from the
    seed.  Yields (pass number, [(slot index, case), ...])."""
    rng = random.Random(f"{seed}:passes")
    order = list(range(len(run_slots)))
    for p in range(count):
        rng.shuffle(order)
        yield p, [(i, run_slots[i]) for i in order]


def case_input(case: Case) -> dict:
    """The seed-independent part of a case's input, which the reference
    digest covers (relabellings depend on the run seed)."""
    return {"doc": case.doc, "perturbed": case.extra.get("perturbed"),
            "argv": list(case.argv), "env": case.env, "request": case.request}


def serialised(case: Case) -> str:
    """Every byte the library receives for this case."""
    return canonical({"id": case.id, "doc": case.doc, "extra": case.extra,
                      "argv": list(case.argv), "env": case.env,
                      "request": case.request})
