"""Case runners, cross-checks and the correctness gate.

One case is parse -> compute -> emit JSON, timed as a whole.  Each call
into a layer is an *operation*; its outcome is recorded per stage as
``ok`` (with the stage's JSON), ``refused`` (DomainError, which includes
ResourceCapExceeded), ``error:<type>`` or ``timeout``.  The cross-checks
and the comparison with the reference digests run after the timed region.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from functools import reduce
from time import perf_counter

from singlip import (branch_contact, build_carrousel_tree,
                     coincidence_exponent, contact_matrix, csquare_decomposition,
                     amalgamate, decomp, decorate, jsonio, laufer_double_cover,
                     laufer_parity_prepare, leaf_contacts, reduce_to_eggers,
                     resolve_curve, solve_multiplicities, surfgraph, verify_tower)
from singlip.errors import DomainError

from workloads import SECOND, canonical

CONICAL_ADE = {"a1", "d4"}


class CaseTimeout(BaseException):
    """Raised by the budget timer inside whatever the case is running.
    A BaseException, so no ``except Exception`` in the library catches it."""


class Budget:
    """CPU-time budget of the workload's own process (ITIMER_PROF)."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    @staticmethod
    def _expired(signum, frame):
        raise CaseTimeout()

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._expired)
        signal.setitimer(signal.ITIMER_PROF, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
        return False


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:16]


@dataclass
class Outcome:
    case_id: str
    seconds: float = 0.0
    completed: bool = False
    stages: dict = field(default_factory=dict)   # stage -> status
    values: dict = field(default_factory=dict)   # stage -> JSON of an ok stage
    objs: dict = field(default_factory=dict)     # results the checks reuse


class _Stages:
    def __init__(self, out: Outcome):
        self.out = out

    def run(self, stage: str, fn):
        """Run one operation; ``fn`` returns (result, JSON or None)."""
        try:
            result, value = fn()
        except CaseTimeout:
            self.out.stages[stage] = "timeout"
            raise
        except DomainError:
            self.out.stages[stage] = "refused"
            return None
        except Exception as exc:  # any other raise fails the operation
            self.out.stages[stage] = f"error:{type(exc).__name__}"
            return None
        self.out.stages[stage] = "ok"
        if value is not None:
            self.out.values[stage] = value
        return result


def _timed(case, tracer, budget_s: float, body) -> Outcome:
    out = Outcome(case.id)
    tracer.begin_case(case.id)
    start = perf_counter()
    try:
        with Budget(budget_s):
            body(case, tracer, _Stages(out))
            out.completed = True
    except CaseTimeout:
        pass
    out.seconds = perf_counter() - start
    tracer.end_case()
    return out


# -- curves --------------------------------------------------------------------

def _count_nodes(node) -> int:
    return 1 + sum(_count_nodes(c) for c in node.children)


def _curve_body(case, t, st: _Stages):
    call = t.call
    out = st.out

    def parse():
        doc = call("jsonio.load_document", jsonio.load_document, case.doc)
        return call("jsonio.parse_curve", jsonio.parse_curve, doc), None

    curve = st.run("parse", parse)
    if curve is None:
        return
    out.objs["curve"] = curve

    def contacts():
        m = call("strands.contact_matrix", contact_matrix, curve)
        return m, call("to_json", m.to_json)

    m = st.run("contacts", contacts)
    if m is not None:
        out.objs["matrix"] = m
        st.run("ultrametric", lambda: (None, [list(x) for x in call(
            "strands.check_ultrametric", m.check_ultrametric)]))

        def tree():
            tr = call("carrousel.build_carrousel_tree", build_carrousel_tree, m)
            deco = call("carrousel.decorate", decorate, tr)
            return (tr, deco), call("to_json", deco.to_json)

        built = st.run("carrousel", tree)
        if built is not None:
            tr, deco = built
            out.objs["tree_nodes"] = _count_nodes(tr.root)
            st.run("eggers", lambda: (None, call("to_json", call(
                "carrousel.reduce_to_eggers", reduce_to_eggers, deco).to_json)))

            def roundtrip():
                back = call("carrousel.leaf_contacts", leaf_contacts, tr)
                return back, call("to_json", back.to_json)

            out.objs["roundtrip"] = st.run("roundtrip", roundtrip)

    def resolve():
        events, tower = call("tower.resolve_curve", resolve_curve, curve)
        return (events, tower), call("jsonio.tower_to_json", jsonio.tower_to_json,
                                     tower, events)

    resolved = st.run("tower", resolve)
    if resolved is not None:
        events, tower = resolved
        out.objs["events"], out.objs["tower"] = events, tower

        def verify():
            report = call("tower.verify_tower", verify_tower, tower)
            return report, report.problems()

        out.objs["report"] = st.run("verify", verify)
        cs = st.run("csquare", lambda: _with_json(call, call(
            "decomp.csquare_decomposition", csquare_decomposition, tower)))
        if cs is not None:
            st.run("amalgamate", lambda: _with_json(call, call(
                "decomp.amalgamate", amalgamate, cs)))

        def prepare():
            prepared = call("surfgraph.laufer_parity_prepare",
                            laufer_parity_prepare, tower)
            return prepared, call("jsonio.tower_to_json", jsonio.tower_to_json,
                                  prepared)

        prepared = st.run("prepared", prepare)
        if prepared is not None:
            out.objs["prepared"] = prepared

            def cover():
                g = call("surfgraph.laufer_double_cover", laufer_double_cover,
                         prepared)
                return g, call("jsonio.graph_to_json", jsonio.graph_to_json, g)

            out.objs["cover"] = st.run("cover", cover)

    report = {"format": "perfbench.curve-report/1", "case": case.id,
              "stages": out.values}
    out.objs["emitted"] = st.run("emit", lambda: (call(
        "jsonio.dumps", jsonio.dumps, report), None))


def _with_json(call, obj):
    return obj, call("to_json", obj.to_json)


def run_curve_case(case, tracer, budget_s) -> Outcome:
    out = _timed(case, tracer, budget_s, _curve_body)
    if tracer.enabled:
        _count_curve(tracer, case, out)
    return out


def _count_curve(t, case, out: Outcome):
    t.count("jsonio.bytes", len(case.doc) + len(out.objs.get("emitted") or ""))
    m = out.objs.get("matrix")
    if m is not None:
        t.count("strands.strands", m.size)
        t.count("strands.pairs", m.size * (m.size - 1) // 2)
    curve = out.objs.get("curve")
    if curve:
        t.count("strands.order_max",
                reduce(math.lcm, (b.denominator for b in curve), 1))
    t.count("carrousel.nodes", out.objs.get("tree_nodes", 0))
    tower = out.objs.get("tower")
    if tower is not None:
        t.count("tower.events", len(out.objs["events"]))
        t.count("tower.vertices", len(tower.vertices))
        t.count("tower.mult_max", max(v.multiplicities.get("f", 0)
                                      for v in tower.vertices))
    if "cover" in out.stages:
        t.count("surfgraph.cover_attempts")
        t.count("surfgraph.cover_refused", out.stages["cover"] == "refused")


def check_curve(out: Outcome) -> dict:
    """Independent cross-checks of a curve case, stage -> passed."""
    checks = {}
    st, objs = out.stages, out.objs
    if st.get("ultrametric") == "ok":
        checks["ultrametric"] = out.values["ultrametric"] == []
    if st.get("roundtrip") == "ok" and st.get("contacts") == "ok":
        checks["roundtrip"] = objs["roundtrip"].entries == objs["matrix"].entries
    if st.get("verify") == "ok":
        checks["verify"] = objs["report"].ok
    if st.get("tower") == "ok":
        curve, tower = objs["curve"], objs["tower"]
        checks["tower"] = all(
            branch_contact(tower, i, k) == coincidence_exponent(curve[i], curve[k])
            for i in range(len(curve)) for k in range(i + 1, len(curve)))
    if st.get("cover") == "ok":
        cover = objs["cover"]
        arrows = [(a.vertex, a.multiplicity) for a in cover.arrows if a.name == "f"]
        solved = solve_multiplicities(cover, arrows)
        checks["cover"] = solved.coefficients == {
            vid: v.multiplicities["f"] for vid, v in cover.vertices.items()}
    return checks


# -- graphs --------------------------------------------------------------------

def _function_names(g) -> list:
    return sorted({a.name for a in g.arrows if a.kind != "polar"})


def _graph_body(case, t, st: _Stages):
    call = t.call
    out = st.out

    def parse(text):
        doc = call("jsonio.load_document", jsonio.load_document, text)
        return call("jsonio.parse_graph", jsonio.parse_graph, doc)

    g = st.run("parse", lambda: (parse(case.doc), None))
    if g is None:
        return
    out.objs["graph"] = g

    def checks():
        problems = []
        connected = call("surfgraph.is_connected", g.is_connected)
        negdef = call("surfgraph.is_negative_definite", g.is_negative_definite)
        det = call("surfgraph.determinant", g.determinant)
        if not connected:
            problems.append("not connected")
        if not negdef:
            problems.append("not negative definite")
        for name in sorted({a.name for a in g.arrows}):
            coeffs = {vid: v.multiplicities.get(name)
                      for vid, v in g.vertices.items()}
            if any(c is None for c in coeffs.values()):
                continue
            arrows = [(a.vertex, a.multiplicity) for a in g.arrows
                      if a.name == name]
            residuals = call("surfgraph.laufer_residuals", g.laufer_residuals,
                             coeffs, arrows)
            problems += [f"residual {r} for {name} at {vid}"
                         for vid, r in residuals.items() if r]
        return problems, {"determinant": det, "problems": problems}

    out.objs["problems"] = st.run("checks", checks)

    names = _function_names(g)

    def solve():
        divs = [call("surfgraph.solve_multiplicities",
                     surfgraph.solve_multiplicities, g, n) for n in names]
        return divs, {n: call("to_json", d.to_json) for n, d in zip(names, divs)}

    divs = st.run("solve", solve)
    out.objs["divisors"] = dict(zip(names, divs or ()))
    if divs is not None and len(divs) >= 2:
        def pencil():
            gens = divs[:2]
            generic = call("surfgraph.pencil_min", surfgraph.pencil_min, g, gens)
            base = [v for v, _ in generic.strict_arrows
                    if call("surfgraph.has_base_point",
                            surfgraph.has_base_point, gens, v)]
            doc = {"generic": call("to_json", generic.to_json),
                   "base_points": [str(v) for v in base]}
            if base:
                g2, steps = call("surfgraph.resolve_pencil",
                                 surfgraph.resolve_pencil, g, gens[0], gens[1],
                                 base[0])
                doc["resolved"] = call("jsonio.graph_to_json",
                                       jsonio.graph_to_json, g2)
                doc["chain"] = [str(s.vertex) for s in steps]
            return None, doc

        st.run("pencil", pencil)

    def thickthin():
        tt = call("decomp.thick_thin", decomp.thick_thin, g)
        return tt, {"thick": [{"l_node": str(node), "zone": sorted(map(str, z))}
                              for node, z in tt.thick_zones],
                    "thin": [sorted(map(str, z)) for z in tt.thin_zones],
                    "metrically_conical": tt.metrically_conical}

    out.objs["thickthin"] = st.run("thickthin", thickthin)
    if case.extra:  # decompositions and signatures need inner rates
        _rated_stages(case, call, st, g, parse)

    report = {"format": "perfbench.graph-report/1", "case": case.id,
              "stages": out.values}
    out.objs["emitted"] = st.run("emit", lambda: (call(
        "jsonio.dumps", jsonio.dumps, report), None))


def _rated_stages(case, call, st: _Stages, g, parse):
    out = st.out
    for mode in decomp.MODES:
        d = st.run(f"decompose-{mode}", lambda: _with_json(call, call(
            "decomp.build_decomposition", decomp.build_decomposition, g, mode)))
        if d is not None:
            out.objs["pieces"] = out.objs.get("pieces", 0) + len(d.pieces)

    sig_fn = {"inner": decomp.inner_signature, "outer": decomp.outer_signature}
    sigs = {}
    for metric, fn in sig_fn.items():
        sigs[metric] = st.run(f"signature-{metric}", lambda: _with_json(call, call(
            f"decomp.{fn.__name__}", fn, g)))

    def iso():
        others = {k: parse(case.extra[k]) for k in ("relabelled", "perturbed")}
        result = {}
        for metric, fn in sig_fn.items():
            if sigs[metric] is None:
                continue
            result[metric] = [
                call("decomp.signatures_equal", decomp.signatures_equal,
                     sigs[metric], call(f"decomp.{fn.__name__}", fn, others[k]))
                for k in ("relabelled", "perturbed")]
        return result, result

    out.objs["iso"] = st.run("iso", iso)


def run_graph_case(case, tracer, budget_s) -> Outcome:
    out = _timed(case, tracer, budget_s, _graph_body)
    if tracer.enabled:
        t = tracer
        t.count("jsonio.bytes", len(case.doc) + sum(map(len, case.extra.values()))
                + len(out.objs.get("emitted") or ""))
        g = out.objs.get("graph")
        if g is not None:
            t.count("surfgraph.vertices", len(g.vertices))
            t.count("surfgraph.vertices_max", len(g.vertices))
        t.count("decomp.pieces", out.objs.get("pieces", 0))
    return out


def check_graph(case, out: Outcome) -> dict:
    checks = {}
    st, objs = out.stages, out.objs
    if st.get("checks") == "ok":
        checks["checks"] = objs["problems"] == []
    if st.get("solve") == "ok":
        g = objs["graph"]
        stored_ok = True
        for name, div in objs["divisors"].items():
            stored = {vid: v.multiplicities.get(name) for vid, v in g.vertices.items()}
            if None not in stored.values():
                stored_ok &= div.coefficients == stored
        checks["solve"] = stored_ok
    if st.get("thickthin") == "ok" and case.meta.get("ade"):
        # the ADE germs that are metrically conical are exactly A1 and D4
        checks["thickthin"] = (objs["thickthin"].metrically_conical
                               == (case.meta["ade"] in CONICAL_ADE))
    if st.get("iso") == "ok":
        checks["iso"] = all(v == [True, False] for v in objs["iso"].values())
    return checks


# -- CLI ----------------------------------------------------------------------

@dataclass
class CliResult:
    exit: int
    stdout: str
    stderr_lines: int


def cli_env(src_dir: str, extra: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env.pop("SINGLIP_EVENT_CAP", None)
    env.update(extra)
    return env


def run_cli_case(case, tracer, budget_s, root: str, second: str) -> Outcome:
    """One subprocess call: emit the request, run the CLI, parse a JSON
    reply.  ``second`` is the path of the case's second input file, if it
    has one.  The budget stops the child."""
    call = tracer.call
    out = Outcome(case.id)
    tracer.begin_case(case.id)
    argv = [sys.executable, "-m", "singlip.cli",
            *[second if a == SECOND else a for a in case.argv]]
    env = cli_env(os.path.join(root, "src"), case.env)
    start = perf_counter()
    stdin = (call("jsonio.dumps", jsonio.dumps, case.request)
             if case.request is not None else "")
    try:
        proc = call("cli.call", lambda: subprocess.run(
            argv, input=stdin, capture_output=True, text=True, env=env,
            cwd=root, timeout=budget_s))
    except subprocess.TimeoutExpired:
        out.stages["call"] = "timeout"
        out.seconds = perf_counter() - start
        tracer.end_case()
        return out
    result = CliResult(proc.returncode, proc.stdout,
                       len(proc.stderr.splitlines()))
    out.objs["result"] = result
    out.stages["call"] = "ok"
    if proc.returncode == 0 and "--format" in case.argv and \
            case.argv[case.argv.index("--format") + 1] == "json":
        try:
            call("jsonio.load_document", jsonio.load_document, proc.stdout)
            out.objs["reply_parsed"] = True
        except Exception:  # an unparsable reply fails the cross-check
            out.objs["reply_parsed"] = False
    out.seconds = perf_counter() - start
    out.completed = True
    tracer.end_case()
    if tracer.enabled:
        tracer.count("cli.calls")
        tracer.count("jsonio.bytes", len(stdin) + len(proc.stdout))
        if case.malformed:
            tracer.count("cli.malformed")
            tracer.count("cli.malformed_exit2",
                         result.exit == 2 and result.stderr_lines == 1)
    return out


def cli_record(out: Outcome):
    r = out.objs.get("result")
    if r is None:
        return out.stages.get("call")
    return {"exit": r.exit, "stdout": hashlib.sha256(
        r.stdout.encode()).hexdigest()[:16], "stderr_lines": r.stderr_lines}


# -- the gate ------------------------------------------------------------------

@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)   # (case, stage, reason)
    failures: dict = field(default_factory=dict)  # reason -> count

    def fail(self, reason):
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def add(self, other: "Verdict"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for k, v in other.failures.items():
            self.failures[k] = self.failures.get(k, 0) + v


def stage_records(out: Outcome) -> dict:
    """What the reference stores for a case: a digest per ok stage with
    JSON, otherwise the stage status."""
    rec = {}
    for stage, status in out.stages.items():
        if status == "ok" and stage in out.values:
            rec[stage] = digest(out.values[stage])
        else:
            rec[stage] = status
    return rec


def judge(case_id: str, out: Outcome, checks: dict, ref: dict) -> Verdict:
    """Every stage is one operation.  Failed: raised, refused, timed out or
    failed its check.  Wrong (the run is incorrect): its output differs from
    the reference, or it fails where the reference did not fail the same
    way.  A stage the reference could not complete and that now completes
    is accepted when its cross-check passes."""
    v = Verdict()
    now = stage_records(out)
    for stage, status in out.stages.items():
        v.attempted += 1
        expected = ref.get(stage)
        if checks.get(stage) is False:
            v.fail("check")
            v.wrong.append((case_id, stage, "cross-check failed"))
        elif status == "ok":
            if not _is_status(expected) and expected not in (None, now[stage]):
                v.fail("changed")
                v.wrong.append((case_id, stage, "output differs from reference"))
        elif status == "timeout":
            v.fail("timeout")
        else:
            v.fail(status.split(":")[0])
            if expected != status:
                v.wrong.append((case_id, stage, f"{status}, reference {expected}"))
    return v


def _is_status(record) -> bool:
    return record in ("ok", "refused", "timeout") or str(record).startswith("error:")


def judge_cli(case, out: Outcome, ref) -> Verdict:
    """One operation per call.  A malformed document passes only with exit
    2 and one stderr line; a valid one when exit code and stdout match the
    reference, or when the reference failed and the call now succeeds with
    a parsable reply.  Failing the same way as the reference is a failed
    operation, not a wrong one."""
    v = Verdict(attempted=1)
    rec = cli_record(out)
    if rec == "timeout":
        v.fail("timeout")
        return v
    if out.objs.get("reply_parsed") is False:
        v.fail("check")
        v.wrong.append((case.id, "call", "JSON reply does not parse"))
        return v
    if case.malformed:
        if rec["exit"] == 2 and rec["stderr_lines"] == 1:
            return v
        v.fail("malformed-exit")
        if rec != ref:
            v.wrong.append((case.id, "call", f"malformed input gave {rec}, "
                                             f"reference {ref}"))
        return v
    if rec["exit"] == 0:
        if isinstance(ref, dict) and ref["exit"] == 0 and rec != ref:
            v.fail("changed")
            v.wrong.append((case.id, "call", f"{rec} differs from {ref}"))
        return v
    v.fail("refused" if rec["exit"] == 1 else "input-error")
    if rec != ref:
        v.wrong.append((case.id, "call", f"{rec} differs from {ref}"))
    return v
