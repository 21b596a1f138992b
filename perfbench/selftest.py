"""Self-tests of the benchmark itself (stdlib unittest, about 20 s):

    python3 perfbench/selftest.py

They check that a seed fixes the inputs byte for byte, the self-time
arithmetic of the tracer, the per-case budget, and that the correctness
gate rejects a corrupted contact entry and a wrong CLI exit code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import pipeline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from singlip.strands import ContactMatrix  # noqa: E402

DIGEST_SNIPPET = """
import hashlib, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
seed = int(sys.argv[3])
for w in workloads.WORKLOADS:
    cases = workloads.pool(w, seed)
    h = hashlib.sha256()
    for c in cases:
        h.update(workloads.serialised(c).encode())
    for _, batch in workloads.passes(workloads.slots(cases), seed, 3):
        h.update(" ".join(c.id for _, c in batch).encode())
    print(w, h.hexdigest())
"""


def _input_digests(seed: int, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, "-c", DIGEST_SNIPPET, str(HERE),
                           str(run.SRC), str(seed)], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def _case(workload: str, case_id: str, seed: int = 0):
    return next(c for c in workloads.pool(workload, seed) if c.id == case_id)


class SeedTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        first = _input_digests(7, "1")
        self.assertEqual(first, _input_digests(7, "2"))
        self.assertEqual(len(first.splitlines()), len(workloads.WORKLOADS))
        self.assertNotEqual(first, _input_digests(8, "1"))

    def test_stored_tower_graphs_match_the_generator(self):
        with open(workloads.DATA, encoding="utf-8") as fh:
            stored = json.load(fh)
        self.assertEqual(stored, workloads.generate_tower_graphs())

    def test_slots_hold_every_rung_whatever_the_seed(self):
        cases = workloads.pool("curves-deep", 3)
        slots = workloads.slots(cases)
        expected = sum(workloads.weight(r) for r in workloads.rungs_of(cases))
        self.assertEqual(len(slots), expected)
        self.assertEqual([c.id for c in slots],
                         [c.id for c in workloads.slots(
                             workloads.pool("curves-deep", 4))])
        batches = list(workloads.passes(slots, 3, 2))
        self.assertEqual(len(batches), 2)
        for _, batch in batches:
            self.assertEqual(sorted(i for i, _ in batch),
                             list(range(len(slots))))

    def test_gated_workloads_reach_the_75th_percentile(self):
        for w in ("curves-wide", "graphs-large", "cli-batch"):
            n = len(workloads.slots(workloads.pool(w, 0)))
            self.assertEqual(run.tail([float(i) for i in range(n)])[0], 75, w)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        # root [0,10] with children [1,4], [3,6] (overlapping) and [5,9];
        # [5,9] has a child [6,7]
        spans = [["case", "c", -1, 0.0, 10.0],
                 ["strands.contact_matrix", "c", 0, 1.0, 4.0],
                 ["strands.check_ultrametric", "c", 0, 3.0, 6.0],
                 ["tower.resolve_curve", "c", 0, 5.0, 9.0],
                 ["strands.contact_matrix", "c", 3, 6.0, 7.0]]
        own = tracing.self_times(spans)
        self.assertEqual(own, [2.0, 3.0, 3.0, 3.0, 1.0])
        t = tracing.Tracer()
        t.spans = spans
        m = tracing.layer_metrics(t)
        self.assertEqual(m["strands.contacts_s"], 4.0)
        self.assertEqual(m["strands.ultrametric_s"], 3.0)
        self.assertEqual(m["tower.resolve_s"], 3.0)

    def test_tracer_nests_and_closes_interrupted_spans(self):
        t = tracing.Tracer()
        t.begin_case("x")
        t.call("outer", lambda: t.call("inner", lambda: None))
        t.spans.append(["open", "x", -1, 0.0, None])
        t.end_case()
        self.assertEqual([s[2] for s in t.spans[:2]], [-1, 0])
        self.assertIsNotNone(t.spans[2][4])


class BudgetTest(unittest.TestCase):
    def test_budget_stops_the_k6_rung(self):
        out = pipeline.run_curve_case(_case("curves-deep", "k6-baseline/0"),
                                      tracing.NullTracer(), 0.5)
        self.assertFalse(out.completed)
        self.assertEqual(list(out.stages.values()).count("timeout"), 1)
        verdict = run.gate("curves-deep", _case("curves-deep", "k6-baseline/0"),
                           out, run.load_reference("curves-deep"))
        self.assertEqual(verdict.failures.get("timeout"), 1)
        self.assertEqual(verdict.wrong, [])


class GateTest(unittest.TestCase):
    def test_gate_passes_and_fails_on_a_corrupted_contact(self):
        case = _case("curves-wide", "s24/0")
        ref = run.load_reference("curves-wide")
        out = pipeline.run_curve_case(case, tracing.NullTracer(), 8.0)
        self.assertEqual(run.gate("curves-wide", case, out, ref).wrong, [])

        m = out.objs["matrix"]
        rows = [list(r) for r in m.entries]
        rows[0][1] = rows[1][0] = rows[0][1] + Fraction(1, 7)
        out.objs["matrix"] = ContactMatrix(m.size, tuple(map(tuple, rows)))
        out.values["contacts"] = out.objs["matrix"].to_json()
        verdict = run.gate("curves-wide", case, out, ref)
        stages = {stage for _, stage, _ in verdict.wrong}
        self.assertEqual(stages, {"contacts", "roundtrip"})
        self.assertGreaterEqual(verdict.failed, 2)

    def test_gate_fails_on_a_wrong_cli_exit_code(self):
        setup = run.Setup("cli-batch", 0)
        try:
            ref = run.load_reference("cli-batch")
            case = next(c for c in setup.cases if c.id == "fixtures-list/0")
            out = run.runner(setup)(case, tracing.NullTracer())
            self.assertEqual(run.gate("cli-batch", case, out, ref).wrong, [])
            out.objs["result"] = replace(out.objs["result"], exit=1)
            verdict = run.gate("cli-batch", case, out, ref)
            self.assertEqual(verdict.failed, 1)
            self.assertEqual(len(verdict.wrong), 1)
        finally:
            setup.close()

    def test_malformed_input_passes_only_with_exit_2_and_one_line(self):
        case = next(c for c in workloads.pool("cli-batch", 0)
                    if c.id == "malformed-a/0")
        ref = run.load_reference("cli-batch")[case.id]["call"]

        def verdict(exit_code, lines, stdout=""):
            out = pipeline.Outcome(case.id, stages={"call": "ok"})
            out.objs["result"] = pipeline.CliResult(exit_code, stdout, lines)
            return pipeline.judge_cli(case, out, ref)

        self.assertEqual(verdict(2, 1).failed, 0)
        reference_like = verdict(ref["exit"], ref["stderr_lines"])
        self.assertEqual((reference_like.failed, reference_like.wrong), (1, []))
        self.assertEqual(len(verdict(0, 0).wrong), 1)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail([float(i) for i in range(1, 41)]), (75, 30.0))
        self.assertEqual(run.tail([float(i) for i in range(1, 100)]), (75, 75.0))
        self.assertEqual(run.tail([float(i) for i in range(1, 101)]), (90, 90.0))
        self.assertEqual(run.tail([float(i) for i in range(1, 40)])[0], 50)


if __name__ == "__main__":
    unittest.main()
