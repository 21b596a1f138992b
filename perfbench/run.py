"""singlip benchmark: four closed-loop workloads with one client each.

    python3 perfbench/run.py --workload curves-wide --seed 1 --seconds 30 --trace 0

runs from the root of a source checkout and imports ``singlip`` from its
``src/``.  With ``--trace 0`` the last line of stdout is the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The
line before it is the run's metadata.  ``--record`` regenerates
``data/tower-graphs.json`` and ``reference.json`` from the checkout's code;
``perfbench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
TAIL_LADDER = (90, 75, 50)
# median time of probe_work on the tuning host (2 vCPUs, Python 3.11)
PROBE_NOMINAL_S = 0.0033


def _fail(msg: str) -> "None":
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "singlip" / "__init__.py").is_file():
    _fail(f"no singlip sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import pipeline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- set-up --------------------------------------------------------------------

class Setup:
    """The inputs of one run: generated, serialised and, for cli-batch,
    the second input files written under the checkout."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.cases = workloads.pool(workload, seed)
        self.slots = workloads.slots(self.cases)
        self.tmp = None
        self.second = {}
        if workload == "cli-batch":
            self.tmp = TMP / str(os.getpid())
            self.tmp.mkdir(parents=True, exist_ok=True)
            for case in self.cases:
                if "second" in case.extra:
                    path = self.tmp / (case.id.replace("/", "-") + ".json")
                    path.write_text(case.extra["second"], encoding="utf-8")
                    self.second[case.id] = str(path.relative_to(ROOT))

    def close(self):
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            try:
                TMP.rmdir()
            except OSError:
                pass  # another run still uses it


def runner(setup: Setup):
    budget = workloads.BUDGET_S[setup.workload]
    if setup.workload in ("curves-wide", "curves-deep"):
        return lambda case, t: pipeline.run_curve_case(case, t, budget)
    if setup.workload == "graphs-large":
        return lambda case, t: pipeline.run_graph_case(case, t, budget)
    return lambda case, t: pipeline.run_cli_case(
        case, t, budget, str(ROOT), setup.second.get(case.id, ""))


def gate(workload: str, case, out, reference: dict,
         cross_check: bool = True) -> pipeline.Verdict:
    """Judge one run of a case.  Without ``cross_check`` only the digests
    are compared: a repeat run of a case whose first run was
    cross-checked."""
    ref = reference.get(case.id)
    if ref is None:
        v = pipeline.Verdict(attempted=1)
        v.fail("unreferenced")
        v.wrong.append((case.id, "input", "case missing from reference.json"))
        return v
    if workload == "cli-batch":
        verdict = pipeline.judge_cli(case, out, ref["call"])
    else:
        checks = {}
        if cross_check:
            checks = (pipeline.check_graph(case, out)
                      if workload == "graphs-large" else pipeline.check_curve(out))
        verdict = pipeline.judge(case.id, out, checks, ref["stages"])
    if ref["input"] != pipeline.digest(workloads.case_input(case)):
        verdict.wrong.append((case.id, "input", "generated input differs from "
                                                "the recorded one"))
    return verdict


def load_reference(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


# -- measurement ---------------------------------------------------------------

def pin_to_one_cpu():
    """Keep this process, and the children it starts, on one CPU, so that
    the speed probe and the timed work run on the same one: the two vCPUs
    of a shared host need not be equally fast at the same moment."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def probe_work():
    """A fixed piece of pure-Python work of the kind the library does:
    exact fractions, tuples, a dict and a sort.  It runs no singlip code,
    so no change to the library moves it."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 1200):
        acc += Fraction(i % 17 + 1, i % 29 + 1)
        table[(i % 97, i % 13)] = acc.numerator % 1009
    return sorted(table.items())


class Speed:
    """How fast the host runs right now, from ``probe_work`` timed right
    before and right after every timed case (with the collector off, so
    that the library's garbage does not land on it).

    The shared host this was tuned on ran the same code up to 1.65 times
    slower for minutes at a time, and in spells of a second or so, and the
    probe slowed with it: over 100 s in which one curve case's median went
    from 110 to 145 ms, that median divided by the probe's median stayed
    within 2 %.  A case's time is reported at nominal speed: the measured
    time times the nominal probe time over the mean of the two probes
    around it."""

    def __init__(self):
        self.probes: list = []

    def probe(self) -> float:
        gc.disable()
        start = perf_counter()
        probe_work()
        took = perf_counter() - start
        gc.enable()
        self.probes.append(took)
        return took

    def timed(self, fn):
        """(result of fn, its seconds at nominal speed)."""
        before = self.probe()
        result = fn()
        return result, 2 * PROBE_NOMINAL_S / (before + self.probe())


class Loop:
    """Closed loop, one client: the next case starts when the previous one
    and its checks are done.

    A run sends its slots in a fixed number of passes, each in an order
    drawn from the seed.  Only the first pass is cross-checked; the later
    ones are compared with the reference digests.  A slot's latency is the
    median of its runs at nominal speed (``Speed``).  A slot that runs over
    its budget is not sent again."""

    def __init__(self, setup: Setup, reference: dict):
        self.setup = setup
        self.run_case = runner(setup)
        self.reference = reference
        self.verdict = pipeline.Verdict()
        self.speed = Speed()
        self.times: dict = {}       # slot -> its completed runs, nominal s
        self.timed_out: dict = {}   # slot -> its over-budget run, nominal s
        self.elapsed = 0.0          # every run, measured s
        self.runs = 0
        self.passes = 0

    def run(self, slot: int, case, tracer, cross_check: bool):
        if slot in self.timed_out:
            return
        gc.collect()  # start every case with empty young generations
        out, scale = self.speed.timed(lambda: self.run_case(case, tracer))
        self.runs += 1
        self.elapsed += out.seconds
        self.verdict.add(gate(self.setup.workload, case, out, self.reference,
                              cross_check))
        if out.completed:
            self.times.setdefault(slot, []).append(out.seconds * scale)
        else:
            self.timed_out[slot] = out.seconds * scale

    def measure(self, seed: int, count: int):
        tracer = tracing.NullTracer()
        for p, batch in workloads.passes(self.setup.slots, seed, count):
            for slot, case in batch:
                self.run(slot, case, tracer, cross_check=p == 0)
            self.passes += 1

    @property
    def latencies(self) -> list:
        """Every completed slot's latency, s at nominal speed."""
        return [statistics.median(xs) for xs in self.times.values()]

    @property
    def client_s(self) -> float:
        """The latencies plus every over-budget run, s at nominal speed."""
        return sum(self.latencies) + sum(self.timed_out.values())


def tail(latencies: list) -> tuple:
    """The highest percentile of TAIL_LADDER with at least ten samples
    above it (nearest rank); the median when there are too few samples.
    The number of samples is the number of slots, which is the same on
    every run of a workload, so the percentile is too."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50, statistics.median(xs) if xs else 0.0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def setup_seconds(workload: str, seed: int) -> tuple:
    """Wall time of fresh processes that import singlip, build this run's
    inputs and stop right before the first timed case: (at nominal speed,
    as measured)."""
    speed = Speed()
    nominal, measured = [], []
    for _ in range(SETUP_PROBES):
        def fresh_setup():
            start = perf_counter()
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                            workload, "--seed", str(seed), "--setup-only"],
                           cwd=ROOT, check=True)
            return perf_counter() - start
        took, scale = speed.timed(fresh_setup)
        measured.append(took)
        nominal.append(took * scale)
    return nominal, measured


def cli_floor_ms() -> tuple:
    """(cumulative -X importtime of singlip.cli, bare interpreter wall), ms."""
    env = pipeline.cli_env(str(SRC), {})
    imports, interp = [], []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import singlip.cli"], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True)
        total = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].startswith(" singlip") \
                    and not parts[2].startswith("  "):
                total += int(parts[1])
        imports.append(total / 1000)
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                       check=True)
        interp.append((perf_counter() - start) * 1000)
    return statistics.median(imports), statistics.median(interp)


def metadata(args, loop: Loop) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    v = loop.verdict
    p, _ = tail(loop.latencies)
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines,
            "slots": len(loop.setup.slots), "passes": loop.passes,
            "runs": loop.runs, "completed": len(loop.latencies),
            "client_s": loop.client_s,
            "elapsed_s": loop.elapsed,
            "tail_percentile": p, "tail_samples": len(loop.latencies),
            "probe_nominal_s": PROBE_NOMINAL_S,
            "probe_median_s": (statistics.median(loop.speed.probes)
                               if loop.speed.probes else None),
            "attempted": v.attempted, "failed": v.failed,
            "failed_share": v.failed / max(v.attempted, 1),
            "failures": v.failures, "wrong": v.wrong[:20]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, setup: Setup) -> tuple:
    loop = Loop(setup, load_reference(args.workload))
    loop.measure(args.seed, workloads.passes_for(args.workload, args.seconds))
    rss = peak_rss_mb(children=args.workload == "cli-batch")
    setups, setups_measured = setup_seconds(args.workload, args.seed)
    v = loop.verdict
    p, tail_s = tail(loop.latencies)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "cases_per_s": metric(len(loop.latencies) / loop.client_s, "1/s"),
        "case_ms_p50": metric(statistics.median(loop.latencies) * 1000, "ms"),
        "case_ms_tail": metric(tail_s * 1000, "ms"),
        "ok_share": metric((v.attempted - v.failed) / v.attempted, "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    meta = metadata(args, loop)
    meta["setup_runs_s"] = setups
    meta["setup_runs_measured_s"] = setups_measured
    return loop, metrics, meta


def per_layer(args, setup: Setup) -> tuple:
    """Each slot runs twice per pass, untraced and traced, in alternating
    order so that neither side always gets the warmer start; half as many
    passes as an untraced run.  The difference of the two sides' run time
    is the tracing overhead."""
    reference = load_reference(args.workload)
    plain, traced = Loop(setup, reference), Loop(setup, reference)
    tracer = tracing.Tracer()
    count = max(1, workloads.passes_for(args.workload, args.seconds) // 2)
    for p, batch in workloads.passes(setup.slots, args.seed, count):
        for k, (slot, case) in enumerate(batch):
            sides = [(plain, tracing.NullTracer()), (traced, tracer)]
            for loop, t in (sides if k % 2 == 0 else sides[::-1]):
                loop.run(slot, case, t, cross_check=p == 0)
        plain.passes += 1
        traced.passes += 1
    values = tracing.layer_metrics(tracer)
    values["cli.import_ms"], values["cli.interp_ms"] = cli_floor_ms()
    values["trace.overhead_share"] = (traced.elapsed - plain.elapsed) / plain.elapsed
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    traced.verdict.add(plain.verdict)
    metrics = {name: metric(values[name], unit)
               for name, unit in tracing.LAYER_METRICS}
    return traced, metrics, metadata(args, traced)


# -- reference -----------------------------------------------------------------

def record():
    """Regenerate the stored tower graphs and the reference digests by
    running every case of every workload once."""
    os.makedirs(os.path.dirname(workloads.DATA), exist_ok=True)
    with open(workloads.DATA, "w", encoding="utf-8") as fh:
        json.dump(workloads.generate_tower_graphs(), fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")
    ref = {"version": 1, "workloads": {}}
    for workload in workloads.WORKLOADS:
        setup = Setup(workload, 0)
        run_case = runner(setup)
        entries = {}
        try:
            for case in setup.cases:
                out = run_case(case, tracing.NullTracer())
                entry = {"input": pipeline.digest(workloads.case_input(case))}
                if workload == "cli-batch":
                    entry["call"] = pipeline.cli_record(out)
                else:
                    checks = (pipeline.check_graph(case, out)
                              if workload == "graphs-large"
                              else pipeline.check_curve(out))
                    bad = [s for s, ok in checks.items() if not ok]
                    if bad:
                        print(f"{case.id}: cross-check failed at {bad}",
                              file=sys.stderr)
                    entry["stages"] = pipeline.stage_records(out)
                entries[case.id] = entry
                print(f"{workload} {case.id} {out.seconds:.3f}s "
                      f"{json.dumps(entry.get('stages', entry.get('call')))[:150]}",
                      file=sys.stderr)
        finally:
            setup.close()
        ref["workloads"][workload] = entries
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, indent=1)
        fh.write("\n")


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and stop (set-up probe)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite data/tower-graphs.json and reference.json")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    pin_to_one_cpu()
    setup = Setup(args.workload, args.seed)
    # the harness's own objects (inputs, reference) stay out of the
    # collector's way, so they do not slow the library's collections
    gc.collect()
    gc.freeze()
    try:
        if args.setup_only:
            return 0
        if args.trace:
            loop, metrics, meta = per_layer(args, setup)
        else:
            loop, metrics, meta = end_to_end(args, setup)
    finally:
        setup.close()
    v = loop.verdict
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not v.wrong, "attempted": v.attempted,
                      "failed": v.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
