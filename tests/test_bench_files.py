"""Each committed ``BENCH_<n>.json`` checked against its own runs.

A BENCH file holds ``perfbench/run.py`` runs of the parent and of the
change, each with the command line and run.py's last two stdout lines,
and a ``summary`` of them that ROADMAP and CHANGES.md quote.  Its format
tag, its fields, the parent's full commit id and each run's agreement
with its command line are checked, and every summary entry is recomputed
from the runs of its group:
- a group of 30 s runs: its workload, seeds and interpreter, and per gated
  metric of ``BENCHMARK.json`` the pair count, the pairs the change wins
  (strictly better, in the metric's direction), and each side's median and
  quartiles, rounded to 4 places, besides the attempted, failed and
  correct fields it states;
- a traced group: its workload, seed, seconds and runs a side, and each
  side's sorted per-layer self times (5 places) and JSON-emission shares
  of the layer time (4 places).
``BENCH_1.json`` and ``BENCH_2.json`` key their summary ``set/group`` and
tag their runs with the set; ``BENCH_1.json`` took its quartiles by
``statistics.quantiles``' default (exclusive) method, the others by the
inclusive one.

From ``BENCH_8.json`` on a file is ``singlip.bench/2``, whose runs are
trimmed to what the summary reads and what identifies a run: the fields of
``RUN``, a ``last_line`` of ``LAST`` fields and a ``meta_line`` whose
``meta`` holds the ``META`` fields.  The workload, seed and trace of such a
run are read off its command line.  Older files are ``singlip.bench/1``
and keep run.py's two lines as printed."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
GATED = {m["name"]: m["better"]
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
QUARTILES = {"BENCH_1.json": "exclusive"}
FIELDS = {"format", "subject", "parent_commit", "change_commit", "host",
          "procedure", "summary", "runs"}
TRIMMED_FROM = 8
RUN = {"command", "group", "side", "seed", "workload", "first_in_pair", "exit",
       "wall_s", "last_line", "meta_line"}
LAST = {"correct", "attempted", "failed", "metrics"}
META = {"commit", "python", "src_lines", "passes", "probe_median_s", "tail_percentile",
        "tail_samples"}


def _trimmed(name: str) -> bool:
    return int(name.split("_")[1].split(".")[0]) >= TRIMMED_FROM


def _run_agrees(run: dict, trimmed: bool) -> bool:
    """Whether ``run`` has its format's fields and agrees with its command."""
    meta, last = run["meta_line"]["meta"], run["last_line"]
    trace = int(run["command"].split("--trace ")[1].split()[0])
    if not (run["side"] in ("parent", "change")
            and f"--workload {run['workload']} --seed {run['seed']} " in run["command"]
            and (set(GATED) if trace == 0 else {"jsonio.emit_s"}) <= set(last["metrics"])):
        return False
    if trimmed:
        return (set(run), set(last), set(run["meta_line"]), set(meta)) == (
            RUN, LAST, {"meta"}, META) and run["exit"] == 0
    return ((meta["workload"], meta["seed"], meta["trace"]) == (
        run["workload"], run["seed"], trace)
        and (meta["attempted"], meta["failed"]) == (last["attempted"], last["failed"]))


def _stats(parent: list, change: list, better: str, method: str) -> dict:
    def quartiles(values):
        q1, _, q3 = statistics.quantiles(values, n=4, method=method)
        return [round(q1, 4), round(q3, 4)]
    wins = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
    return {"pairs": len(parent), "change_wins": wins,
            "parent_median": round(statistics.median(parent), 4),
            "parent_quartiles": quartiles(parent),
            "change_median": round(statistics.median(change), 4),
            "change_quartiles": quartiles(change)}


def _emit_share(run) -> float:
    metrics = run["last_line"]["metrics"]
    return metrics["jsonio.emit_s"]["value"] / sum(
        m["value"] for m in metrics.values() if m["unit"] == "s")


def _summary(entry: dict, runs: list, method: str) -> dict:
    """The summary entry that ``runs`` give, in the shape of ``entry``."""
    side = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
    got = {"workload": runs[0]["workload"]}
    if "self_time_s" in entry:
        seconds = int(runs[0]["command"].split("--seconds ")[1].split()[0])
        got.update(seed=runs[0]["seed"], seconds=seconds,
                   runs_a_side=len(side["parent"]), self_time_s={
                       m: {s: sorted(round(r["last_line"]["metrics"][m]["value"], 5)
                                     for r in rs) for s, rs in side.items()}
                       for m in entry["self_time_s"]})
        if "emit_share" in entry:
            got["emit_share"] = {s: sorted(round(_emit_share(r), 4) for r in rs)
                                 for s, rs in side.items()}
        return got
    got["seeds"] = list(dict.fromkeys(r["seed"] for r in runs))
    if "python" in entry:
        got["python"] = runs[0]["meta_line"]["meta"]["python"]
    for metric, better in GATED.items():
        parent, change = ([r["last_line"]["metrics"][metric]["value"] for r in rs]
                          for rs in side.values())
        got[metric] = _stats(parent, change, better, method)
    outcomes = [(r["side"], *(r["last_line"][k] for k in ("attempted", "failed", "correct")))
                for r in runs]
    if "attempted_failed" in entry:   # with or without the side, as the file has it
        width = len(entry["attempted_failed"][0])
        got["attempted_failed"] = sorted(map(list, {o[-width:] for o in outcomes}))
    if "attempted_failed_equal" in entry:
        got["attempted_failed_equal"] = len({o[1:3] for o in outcomes}) == 1
        got["all_correct"] = all(o[3] for o in outcomes)
    return got


def problems(doc: dict, name: str) -> list:
    """Every way the document ``name`` departs from its format or from its
    own runs."""
    trimmed = _trimmed(name)
    tag = "singlip.bench/2" if trimmed else "singlip.bench/1"
    found = [] if doc.get("format") == tag else ["format"]
    found += [f"missing {f}" for f in sorted(FIELDS - set(doc))]
    if not re.fullmatch("[0-9a-f]{40}", str(doc.get("parent_commit"))):
        found.append("parent_commit")
    for i, run in enumerate(doc.get("runs", [])):
        if not _run_agrees(run, trimmed):
            found.append(f"runs[{i}]")
    for key, entry in doc.get("summary", {}).items():
        group_set, _, group = key.rpartition("/")
        runs = [r for r in doc["runs"]
                if (r.get("set", ""), r["group"]) == (group_set, group)]
        if not runs or _summary(entry, runs, QUARTILES.get(name, "inclusive")) != entry:
            found.append(f"summary {key}")
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_summary_recomputes_from_runs(path):
    assert problems(json.loads(path.read_text()), path.name) == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_a_changed_median_fails(path):
    doc = json.loads(path.read_text())
    key = next(k for k, e in doc["summary"].items() if "cases_per_s" in e)
    doc["summary"][key]["cases_per_s"]["change_median"] += 0.0001
    assert problems(doc, path.name) == [f"summary {key}"]


@pytest.mark.parametrize("path", [p for p in FILES if _trimmed(p.name)],
                         ids=lambda p: p.name)
def test_an_untrimmed_run_fails(path):
    doc = json.loads(path.read_text())
    doc["runs"][0]["meta_line"]["meta"]["nproc"] = 2   # a meta field it drops
    doc["runs"][-1]["last_line"]["wrong"] = []        # a last-line field it drops
    doc["format"] = "singlip.bench/1"
    assert problems(doc, path.name) == ["format", "runs[0]", f"runs[{len(doc['runs']) - 1}]"]
