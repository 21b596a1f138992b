import argparse
import io
import json
import subprocess
import sys

import pytest

from helpers import (checkout_env, cli_commands, parse_dot, parsed, run_cli,
                     run_python)
from singlip import (PuiseuxBranch, contact_matrix, fixtures, jsonio, resolve_curve,
                     strands)
from singlip.carrousel import MAX_DEPTH
from singlip.cli import _read_args, build_parser, main
from singlip.decomp import MODES
from singlip.dot import graph_to_dot
from singlip.fixtures import curve_cusp_53, fixture_names, load_fixture
from singlip.dualgraph import DualGraph


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name in fixture_names():
        code, dump, _ = run_cli("fixtures", "dump", name)
        assert code == 0
        p = tmp_path / f"{name}.json"
        p.write_text(dump)
        out[name] = str(p)
    return out


def test_fixtures_list():
    code, out, _ = run_cli("fixtures", "list")
    assert code == 0
    assert "e8 (graph)" in out
    assert "cusp-53 (curve)" in out


def test_curve_contacts(paths):
    code, out, _ = run_cli("curve", "contacts", paths["carrousel-example"])
    assert code == 0
    assert "3/2, 13/6, 5/2" in out
    code, out, _ = run_cli("--format", "json", "curve", "contacts",
                           paths["carrousel-example"])
    doc = json.loads(out)
    assert doc["size"] == 8
    # each row renders every entry, each distinct value object once
    for name in ("carrousel-example", "cusp-53", "curve-32-74"):
        _, out, _ = run_cli("curve", "contacts", paths[name])
        rows = [" ".join("inf" if v is None else str(v) for v in row)
                for row in contact_matrix(load_fixture(name)).entries]
        assert out.splitlines()[2:] == rows


def test_curve_resolve_and_verify_round_trip(paths, tmp_path):
    code, out, _ = run_cli("--format", "json", "curve", "resolve",
                           paths["cusp-53"])
    assert code == 0
    doc = json.loads(out)
    assert [v["self_intersection"] for v in doc["vertices"]] == [-3, -3, -2, -1]
    tower_path = tmp_path / "tower.json"
    tower_path.write_text(out)
    code, out, _ = run_cli("verify", str(tower_path))
    assert code == 0 and "ok" in out


def test_curve_horns(paths):
    code, out, _ = run_cli("curve", "horns", "--base", "6",
                           paths["carrousel-example"])
    assert code == 0
    assert "thresholds: 5/2, 3/2" in out
    assert "counts: 1, 2, 8" in out


def test_curve_equiv(paths):
    code, out, _ = run_cli("curve", "equiv", paths["carrousel-example"],
                           paths["carrousel-example"])
    assert code == 0 and "equivalent: true" in out
    code, out, _ = run_cli("curve", "equiv", paths["carrousel-example"],
                           paths["cusp-53"])
    assert code == 0 and "equivalent: false" in out


def test_graph_mult(paths):
    code, out, _ = run_cli("graph", "mult", "--arrow", "x", paths["e8"])
    assert code == 0
    assert "E1: 15" in out and "E8: 8" in out


def test_graph_laufer(paths):
    code, out, _ = run_cli("graph", "laufer", paths["cusp-53"])
    assert code == 0
    assert out.count("self=-2") == 8


def test_graph_pencil(paths):
    code, out, _ = run_cli("graph", "pencil", "--gen", "x", "--gen", "y:2",
                           "--resolve", paths["e8"])
    assert code == 0
    assert "base points on: E8" in out
    assert "E8(-3), E9(-2), E10(-1)" in out


@pytest.mark.parametrize("gen", ["x:abc", "x:0", "x:-2", "x:1.5", "x:"])
def test_malformed_pencil_power_exit_2(paths, gen):
    code, out, err = run_cli("graph", "pencil", "--gen", gen, "--gen", "y",
                             paths["e8"])
    assert code == 2 and out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("input error:")


def test_graph_thickthin(paths):
    code, out, _ = run_cli("graph", "thickthin", paths["d4"])
    assert code == 0 and "metrically conical: true" in out
    code, out, _ = run_cli("graph", "thickthin", paths["e8"])
    assert code == 0 and "metrically conical: false" in out


def test_graph_decompose(paths):
    code, out, _ = run_cli("graph", "decompose", "--mode", "inner",
                           paths["e8"])
    assert code == 0
    assert "B(1)" in out and "A(1,5/3)" in out and "B(5/3)" in out


def _parser_table(parser, path=()) -> dict:
    """{command path: (its func's name, [(option string or positional,
    required, choices, default)])} for ``parser`` and every subparser."""
    table, rows = {}, []
    for a in parser._actions:
        if isinstance(a, argparse._HelpAction):
            continue
        choices = None if a.choices is None else tuple(a.choices)
        rows.append((" ".join(a.option_strings) or a.dest, a.required, choices,
                     a.default))
        if isinstance(a, argparse._SubParsersAction):
            for name, sub in a.choices.items():
                table.update(_parser_table(sub, (*path, name)))
    func = parser.get_default("func")
    table[path] = (func, rows)
    return table


INPUT = ("input", True, None, None)
PARSER = {
    (): (None, [("--format", False, ("text", "json", "dot"), "text"),
                ("--strict", False, None, False),
                ("--event-cap", False, None, None),
                ("--strand-cap", False, None, None),
                ("command", True, ("curve", "graph", "verify", "fixtures"), None)]),
    ("curve",): (None, [("subcommand", True, ("contacts", "carrousel", "horns",
                                              "resolve", "equiv"), None)]),
    ("curve", "contacts"): ("cmd_curve_contacts", [INPUT]),
    ("curve", "carrousel"): ("cmd_curve_carrousel",
                             [INPUT, ("--reduce", False, None, False)]),
    ("curve", "horns"): ("cmd_curve_horns", [INPUT, ("--base", True, None, None)]),
    ("curve", "resolve"): ("cmd_curve_resolve", [INPUT]),
    ("curve", "equiv"): ("cmd_curve_equiv", [("first", True, None, None),
                                             ("second", True, None, None)]),
    ("graph",): (None, [("subcommand", True, ("mult", "laufer", "pencil",
                                              "thickthin", "decompose",
                                              "signature"), None)]),
    ("graph", "mult"): ("cmd_graph_mult", [
        INPUT, ("--arrow", True, None, None),
        ("--allow-fractional", False, None, False)]),
    ("graph", "laufer"): ("cmd_graph_laufer", [INPUT]),
    ("graph", "pencil"): ("cmd_graph_pencil", [
        INPUT, ("--gen", False, None, []), ("--resolve", False, None, False)]),
    ("graph", "thickthin"): ("cmd_decomp_thickthin", [INPUT]),
    ("graph", "decompose"): ("cmd_decomp_decompose", [
        INPUT, ("--mode", True, ("initial", "inner", "outer"), None)]),
    ("graph", "signature"): ("cmd_decomp_signature", [
        INPUT, ("second", False, None, None),
        ("--metric", True, ("inner", "outer"), None)]),
    ("verify",): ("cmd_verify", [INPUT]),
    ("fixtures",): (None, [("subcommand", True, ("list", "dump"), None)]),
    ("fixtures", "list"): ("cmd_fixtures_list", []),
    ("fixtures", "dump"): ("cmd_fixtures_dump", [("name", True, None, None)]),
}


def test_parser_structure():
    # help text is left out: argparse formats it differently across versions
    assert _parser_table(build_parser()) == PARSER


def test_reader_reads_every_command_as_argparse_does():
    given = ["--format", "json", "--strict", "--event-cap", "5", "--strand-cap", "9"]
    for words, arguments in cli_commands():
        positionals = [name for name, _ in arguments if name[0] != "-"]
        options, flags = [], []
        for name, kw in arguments:
            if kw.get("action") == "store_true":
                flags.append(name)
            elif name[0] == "-":
                value = kw["choices"][-1] if "choices" in kw else "3"
                options += [name, value] * (2 if kw.get("action") == "append" else 1)
        required = [name for name, kw in arguments
                    if name[0] != "-" and "nargs" not in kw]
        for head in ([], given, given[:2] + given):
            for names in {tuple(required), tuple(positionals)}:
                tail = [f"{name}.json" for name in names]
                for argv in (head + words + options + flags + tail,
                             head + words + tail + flags + options,
                             head + words + flags + tail + options,
                             head + words + ["-"] * len(tail) + options):
                    got = _read_args(argv)
                    assert got is not None, argv
                    assert vars(got) == parsed(argv), argv
    assert len(cli_commands()) == 14


def test_reader_leaves_an_option_between_positionals_to_argparse(capsys):
    # argparse takes `a` alone as the positionals, and then refuses `b`
    argv = ["graph", "signature", "a", "--metric", "inner", "b"]
    assert _read_args(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "singlip: error: unrecognized arguments: b")


def test_help_and_abbreviations_fall_back_to_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()
    assert _read_args(["--form", "json", "fixtures", "list"]) is None
    assert (run_cli("--form", "json", "fixtures", "list")
            == run_cli("--format", "json", "fixtures", "list")
            != run_cli("fixtures", "list"))


def test_usage_errors_print_argparse_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["curve", "horns", "--base", "x", "-"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", (
        "usage: singlip curve horns [-h] --base BASE input\n"
        "singlip curve horns: error: argument --base: invalid int value: 'x'\n"))


def test_decompose_mode_choices_are_decomp_modes():
    # build_parser lists the modes itself so that parsing never imports decomp
    _, rows = _parser_table(build_parser())[("graph", "decompose")]
    assert {row[0]: row[2] for row in rows}["--mode"] == MODES


def test_graph_signature_compare(paths):
    code, out, _ = run_cli("graph", "signature", "--metric", "inner",
                           paths["e8"], paths["e8"])
    assert code == 0 and "equal: true" in out
    code, out, _ = run_cli("graph", "signature", "--metric", "inner",
                           paths["e8"], paths["d4"])
    assert code == 0 and "equal: false" in out


def test_every_fixture_passes_verify(paths):
    for name, path in paths.items():
        code, out, _ = run_cli("verify", path)
        assert code == 0, (name, out)


def test_verify_fails_on_broken_graph(paths, tmp_path):
    doc = json.loads((io.open(paths["e8"]).read()))
    doc["vertices"][0]["multiplicities"]["h"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli("verify", str(bad))
    assert code == 1
    assert "laufer residual" in out


def test_verify_refuses_a_document_it_has_no_check_for(tmp_path):
    p = tmp_path / "contacts.json"
    p.write_text(json.dumps({"format": "singlip.contacts/1", "size": 1,
                             "entries": [["inf"]]}))
    assert run_cli("verify", str(p)) == (
        2, "", "input error: cannot verify documents of format 'singlip.contacts/1'\n")


def test_verify_reports_a_disconnected_graph(tmp_path):
    # the first vertex of each component that the walk from `a` misses
    g = DualGraph()
    for vid in "abcd":
        g.add_vertex(vid, -2)
    g.add_edge("b", "c")
    p = tmp_path / "graph.json"
    p.write_text(json.dumps(jsonio.graph_to_json(g)))
    assert run_cli("verify", str(p)) == (1, "graph is not connected: no path from "
                                         "vertex a to b, d\nfailed: 1 problem(s)\n", "")


def test_input_from_stdin(paths, monkeypatch):
    expected = run_cli("curve", "resolve", paths["cusp-53"])
    with open(paths["cusp-53"]) as fh:
        monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
    assert run_cli("curve", "resolve", "-") == expected


def test_input_errors_exit_2(tmp_path):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli("curve", "contacts", str(missing))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli("curve", "contacts", str(bad))
    assert code == 2 and "line" in err
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "nope"}))
    code, _, err = run_cli("curve", "contacts", str(wrong))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--format", "json", "curve", "contacts", "-"], ["fixtures", "dump", "e8"]],
    ids=["contacts-of-60-strands", "fixtures-dump"])
def test_closed_stdout_pipe_exits_1_quietly(argv):
    # the reader is gone before the child writes; the 60-strand contact
    # matrix is far larger than a pipe buffer, so its write fails whenever
    # the reader closes
    curve = [PuiseuxBranch.from_terms([("61/60", 1)])]
    proc = subprocess.Popen([sys.executable, "-m", "singlip.cli", *argv],
                            env=checkout_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(jsonio.dumps(jsonio.curve_to_json(curve)).encode(),
                              timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("raw", [
    b"[" * 100_000 + b"]" * 100_000,
    b'{"format": "singlip.curve/1", "x": ' + b"1" * 5000 + b"}",
    b'\xff\xfe{"format": "singlip.curve/1"}'],
    ids=["nested-100000-deep", "integer-of-5000-digits", "not-utf-8"])
def test_malformed_raw_text_exit_2(tmp_path, raw):
    p = tmp_path / "doc.json"
    p.write_bytes(raw)
    code, out, err = run_cli("curve", "contacts", str(p))
    assert code == 2 and out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("input error:")


def test_strict_mode_rejects_unknown_fields(paths, tmp_path):
    doc = json.loads(io.open(paths["cusp-53"]).read())
    doc["extra"] = 1
    p = tmp_path / "extra.json"
    p.write_text(json.dumps(doc))
    code, _, _ = run_cli("curve", "contacts", str(p))
    assert code == 0  # tolerated without --strict
    code, _, err = run_cli("--strict", "curve", "contacts", str(p))
    assert code == 2 and "unknown fields" in err


def test_outputs_deterministic(paths):
    for argv in (["curve", "resolve", paths["carrousel-example"]],
                 ["--format", "json", "graph", "decompose", "--mode", "outer",
                  paths["e8-nash"]],
                 ["--format", "json", "curve", "carrousel",
                  paths["carrousel-example"]]):
        _, first, _ = run_cli(*argv)
        _, second, _ = run_cli(*argv)
        assert first == second


def _plain(doc) -> bool:
    """Whether every container in ``doc`` is a plain dict, list or tuple, or
    a ``jsonio.RankRows`` whose rows are the tuples of its values (a tuple
    too) that its ranks pick.  A record is a tuple too, and would be written
    as a list unchecked; the emitter writes a ``RankRows`` from its values
    and ranks, and any other list subclass as json does."""
    if type(doc) is dict:
        return all(map(_plain, doc.values()))
    if type(doc) is jsonio.RankRows:
        return (type(doc.values) is tuple
                and doc == tuple(tuple(doc.values[r] for r in row) for row in doc.ranks)
                and all(map(_plain, doc)))
    if type(doc) in (list, tuple):
        return all(map(_plain, doc))
    return type(doc) in (str, int, bool, type(None))


def test_no_record_reaches_a_json_document(paths, monkeypatch):
    docs, rate_vectors = [], set()
    dumps, add_vertex = jsonio.dumps, DualGraph.add_vertex
    monkeypatch.setattr(jsonio, "dumps", lambda doc: docs.append(doc) or dumps(doc))

    def spy(self, vid, self_intersection, genus=0, rate=None,
            multiplicities=None, flags=None, rate_vector=None):
        rate_vectors.add(type(rate_vector))
        return add_vertex(self, vid, self_intersection, genus, rate,
                          multiplicities, flags, rate_vector)

    monkeypatch.setattr(DualGraph, "add_vertex", spy)
    curve, graph = paths["carrousel-example"], paths["e8"]
    for argv in (["curve", "contacts", curve], ["curve", "carrousel", curve],
                 ["curve", "carrousel", "--reduce", curve],
                 ["curve", "horns", "--base", "0", curve],
                 ["curve", "resolve", curve], ["curve", "equiv", curve, curve],
                 ["graph", "mult", "--arrow", "x", graph],
                 ["graph", "laufer", paths["cusp-53"]],
                 ["graph", "pencil", "--gen", "x", "--gen", "y", "--resolve", graph],
                 ["graph", "thickthin", graph],
                 *(["graph", "decompose", "--mode", m, graph] for m in MODES),
                 ["graph", "signature", "--metric", "inner", graph],
                 ["graph", "signature", "--metric", "outer", graph, graph],
                 ["fixtures", "dump", "e8"], ["fixtures", "dump", "cusp-53"]):
        assert run_cli("--format", "json", *argv)[0] == 0, argv
    assert len(docs) == 17 and all(map(_plain, docs))
    # a tower vertex gets the tuple blow_up sums, a parsed graph vertex none
    assert rate_vectors == {tuple, type(None)}


def test_dot_outputs_parse(paths):
    for argv in (["--format", "dot", "curve", "resolve", paths["cusp-53"]],
                 ["--format", "dot", "curve", "carrousel",
                  paths["carrousel-example"]],
                 ["--format", "dot", "graph", "laufer", paths["cusp-53"]],
                 ["--format", "dot", "graph", "decompose", "--mode", "inner",
                  paths["e8"]]):
        code, out, _ = run_cli(*argv)
        assert code == 0
        parsed = parse_dot(out)
        assert parsed["nodes"]


# the commands with no DOT form, each with an input that does not exist
_NO_DOT = [["curve", "contacts"], ["curve", "horns", "--base", "0"],
           ["curve", "equiv", "missing.json"], ["graph", "mult", "--arrow", "x"],
           ["graph", "pencil", "--gen", "x"], ["graph", "thickthin"],
           ["graph", "signature", "--metric", "inner"], ["verify"],
           ["fixtures", "dump"]]


def test_no_dot_form_is_refused_before_the_command_runs(paths, monkeypatch):
    calls, real = [], strands.contact_matrix
    monkeypatch.setattr(strands, "contact_matrix",
                        lambda *a: calls.append(a) or real(*a))
    curve = paths["carrousel-example"]
    assert run_cli("--format", "dot", "curve", "contacts", curve) == (
        2, "", "input error: no DOT form for this command\n")
    assert calls == []
    assert run_cli("curve", "contacts", curve)[0] == 0 and len(calls) == 1
    # nor is the input read: the refusal is the same for a missing file
    for argv in _NO_DOT:
        assert run_cli("--format", "dot", *argv, "missing.json") == (
            2, "", "input error: no DOT form for this command\n"), argv
    # verify and fixtures list write only text, fixtures dump only JSON; a
    # refused fixtures call reads no fixture
    monkeypatch.setattr(fixtures, "fixture_names", lambda: calls.append("names"))
    monkeypatch.setattr(fixtures, "load_fixture", lambda name: calls.append(name))
    for fmt, argv in [("dot", ["fixtures", "list"]), ("json", ["fixtures", "list"]),
                      ("dot", ["fixtures", "dump", "e8"]),
                      ("json", ["verify", "missing.json"])]:
        assert run_cli("--format", fmt, *argv) == (
            2, "", f"input error: no {fmt.upper()} form for this command\n"), argv
    assert len(calls) == 1


def test_dot_labels_escape_backslashes(tmp_path):
    # the id a\"b: escaping only the quote would end the label after a\\
    g = DualGraph()
    g.add_vertex('a\\"b', -1, rate=1, flags=["L"])
    p = tmp_path / "graph.json"
    p.write_text(json.dumps(jsonio.graph_to_json(g)))
    code, out, _ = run_cli("--format", "dot", "graph", "decompose", "--mode",
                           "inner", str(p))
    assert code == 0 and parse_dot(out)["nodes"] == {"v0"}
    assert 'label="a\\\\\\"b\\n1"' in out
    # arrow names and function names are user text too
    g.vertices['a\\"b'].multiplicities['g\\"'] = 1
    g.add_arrow('a\\"b', 'f\\"')
    assert len(parse_dot(graph_to_dot(g))["nodes"]) == 2


def test_event_cap_env(paths, monkeypatch):
    monkeypatch.setenv("SINGLIP_EVENT_CAP", "2")
    code, _, err = run_cli("curve", "resolve", paths["cusp-53"])
    assert code == 1 and "cap" in err


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-5"])
def test_malformed_event_cap_env_exit_2(paths, monkeypatch, value):
    monkeypatch.setenv("SINGLIP_EVENT_CAP", value)
    code, out, err = run_cli("curve", "resolve", paths["cusp-53"])
    assert code == 2 and out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("input error:")


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_malformed_event_cap_flag_exit_2(paths, value):
    code, out, err = run_cli("--event-cap", value, "curve", "resolve",
                             paths["cusp-53"])
    assert code == 2 and out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("input error:")
    code, _, _ = run_cli("--event-cap", "64", "curve", "resolve",
                         paths["cusp-53"])
    assert code == 0


_CURVE_COMMANDS = [["curve", "contacts"], ["curve", "carrousel"],
                   ["curve", "horns", "--base", "0"], ["curve", "resolve"],
                   ["graph", "laufer"], ["verify"]]


def test_strand_cap_flag_and_env(paths, monkeypatch):
    example = paths["carrousel-example"]  # 8 strands
    for argv in _CURVE_COMMANDS:
        code, out, err = run_cli("--strand-cap", "7", *argv, example)
        assert (code, out) == (1, ""), argv
        assert err == "error: strand cap 7 exceeded: 8 strands\n", argv
        assert run_cli("--strand-cap", "8", *argv, example)[0] in (0, 1), argv
    code, out, err = run_cli("--strand-cap", "7", "curve", "equiv", example, example)
    assert code == 1 and "strand cap 7" in err
    assert run_cli("--strand-cap", "8", "curve", "contacts", example)[0] == 0
    monkeypatch.setenv("SINGLIP_STRAND_CAP", "7")
    code, _, err = run_cli("curve", "contacts", example)
    assert code == 1 and "strand cap 7" in err
    assert run_cli("--strand-cap", "8", "curve", "contacts", example)[0] == 0


def test_default_strand_cap_refuses_a_million_strands(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"format": "singlip.curve/1", "branches": [
        {"terms": [{"exp": "1000001/1000000", "coeff": 1}]}]}))
    for argv in _CURVE_COMMANDS:
        code, out, err = run_cli(*argv, str(path))
        assert (code, out) == (1, ""), argv
        assert err == "error: strand cap 1024 exceeded: 1000000 strands\n", argv


def _staircase(tmp_path, n) -> str:
    """The curve of the n smooth branches y = x^(j+1), j = 0..n-1, whose
    carrousel tree has its last leaf n - 1 levels below the root."""
    path = tmp_path / f"staircase-{n}.json"
    path.write_text(json.dumps({"format": "singlip.curve/1", "branches": [
        {"terms": [{"exp": j + 1, "coeff": 1}]} for j in range(n)]}))
    return str(path)


_CARROUSEL_COMMANDS = [
    ["curve", "carrousel"], ["curve", "carrousel", "--reduce"],
    ["--format", "json", "curve", "carrousel"],
    ["--format", "json", "curve", "carrousel", "--reduce"],
    ["--format", "dot", "curve", "carrousel"], ["curve", "equiv", None],
    ["verify"]]


def test_carrousel_depth_limit(tmp_path, monkeypatch):
    # every command that walks a carrousel tree works at the depth limit
    # and one level deeper exits 1 with one error line, not a traceback.
    # In-process under pytest the stack starts deeper than in a fresh
    # interpreter.  Each curve's contact matrix is computed once: nothing
    # here reads it but the tree
    matrices, real = {}, strands.contact_matrix

    def contact_matrix_once(curve, cap):
        if tuple(curve) not in matrices:
            matrices[tuple(curve)] = real(curve, cap)
        return matrices[tuple(curve)]

    monkeypatch.setattr(strands, "contact_matrix", contact_matrix_once)
    at, past = _staircase(tmp_path, MAX_DEPTH + 1), _staircase(tmp_path, MAX_DEPTH + 2)
    for argv in _CARROUSEL_COMMANDS:
        code, out, err = run_cli(*[at if a is None else a for a in argv], at)
        assert (code, err) == (0, ""), argv
        if "json" in argv:
            json.loads(out)
        code, out, err = run_cli(*[past if a is None else a for a in argv], past)
        assert (code, out) == (1, ""), argv
        assert err == f"error: carrousel depth limit {MAX_DEPTH} exceeded\n", argv


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-5"])
def test_malformed_strand_cap_exit_2(paths, monkeypatch, value):
    code, out, err = run_cli("--strand-cap", value, "curve", "contacts",
                             paths["carrousel-example"])
    assert code == 2 and out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("input error:")
    monkeypatch.setenv("SINGLIP_STRAND_CAP", value)
    code, out, err = run_cli("curve", "resolve", paths["cusp-53"])
    assert code == 2 and out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("input error:")


def _loaded_modules(*argv) -> set:
    """singlip, networkx and fractions modules loaded by one CLI call in a
    fresh interpreter."""
    out = run_python("-c", "import sys\nfrom singlip.cli import main\n"
                     "main(sys.argv[1:])\nprint(*[m for m in sys.modules if "
                     "m.split('.')[0] in ('singlip', 'networkx', 'fractions')])",
                     *argv)
    return set(out.stdout.splitlines()[-1].split())


# The singlip modules that a text call of each command loads besides
# singlip, errors and cli: its command module (cli_<second word of its
# function's name>), then what it runs.  No curve command loads surfgraph or
# decomp, thickthin, decompose and signature load no surfgraph, and nothing
# loads csquare.  A DOT call adds dot.  Commands run on cusp-53 or e8, and
# verify also on cusp-53 and its tower (VERIFY): a tower's checks, like a
# graph's, are dualgraph's, so it loads no resolver (tower, series,
# strands); a curve's are strands' contact matrix.
LAYERS = {
    "curve contacts": "cli_curve cli_io exactnum jsonio strands",
    "curve carrousel": "carrousel cli_curve cli_io exactnum jsonio strands",
    "curve horns": "cli_curve cli_io exactnum jsonio strands",
    "curve resolve": "cli_curve cli_io dualgraph exactnum jsonio series strands tower",
    "curve equiv": "carrousel cli_curve cli_io exactnum jsonio strands",
    "graph mult": "cli_graph cli_io dualgraph exactnum jsonio surfgraph",
    "graph laufer": ("cli_graph cli_io dualgraph exactnum jsonio series strands "
                     "surfgraph tower"),
    "graph pencil": "cli_graph cli_io dualgraph exactnum jsonio surfgraph",
    "graph thickthin": "cli_decomp cli_io decomp dualgraph exactnum jsonio",
    "graph decompose": "cli_decomp cli_io decomp dualgraph exactnum jsonio",
    "graph signature": "cli_decomp cli_io decomp dualgraph exactnum jsonio",
    "verify": "cli_io cli_verify dualgraph exactnum jsonio",
    "fixtures list": "cli_fixtures fixtures",
    "fixtures dump": "cli_fixtures dualgraph exactnum fixtures jsonio",
}
VERIFY = {"tower": LAYERS["verify"],
          "cusp-53": "carrousel cli_io cli_verify exactnum jsonio strands"}
OPTIONS = {"curve horns": ["--base", "0"], "graph mult": ["--arrow", "x"],
           "graph pencil": ["--gen", "x", "--gen", "y:2"],
           "graph decompose": ["--mode", "inner"], "graph signature": ["--metric", "inner"]}
DOT = {"curve carrousel", "curve resolve", "graph laufer", "graph decompose"}


def test_each_command_loads_only_the_modules_it_runs(paths, tmp_path):
    # networkx alone cost most of the CLI's cold start, and the benchmark's
    # calls compile each module they load, so each command loads only what
    # it runs; listing fixtures loads no layer, and not even fractions
    assert sorted(" ".join(words) for words, _ in cli_commands()) == sorted(LAYERS)
    for words, arguments in cli_commands():
        command = " ".join(words)
        doc = paths["cusp-53" if words[0] == "curve" or command == "graph laufer"
                    else "e8"]
        inputs = [{"name": "e8"}.get(name, doc) for name, kw in arguments
                  if name[0] != "-" and "nargs" not in kw]
        for fmt in ("text", "dot") if command in DOT else ("text",):
            loaded = _loaded_modules("--format", fmt, *words, *OPTIONS.get(command, []),
                                     *inputs)
            want = ["errors", "cli", *LAYERS[command].split()]
            if fmt == "dot":
                want.append("dot")
            assert loaded - {"fractions"} == {"singlip", *(f"singlip.{m}" for m in want)}, (
                command, fmt)
            assert ("fractions" in loaded) == (command != "fixtures list")
    (tmp_path / "tower.json").write_text(jsonio.dumps(_tower_json()))
    paths = {**paths, "tower": str(tmp_path / "tower.json")}
    for doc, layers in VERIFY.items():
        want = ["errors", "cli", *layers.split()]
        assert _loaded_modules("verify", paths[doc]) == {
            "singlip", "fractions", *(f"singlip.{m}" for m in want)}, doc
    # nor may any layer, including those that no command loads, load networkx
    out = run_python("-c", "import importlib, pkgutil, sys, singlip\n"
                     "for m in pkgutil.iter_modules(singlip.__path__):\n"
                     "    importlib.import_module('singlip.' + m.name)\n"
                     "print(*[m for m in sys.modules if m.split('.')[0] in "
                     "('singlip', 'networkx')])")
    every = set(out.stdout.split())
    assert {f"singlip.{m}" for m in ("csquare", "decomp", "dot", "series", "tower")} <= every
    assert "networkx" not in every


def test_declared_denominator_checked(tmp_path):
    doc = {"format": jsonio.CURVE_FORMAT,
           "branches": [{"denominator": 4,
                         "terms": [{"exp": {"num": 3, "den": 2},
                                    "coeff": {"num": 1, "den": 1}}]}]}
    p = tmp_path / "curve.json"
    p.write_text(json.dumps(doc))
    code, _, err = run_cli("curve", "contacts", str(p))
    assert code == 2 and "denominator" in err


def _tower_json():
    events, tree = resolve_curve(curve_cusp_53())
    return jsonio.tower_to_json(tree, events)


def _renamed(graph, rename):
    """The graph document with each vertex id v renamed ``rename(v)``."""
    for v in graph["vertices"]:
        v["id"] = rename(v["id"])
    graph["edges"] = [[rename(a), rename(b)] for a, b in graph["edges"]]
    for a in graph["arrows"]:
        a["vertex"] = rename(a["vertex"])
    return graph


def _int_ids(graph):
    """The graph document with its ids "E1", "E2", ... renamed 1, 2, ..."""
    return _renamed(graph, lambda vid: int(vid[1:]))


def test_graph_with_integer_ids_loads(tmp_path):
    p = tmp_path / "graph.json"
    p.write_text(json.dumps(_int_ids(jsonio.graph_to_json(load_fixture("e8")))))
    code, out, err = run_cli("graph", "thickthin", str(p))
    assert code == 0 and err == ""


@pytest.mark.parametrize("names, chain", [
    ("abcdefgh", "h(-3), v8(-2), v9(-1)"),
    (["v8", *"bcdefgh"], "h(-3), v9(-2), v10(-1)")])
def test_pencil_names_new_curves_after_other_ids(tmp_path, names, chain):
    # ids neither all "E<n>" nor all integers: the new curves are the free
    # ones of v8, v9, ... for the 8 vertices of E8
    graph = _renamed(jsonio.graph_to_json(load_fixture("e8")),
                     lambda vid: names[int(vid[1:]) - 1])
    p = tmp_path / "graph.json"
    p.write_text(json.dumps(graph))
    code, out, _ = run_cli("graph", "pencil", "--gen", "x", "--gen", "y:2",
                           "--resolve", str(p))
    assert code == 0
    assert out.splitlines()[1:] == ["base points on: h", f"chain: {chain}"]


def test_pencil_needs_two_generators(paths):
    code, out, err = run_cli("graph", "pencil", "--gen", "x", paths["e8"])
    assert (code, out, err) == (
        2, "", "input error: graph pencil needs at least two --gen entries\n")


def test_pencil_resolve_needs_exactly_two_generators(paths):
    # the resolution models a pencil of two; without --resolve, three stay
    # allowed
    args = ("graph", "pencil", "--gen", "x", "--gen", "y", "--gen", "z")
    code, out, err = run_cli(*args, "--resolve", paths["e8"])
    assert (code, out, err) == (
        2, "", "input error: graph pencil --resolve needs exactly two --gen "
        "entries\n")
    code, out, _ = run_cli(*args, paths["e8"])
    assert code == 0 and out.splitlines()[1] == "base points on: E5"


def _malformed(shape):
    """Malformed documents that once escaped as tracebacks, or that were
    read with a JSON ``true`` as 1, as (argv, doc)."""
    tower = _tower_json()
    graph = jsonio.graph_to_json(load_fixture("e8"))
    curve = jsonio.curve_to_json(curve_cusp_53())
    # denominators 1 and 2, which true and 2.0 compare equal to
    smooth = jsonio.curve_to_json([PuiseuxBranch.from_terms([(2, 1)]),
                                   PuiseuxBranch.from_terms([("3/2", 1)])])
    if shape == "tower-no-rate-vector":
        del tower["vertices"][-1]["rate_vector"]
    elif shape == "tower-edge-to-missing-vertex":
        tower["edges"].append([0, len(tower["vertices"]) + 5])
    elif shape == "tower-id-not-position":
        tower["vertices"][1]["id"] = 7
    elif shape == "tower-arrow-to-missing-vertex":
        tower["arrows"][0]["vertex"] = 99
    elif shape == "tower-bad-rate-vector":
        tower["vertices"][0]["rate_vector"] = [1, "x"]
    elif shape == "tower-no-rate-vector-multiplicities-list":
        del tower["vertices"][1]["rate_vector"]
        tower["vertices"][1]["multiplicities"] = [1, 2]
    elif shape == "tower-no-vertices":
        tower.update(vertices=[], edges=[], arrows=[])
    elif shape == "graph-vertices-string":
        graph["vertices"] = "E1"
    elif shape == "graph-edges-number":
        graph["edges"] = 5
    elif shape == "graph-arrows-object":
        graph["arrows"] = {"vertex": "E1"}
    elif shape == "graph-vertex-not-object":
        graph["vertices"][0] = ["E1", -2]
    elif shape == "graph-multiplicities-list":
        graph["vertices"][0]["multiplicities"] = [1, 2]
    elif shape == "graph-rate-not-a-number":
        graph["vertices"][0]["rate"] = "x"
    elif shape == "graph-rate-zero-denominator":
        graph["vertices"][0]["rate"] = {"num": 1, "den": 0}
    elif shape == "graph-rate-multiplicities-flags":
        graph["vertices"][0].update(rate="x", multiplicities=[1, 2], flags=3)
    elif shape == "graph-multiplicities-null":
        graph["vertices"][0]["multiplicities"] = None
    elif shape == "graph-flags-string":
        graph["vertices"][0]["flags"] = "L"
    elif shape == "graph-unknown-flags":
        graph["vertices"][0]["flags"] = ["X", "L", "Y"]
    elif shape == "graph-multiplicity-negative":
        graph["vertices"][0]["multiplicities"] = {"h": -1}
    elif shape == "graph-multiplicity-true":
        graph["vertices"][0]["multiplicities"] = {"h": True}
    elif shape == "graph-duplicate-id":
        graph["vertices"][1]["id"] = "E1"
    elif shape == "graph-self-intersection-zero":
        graph["vertices"][0]["self_intersection"] = 0
    elif shape == "graph-genus-negative":
        graph["vertices"][0]["genus"] = -1
    elif shape == "graph-rate-num-only":
        graph["vertices"][0]["rate"] = {"num": 1}
    elif shape == "graph-id-list":
        graph["vertices"][0]["id"] = [1]
    elif shape == "graph-edge-three-ids":
        graph["edges"].append(["E1", "E2", "E3"])
    elif shape == "graph-no-self-intersection-rate-not-a-number":
        del graph["vertices"][0]["self_intersection"]
        graph["vertices"][0]["rate"] = "x"
    elif shape == "graph-edge-true":
        graph = _int_ids(graph)
        graph["edges"].append([True, 2])
    elif shape == "graph-arrow-vertex-true":
        graph = _int_ids(graph)
        graph["arrows"][0]["vertex"] = True
    elif shape == "graph-vertex-id-true":
        graph = _int_ids(graph)
        graph["vertices"][0]["id"] = True
    elif shape == "graph-no-vertices":
        graph.update(vertices=[], edges=[], arrows=[])
    elif shape == "graph-edge-loop":
        graph["edges"].append(["E2", "E2"])
    elif shape == "tower-edge-loop":
        tower["edges"].append([0, 0])
    elif shape == "graph-arrow-name-number":
        graph["arrows"][0]["name"] = 1
    elif shape == "graph-arrow-kind-unknown":
        graph["arrows"][0]["kind"] = "x"
    elif shape == "graph-ids-differ-only-in-type":
        graph["vertices"][0]["id"], graph["vertices"][1]["id"] = 1, "1"
    elif shape in ("decompose-disconnected", "signature-disconnected",
                   "graph-disconnected"):
        graph["edges"].remove(["E1", "E8"])
    elif shape == "signature-h-all-zero":
        for v in graph["vertices"]:
            v["multiplicities"]["h"] = 0
        graph["arrows"] = [a for a in graph["arrows"] if a["name"] != "h"]
    elif shape == "curve-exp-zero-denominator":
        curve["branches"][0]["terms"][0]["exp"] = "1/0"
    elif shape == "curve-coeff-true":
        curve["branches"][0]["terms"][0]["coeff"] = True
    elif shape == "curve-coeff-num-true":
        curve["branches"][0]["terms"][0]["coeff"] = {"num": True, "den": 2}
    elif shape == "curve-branches-empty":
        curve["branches"] = []
    elif shape == "curve-coeff-exponent":
        curve["branches"][0]["terms"][0]["coeff"] = "1e-99999999"
    elif shape == "curve-denominator-true":
        curve = smooth
        curve["branches"][0]["denominator"] = True
    elif shape == "curve-denominator-float":
        curve = smooth
        curve["branches"][1]["denominator"] = 2.0
    if shape.startswith("tower"):
        return ("verify",), tower
    if shape.startswith("graph"):
        return ("graph", "thickthin"), graph
    if shape.startswith("signature"):
        return ("graph", "signature", "--metric", "inner"), graph
    if shape.startswith("decompose"):
        return ("graph", "decompose", "--mode", "outer"), graph
    return ("curve", "contacts"), curve


# the one line each shape prints; where a document has several faults, the
# reader reports the first in the order it reads the fields
MALFORMED = {
    "tower-no-rate-vector": "vertices[3] missing 'rate_vector'",
    "tower-edge-to-missing-vertex": "edge (0,9) references unknown vertex",
    "tower-id-not-position": "tower vertex id 7 is not its position 1",
    "tower-arrow-to-missing-vertex": "arrow references unknown vertex 99",
    "tower-bad-rate-vector":
        "vertex 0: rate_vector must be two integers [p, q] with q > 0",
    "tower-no-rate-vector-multiplicities-list":
        "vertices[1] missing 'rate_vector'",
    "tower-no-vertices": "tower document has no vertices",
    "graph-vertices-string": "field 'vertices' must be a list",
    "graph-edges-number": "field 'edges' must be a list",
    "graph-arrows-object": "field 'arrows' must be a list",
    "graph-vertex-not-object": "vertices[0] must be an object",
    "graph-multiplicities-list": "vertices[0].multiplicities must be an object",
    "graph-rate-not-a-number": "cannot interpret 'x' as a rational number",
    "graph-rate-zero-denominator":
        "cannot interpret {'num': 1, 'den': 0} as a rational number",
    "graph-rate-multiplicities-flags":
        "cannot interpret 'x' as a rational number",
    "graph-multiplicities-null": "vertices[0].multiplicities must be an object",
    "graph-flags-string": "field 'flags' must be a list",
    "graph-unknown-flags": "vertex 'E1': unknown flags ['X', 'Y']",
    "graph-multiplicity-negative":
        "vertex 'E1': multiplicities must be non-negative integers",
    "graph-multiplicity-true":
        "vertex 'E1': multiplicities must be non-negative integers",
    "graph-duplicate-id": "duplicate vertex id 'E1'",
    "graph-self-intersection-zero":
        "vertex 'E1': self_intersection must be a negative integer",
    "graph-genus-negative": "vertex 'E1': genus must be a non-negative integer",
    "graph-rate-num-only": "cannot interpret {'num': 1} as a rational number",
    "graph-id-list": "vertex id [1] is not a string or an integer",
    "graph-edge-three-ids": "edges[7] must be a two-element list",
    # the id and the self-intersection are read before the other fields
    "graph-no-self-intersection-rate-not-a-number":
        "vertices[0] missing 'self_intersection'",
    "graph-edge-true": "edge (True,2) references unknown vertex",
    "graph-arrow-vertex-true": "arrow references unknown vertex True",
    "graph-vertex-id-true": "vertex id True is not a string or an integer",
    "graph-no-vertices": "graph document has no vertices",
    "graph-edge-loop": "edge ('E2','E2') joins a vertex to itself",
    "tower-edge-loop": "edge (0,0) joins a vertex to itself",
    "graph-arrow-name-number": "arrow name 1 is not a string",
    "graph-arrow-kind-unknown": "unknown arrow kind 'x'",
    # outputs name vertices by their text; read before the edges to E1, E2
    "graph-ids-differ-only-in-type": "vertex ids 1 and '1' differ only in type",
    # e8 without its edge E1-E8
    "graph-disconnected": "thick_thin needs a connected graph",
    "decompose-disconnected": "decomposition needs a connected graph",
    "signature-disconnected": "decomposition needs a connected graph",
    # the gcd that scales the inner multiplicities is 0
    "signature-h-all-zero":
        "generic-linear multiplicities are 0 at every node piece",
    "curve-exp-zero-denominator": "cannot interpret '1/0' as a rational number",
    "curve-coeff-true": "cannot interpret True as a rational number",
    "curve-coeff-num-true":
        "cannot interpret {'num': True, 'den': 2} as a rational number",
    "curve-branches-empty": "field 'branches' must be a non-empty list",
    # Fraction would read it, as a power of ten of 10**8 digits
    "curve-coeff-exponent":
        "cannot interpret '1e-99999999' as a rational number",
    "curve-denominator-true":
        "branches[0]: declared denominator True differs from the minimal one 1",
    "curve-denominator-float":
        "branches[1]: declared denominator 2.0 differs from the minimal one 2",
}


@pytest.mark.parametrize("shape", list(MALFORMED))
def test_malformed_document_exit_2(tmp_path, shape):
    argv, doc = _malformed(shape)
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli(*argv, str(p))
    assert (code, out, err) == (2, "", f"input error: {MALFORMED[shape]}\n")


def test_a_long_rejected_value_gives_a_short_line(tmp_path):
    # one digit past the int limit of str(): rejected, and echoed cut
    doc = {"format": "singlip.curve/1",
           "branches": [{"denominator": 1, "terms": [{"exp": 2, "coeff": "1" * 4301}]}]}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli("curve", "contacts", str(p))
    assert (code, out) == (2, "")
    assert err == (f"input error: cannot interpret '{'1' * 39}... (4303 characters) "
                   "as a rational number\n")
    assert len(err.encode()) < 200


def test_verify_rejects_a_tower_with_a_cycle(tmp_path):
    doc = _tower_json()
    doc["edges"].append([0, 1])
    p = tmp_path / "tower.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli("verify", str(p))
    assert code == 1
    assert "not a connected tree" in out.splitlines()


def test_verify_reports_rates_not_increasing_from_the_root(tmp_path):
    doc = _tower_json()
    doc["vertices"][0]["rate_vector"] = [2, 1]  # rate 2 at the root
    p = tmp_path / "tower.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli("verify", str(p))
    assert (code, out.splitlines()) == (1, [
        "rate not increasing from vertex 0 to 2", "root rate differs from 1",
        "failed: 2 problem(s)"])


def test_verify_reports_a_missing_multiplicity(paths, tmp_path):
    tower = _tower_json()
    del tower["vertices"][0]["multiplicities"]["f"]
    graph = json.loads(io.open(paths["e8"]).read())
    del graph["vertices"][0]["multiplicities"]["h"]
    for doc, name in ((tower, "f"), (graph, "h")):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run_cli("verify", str(p))
        assert code == 1
        assert (f"no multiplicity for '{name}' at vertex "
                f"{doc['vertices'][0]['id']}") in out.splitlines()


def test_unknown_field_prints_one_warning(paths, tmp_path):
    doc = json.loads(io.open(paths["cusp-53"]).read())
    doc["branches"][0]["extra"] = 1
    p = tmp_path / "extra.json"
    p.write_text(json.dumps(doc))
    for argv in (("curve", "contacts"), ("verify",)):
        code, _, err = run_cli(*argv, str(p))
        assert code == 0
        assert err.splitlines() == [
            "warning: unknown fields ['extra'] in branches[0]"]
        code, out, err = run_cli("--strict", *argv, str(p))
        assert code == 2 and out == ""
        assert err.splitlines() == [err.strip()]
    graph = json.loads(io.open(paths["e8"]).read())
    graph["arrows"][0]["colour"] = "red"
    p.write_text(json.dumps(graph))
    code, _, err = run_cli("graph", "mult", "--arrow", "h", str(p))
    assert code == 0
    assert err.splitlines() == [
        "warning: unknown fields ['colour'] in arrows[0]"]


def test_unknown_tower_fields_warn_or_fail_under_strict(tmp_path):
    doc = _tower_json()
    doc["extra"] = 1
    doc["vertices"][0]["junk"] = 2
    doc["arrows"][0]["zzz"] = 3
    p = tmp_path / "tower.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", str(p))
    assert code == 0 and out == "ok\n"
    assert err.splitlines() == [
        "warning: unknown fields ['extra'] in tower document",
        "warning: unknown fields ['junk'] in vertices[0]",
        "warning: unknown fields ['zzz'] in arrows[0]"]
    code, out, err = run_cli("--strict", "verify", str(p))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "input error: unknown fields ['extra'] in tower document"]


def test_round_tripped_documents_give_no_warning(paths, tmp_path):
    tower = tmp_path / "tower.json"
    tower.write_text(jsonio.dumps(_tower_json()))
    for name, path in [*paths.items(), ("tower", str(tower))]:
        code, _, err = run_cli("verify", path)
        assert code == 0 and err == "", name
    for name in ("carrousel-example", "cusp-53"):
        code, _, err = run_cli("curve", "contacts", paths[name])
        assert code == 0 and err == "", name
    code, _, err = run_cli("graph", "mult", "--arrow", "h", paths["e8"])
    assert code == 0 and err == ""
