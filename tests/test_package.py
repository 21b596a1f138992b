"""The package namespace: every public name resolves on first use, a bare
``import singlip`` loads no submodule, and a CLI call loads neither
``dataclasses`` nor ``copy``; the records are NamedTuples or slotted
classes."""

from importlib import import_module

import pytest

import singlip
from helpers import run_python
from singlip import (build_carrousel_tree, build_decomposition, contact_matrix,
                     horn_jump_profile, inner_signature, jsonio,
                     resolve_curve, resolve_pencil, solve_multiplicities,
                     strands_of, thick_thin, verify_tower)
from singlip.fixtures import curve_cusp_53, load_fixture
from singlip.series import RatSeries


def test_every_public_name_is_its_modules_object():
    assert len(singlip.__all__) == len(set(singlip.__all__)) == 43
    for name in singlip.__all__:
        home = import_module(f"singlip.{singlip._HOME[name]}")
        assert getattr(singlip, name) is getattr(home, name), name
    assert singlip.jsonio is import_module("singlip.jsonio")
    assert {*singlip.__all__, "jsonio", "dot"} <= set(dir(singlip))
    # the module hook itself, which an attribute set by an earlier import
    # of the submodule bypasses
    for name in singlip._SUBMODULES:
        assert singlip.__getattr__(name) is import_module(f"singlip.{name}"), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        singlip.no_such_name
    assert not hasattr(singlip, "Resolution")


def test_bare_import_loads_no_submodule():
    out = run_python("-c", "import sys, singlip\n"
                     "print(*[m for m in sys.modules if m.startswith('singlip.')])\n"
                     "print(singlip.jsonio.dumps({'a': [1]}), end='')")
    assert out.stdout == '\n{\n  "a": [\n    1\n  ]\n}\n'


def test_run_as_module_prints_no_warning():
    # the package must never import singlip.cli, or runpy warns on stderr
    proc = run_python("-W", "error", "-m", "singlip.cli", "fixtures", "list")
    assert "e8 (graph)" in proc.stdout and proc.stderr == ""


def test_cli_calls_load_neither_dataclasses_nor_copy(tmp_path):
    # `import dataclasses` pulls in inspect, ast, dis and tokenize, which
    # every call would pay for at start-up; argparse (with gettext and
    # locale) loads only for help and usage errors
    curve, graph = tmp_path / "curve.json", tmp_path / "graph.json"
    curve.write_text(jsonio.dumps(jsonio.curve_to_json(curve_cusp_53())))
    graph.write_text(jsonio.dumps(jsonio.graph_to_json(load_fixture("e8"))))
    out = run_python("-c", "import io, sys\nfrom contextlib import redirect_stdout\n"
                     "from singlip.cli import main\n"
                     "with redirect_stdout(io.StringIO()):\n"
                     "    codes = [main(['curve', 'resolve', sys.argv[1]]),\n"
                     "             main(['graph', 'decompose', '--mode', 'outer',\n"
                     "                   sys.argv[2]]),\n"
                     "             main(['fixtures', 'dump', 'e8'])]\n"
                     "print(codes, [m for m in ('dataclasses', 'copy', 'argparse',\n"
                     "                          'gettext', 'locale') if m in sys.modules])",
                     str(curve), str(graph))
    assert out.stdout == "[0, 0, 0] []\n"


def test_frozen_records_refuse_assignment():
    curve = curve_cusp_53()
    matrix = contact_matrix(curve)
    events, tree = resolve_curve(curve)
    graph = load_fixture("e8")
    x = solve_multiplicities(graph, "x")
    _, steps = resolve_pencil(graph, x, solve_multiplicities(graph, "y"), "E8")
    records = [curve[0], strands_of(curve)[0], matrix, horn_jump_profile(matrix, 0),
               RatSeries.make({1: 1}, 4), build_carrousel_tree(matrix),
               build_carrousel_tree(matrix).root, tree.arrows[0], x, steps[0],
               events[0], verify_tower(tree), thick_thin(graph),
               build_decomposition(graph, "outer").pieces[0], inner_signature(graph)]
    assert len({type(r) for r in records}) == 15
    for r in records:
        first = type(r)._fields[0]
        with pytest.raises(AttributeError):
            setattr(r, first, None)
        with pytest.raises(AttributeError):
            r.extra = None
