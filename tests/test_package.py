"""The package namespace: every public name resolves on first use, and a
bare ``import singlip`` loads no submodule."""

from importlib import import_module

import pytest

import singlip
from helpers import run_python


def test_every_public_name_is_its_modules_object():
    assert len(singlip.__all__) == len(set(singlip.__all__)) == 43
    for name in singlip.__all__:
        home = import_module(f"singlip.{singlip._HOME[name]}")
        assert getattr(singlip, name) is getattr(home, name), name
    assert singlip.jsonio is import_module("singlip.jsonio")
    assert {*singlip.__all__, "jsonio", "dot"} <= set(dir(singlip))


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
