"""Every name a module imports is used in the scope that imports it.

Covers the library modules (not the package ``__init__``, whose names are
its exports) and the test modules.  A module-level import, under ``if
TYPE_CHECKING:`` too, must be used somewhere in the module; an import inside
a function must be used in that function.  A name counts as used when it
appears as an identifier, annotations included."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "singlip").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_imports(scope) -> list[str]:
    """Names bound by the imports of a scope, outside its nested functions."""
    names = []
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
        elif not isinstance(node, FUNCTIONS):
            names += _scope_imports(node)
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    unused = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]:
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        unused += [name for name in _scope_imports(scope) if name not in used]
    return unused


def test_guard_flags_an_unused_import():
    assert unused_imports("import os\nimport re\nfrom a import b, c\nc()\n"
                          "re.compile('x')\n") == ["os", "b"]
    # a function's import counts only where that function uses it
    assert unused_imports("def f():\n    import json\n    if x:\n"
                          "        from a import b\n    return b\n"
                          "def g():\n    return json.dumps(1)\n") == ["json"]
    assert unused_imports("if TYPE_CHECKING:\n    from a import B, C\n"
                          "def f(x: B): pass\n") == ["C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []
