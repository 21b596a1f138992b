"""Every function the library defines is named somewhere outside itself,
and outside the tests too.

A ``def`` in ``src/singlip`` counts as used when its name is read, as an
identifier or as an attribute, in ``src/``, ``tests/`` or ``perfbench/``
outside its own body; a recursive call alone does not count.  Dunder
methods, which Python calls by protocol, are exempt.  The second guard
reads only ``src/`` and ``perfbench/``: a def that only tests name belongs
in ``tests/helpers.py``.

Likewise every field of a record in ``src/singlip`` (a dataclass, a
NamedTuple or a class with ``__slots__``) is read as an attribute somewhere
in ``src/``, ``tests/`` or ``perfbench/``.  A field that nothing reads is
state the library keeps up for no one."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "singlip").glob("*.py"))
SOURCES = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
ALLOWED: set = set()
# defs that tests alone name, each waiting for the library code that uses it
TEST_ONLY = {
    # ROADMAP item 10: each thin zone of `graph thickthin` gets its rate
    "decomp.thin_zone_rate",
    # ROADMAP item 4: the double cover blows down rational -1 curves
    "surfgraph.blowdownable_vertices",
}


def _reads(tree) -> Counter:
    """How often each name is read as an identifier or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def unnamed_defs(library: dict, sources: list) -> list[str]:
    """``module.name`` of each def in the library sources (module name to
    text) whose name no source text reads outside the def's own body."""
    reads = sum((_reads(ast.parse(s)) for s in sources), Counter())
    out = []
    for module, source in library.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, FUNCTIONS) and not node.name.startswith("__")
                    and reads[node.name] == _reads(node)[node.name]):
                out.append(f"{module}.{node.name}")
    return out


def _is_record(node: ast.ClassDef) -> bool:
    """Whether the class is a dataclass or a NamedTuple."""
    marks = [d.func if isinstance(d, ast.Call) else d
             for d in node.decorator_list] + node.bases
    return any(getattr(m, "id", getattr(m, "attr", None))
               in ("dataclass", "NamedTuple") for m in marks)


def _slots(node: ast.ClassDef) -> list[str]:
    """The names the class body's ``__slots__`` tuple lists."""
    for stmt in node.body:
        if (isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)):
            return list(ast.literal_eval(stmt.value))
    return []


def record_fields(node: ast.ClassDef) -> list[str]:
    """The fields of a record class: the annotated names of a dataclass or
    a NamedTuple, and the ``__slots__`` of any class.  A subclass that
    validates a NamedTuple declares ``__slots__ = ()``; its fields are
    its base's."""
    out = _slots(node)
    if _is_record(node):
        out += [stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)]
    return out


def unread_fields(library: dict, sources: list) -> list[str]:
    """``module.Class.field`` of each record field (``record_fields``) in the
    library sources (module name to text) that no source text reads as an
    attribute."""
    reads = {n.attr for s in sources for n in ast.walk(ast.parse(s))
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = []
    for module, source in library.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                out += [f"{module}.{node.name}.{name}"
                        for name in record_fields(node) if name not in reads]
    return out


def test_guard_flags_an_unnamed_def():
    lib = ("def used(): pass\n"
           "def rec(n): return rec(n - 1)\n"
           "def outer():\n    def inner(): pass\n    return inner\n"
           "class C:\n    def __len__(self): return 0\n"
           "    def method(self): pass\n    def other(self): pass\n")
    user = "used()\nouter()\nx.method\nother = 1\n"
    assert unnamed_defs({"m": lib}, [lib, user]) == ["m.rec", "m.other"]


def test_guard_flags_an_unread_field():
    lib = ("@dataclass(frozen=True)\nclass D:\n    read: int\n    unread: int\n"
           "    def get(self): return self.read\n"
           "class T(typing.NamedTuple):\n    used: int\n    idle: int\n"
           "class Checked(T):\n    __slots__ = ()\n"
           "class S:\n    __slots__ = ('seen', 'unseen')\n"
           "    def __init__(self): self.seen = self.unseen = 0\n"
           "class Plain:\n    ignored: int\n")
    user = "t.used\nidle = 1\nx.idle = 2\nunread(x)\ns.seen\n"
    assert unread_fields({"m": lib}, [lib, user]) == [
        "m.D.unread", "m.T.idle", "m.S.unseen"]


def test_every_library_def_is_named():
    library = {p.stem: p.read_text() for p in LIBRARY}
    sources = [p.read_text() for p in SOURCES]
    # an allowed def that comes to be named leaves the list too
    assert sorted(set(unnamed_defs(library, sources)) ^ ALLOWED) == []


def test_every_library_def_is_named_outside_the_tests():
    library = {p.stem: p.read_text() for p in LIBRARY}
    sources = [p.read_text() for p in SOURCES
               if p.relative_to(ROOT).parts[0] != "tests"]
    assert sorted(set(unnamed_defs(library, sources)) ^ TEST_ONLY) == []


def test_every_record_field_is_read():
    library = {p.stem: p.read_text() for p in LIBRARY}
    assert unread_fields(library, [p.read_text() for p in SOURCES]) == []
