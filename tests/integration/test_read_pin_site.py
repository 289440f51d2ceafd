"""A read pins a version in exactly one place.

Every read of the live tree is a short-lived ``ReadView`` opened by
``LSMTree._read_view``: the memtable first, then the pin.  Spelled out in
several methods, that order drifted — a snapshot once pinned before it
froze the memtable and lost the records a flush moved in between — so no
other function in ``src/repro`` may call ``versions.pin()``
(``lsm/version.py`` defines it).  ``SnapshotView`` opens its pin through
the same method.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _is_versions_pin(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pin"):
        return False
    owner = node.func.value
    return ((isinstance(owner, ast.Name) and owner.id == "versions")
            or (isinstance(owner, ast.Attribute)
                and owner.attr == "versions"))


class _PinSites(ast.NodeVisitor):
    """The innermost enclosing function (None at module or class level)
    of every ``versions.pin()`` call."""

    def __init__(self) -> None:
        self.stack = [None]
        self.sites = []

    def visit_FunctionDef(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node) -> None:
        if _is_versions_pin(node):
            self.sites.append(self.stack[-1])
        self.generic_visit(node)


def test_one_function_pins_a_version_for_reads():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "lsm/version.py":
            continue
        visitor = _PinSites()
        visitor.visit(ast.parse(path.read_text()))
        found.extend((relative, name) for name in visitor.sites)
    assert found == [("lsm/db.py", "_read_view")]


def test_snapshots_open_their_pin_through_the_live_view():
    tree = ast.parse((SRC / "lsm" / "snapshot.py").read_text())
    opened = [node for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and node.attr == "_read_view"]
    assert opened, "SnapshotView must pin through LSMTree._read_view"
