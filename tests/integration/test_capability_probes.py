"""Layers call each other directly: no new ``getattr``/``hasattr``/``vars``.

A capability probe picks between a path production takes and a fallback
only a test double reaches, and five seam bugs in five PRs hid behind
one.  Every surviving call is listed here with its reason; a new one is
a reviewed edit to this list, not a surprise.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: (file under src/repro, attribute probed) -> why it stays.
ALLOWED = {
    ("core/template.py", "prefix_len"):
        "strategies share no base class; only the PBF strategy attacks "
        "a prefix shorter than its key width",
}


def _probed_attribute(call: ast.Call) -> str:
    if call.func.id == "vars" or len(call.args) < 2:
        return "<vars>"
    name = call.args[1]
    if isinstance(name, ast.Constant):
        return name.value
    return f"<{ast.unparse(name)}>"


def test_capability_probes_match_the_allowlist():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr", "vars")):
                found.add((path.relative_to(SRC).as_posix(),
                           _probed_attribute(node)))
    assert found == set(ALLOWED)
