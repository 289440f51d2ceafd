"""Probe plans stay inside ``repro.lsm``.

A ``ProbePlan`` is a pinned version under another name: handed to a
getter it answered a snapshot read with writes made after the snapshot,
and a getter that outlived the plan's ``release`` read retired tables.
The batch reads make and release their plan inside
``repro.lsm.read_path``; no layer above may name the class, call
``probe_plan`` or define one.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _plan_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name == "ProbePlan":
            yield node.name
        elif isinstance(node, ast.Name) and node.id in ("ProbePlan",
                                                        "probe_plan"):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and node.attr in ("ProbePlan", "probe_plan")):
            yield node.attr
        elif (isinstance(node, ast.FunctionDef)
              and node.name == "probe_plan"):
            yield f"def {node.name}"


def test_nothing_above_lsm_touches_a_probe_plan():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith("lsm/"):
            continue
        for use in _plan_uses(ast.parse(path.read_text())):
            found.append((relative, use))
    assert found == []
