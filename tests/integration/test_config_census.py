"""Constants, not knobs: every config field is set by some call site.

An option that nothing sets still multiplies the configurations the
bit-identity suites have to cross.  For every config dataclass in
``src/repro`` (``*Options``, ``*Config``, ``*Policy``, ``*Model``,
``*Plan``), each field must be passed at a constructor call site
somewhere in ``src/``, ``benchmarks/``, ``examples/`` or ``tests/``, or
sit on the allowlist below with its reason; a field nobody sets becomes
a module constant instead (DESIGN.md, "Adding an option").
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
CALLER_TREES = ("src", "benchmarks", "examples", "tests")
SUFFIXES = ("Options", "Config", "Policy", "Model", "Plan")

#: (class, field) -> why a field no call site passes stays a field.
ALLOWED = {
    ("DeviceModel", "per_block_transfer_us"):
        "the device's latency model is set as a whole (the "
        "ablation-margin experiment sets read_latency_mu); splitting it "
        "into two fields and a constant would hide half the formula",
    ("DeviceModel", "write_latency_us"):
        "as per_block_transfer_us: one latency model, kept whole",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def _config_classes():
    """class name -> its field names in declaration order."""
    classes = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    and node.name.endswith(SUFFIXES)):
                classes[node.name] = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)]
    return classes


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _fields_set(classes):
    """Every (class, field) some call site passes, by keyword or position.

    ``dataclasses.replace(x, field=...)`` and ``Class(**dict(field=...))``
    cannot be attributed to a class syntactically, so their keywords
    count for every class that has a field of that name.
    """
    found = set()
    by_field = {}
    for name, fields in classes.items():
        for field in fields:
            by_field.setdefault(field, []).append(name)

    def any_class(field):
        found.update((name, field) for name in by_field.get(field, ()))

    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = _called_name(node)
                if name in classes:
                    fields = classes[name]
                    found.update((name, field)
                                 for field in fields[:len(node.args)])
                    found.update((name, kw.arg) for kw in node.keywords
                                 if kw.arg is not None)
                elif name in ("replace", "dict"):
                    for kw in node.keywords:
                        if kw.arg is not None:
                            any_class(kw.arg)
    return found


def test_every_config_field_has_a_call_site_that_sets_it():
    classes = _config_classes()
    declared = {(name, field)
                for name, fields in classes.items() for field in fields}
    never_set = declared - _fields_set(classes)
    assert never_set == set(ALLOWED)
