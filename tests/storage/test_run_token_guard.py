"""Every page-cache mutation ends the run token, through one helper.

``PageCache.run_token`` promises its holder that nothing has touched the
cache since the decoded hit that handed it out, so the point kernel may
repeat that hit's charges without the cache (``read_path.read_points``).
A method that moves or drops an entry without clearing the token would
let the kernel serve a block the cache no longer holds, or leave the
LRU in an order the scalar read would not.  So, read off the source:
every ``PageCache`` method that touches the page LRU, the decoded LRU or
the front run calls ``self._set_run``; the pure probes that only read
them are named here; and no method but ``_set_run`` writes the token.
"""

import ast
import pathlib

SRC = (pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
       / "storage" / "page_cache.py")

#: What the token guards: the structures whose order a hit leaves.
GUARDED = {"_pages", "_decoded", "_front"}
#: Methods that read a guarded structure without changing it.
PURE_PROBES = {"contains", "contains_decoded", "decoded_entries",
               "__len__"}


def _methods():
    tree = ast.parse(SRC.read_text())
    cache = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef)
                 and node.name == "PageCache")
    return {node.name: node for node in cache.body
            if isinstance(node, ast.FunctionDef)}


def _self_attributes(method):
    return [node for node in ast.walk(method)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"]


def _calls_set_run(method) -> bool:
    return any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "_set_run"
               for node in ast.walk(method))


def test_every_mutator_ends_the_run():
    methods = _methods()
    touching = {name for name, method in methods.items()
                if GUARDED & {node.attr for node in _self_attributes(method)}}
    assert PURE_PROBES <= touching
    assert touching - PURE_PROBES, "the guard found no mutator at all"
    missing = sorted(name for name in touching - PURE_PROBES
                     if not _calls_set_run(methods[name]))
    assert missing == []


def test_pure_probes_only_read():
    """A pure probe stores nothing and calls no method of a guarded
    structure (membership tests and ``len`` only)."""
    methods = _methods()
    for name in PURE_PROBES:
        for node in ast.walk(methods[name]):
            assert not isinstance(node, (ast.Assign, ast.AugAssign,
                                         ast.AnnAssign, ast.Delete)), name
            if isinstance(node, ast.Call) and isinstance(node.func,
                                                         ast.Attribute):
                owner = node.func.value
                assert not (isinstance(owner, ast.Attribute)
                            and owner.attr in GUARDED), name


def test_only_the_helper_writes_the_token():
    writers = []
    for name, method in _methods().items():
        for node in ast.walk(method):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target]
                       if isinstance(node, ast.AugAssign)
                       or (isinstance(node, ast.AnnAssign)
                           and node.value is not None)
                       else [])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "run_token"):
                    writers.append(name)
    assert writers == ["_set_run"]
