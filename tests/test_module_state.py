"""What the package keeps between calls.

A request owns its state: a cache lives in the call that fills it, so a
request does the same work however many ran before it.  Two kinds of
module state stay on purpose.  The Stirling tables (`lru_cache` on
`combinatorics.stirling_first` and `stirling_second`) are bounded by
`STIRLING_CAP`.  The tree intern pool `colored_forest._CPOOL` makes `is`
mean "same shape", which the automorphism counts and every dict keyed on
a tree rely on.  These tests read the source with `ast`, so a new cache
fails them whether or not a test happens to call it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fkforest"
CACHES = {"lru_cache", "cache", "cached_property"}


def modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths, "no sources under %s" % SRC
    return [(p.name, ast.parse(p.read_text(), str(p))) for p in paths]


def functools_caches(tree):
    """(decorated name or None, line) for every use of a functools cache:
    a name imported from functools, or an attribute of the module."""
    local = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for a in node.names if a.name in CACHES}
    owners = {id(sub): node.name for node in ast.walk(tree)
              for dec in getattr(node, "decorator_list", ())
              for sub in ast.walk(dec)}
    return [(owners.get(id(node)), node.lineno) for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in local)
            or (isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools")]


def test_only_the_stirling_tables_are_functools_caches():
    found = sorted((name, owner) for name, tree in modules()
                   for owner, _ in functools_caches(tree))
    assert found == [("combinatorics.py", "stirling_first"),
                     ("combinatorics.py", "stirling_second")]


def is_empty_store(value):
    """An empty dict, list or set, as a literal or a bare constructor."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
            and not value.args and not value.keywords)


def test_the_intern_pool_is_the_only_empty_module_store():
    """A module-level name bound to an empty store outlives every call;
    only the intern pool may be one."""
    found = []
    for name, tree in modules():
        for node in tree.body:
            if isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            else:
                continue
            if is_empty_store(value):
                found += [(name, t.id) for t in targets
                          if isinstance(t, ast.Name)]
    assert found == [("colored_forest.py", "_CPOOL")]
