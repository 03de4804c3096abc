"""What the package keeps between calls: nothing.

A request owns its state: a cache lives in the call that fills it, so a
request does the same work however many ran before it, and leaves nothing
behind.  Trees compare by shape, so no intern pool is needed, and the
Stirling numbers are read from rows each call builds.  The source tests
read the modules with `ast`, so a new cache fails them whether or not a
test happens to call it; the last test counts the trees a run leaves
alive.
"""

import ast
import json
import os
import subprocess
import sys
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


def test_the_package_has_no_functools_cache():
    found = sorted((name, owner) for name, tree in modules()
                   for owner, _ in functools_caches(tree))
    assert found == []


def is_empty_store(value):
    """An empty dict, list or set, as a literal or a bare constructor."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
            and not value.args and not value.keywords)


def test_the_package_has_no_empty_module_store():
    """A module-level name bound to an empty store outlives every call."""
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
    assert found == []


LIVE_TREES = """
import gc, io, json
from contextlib import redirect_stdout
from fkforest.cli import main
from fkforest.colored_forest import WHITE, ColoredTree
for argv in (["count", "--q-seq", "1,2,2"],
             ["enumerate", "--n", "2", "--q", "3"]):
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
gc.collect()
live = [o for o in gc.get_objects() if isinstance(o, ColoredTree)]
print(json.dumps([len(live), all(o is WHITE for o in live)]))
"""


def test_requests_leave_no_tree_alive_but_the_white_leaf():
    """Two enumerating requests in one fresh process: afterwards the only
    live tree is the module constant WHITE."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", LIVE_TREES], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [1, True]
