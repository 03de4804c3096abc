"""Every public function, class and method has a caller in the package.

A public top-level `def` or `class` in `src/fkforest`, and a public
method of such a class, must be referenced somewhere in the package
outside `__init__.py`: by a command, a check or another engine.  A method
counts as referenced when any attribute of that name is read, so the
check is a floor, not a proof of use.  A name that only tests call moves
into the tests, unless the tests use it as a reference to compare the
engines against, or it reads a result the package returns; those are
listed in KEPT.  The test reads the source with `ast`, so it needs no
import of the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fkforest"

# called only by tests, kept as references the engines are compared with
KEPT = {
    "exact_QN_dot_oracle",
    "exact_config_distribution",
    "mc_gamma_mean",
    "partition_sums",
    "colored_forest_of",
    "gaussian_product_moment",
    "path_derivative_Q",
    "random_rational_model",
    "set_partitions",
    # the read accessor of the series that hilbert_series returns
    "SparseSeries.coefficient",
}


def public_defs_and_references():
    defs, refs = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        defs["%s.%s" % (node.name, item.name)] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return defs, refs


def test_every_public_name_has_a_caller_in_the_package():
    defs, refs = public_defs_and_references()
    assert defs, "no public definitions under %s" % SRC
    # a method is looked up by its own name, as an attribute
    unused = sorted("%s:%s" % (defs[name], name) for name in defs
                    if name.rpartition(".")[2] not in refs
                    and name not in KEPT)
    assert unused == []


def test_every_kept_name_still_exists():
    defs, _ = public_defs_and_references()
    assert sorted(KEPT - set(defs)) == []
