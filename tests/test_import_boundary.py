"""What a cold start loads: the request routes, and the cross-check routes
only on first use.

`import fkforest.cli` loads the modules that `count`, `expand` and
`oracle` run (`REQUEST_MODULES`: `cli`, `combinatorics`, `config`,
`errors`, `expansion`, `fk_core`, `genfunc`, `jsontext`, `models` and
`particle`), and a request of each kind loads no further module.  No
request module imports the tree types of `colored_forest`, and no module
but `cli` imports `cli`, so `python -m fkforest.cli verify` runs one
copy of it.  The `verify` checks, Monte Carlo, the block law and Wick
pairing, the class listing with its trees and the truncated series each
load with the first command that runs them.  Each probe runs in a fresh
interpreter; the request probe runs without `site` (-S), whose startup
hooks may import `random` themselves.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import fkforest
from fkforest import random_rational_model

REQUEST_MODULES = sorted("fkforest." + m for m in (
    "cli", "combinatorics", "config", "errors", "expansion", "fk_core",
    "genfunc", "jsontext", "models", "particle"))
DEFERRED = {"fkforest.classsum", "fkforest.colored_forest",
            "fkforest.fluctuation", "fkforest.montecarlo",
            "fkforest.selfcheck", "fkforest.series"}
SRC = os.path.dirname(fkforest.__file__)

# prints, as JSON, the modules each step adds to sys.modules: importing
# the package, importing the CLI, then one main(argv) per argv given
PROBE = """
import json, sys
seen = set(sys.modules)
def step(result):
    global seen
    now = set(sys.modules)
    steps.append([result, sorted(now - seen)])
    seen = now
steps = []
import fkforest
step(None)
import fkforest.cli
step(None)
for argv in json.loads(sys.argv[1]):
    step(fkforest.cli.main(argv))
print(json.dumps(steps))
"""


def run_python(*argv):
    done = subprocess.run([sys.executable, *argv],
                          env=dict(os.environ,
                                   PYTHONPATH=os.path.dirname(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def probe(argvs, *flags):
    return run_python(*flags, "-c", PROBE, json.dumps(argvs))


def package_imports(module):
    """The names fkforest.X that the source of module imports, at the top
    or inside a function: `from .X import y` and `from . import X` alike
    count as importing fkforest.X."""
    path = os.path.join(SRC, module.rpartition(".")[2] + ".py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "fkforest." + base if base else "fkforest"
            found.add(base)
            found.update(base + "." + a.name for a in node.names)
    return found


def all_modules():
    return sorted("fkforest." + name[:-3] for name in os.listdir(SRC)
                  if name.endswith(".py") and name != "__init__.py")


def write(path, text):
    path.write_text(text)
    return str(path)


def test_a_request_loads_only_the_request_routes(tmp_path):
    model = write(tmp_path / "model.json", random_rational_model(
        7, sizes=[3, 3, 3]).to_json())
    function = write(tmp_path / "f.json", json.dumps(
        {"levels": [2, 2], "values": ["%d/7" % (v - 4) for v in range(9)]}))
    out = ["--out", str(tmp_path / "out.json")]
    package, cli, *requests = probe([
        ["count", "--n", "3", "--q", "3"] + out,
        ["expand", "--model", model, "--n", "2", "--q", "3",
         "--evaluate", "5"] + out,
        ["expand", "--model", model, "--q-seq", "2,1,1",
         "--evaluate", "5"] + out,
        ["oracle", "--model", model, "--N", "4", "--n", "2", "--q", "2",
         "--function", function] + out,
    ], "-S")
    assert package == [None, ["fkforest"]]
    loaded = set(cli[1])
    assert sorted(m for m in loaded if m.startswith("fkforest")) == \
        REQUEST_MODULES
    assert not loaded & ({"csv", "textwrap", "random", "numpy"} | DEFERRED)
    assert requests == [[0, []]] * 4


def test_no_module_but_the_cli_imports_the_cli():
    assert [m for m in all_modules() if m != "fkforest.cli"
            and "fkforest.cli" in package_imports(m)] == []


def test_no_request_module_imports_the_tree_types():
    assert [m for m in REQUEST_MODULES
            if "fkforest.colored_forest" in package_imports(m)] == []


def test_verify_as_a_script_runs_one_copy_of_the_cli(tmp_path):
    """Run as __main__, as by `python -m fkforest.cli`, the CLI answers
    `verify` without importing itself again under its module name."""
    out = tmp_path / "out.json"
    rc, again = run_python("-c", (
        "import json, runpy, sys\n"
        "sys.argv[1:] = ['verify', '--only', 'stirling', '--out', %r]\n"
        "try:\n"
        "    runpy.run_module('fkforest.cli', run_name='__main__',\n"
        "                     alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(json.dumps([exc.code, 'fkforest.cli' in sys.modules]))\n"
        % str(out)))
    assert rc == 0 and not again
    assert json.loads(out.read_text())["result"]["passed"] == 1


@pytest.mark.parametrize("argv, home", [
    (["verify", "--only", "stirling"], "fkforest.selfcheck"),
    (["simulate", "--model", "drift2", "--N", "3"], "fkforest.montecarlo"),
    (["enumerate", "--n", "1", "--q", "2"], "fkforest.classsum"),
    (["hilbert", "--n", "1", "--truncation", "2"], "fkforest.series"),
    (["expand", "--model", "drift2", "--n", "1", "--q", "2", "--block"],
     "fkforest.fluctuation"),
    (["expand", "--model", "drift2", "--n", "1", "--q", "2", "--wick",
      "--center"], "fkforest.fluctuation"),
])
def test_a_cross_check_command_loads_its_module(tmp_path, argv, home):
    function = write(tmp_path / "f.json", json.dumps(
        {"levels": [1, 1], "values": ["1", "2", "3", "-1/2"]}))
    if argv[0] == "expand":
        argv = argv + ["--function", function]
    out = tmp_path / "out.json"
    _, cli, (rc, loaded) = probe([argv + ["--out", str(out)]])
    assert not set(cli[1]) & DEFERRED
    assert rc == 0 and home in loaded
    assert json.loads(out.read_text())["manifest"]["command"] == argv[0]


# names that left the module named first for the one named second: the
# cross-check routes for the modules that load on first use, and the
# block profiles for genfunc
MOVED = {
    ("cli", "selfcheck"): "_CHECKS _observable",
    ("particle", "montecarlo"): "simulate trajectory_config estimators "
    "mc_gamma_mean tensor_moment dot_moment",
    ("expansion", "fluctuation"): "pair_partitions gaussian_covariance "
    "gaussian_product_moment gbar_vector centered_moment_expansion "
    "derivative_P first_order_P expansion_report_P path_wick_Q "
    "path_derivative_Q _block_law_orders",
    ("expansion", "classsum"): "closed_form_low_orders",
    ("fk_core", "classsum"): "delta_colored",
    ("colored_forest", "classsum"): "enumerate_colored_forests "
    "enumerate_colored_orbits count_colored_jungles "
    "brute_force_colored_orbit_count colored_planar_mapseq "
    "colored_forest_of wick_colored_tree build_wick_forest "
    "first_order_path_forest pair_merge_forest _colored_classes",
    ("genfunc", "series"): "SparseSeries hilbert_series coalescence_series "
    "marginalize_coalescence _multiply_geometric",
    ("colored_forest", "genfunc"): "normalize_path_profile path_profile_bar "
    "flat_blocks check_class_count",
}


def test_the_package_serves_every_public_name_from_its_home():
    """Each name of fkforest.__all__ reads as the object its defining
    module holds, through getattr, a star import and dir alike."""
    star = {}
    exec("from fkforest import *", star)
    assert set(fkforest.__all__) <= set(dir(fkforest))
    for name in fkforest.__all__:
        value = getattr(fkforest, name)
        home = importlib.import_module("fkforest." + fkforest._HOMES[name])
        assert value is vars(home)[name] is star[name]
        assert getattr(value, "__module__", home.__name__) == home.__name__
    with pytest.raises(AttributeError):
        fkforest.no_such_name


def test_a_moved_name_lives_in_its_new_home_only():
    for (old, new), names in MOVED.items():
        was = vars(importlib.import_module("fkforest." + old))
        now = vars(importlib.import_module("fkforest." + new))
        for name in names.split():
            assert name in now and name not in was, (old, new, name)
    # the CLI still calls the census it handed to genfunc, by import
    from fkforest import cli
    assert cli._degree_census.__module__ == "fkforest.genfunc"
