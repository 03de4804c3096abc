"""Pinned SHA-256 digests of rational `expand` outputs and of the
class lists and censuses of `count` and `enumerate`, of rational
`oracle` outputs, and of a few float-mode `expand` outputs and one
output each of `simulate`, `hilbert` and `verify`.

Rational results are exact, so a kernel change that keeps them right
keeps them byte-identical.  Each case runs one request and compares the
digest of its output file, with the toolkit version string blanked,
against a recorded digest: the `expand` ones from before the integer
kernel replaced the Fraction tables, the `count`/`enumerate` ones from
before the pruned census knapsack and the per-tree automorphism counts,
the `oracle` ones from before the forward pass moved onto integer
transition rows, the `simulate`, `hilbert` and `verify` ones from
before the JSON writer replaced `json.dumps`, the two `expand` cases
past n=1 and across mixed levels from before the coordinate maps moved
onto the integer kernel, the deep block law from before it ran all
orders in one pass, and the last three `count` outputs and the census
refusal line from before `count` summed its totals over the raw class
tuples.  The `count` digests and the census refusal line also hold for
`count` answering from the Burnside census, which lists no class.  The
two multi-size `expand` cases, one per field, were recorded before the
coefficient polynomial and every finite-size evaluation moved through
one stacked pass; they catch evaluations that trade tables.  The two
`hilbert` series past the `hilbert-coalescence` one and the graded
colored `enumerate` were recorded before a forest became the children
of one black root tree and the series census grew one dict in place.  The other
six float `expand` digests were recorded when float mode began to run
the exact engine on the exact values of its floats and to round each
value once, where it is read; tests/test_fk_core.py checks each of
those values against its exact twin.  A new digest means a changed
output.  The float requests also run with builtin sum() refusing float
terms, since it compensates them from Python 3.12 on and the float
oracle's outputs would then depend on the interpreter.
"""

import builtins
import hashlib
import importlib
import json
import pkgutil
import re

import pytest

import fkforest
from fkforest import (bundled_model, centered_moment_expansion,
                      exact_EN_oracle, gaussian_product_moment, gbar_vector)
from fkforest.cli import main

_VERSION_FIELD = re.compile(rb'\n *"version": "[^"\n]*",?')
# the one-line manifest that heads a CSV output
_VERSION_INLINE = re.compile(rb',"version":"[^"\n]*"')

F2 = ([1, 1], ["1", "2", "3", "-1/2"])
F3 = ([1, 1], ["1", "-2", "1/3", "0", "5/2", "-1", "2", "1/4", "-3"])

CASES = {
    "drift2-flat": (
        ["--model", "drift2", "--n", "2", "--q", "3", "--evaluate", "5"],
        None,
        "fa06718ea4e12aa5be77d37df40ff286d137911d0dd763406f4dfbd3eedadbfd"),
    "cycle3-q-seq": (
        ["--model", "cycle3", "--q-seq", "2,1,1", "--evaluate", "5"],
        None,
        "a5033594079674858b637b8a2eb7d0237946c77c6ab463a1de205172916a8c19"),
    "drift2-wick": (
        ["--model", "drift2", "--q-seq", "0,4", "--center", "--wick",
         "--evaluate", "6"],
        ([1, 1, 1, 1], ["1", "-1", "2", "1/2", "0", "3", "-2", "1",
                        "1/3", "2", "-1", "0", "5", "1", "-1/2", "2"]),
        "07b270d105d3789ded1aab0aedf44217bdd47b0278bf748a9f267264276091b3"),
    "cycle3-center": (
        ["--model", "cycle3", "--n", "1", "--q", "2", "--center",
         "--evaluate", "4"],
        F3,
        "587df36a70a905bdbb4566772fda319ffd99c6ee241adb05b395053070010f44"),
    "drift2-block": (
        ["--model", "drift2", "--n", "1", "--q", "2", "--block",
         "--oracle", "3"],
        F2,
        "6e672c66dcffb8c24a43d28dc1f1514085bda7c10a0565bf69fff1f7353aa11b"),
    "cycle3-block": (
        ["--model", "cycle3", "--n", "1", "--q", "2", "--block",
         "--top", "1", "--evaluate", "4"],
        F3,
        "d57cdeb72f18b0b88c28a21f15bf57a2249634d3464a0514aea88558c60b9a9e"),
    "drift2-oracle": (
        ["--model", "drift2", "--q-seq", "1,2", "--oracle", "3"],
        ([0, 1, 1], ["1", "2", "3", "-1", "1/2", "5", "7", "1/3"]),
        "0ba8f04cfd4f2b08157c86b0443705bc3f5393da8cf9fdebb08c5ab0c5a682eb"),
    "cycle3-oracle": (
        ["--model", "cycle3", "--n", "1", "--q", "2", "--oracle", "3"],
        F3,
        "eeb13d5c3cc1720aca52c59f1041a5c0ea6dd94dbb7e5bd10be731ac88b3c4e4"),
    # a block law past n=1, and centering across mixed levels
    "cycle3-block-n2": (
        ["--model", "cycle3", "--n", "2", "--q", "2", "--block",
         "--top", "2", "--evaluate", "4"],
        ([2, 2], F3[1]),
        "019e0d00c917fb9f988f3b6c3fa398ea4a363e5f99d01d6d88324a4cefe1caa8"),
    "drift2-center-mixed": (
        ["--model", "drift2", "--q-seq", "1,2", "--center", "--evaluate",
         "4"],
        ([0, 1, 1], ["1", "2", "3", "-1", "1/2", "5", "7", "1/3"]),
        "f578631362f56033aecb06f704edaed59aedd15b651828c1fdd91f71296d43fd"),
    # a deep block law: every order 0..3 on (0, 0, 3)
    "drift2-block-deep": (
        ["--model", "drift2", "--n", "3", "--q", "3", "--block",
         "--top", "3", "--evaluate", "4"],
        ([3, 3, 3], F3[1][:8]),
        "088af30916a013c7f52fbd1f9822bfa7342351c1ecb9f78545b1cf7c54f318c5"),
    # several finite sizes in one report
    "cycle3-q-seq-sizes": (
        ["--model", "cycle3", "--q-seq", "2,1,1", "--evaluate", "5,6,9"],
        None,
        "3b9e6b78126c1b212b8c4959b8bc7f2bbedbd893b1a20e4e3ec1a0df3a80abf7"),
}


def output_digest(tmp_path, argv, function, command="expand"):
    args = [command] + list(argv)
    if function is not None:
        path = tmp_path / "function.json"
        levels, values = function
        path.write_text(json.dumps({"levels": levels, "values": values}))
        args += ["--function", str(path)]
    return _digest(tmp_path, args)


def _digest(tmp_path, args):
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 0
    blanked = _VERSION_INLINE.sub(b"", _VERSION_FIELD.sub(
        b"", out.read_bytes()))
    return hashlib.sha256(blanked).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_rational_expand_output_is_pinned(tmp_path, name):
    argv, function, digest = CASES[name]
    assert output_digest(tmp_path, argv, function) == digest


CLASS_CASES = {
    "count-flat": (
        ["count", "--n", "3", "--q", "3"],
        "17fd7511e709b3ac404578648853794ae703168686b13614310bb9af21f06ce9"),
    "count-colored-max-coal": (
        ["count", "--q-seq", "2,1,1", "--max-coal", "2"],
        "c907c23ba07ced896adec18af4c22bdabe93f2058b8a7a19370d1c7c1242d2a4"),
    "enumerate-flat": (
        ["enumerate", "--n", "2", "--q", "3"],
        "23d5d719d40f00045b8361229e2c8003b73cbca02aabb7ecf58edc261cff1983"),
    "enumerate-colored-csv": (
        ["enumerate", "--q-seq", "1,1,1", "--format", "csv"],
        "8ffcbaa871a807dc37c59602acf64a3f7bb73ad8b9305e53fb8b2c0c2f7517d8"),
    "count-flat-csv": (
        ["count", "--n", "2", "--q", "3", "--format", "csv"],
        "4dcca65e330e34a946dce22d89526501dbe67604be9b0822eee32eb5bb5bf4d0"),
    "count-colored": (
        ["count", "--q-seq", "1,2,2"],
        "b23631463de6675ed30aaefd94521d8a24b90c1cb316fb062591fd1fd5f268d7"),
    "count-flat-max-coal": (
        ["count", "--n", "3", "--q", "3", "--max-coal", "1"],
        "29f82e7a12717a4a08456c8f77af88470354691aed3a825df042afc1f6accbd9"),
    "enumerate-colored-max-coal": (
        ["enumerate", "--q-seq", "0,3,1", "--max-coal", "2"],
        "1749149b1adc49ef7b970e801c7ba100e92c14157d281a9e5785d90127c097f7"),
}


@pytest.mark.parametrize("name", sorted(CLASS_CASES))
def test_class_output_is_pinned(tmp_path, name):
    argv, digest = CLASS_CASES[name]
    assert _digest(tmp_path, argv) == digest


def test_census_refusal_is_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["count", "--n", "3", "--q", "4", "--cap-forests", "10",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        '{"cap": 10, "error": "CapExceeded", "message": "enumeration would '
        'produce too many forests", "predicted": 5503}\n')


ORACLE_CASES = {
    "cycle3-gamma": (
        ["--model", "cycle3", "--N", "4", "--n", "2", "--q", "2"],
        ([2, 2], F3[1]),
        "a5ea471a4683a4b139bdc7882ac45a18c61609e61f62ccb8c22a475ec4370600"),
    "cycle3-eta": (
        ["--model", "cycle3", "--N", "4", "--n", "2", "--q", "2",
         "--kind", "eta"],
        ([2, 2], F3[1]),
        "ace680082c5c588525d1ad8e14e8296217feb117987ad152614e59cf22e0da79"),
    "drift2-block": (
        ["--model", "drift2", "--N", "3", "--n", "1", "--q", "2",
         "--kind", "block"],
        F2,
        "af68b2d540da288a439a814e9046b7d6aa3750826a3e5b9b979041b2f0d1ba0a"),
    "drift2-q-seq": (
        ["--model", "drift2", "--N", "3", "--q-seq", "1,1"],
        ([0, 1], F2[1]),
        "95549704ba83d0daaa2dbd1e083444ee7410777907c11b1533d26d362171ed31"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_rational_oracle_output_is_pinned(tmp_path, name):
    argv, function, digest = ORACLE_CASES[name]
    assert output_digest(tmp_path, argv, function, "oracle") == digest


OTHER_CASES = {
    "expand-float": (
        ["expand", "--model", "drift2", "--n", "1", "--q", "2", "--field",
         "float", "--evaluate", "3"],
        "16d34248cbce38e374455c9c1728c2d8acd7fa3b00360173aaf47038626c21ed"),
    # float tables over several level pairs, each order and evaluation
    "expand-float-q-seq": (
        ["expand", "--model", "cycle3", "--q-seq", "2,1,1", "--field",
         "float", "--evaluate", "5"],
        "ee34925d7147f83fd3404b2193a307df214b0fb7a415411f2d8b2943d2292d0f"),
    "simulate": (
        ["simulate", "--model", "flat2", "--N", "16", "--replicas", "2"],
        "e12f347395d5ec641ac6ee5c1c571e865f5ee8a59c6d54959033fd0e35c63bc6"),
    "hilbert-coalescence": (
        ["hilbert", "--n", "2", "--truncation", "3", "--coalescence"],
        "11a0ab79efda364c4b89584c519d7479d6236c219bceb4a353ce5840219a1702"),
    "hilbert-plain": (
        ["hilbert", "--n", "3", "--truncation", "3"],
        "95269708b966290786dde80472c907e5d92ac4d81959d2361e2e6faf9246b93f"),
    # a box that dips and rises: built over its envelope, then filtered
    "hilbert-coalescence-dip": (
        ["hilbert", "--n", "2", "--truncation", "3,1,2", "--coalescence"],
        "5e740243e7ca172071f3b5f3c088e049756c167de84247b0efe13d790942eec7"),
    "verify-stirling": (
        ["verify", "--only", "stirling"],
        "3c6205aab57eff0b5b1d270b27cb209fd28382f7db2a7266a206f260571f135d"),
}


# float expansions paired with a function: float pair, scale, sums,
# centering and symmetrization
FLOAT_CASES = {
    "drift2-pair": (
        ["--model", "drift2", "--n", "1", "--q", "2", "--evaluate", "3"],
        F2,
        "0cfc909f0b54bd9701a6ad9edcf75ebb2ae1e01ae529e722ecab28a0a3d77ba0"),
    "cycle3-q-seq-pair": (
        ["--model", "cycle3", "--q-seq", "1,1", "--evaluate", "4"],
        ([0, 1], F3[1]),
        "fd8e9f7170b70709579227d5c0b5e06f16be45ceebad3ce89c83650c0baddc3e"),
    "cycle3-block": (
        ["--model", "cycle3", "--n", "1", "--q", "2", "--block", "--top",
         "1", "--evaluate", "4"],
        F3,
        "299527abce3a8553281770d1aa18b0c44e617e19a1e801e7b76dcffe7585284b"),
    "cycle3-center": (
        ["--model", "cycle3", "--n", "1", "--q", "2", "--center",
         "--evaluate", "4"],
        F3,
        "b50999996688983c03694824a83640ed69a2482b5cc238b985a333b9ba030a82"),
    # several finite sizes in one report, one of them from --oracle
    "drift2-pair-sizes": (
        ["--model", "drift2", "--n", "1", "--q", "2", "--evaluate", "3,4",
         "--oracle", "5"],
        F2,
        "b0dbdaedb72b58654b86215a5b2202581de82cad81adaa09d4ed52ae43baaa2e"),
}


@pytest.mark.parametrize("name", sorted(FLOAT_CASES))
def test_float_expand_output_is_pinned(tmp_path, name):
    argv, function, digest = FLOAT_CASES[name]
    assert output_digest(tmp_path, argv + ["--field", "float"],
                         function) == digest


@pytest.mark.parametrize("name", sorted(OTHER_CASES))
def test_other_output_is_pinned(tmp_path, name):
    argv, digest = OTHER_CASES[name]
    assert _digest(tmp_path, argv) == digest


def _int_sum(terms, start=0):
    items = list(terms)
    if any(isinstance(v, float) for v in [start] + items):
        raise AssertionError("a float term reached builtin sum()")
    return builtins.sum(items, start)


def test_float_results_never_reach_builtin_sum(tmp_path, monkeypatch):
    # builtin sum() compensates float sums from Python 3.12 on, which
    # changed the cycle3-block float pin there; the exact engine adds only
    # integers and Fractions, and the float oracle adds its floats through
    # fk_core._sum, which adds left to right on any Python
    for info in pkgutil.iter_modules(fkforest.__path__):
        module = importlib.import_module("fkforest." + info.name)
        monkeypatch.setattr(module, "sum", _int_sum, raising=False)
    for argv, function, digest in FLOAT_CASES.values():
        assert output_digest(tmp_path, argv + ["--field", "float"],
                             function) == digest
    for name in ("expand-float", "expand-float-q-seq"):
        argv, digest = OTHER_CASES[name]
        assert _digest(tmp_path, argv) == digest
    for argv, function, _ in ORACLE_CASES.values():
        output_digest(tmp_path, argv + ["--field", "float"], function,
                      "oracle")
    m = bundled_model("cycle3", "float")
    centered_moment_expansion(m, 1, 3, Ns=(3,))
    exact_EN_oracle(m, 4, 2, 2)
    gaussian_product_moment(m, [(1, gbar_vector(m, 1)),
                                (2, gbar_vector(m, 2))])
