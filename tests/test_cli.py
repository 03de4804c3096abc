"""The command-line interface: results, byte-stable outputs and exit codes.

Exit codes are 0 (success), 1 (failed identity) and 2 (structured
refusal); a refusal writes one JSON line to stderr and no output file.
An argv the command table does not accept is such a refusal too.
"""

import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fkforest
from fkforest import (SignedMeasure, TensorFunction, bundled_model, cli,
                      count_forests, expansion_report_path_Q, format_scalar,
                      genfunc)
from fkforest.cli import main
from fkforest.jsontext import canonical_json


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    rc = main(list(argv) + ["--out", str(out)])
    return rc, (out.read_bytes() if out.exists() else None)


def result(tmp_path, *argv):
    rc, data = run(tmp_path, *argv)
    assert rc == 0
    return json.loads(data)["result"]


def test_verify_passes_every_check(tmp_path):
    res = result(tmp_path, "verify")
    assert res["failed"] == 0
    assert res["passed"] == len(res["checks"]) == 14


def test_count_of_a_flat_selection(tmp_path):
    res = result(tmp_path, "count", "--n", "3", "--q", "3")
    assert res["kind"] == "flat"
    assert res["classes"] == 252
    assert res["total_jungles"] == 531441 == 3 ** 12
    assert res["identity_holds"] is True


def test_count_runs_the_plain_census_once(tmp_path, monkeypatch):
    """The census by merge degree reuses the plain total that the refusal
    check counted first."""
    real, bases = genfunc._burnside, []

    def counted(pp, z):
        bases.append(z)
        return real(pp, z)

    monkeypatch.setattr(genfunc, "_burnside", counted)
    assert result(tmp_path, "count", "--n", "3", "--q", "3")["classes"] == 252
    assert len(bases) == 2 and bases.count(1) == 1


def test_enumerate_lists_flat_classes_in_colored_columns(tmp_path):
    res = result(tmp_path, "enumerate", "--n", "1", "--q", "2")
    assert res["kind"] == "flat"
    assert res["classes"] == 4
    assert res["total_jungles"] == 2 ** 4
    for row in res["rows"]:
        assert sorted(row) == ["blacks", "coal", "count", "encoding",
                               "whites"]
        assert (row["whites"], row["blacks"]) == ("0 0 2", "2 2 0")


def test_flat_expansion_is_the_block_profile_expansion(tmp_path):
    flat = result(tmp_path, "expand", "--model", "drift2", "--n", "1",
                  "--q", "2", "--evaluate", "3")
    path = result(tmp_path, "expand", "--model", "drift2", "--q-seq", "0,2",
                  "--evaluate", "3")
    assert flat["kind"] == "block-moment"
    assert path["kind"] == "path-block-moment"
    for key in ("base", "orders", "evaluations"):
        assert flat[key] == path[key]
    assert sorted(flat["orders"]) == ["1", "2"]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "1", "--q", "2"],
    ["count", "--q-seq", "2,1", "--format", "csv"],
    ["hilbert", "--n", "1", "--truncation", "2,3", "--coalescence"],
    ["expand", "--model", "drift2", "--n", "1", "--q", "2", "--evaluate",
     "3,5"],
])
def test_identical_runs_write_identical_bytes(tmp_path, argv):
    rc_a, a = run(tmp_path, *argv, name="a")
    rc_b, b = run(tmp_path, *argv, name="b")
    assert rc_a == rc_b == 0
    assert a == b


@pytest.mark.parametrize("argv", [
    ["count", "--n", "-1", "--q", "2"],
    ["count", "--n", "1", "--q", "0"],
    ["enumerate", "--n", "1"],
    ["hilbert", "--n", "1", "--truncation", ""],
    # --q-seq replaces --n/--q, --block and every oracle kind but gamma
    ["expand", "--model", "drift2", "--q-seq", "0,2", "--n", "5", "--q", "7"],
    ["expand", "--model", "drift2", "--q-seq", "0,2", "--block", "--top", "1"],
    ["oracle", "--model", "drift2", "--N", "3", "--q-seq", "1,1", "--kind",
     "eta", "--function", "F01"],
    # flags that would otherwise be ignored yet recorded as applied
    ["expand", "--model", "drift2", "--n", "1", "--q", "2", "--center",
     "--top", "5"],
    ["expand", "--model", "drift2", "--q-seq", "1,1", "--top", "1",
     "--function", "F01"],
    # block sizes below 1, and an injective block larger than the ensemble
    ["simulate", "--model", "drift2", "--N", "4", "--estimator", "tensor-q",
     "--q", "-2"],
    ["simulate", "--model", "drift2", "--N", "4", "--estimator", "tensor-q",
     "--q", "0"],
    ["simulate", "--model", "drift2", "--N", "4", "--estimator", "dot-q",
     "--q", "-2"],
    ["simulate", "--model", "drift2", "--N", "2", "--estimator", "dot-q",
     "--q", "3"],
    # an estimator level past the simulated horizon
    ["simulate", "--model", "drift2", "--N", "4", "--horizon", "1",
     "--n", "3"],
    # a negative merge budget
    ["count", "--n", "2", "--q", "2", "--max-coal", "-1"],
    ["enumerate", "--n", "2", "--q", "2", "--max-coal", "-5"],
    # a missing function or size, a profile past the horizon, an ensemble
    # smaller than the block
    ["expand", "--model", "drift2", "--n", "1", "--q", "2", "--block"],
    ["expand", "--model", "drift2", "--q", "2", "--block", "--function",
     "F01"],
    ["expand", "--model", "drift2", "--n", "5", "--q", "2"],
    ["expand", "--model", "drift2", "--n", "1", "--q", "2", "--evaluate",
     "1"],
    ["oracle", "--model", "drift2", "--N", "3", "--n", "1", "--q", "2"],
    ["oracle", "--model", "drift2", "--N", "3", "--kind", "eta",
     "--function", "F01"],
    ["simulate", "--model", "drift2", "--N", "3", "--estimator", "tensor-q"],
    # a check name that matches nothing, and a required flag left out
    ["verify", "--only", "nothing"],
    ["hilbert", "--truncation", "2"],
])
def test_bad_parameters_are_refused(tmp_path, capsys, argv):
    # F01 names a valid function on the levels of the profile (1,1)
    F = function_file(tmp_path, [0, 1], ["1", "2", "-3", "1/2"])
    argv = [F if a == "F01" else a for a in argv]
    rc, data = run(tmp_path, *argv)
    assert rc == 2
    assert data is None
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidParameter"


def test_cap_refusal_comes_before_enumeration(tmp_path, capsys):
    rc, data = run(tmp_path, "count", "--n", "3", "--q", "4",
                   "--cap-forests", "10")
    assert rc == 2
    assert data is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CapExceeded"
    assert (err["predicted"], err["cap"]) == (5503, 10)


def function_file(tmp_path, levels, values):
    path = tmp_path / "function.json"
    path.write_text(json.dumps({"levels": levels, "values": values}))
    return str(path)


@pytest.mark.parametrize("argv, predicted, cap", [
    # simulate's constant F on (level,) * q
    (["simulate", "--model", "drift2", "--N", "4", "--estimator",
      "tensor-q", "--q", "7", "--cap-tensor", "100"], 128, 100),
    # a function file, refused before the oracle checks its configurations
    (["oracle", "--model", "drift2", "--N", "3", "--n", "1", "--q", "2",
      "--function", "F11", "--cap-tensor", "3"], 4, 3),
    # the moment product plan, before its first table
    (["expand", "--model", "drift2", "--n", "2", "--q", "3",
      "--cap-tensor", "7"], 8, 7),
])
def test_a_lowered_tensor_cap_refuses_before_any_table(tmp_path, capsys,
                                                       argv, predicted, cap):
    F = function_file(tmp_path, [1, 1], ["1", "2", "3", "-1/2"])
    rc, data = run(tmp_path, *[F if a == "F11" else a for a in argv])
    assert (rc, data) == (2, None)
    assert json.loads(capsys.readouterr().err) == {
        "error": "CapExceeded", "message": "dense table too large",
        "predicted": predicted, "cap": cap}


def test_the_block_law_refuses_before_its_first_product(tmp_path, capsys,
                                                        monkeypatch):
    """The top-4 pass on cycle3 needs Bell(10) set partitions for its
    largest profile; the plan refuses it before any moment polynomial."""
    from fkforest import fluctuation
    calls = []
    polynomial = fluctuation._moment_polynomial
    monkeypatch.setattr(fluctuation, "_moment_polynomial",
                        lambda *a: calls.append(a) or polynomial(*a))
    F = function_file(tmp_path, [2, 2, 2], [str(v - 13) for v in range(27)])
    rc, data = run(tmp_path, "expand", "--model", "cycle3", "--n", "2",
                   "--q", "3", "--block", "--top", "4", "--evaluate", "5",
                   "--function", F)
    assert (rc, data) == (2, None)
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["predicted"], err["cap"]) == \
        ("CapExceeded", 115975, 100000)
    assert calls == []


def test_a_float_literal_is_refused_alike_in_model_and_function_files(
        tmp_path, capsys):
    """Function files convert their values as model files do: a float
    literal in rational mode is one ValidationError line for both, and the
    same function file answers in float mode."""
    doc = json.loads(bundled_model("drift2").to_json())
    doc["G"][0][0] = 1.5
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    F = function_file(tmp_path, [1, 1], [0.5, "2", "3", "-1/2"])
    lines = []
    for argv in (["--model", str(model)], ["--model", "drift2",
                                           "--function", F]):
        rc, data = run(tmp_path, "expand", "--n", "1", "--q", "2", *argv)
        assert (rc, data) == (2, None)
        lines.append(json.loads(capsys.readouterr().err))
    assert lines[0] == lines[1] == {
        "error": "ValidationError",
        "message": "rational mode rejects floats; pass 'num/den' strings"}
    rc, _ = run(tmp_path, "expand", "--model", "drift2", "--n", "1", "--q",
                "2", "--function", F, "--field", "float")
    assert rc == 0


def test_oracle_sizes_outside_evaluate_are_evaluated(tmp_path):
    F = function_file(tmp_path, [0, 1, 1],
                      ["1", "2", "3", "-1", "1/2", "5", "7", "1/3"])
    res = result(tmp_path, "expand", "--model", "drift2", "--q-seq", "1,2",
                 "--function", F, "--evaluate", "4", "--oracle", "3")
    assert sorted(res["evaluations"]) == ["3", "4"]
    assert res["oracle_deltas"] == {"3": "0/1"}


def test_flat_expansion_matches_the_oracle(tmp_path):
    F = function_file(tmp_path, [1, 1], ["1", "2", "3", "-1/2"])
    res = result(tmp_path, "expand", "--model", "drift2", "--n", "1",
                 "--q", "2", "--function", F, "--oracle", "2,3")
    assert res["kind"] == "block-moment"
    assert res["oracle_deltas"] == {"2": "0/1", "3": "0/1"}


def test_block_law_expansion_reports_its_residual(tmp_path):
    F = function_file(tmp_path, [1, 1], ["1", "2", "3", "-1/2"])
    res = result(tmp_path, "expand", "--model", "drift2", "--n", "1",
                 "--q", "2", "--block", "--function", F, "--oracle", "3")
    assert res["kind"] == "block-law"
    assert sorted(res["orders"]) == ["1", "2"]
    resid = Fraction(res["diagnostics"]["residuals"]["3"])
    assert resid == Fraction(res["evaluations"]["3"]) - (
        Fraction(res["base"]) + Fraction(res["orders"]["1"]) / 3
        + Fraction(res["orders"]["2"]) / 9)
    assert Fraction(res["diagnostics"]["scaled_residuals"]["3"]) \
        == 27 * resid


def test_block_law_with_wick_is_refused_before_the_report(tmp_path, capsys,
                                                         monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the block-law report was built")

    from fkforest import fluctuation
    monkeypatch.setattr(fluctuation, "expansion_report_P", unreachable)
    F = function_file(tmp_path, [1, 1], ["1", "2", "3", "-1/2"])
    rc, data = run(tmp_path, "expand", "--model", "drift2", "--n", "1",
                   "--q", "2", "--block", "--wick", "--function", F)
    assert rc == 2
    assert data is None
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidParameter"


def test_negative_truncation_order_is_refused(tmp_path, capsys):
    F = function_file(tmp_path, [1, 1], ["1", "2", "3", "-1/2"])
    rc, data = run(tmp_path, "expand", "--model", "drift2", "--n", "1",
                   "--q", "2", "--block", "--function", F, "--top", "-1",
                   "--evaluate", "3")
    assert rc == 2
    assert data is None
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidParameter"


def test_a_failed_check_exits_1_with_a_reproducer(tmp_path, monkeypatch):
    from fkforest import selfcheck
    monkeypatch.setattr(selfcheck, "_CHECKS", selfcheck._CHECKS + [
        ("always-unequal", lambda: ([Fraction(1)], [Fraction(2)]))])
    rc, data = run(tmp_path, "verify", "--only", "always-unequal")
    assert rc == 1
    res = json.loads(data)["result"]
    assert (res["passed"], res["failed"]) == (0, 1)
    (record,) = res["checks"]
    assert record["status"] == "fail"
    assert record["expected"] == ["1/1"] and record["actual"] == ["2/1"]
    assert record["reproducer"]["command"] == "verify"
    assert record["reproducer"]["parameters"] == {"only": "always-unequal"}


def test_a_failed_identity_in_expand_exits_1(tmp_path, capsys, monkeypatch):
    """A finite-size value that disagrees with the coefficient sum stops
    the report check: exit 1, one JSON error line and no output file.  The
    exact route of the one pass is off by a factor 1 + 1e-9 per level."""
    from fkforest import expansion
    route = expansion._exact_route

    def perturbed(N):
        select = route(N)

        def bumped(b, count):
            weights, scale = select(b, count)
            return ([{dp: c * (10 ** 9 + 1) for dp, c in w.items()}
                     for w in weights], scale * 10 ** 9)
        return bumped

    monkeypatch.setattr(expansion, "_exact_route", perturbed)
    F = function_file(tmp_path, [1, 1], ["1", "2", "3", "-1/2"])
    rc, data = run(tmp_path, "expand", "--model", "drift2", "--n", "1",
                   "--q", "2", "--function", F, "--evaluate", "3")
    assert rc == 1
    assert data is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IdentityMismatch"
    assert "N=3" in err["message"]


def test_duplicate_sizes_run_once_and_stay_in_the_manifest(tmp_path,
                                                           monkeypatch):
    """A size given twice, or as both --evaluate and --oracle, runs one
    exact route and one oracle pass; the manifest keeps the sizes as given
    and the result is that of the distinct sizes."""
    from fkforest import expansion
    routes, oracles = [], []
    route, oracle = expansion._exact_route, cli.exact_QN_oracle
    monkeypatch.setattr(expansion, "_exact_route",
                        lambda N: routes.append(N) or route(N))
    monkeypatch.setattr(cli, "exact_QN_oracle",
                        lambda m, N, *a, **k: oracles.append(N)
                        or oracle(m, N, *a, **k))
    F = function_file(tmp_path, [1, 1], ["1", "2", "3", "-1/2"])
    docs = []
    for evaluate, given in (("3,4,3", "4,4"), ("3,4", "4")):
        rc, data = run(tmp_path, "expand", "--model", "drift2", "--n", "1",
                       "--q", "2", "--function", F, "--evaluate", evaluate,
                       "--oracle", given)
        assert rc == 0
        docs.append(json.loads(data))
    assert routes == [3, 4, 3, 4] and oracles == [4, 4]
    twice, once = docs
    assert (twice["manifest"]["parameters"]["evaluate"],
            twice["manifest"]["parameters"]["oracle"]) == ([3, 4, 3], [4, 4])
    assert twice["result"] == once["result"]


def test_a_size_below_the_block_refuses_before_any_table(tmp_path, capsys,
                                                          monkeypatch):
    from fkforest import expansion
    builds = []
    monkeypatch.setattr(expansion, "_partition_targets",
                        lambda *a: builds.append(a))
    rc, data = run(tmp_path, "expand", "--model", "drift2", "--q-seq", "2,2",
                   "--evaluate", "5,3")
    assert (rc, data, builds) == (2, None, [])
    assert json.loads(capsys.readouterr().err) == {
        "error": "InvalidParameter",
        "message": "ensemble size N=3 below the total block size 4"}


@pytest.mark.parametrize("case", ["function-not-json", "model-not-json",
                                  "function-missing", "function-value",
                                  "model-value", "model-directory",
                                  "model-not-utf8", "function-not-utf8",
                                  "model-utf8-bom", "function-utf8-bom"])
def test_malformed_input_files_are_refused(tmp_path, capsys, case):
    """A file that cannot be read as the documented JSON is a refusal (exit
    2, one JSON error line), never a traceback with the exit code of a
    failed identity."""
    F = function_file(tmp_path, [1, 1], ["1", "2", "3", "-1/2"])
    model = "drift2"
    if case == "function-not-json":
        (tmp_path / "function.json").write_text("{")
    elif case == "model-not-json":
        model = str(tmp_path / "model.json")
        (tmp_path / "model.json").write_text("{")
    elif case == "function-missing":
        F = str(tmp_path / "absent.json")
    elif case == "function-value":
        F = function_file(tmp_path, [1, 1], ["1", "x", "3", "-1/2"])
    elif case == "model-directory":
        model = str(tmp_path / "models")
        (tmp_path / "models").mkdir()
    elif case == "model-not-utf8":
        model = str(tmp_path / "model.json")
        (tmp_path / "model.json").write_bytes(b"\xff\xfe{")
    elif case == "function-not-utf8":
        (tmp_path / "function.json").write_bytes(b"\xff\xfe{")
    elif case == "model-utf8-bom":
        # UTF-8 is read as UTF-8, not sniffed: the mark is not JSON
        model = str(tmp_path / "model.json")
        (tmp_path / "model.json").write_bytes(
            b"\xef\xbb\xbf" + fkforest.bundled_model("drift2").to_json()
            .encode())
    elif case == "function-utf8-bom":
        (tmp_path / "function.json").write_bytes(
            b"\xef\xbb\xbf" + (tmp_path / "function.json").read_bytes())
    else:
        from fkforest import bundled_model
        doc = json.loads(bundled_model("drift2").to_json())
        doc["eta0"][0] = "x"
        model = str(tmp_path / "model.json")
        (tmp_path / "model.json").write_text(json.dumps(doc))
    rc, data = run(tmp_path, "expand", "--model", model, "--n", "1",
                   "--q", "2", "--function", F, "--evaluate", "3")
    assert rc == 2
    assert data is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("ValidationError", "InvalidParameter")


def test_float_mode_mirrored_entries_are_equal(tmp_path):
    """Float mode computes exactly and rounds once, so an entry and its
    mirror under a swap of same-level coordinates are the same float."""
    res = result(tmp_path, "expand", "--model", "drift2", "--n", "1",
                 "--q", "2", "--field", "float", "--evaluate", "3")
    for table in [res["base"]] + list(res["orders"].values()) \
            + list(res["evaluations"].values()):
        values = {tuple(e["point"]): e["value"] for e in table["entries"]}
        assert values[(0, 1)] == values[(1, 0)]


def test_float_mode_centers_a_function_with_large_values(tmp_path):
    """Float mode centers the exact values of the function and checks the
    result exactly, so values near 1e10 center without tripping it."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"levels": [1, 1],
                                "values": [1e10, 2.5e10, -3e10, 7e9]}))
    res = result(tmp_path, "expand", "--model", "drift2", "--n", "1",
                 "--q", "2", "--field", "float", "--center", "--evaluate",
                 "3", "--function", str(path))
    assert res["kind"] == "block-moment"
    assert sorted(res["evaluations"]) == ["3"]


# ---------------------------------------------------------------------------
# the argv layer


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["count", "--n", "1", "--q", "2", "--bogus", "1"],
    ["count", "--q", "2", "--n"],
    ["count", "--c", "5", "--n", "1", "--q", "2"],
    ["expand", "--n", "1", "--q", "2"],
    ["expand", "--model", "drift2", "--n", "1", "--q", "2", "--wick=1"],
    ["oracle", "--model", "drift2", "--N", "x", "--n", "1", "--q", "2"],
    ["oracle", "--model", "drift2", "--N", "3", "--n", "1", "--q", "2",
     "--kind", "bogus"],
    ["count", "--n", "1", "--q", "2", "stray"],
], ids=["unknown-command", "unknown-flag", "no-value", "ambiguous-prefix",
        "missing-model", "switch-with-value", "bad-int", "bad-choice",
        "stray-argument"])
def test_argv_errors_are_refusals(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    # --out goes first so that a flag at the end really lacks its value
    assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InvalidParameter"


@pytest.mark.parametrize("full, other", [
    (["count", "--q-seq", "2,1", "--max-coal", "1"],
     ["count", "--q-seq=2,1", "--max-coal=1"]),
    (["count", "--q-seq", "2,1", "--max-coal", "1"],
     ["count", "--q-s", "2,1", "--max", "1"]),
    (["expand", "--model", "drift2", "--n", "2", "--q", "2", "--evaluate",
      "3"],
     ["expand", "--model=drift2", "--n=2", "--q=2", "--eval=3"]),
    (["expand", "--model", "drift2", "--n", "2", "--q", "2", "--evaluate",
      "3"],
     ["expand", "--mod", "drift2", "--n", "2", "--q", "2", "--ev", "3"]),
])
def test_equals_form_and_abbreviations_write_the_same_bytes(tmp_path, full,
                                                           other):
    rc_a, a = run(tmp_path, *full, name="a")
    rc_b, b = run(tmp_path, *other, name="b")
    assert rc_a == rc_b == 0
    assert a == b


def test_help_and_version_exit_0(capsys):
    for argv in (["-h"], ["--help"]):
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert all(name in text for name in cli._COMMANDS)
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == fkforest.__version__ + "\n"
    for name, (_, about, flags) in cli._COMMANDS.items():
        for argv in ([name, "--help"], [name, "--seed", "1", "-h"]):
            assert main(argv) == 0
            text = capsys.readouterr().out
            assert about in text
            for row in flags + cli._COMMON_FLAGS:
                assert re.search(r"^  %s(\s|$)" % re.escape(row[0]), text,
                                 re.M), (name, row[0])


def _run_code(code, *argv):
    src = os.path.dirname(os.path.dirname(fkforest.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code]
                          + [str(a) for a in argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_the_cli_module_runs_as_a_script(tmp_path):
    """python -m fkforest.cli answers a request, as the console script
    does."""
    out = tmp_path / "count.json"
    src = os.path.dirname(os.path.dirname(fkforest.__file__))
    done = subprocess.run([sys.executable, "-m", "fkforest.cli", "count",
                           "--n", "1", "--q", "2", "--out", str(out)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["manifest"]["command"] == "count"


def test_an_unwritable_out_is_a_refusal(tmp_path, capsys):
    """An --out that cannot be opened for writing (a directory, a file in
    a missing directory, or the empty path, given as --out '' or --out=)
    exits 2 with one JSON error line, in process and as a script, and
    leaves no traceback."""
    for out in (tmp_path, tmp_path / "missing" / "x.json", ""):
        for flags in (["--out", str(out)], ["--out=%s" % out]):
            assert main(["count", "--n", "1", "--q", "2"] + flags) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            err = json.loads(line)
            assert err["error"] == "InvalidParameter"
            assert err["message"].startswith("cannot write output file %s: "
                                             % out)
    assert not (tmp_path / "missing").exists()
    src = os.path.dirname(os.path.dirname(fkforest.__file__))
    done = subprocess.run([sys.executable, "-m", "fkforest.cli", "count",
                           "--n", "1", "--q", "2", "--out", str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert json.loads(line)["error"] == "InvalidParameter"


NINES = "9" * 3000


@pytest.mark.parametrize("argv, error", [
    (["oracle", "--model", "cycle3", "--N", NINES, "--n", "1", "--q", "1",
      "--kind", "eta"], "CapExceeded"),
    (["simulate", "--model", "drift2", "--N", NINES, "--replicas", NINES],
     "CapExceeded"),
    (["expand", "--model", "drift2", "--n", "1", "--q", "2",
      "--evaluate", NINES], "InvalidParameter"),
])
def test_an_integer_too_long_to_write_is_a_refusal(tmp_path, capsys, argv,
                                                   error):
    """A refusal or result holding an integer with more digits than int
    writes in decimal by default (4,300) exits 2 with one JSON error line
    and no output file."""
    if argv[0] == "oracle":
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"levels": [1], "values": ["1", "2", "3"]}))
        argv = argv + ["--function", str(f)]
    assert run(tmp_path, *argv) == (2, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == error
    if error == "CapExceeded":
        assert re.fullmatch(r"at least 2\*\*\d+", err["predicted"])


def test_a_request_imports_neither_argparse_nor_locale(tmp_path):
    """argparse, and the locale module its first message lookup imports,
    cost more than an oracle request's arithmetic; a request loads
    neither."""
    code = ("import sys\n"
            "from fkforest.cli import main\n"
            "rc = main(['count', '--n', '3', '--q', '3', '--out', sys.argv[1]])\n"
            "print(rc, sorted({'argparse', 'locale'} & set(sys.modules)))\n")
    done = _run_code(code, tmp_path / "o")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "[]"]


def test_an_exact_request_imports_neither_numpy_nor_dataclasses(tmp_path):
    """Only the Monte Carlo side uses numpy, and nothing uses dataclasses
    (which pulls in inspect): count, expand and oracle requests load none
    of them.  The manifest hash comes from the built-in SHA-256, so
    neither hashlib nor its OpenSSL module is loaded either."""
    F = function_file(tmp_path, [1, 1], ["1", "2", "-1/2", "3"])
    code = ("import sys\n"
            "from fkforest.cli import main\n"
            "out, F = sys.argv[1:]\n"
            "rcs = [main(['count', '--n', '3', '--q', '3', '--out', out]),\n"
            "       main(['expand', '--model', 'drift2', '--n', '1',\n"
            "             '--q', '2', '--out', out]),\n"
            "       main(['oracle', '--model', 'drift2', '--N', '3',\n"
            "             '--n', '1', '--q', '2', '--function', F,\n"
            "             '--out', out])]\n"
            "print(rcs, sorted({'numpy', 'dataclasses', 'inspect',\n"
            "                   'hashlib', '_hashlib'} & set(sys.modules)))\n")
    done = _run_code(code, tmp_path / "o", F)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[0,", "0,", "0]", "[]"]


def test_simulate_runs_and_numpy_scalars_become_plain(tmp_path):
    import numpy as np
    res = result(tmp_path, "simulate", "--model", "flat2", "--N", "8",
                 "--replicas", "2")
    assert [row["replica"] for row in res["rows"]] == [0, 1]
    doc = [np.int64(3), np.float64(0.5), np.float32(0.25)]
    assert cli._json_text(doc) == json.dumps([3, 0.5, 0.25], indent=2)


def test_count_past_the_recursion_limit_answers(tmp_path, capsys):
    """(4,4,4,4,4,4), the census profile of --n 4 --q 4, has 1,365
    candidate tree shapes, more than Python's frame limit; the census must
    still predict the size, a cap below it refuses with a JSON line, the
    same before and after the census ran in this process, and under the
    default caps the request answers."""
    lines = []
    for census_first in (False, True):
        if census_first:
            predicted = count_forests((4,) * 6)
        rc, data = run(tmp_path, "count", "--n", "4", "--q", "4",
                       "--cap-forests", "10")
        assert rc == 2 and data is None
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1]
    err = json.loads(lines[1])
    assert (err["error"], err["predicted"], err["cap"]) == \
        ("CapExceeded", predicted, 10)
    rc, data = run(tmp_path, "count", "--n", "4", "--q", "4")
    assert rc == 0
    # the second route is the enumeration, too slow for this suite: it
    # lists 65,833 classes for this profile
    res = json.loads(data)["result"]
    assert res["classes"] == predicted == 65833
    assert res["total_jungles"] == 4 ** 20
    assert res["identity_holds"] is True


@pytest.mark.parametrize("argv, predicted, cap", [
    # 2**51 classes, counted without listing one
    (["--n", "50", "--q", "2"], 2 ** 51, 100_000),
    # the census would meet p(24) = 1,575 cycle types with 1,575 + 25
    # terms each, see test_the_census_refuses_its_work_past_the_series_cap
    (["--n", "1", "--q", "24"], 2_520_000, 1_000_000),
])
def test_count_refuses_a_huge_request_at_once(tmp_path, capsys, argv,
                                              predicted, cap):
    rc, data = run(tmp_path, "count", *argv)
    assert (rc, data) == (2, None)
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["predicted"], err["cap"]) == \
        ("CapExceeded", predicted, cap)


@pytest.mark.parametrize("command", ["count", "enumerate"])
def test_count_of_one_line_of_400_levels(tmp_path, command):
    """One sample point 400 levels deep: a single class, and no recursion
    as deep as the levels."""
    res = result(tmp_path, command, "--n", "400", "--q", "1")
    assert (res["classes"], res["total_jungles"]) == (1, 1)
    if command == "count":
        assert res["identity_holds"] is True


def test_a_request_does_the_same_work_however_many_ran_before(tmp_path,
                                                             monkeypatch):
    """No tree outlives its request: a second identical colored
    enumeration builds as many black trees as the first."""
    from fkforest import classsum
    inner = classsum.black
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(classsum, "black", counted)
    work = []
    for _ in range(2):
        calls[0] = 0
        assert result(tmp_path, "enumerate", "--q-seq",
                      "1,2,2")["classes"] > 0
        work.append(calls[0])
    assert work[0] == work[1] > 1


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    # deep: one line of 400 levels
    "enumerate --n 400 --q 1",
    "count --n 400 --q 1",
    # budgeted enumerations of profiles whose full class lists (743,482
    # to 4e20 classes) are refused
    "enumerate --n 5 --q 4 --max-coal 2",
    "enumerate --n 30 --q 3 --max-coal 2",
    "enumerate --q-seq 1,1,1,1,1,1 --max-coal 0",
    "enumerate --q-seq 0,0,9 --max-coal 1",
    # wide, colored and too many classes: refused by the census
    "enumerate --n 1 --q 70",
    "enumerate --q-seq 3,3,3",
    "count --n 0 --q 60",
    "count --n 50 --q 2",
    # large --N: the draws of a simulation, and an oracle pass with few
    # configurations per level but large numerators
    "simulate --model drift2 --N 1000000000",
    "simulate --model drift2 --N 3 --replicas 100000000",
    "oracle --model drift2 --N 2000 --n 1 --q 1 --function F",
])
def test_a_hostile_request_answers_or_refuses_within_a_ceiling(tmp_path,
                                                               argv):
    """In 1 GB of address space and 20 s, a request exits 0 with its
    result or 2 with a refusal, and either way prints one JSON document:
    no MemoryError, RecursionError or kill.  F names a function file on
    level 1 of drift2."""
    src = os.path.dirname(os.path.dirname(fkforest.__file__))
    F = function_file(tmp_path, [1], ["1", "2"])
    done = subprocess.run([sys.executable, "-m", "fkforest.cli"]
                          + [F if a == "F" else a for a in argv.split()],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=_limit_address_space)
    assert done.returncode in (0, 2), done.stderr[-2000:]
    json.loads(done.stdout if done.returncode == 0 else done.stderr)


def test_oracle_refuses_negative_block_sizes(tmp_path, capsys):
    F = function_file(tmp_path, [0], ["1", "2"])
    rc, data = run(tmp_path, "oracle", "--model", "drift2", "--N", "3",
                   "--q-seq", "1,-1", "--function", F)
    assert rc == 2 and data is None
    assert json.loads(capsys.readouterr().err) == {
        "error": "InvalidParameter", "message": "block sizes must be >= 0"}


@pytest.mark.parametrize("argv, predicted", [
    (["--N", "1000000000"], 4_000_000_000),
    (["--N", "3", "--replicas", "100000000"], 1_200_000_000),
    (["--N", "1000", "--horizon", "1", "--replicas", "501"], 1_002_000),
])
def test_simulate_refuses_its_draws_before_the_first(tmp_path, capsys,
                                                     monkeypatch, argv,
                                                     predicted):
    """N (horizon + 1) replicas is held to caps.tensor before any draw."""
    from fkforest import montecarlo
    monkeypatch.setattr(montecarlo, "simulate", lambda *a, **k: pytest.fail(
        "drew before the check"))
    rc, data = run(tmp_path, "simulate", "--model", "drift2", *argv)
    assert (rc, data) == (2, None)
    assert json.loads(capsys.readouterr().err) == {
        "error": "CapExceeded", "message": "simulation too large",
        "predicted": predicted, "cap": 1_000_000}


def test_simulate_runs_at_the_draw_cap(tmp_path):
    rows = result(tmp_path, "simulate", "--model", "drift2", "--N", "500",
                  "--horizon", "1", "--replicas", "2", "--cap-tensor",
                  "2000")["rows"]
    assert len(rows) == 2


def test_the_oracle_refuses_a_pass_past_its_work_cap(tmp_path, capsys):
    """At N = 100 drift2 has 101 configurations per level, far below
    caps.configs, but N (101 + 101**2) = 1,030,200 is past caps.series;
    N = 99 is not."""
    F = function_file(tmp_path, [1], ["1", "2"])
    argv = ["oracle", "--model", "drift2", "--n", "1", "--q", "1",
            "--function", F]
    rc, data = run(tmp_path, *argv, "--N", "100")
    assert (rc, data) == (2, None)
    assert json.loads(capsys.readouterr().err) == {
        "error": "CapExceeded", "message": "configuration pass too large",
        "predicted": 100 * (101 + 101 ** 2), "cap": 1_000_000}
    assert result(tmp_path, *argv, "--N", "99")["value"]


def test_an_oracle_request_parses_its_files_without_fractions(
        tmp_path, monkeypatch):
    """The model file (30 entries) and the function file (27) load straight
    onto integers: the request builds fewer Fractions than either file has
    entries, where a parse of each entry through Fraction would build one
    per entry."""
    model = tmp_path / "model.json"
    model.write_text(bundled_model("cycle3").to_json())
    F = function_file(tmp_path, [2, 2, 2],
                      ["%d/%d" % (v - 13, v % 4 + 1) for v in range(27)])
    built = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert result(tmp_path, "oracle", "--model", str(model), "--N", "3",
                  "--n", "2", "--q", "3", "--function", F)["value"]
    monkeypatch.undo()
    assert 0 < built[0] < 27


@pytest.mark.parametrize("replicas", ["0", "-1"])
def test_simulate_refuses_fewer_than_one_replica(tmp_path, capsys, replicas):
    rc, data = run(tmp_path, "simulate", "--model", "flat2", "--N", "8",
                   "--replicas", replicas)
    assert rc == 2 and data is None
    assert json.loads(capsys.readouterr().err) == {
        "error": "InvalidParameter", "message": "--replicas must be >= 1"}


@pytest.mark.parametrize("estimator, key", [("tensor-q", "eta_tensor"),
                                            ("dot-q", "eta_dot")])
def test_simulate_block_estimators(tmp_path, estimator, key):
    """Without --function the block estimators pair the constant 1, whose
    empirical block mean is 1; with one they match `estimators` on the
    same seeded trajectory."""
    argv = ["simulate", "--model", "drift2", "--N", "5", "--n", "1",
            "--replicas", "2", "--seed", "3", "--estimator", estimator,
            "--q", "2"]
    rows = result(tmp_path, *argv)["rows"]
    assert [r["value"] for r in rows] == ["1/1", "1/1"]
    values = ["1", "-2", "1/3", "4"]
    F = function_file(tmp_path, [1, 1], values)
    rows = result(tmp_path, *argv, "--function", F)["rows"]
    m = bundled_model("drift2")
    Fm = TensorFunction(m, (1, 1), [Fraction(v) for v in values])
    for r, row in enumerate(rows):
        traj = fkforest.simulate(m, 5, 3, horizon=m.horizon, replica=r)
        want = fkforest.estimators(m, traj, 1, F=Fm, q=2)
        assert row["value"] == format_scalar(want[key])
        assert row["mass"] == format_scalar(want["gamma_norm"])


def test_simulate_writes_csv(tmp_path):
    rc, data = run(tmp_path, "simulate", "--model", "flat2", "--N", "8",
                   "--replicas", "3", "--format", "csv", name="out.csv")
    assert rc == 0
    lines = data.decode().splitlines()
    manifest = json.loads(lines[0][len("# manifest: "):])
    assert manifest["parameters"]["format"] == "csv"
    assert lines[1] == "replica,value,mass"
    assert [line.split(",")[0] for line in lines[2:]] == ["0", "1", "2"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_hilbert_without_coalescence_is_the_forest_census(tmp_path, fmt):
    """Every coefficient of the plain series counts the forests of its
    profile (count_forests), and the empty forest counts once."""
    rc, data = run(tmp_path, "hilbert", "--n", "2", "--truncation", "2,3,3",
                   "--format", fmt)
    assert rc == 0
    if fmt == "json":
        terms = [(tuple(t["monomial"]), t["count"])
                 for t in json.loads(data)["result"]["terms"]]
    else:
        lines = data.decode().splitlines()
        assert lines[1] == "x0,x1,x2,count"
        terms = [(tuple(map(int, line.split(",")[:-1])),
                  int(line.split(",")[-1])) for line in lines[2:]]
    series = dict(terms)
    assert series[(0, 0, 0)] == 1
    assert series[(2, 3, 3)] == count_forests((2, 3, 3)) > 1
    for mono, coeff in terms:
        prof = tuple(v for v in mono if v)
        assert mono[:len(prof)] == prof
        if prof:
            assert coeff == count_forests(prof)


def test_wick_on_an_odd_block_size_has_no_leading_value(tmp_path):
    F = function_file(tmp_path, [1, 1, 1],
                      ["1", "2", "3", "-1/2", "5", "1/7", "2", "3"])
    res = result(tmp_path, "expand", "--model", "drift2", "--n", "1",
                 "--q", "3", "--function", F, "--center", "--wick")
    assert res["wick"] == {"vanishing_orders": {"0": "0/1", "1": "0/1"},
                           "leading_order_value": None}


# ---------------------------------------------------------------------------
# the JSON writer

json_trees = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=30)


@given(json_trees)
@example({"caf\u00e9": ["\u2203x", "\U0001f600", "\ud800", 10 ** 30, -0.0,
                        math.inf, {}, [], None, True]})
@settings(max_examples=300, deadline=None)
def test_writer_equals_json_dumps(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def measure_table(m):
    """Reference rendering of a measure, one dict per nonzero entry."""
    entries = []
    for point, w in zip(itertools.product(*[range(s) for s in m.sizes]),
                        m.data):
        if w:
            entries.append({"point": list(point),
                            "value": format_scalar(w)})
    return {
        "levels": list(m.levels),
        "entries": entries,
        "total_mass": format_scalar(m.total_mass()),
        "tv_norm": format_scalar(m.tv_norm()),
    }


def reference_plain(v):
    """Reference for the writer's leaf hook: the document with every leaf
    turned into plain JSON data first."""
    if isinstance(v, dict):
        return {str(k): reference_plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [reference_plain(x) for x in v]
    if isinstance(v, Fraction):
        return format_scalar(v)
    if isinstance(v, SignedMeasure):
        return measure_table(v)
    if isinstance(v, TensorFunction):
        return {"levels": list(v.levels),
                "values": [reference_plain(x) for x in v.data]}
    if type(v).__module__ == "numpy":
        import numpy as np
        if isinstance(v, np.integer):
            return int(v)
        if isinstance(v, np.floating):
            return float(v)
    return v


TABLE_MODELS = [bundled_model("drift2"), bundled_model("cycle3", "float"),
                bundled_model("cycle3")]


@st.composite
def tables(draw, cls):
    model = draw(st.sampled_from(TABLE_MODELS))
    levels = draw(st.lists(st.integers(0, model.horizon), max_size=3))
    size = math.prod(model.size(k) for k in levels)
    if model.field == "rational":
        value = st.fractions(-10, 10, max_denominator=40)
    else:
        value = st.floats(-1e6, 1e6) | st.floats(-1e-3, 1e-3)
    data = draw(st.lists(st.just(model.zero) | value,
                         min_size=size, max_size=size))
    return cls(model, levels, data)


def _numpy_scalars():
    import numpy as np
    return (st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
            | st.floats().map(np.float64)
            | st.floats(width=32).map(np.float32))


# str(k) of a key must not collide with another key's
_keys = st.integers(-20, 20) | st.text(max_size=4)
raw_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.fractions() | tables(SignedMeasure) | tables(TensorFunction)
    | st.deferred(_numpy_scalars),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_keys, kids, max_size=4).filter(
        lambda d: len({str(k) for k in d}) == len(d)),
    max_leaves=12)

_cycle3 = TABLE_MODELS[2]


@given(raw_trees)
@example({"point0": SignedMeasure(_cycle3, (), [Fraction(-3, 4)]),
          "zero": SignedMeasure(TABLE_MODELS[1], (1, 2), [0.0] * 9),
          10: [Fraction(5), {9: [[]]}], 9: SignedMeasure(
              _cycle3, (1, 2), [Fraction(k % 4, 3) for k in range(9)])})
@settings(max_examples=200, deadline=None)
def test_raw_writer_equals_json_dumps_of_the_plain_doc(doc):
    assert cli._json_text(doc) == json.dumps(reference_plain(doc), indent=2,
                                             sort_keys=True)


@st.composite
def numerator_tables(draw):
    model = draw(st.sampled_from(TABLE_MODELS))
    levels = draw(st.lists(st.integers(0, model.horizon), max_size=2))
    size = math.prod(model.size(k) for k in levels)
    nums = draw(st.lists(st.integers(-50, 50), min_size=size,
                         max_size=size))
    return model, levels, nums, draw(st.integers(1, 36))


@given(numerator_tables())
@example((_cycle3, (1,), [-4, 0, 6], 2))
# zero total mass over denominator 1
@example((_cycle3, (1, 2), [3, -3, 0, 0, 5, -5, 0, 0, 0], 1))
@example((TABLE_MODELS[1], (1,), [-1, 0, 3], 4))
# the sum of the rounded entries is not the rounded exact total mass
@example((TABLE_MODELS[1], (1,), [0, 1, -3], 3))
@settings(max_examples=200, deadline=None)
def test_writer_renders_a_measure_from_its_numerators(table):
    """A measure held as numerators over a denominator writes each exact
    entry, its exact total mass and its exact TV norm, each read once in
    the model's field: as a Fraction, or as float(Fraction(v, den)) and
    float() of the exact sums in float mode."""
    model, levels, nums, den = table
    measure = SignedMeasure(model, levels, nums, den)
    exact = [Fraction(v, den) for v in nums]
    read = float if model.field == "float" else Fraction
    points = list(itertools.product(*[range(model.size(k)) for k in levels]))
    want = {
        "levels": list(levels),
        "entries": [{"point": list(point), "value": format_scalar(read(w))}
                    for point, w in zip(points, exact) if w],
        "total_mass": format_scalar(read(sum(exact))),
        "tv_norm": format_scalar(read(sum(map(abs, exact)))),
    }
    for point, w in zip(points, exact):
        assert measure.value(point) == read(w)
    assert cli._json_text(measure) == json.dumps(want, indent=2,
                                                 sort_keys=True)


def test_a_moment_report_builds_fewer_fractions_than_it_holds_entries(
        monkeypatch):
    """The coefficient tables, the exactness check and the writer stay on
    integer numerators: a report and its text build fewer Fractions than
    the entries of its tables."""
    model = bundled_model("cycle3")
    built = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    report = expansion_report_path_Q(model, (2, 1, 1), Ns=(5,))
    text = cli._json_text(report.to_jsonable())
    monkeypatch.undo()
    tables = [report.base, *report.orders.values(),
              *report.evaluations.values()]
    entries = sum(len(t.nums) for t in tables)
    assert entries == 6 * 81 and text.count('"point"') > 0
    assert len(built) < entries
