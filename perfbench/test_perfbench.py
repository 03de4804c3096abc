"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench

Run from the repository root after perfbench/record.py has written
reference.json.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    os.makedirs(inputs.WORK_DIR, exist_ok=True)


@pytest.fixture
def references():
    with open(run.REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def test_inputs_are_a_function_of_workload_and_index():
    for name in ("expand-flat", "oracle"):
        first = inputs.input_files(name, 7)
        assert first == inputs.input_files(name, 7)
        assert first != inputs.input_files(name, 8)
    assert inputs.input_files("count", 0) == {}


def test_visit_order_is_a_function_of_the_seed():
    a = inputs.visit_order("oracle", 1, 300)
    assert a == inputs.visit_order("oracle", 1, 300)
    assert a != inputs.visit_order("oracle", 2, 300)
    # every pool member once before any repeats
    assert sorted(a[:inputs.POOL_SIZE]) == list(range(inputs.POOL_SIZE))
    assert inputs.visit_order("count", 5, 3) == [0, 0, 0]


def test_reference_covers_every_pool_member(references):
    for name in inputs.WORKLOADS:
        assert len(references[name]) == inputs.pool_size(name)


def test_digest_ignores_only_the_version():
    a = b'{\n  "manifest": {\n    "seed": 0,\n    "version": "0.1.0"\n  }\n}\n'
    b = a.replace(b"0.1.0", b"0.2.0")
    assert inputs.output_digest(a) == inputs.output_digest(b)
    assert inputs.output_digest(a) != inputs.output_digest(
        a.replace(b'"seed": 0', b'"seed": 1'))


def test_kernel_runs_and_checks_itself():
    assert 0 < child.kernel() < 5


@pytest.mark.parametrize("index", [0, 1, 100, 255])
def test_oracle_reference_matches_expansion_route(at_root, references,
                                                  index):
    """The recorded oracle output equals the class-sum value
    exact_QN(M, 2, 2, 4, F), an independent route to the same moment."""
    from fkforest import cli
    from fkforest.expansion import exact_QN
    from fkforest.fk_core import TensorFunction
    from fkforest.models import load_model

    for path, data in inputs.input_files("oracle", index).items():
        with open(path, "wb") as fh:
            fh.write(data)
    assert cli.main(inputs.request_argv("oracle")) == 0
    with open(inputs.OUT_PATH, "rb") as fh:
        data = fh.read()
    assert inputs.output_digest(data) == references["oracle"][index]
    value = Fraction(json.loads(data)["result"]["value"])
    model = load_model(inputs.MODEL_PATH)
    with open(inputs.FUNCTION_PATH, "r", encoding="utf-8") as fh:
        fdoc = json.load(fh)
    F = TensorFunction(model, fdoc["levels"],
                       [Fraction(v) for v in fdoc["values"]])
    assert exact_QN(model, 2, 2, 4, F) == value


def _traced(workload, references):
    index = 3 % inputs.pool_size(workload)
    server = run.Server(run.child_env())
    try:
        rec = run.run_one(server, workload, index, "trace",
                          references[workload][index])
    finally:
        server.close()
    assert "error" not in rec
    assert rec["trace"]["absent"] == []
    return rec["trace"]


def test_trace_counts_expand_flat(at_root, references):
    t = _traced("expand-flat", references)
    # 7 enumeration calls return 263 classes, 54 of them distinct
    assert t["groups"]["forest.enum"]["calls"] == 7
    assert t["classes"]["forest.enum"] == [263, 54]
    assert t["groups"]["fk_core.delta"]["calls"] > 0
    assert t["entries"] > t["nonzero"] > 0
    assert t["paths"] == 0
    assert t["groups"]["cli"]["calls"] == 1


def test_trace_counts_count_and_oracle(at_root, references):
    t = _traced("count", references)
    assert t["classes"]["forest.enum"] == [252, 252]
    assert t["groups"]["genfunc.count"]["calls"] >= 1
    assert t["groups"]["fk_core.delta"]["calls"] == 0
    t = _traced("oracle", references)
    assert t["paths"] == 3375
    assert t["groups"]["particle.oracle"]["calls"] == 1
    assert t["groups"]["forest.enum"]["calls"] == 0


def _summary(calls, absent=(), path_walks=0, paths=0):
    """A traced request's summary in which each group in calls ran."""
    return {
        "groups": {g: {"time": 0.1 * calls.get(g, 0),
                       "calls": calls.get(g, 0)} for g in layers.GROUPS},
        "layer_self": {layer: 0.01 for layer, _ in layers.GROUPS.values()},
        "classes": {"forest.enum": [0, 0], "colored_forest.enum": [0, 0]},
        "entries": 10, "nonzero": 5, "paths": paths,
        "path_walks": path_walks, "absent": list(absent),
    }


def test_per_layer_marks_idle_and_absent_layers():
    """A layer that did not run reads 0 marked as not measured, and absent
    targets are listed beside the metrics of their group."""
    gone = "fkforest.fk_core:delta_colored"
    trace = _summary({"cli": 1, "particle.oracle": 1, "fk_core.delta": 2},
                     absent=[gone])
    records = [dict(mode=mode, factor=1.0, latency_s=0.3,
                    fractions_share=0.5, trace=trace)
               for mode in ("plain", "trace", "profile")]
    m, marks = run.per_layer(records)
    # the oracle ran but walked no configuration path
    assert m["particle.oracle_s"] == pytest.approx(0.1)
    assert "particle.oracle_s" not in marks
    for name in ("particle.paths", "particle.paths_per_s"):
        assert m[name] == 0.0 and marks[name] == {"measured": False}
    assert marks["forest.enum_s"] == {"measured": False}
    assert marks["fk_core.delta_s"] == {"absent": [gone]}
    assert m["fk_core.deltas"] == 2
    assert "trace.overhead" not in marks
    # the marks stay out of the result line, whose entries hold a value
    # and a unit only
    units = run.load_units()
    result = run.result_line({"failed": 0, "requests": 3, "metrics": m,
                              "marks": marks}, units)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = [x["name"] for x in json.load(fh)["per_layer"]]
    assert sorted(result["metrics"]) == sorted(per_layer)
    for name, entry in result["metrics"].items():
        assert entry == {"value": m[name], "unit": units[name]}
