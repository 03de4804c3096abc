"""Bundled models, their frozen flow tables, and the seeded generator."""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from fkforest import (
    DOCUMENTED_FLOW,
    FKModel,
    InvalidParameter,
    bundled_model,
    bundled_names,
    check_documented_flow,
    exact_eta_tensor_oracle,
    flow,
    format_scalar,
    function_from_vector,
    load_model,
    model_sha256,
    random_rational_model,
)


def test_bundled_names():
    names = bundled_names()
    assert set(names) == {"drift2", "flat2", "skew2", "cycle3", "blend3"}
    for name in names:
        assert isinstance(bundled_model(name), FKModel)
    with pytest.raises(InvalidParameter):
        bundled_model("nope")


@pytest.mark.parametrize("name", ["drift2", "flat2", "skew2", "cycle3",
                                  "blend3"])
def test_documented_flow_is_reproduced(name):
    check_documented_flow(name)
    fl = flow(bundled_model(name))
    doc = DOCUMENTED_FLOW[name]
    assert tuple(format_scalar(v) for v in fl.gnorm) == doc["gamma_mass"]
    for k, vec in enumerate(fl.eta_vec):
        assert tuple(format_scalar(v) for v in vec) == doc["eta"][k]


def path_sum_gamma(model, n):
    """gamma_n per state: a sum over all state paths of eta0 * prod M *
    prod G, with no use of the flow recursion."""
    out = [Fraction(0)] * model.size(n)
    for path in itertools.product(*[range(model.size(k))
                                    for k in range(n + 1)]):
        w = model.eta0[path[0]]
        for k in range(1, n + 1):
            w *= model.M[k - 1][path[k - 1]][path[k]]
        for p in range(n):
            w *= model.G[p][path[p]]
        out[path[n]] += w
    return tuple(out)


@pytest.mark.parametrize("name", ["drift2", "flat2", "skew2", "cycle3",
                                  "blend3"])
def test_flow_and_documented_table_match_path_sums(name):
    m = bundled_model(name)
    fl = flow(m)
    doc = DOCUMENTED_FLOW[name]
    for k in range(m.horizon + 1):
        vec = path_sum_gamma(m, k)
        assert vec == fl.gamma_vec[k]
        mass = sum(vec)
        assert format_scalar(mass) == doc["gamma_mass"][k]
        assert tuple(format_scalar(v / mass) for v in vec) == doc["eta"][k]


def test_unknown_bundled_model_lists_choices():
    with pytest.raises(InvalidParameter) as err:
        bundled_model("typo3")
    assert "drift2" in str(err.value)


def test_load_model_resolves_names_and_files(tmp_path, cycle3):
    assert load_model("cycle3") == cycle3
    path = tmp_path / "m.json"
    path.write_text(cycle3.to_json(), encoding="utf-8")
    again = load_model(str(path))
    assert again == cycle3
    floated = load_model(str(path), field="float")
    assert floated.field == "float"
    assert floated.eta0[0] == pytest.approx(float(cycle3.eta0[0]))
    with pytest.raises(InvalidParameter) as err:
        load_model(str(tmp_path / "missing.json"))
    assert "blend3" in str(err.value)


def test_model_hash_is_stable_and_discriminating():
    seen = set()
    for name in bundled_names():
        h1 = model_sha256(bundled_model(name))
        h2 = model_sha256(bundled_model(name))
        assert h1 == h2
        assert len(h1) == 64 and set(h1) <= set("0123456789abcdef")
        seen.add(h1)
    assert len(seen) == len(bundled_names())


def indented_dump_hash(model):
    """The hash as json.dumps(indent=2, sort_keys=True) of the model's
    canonical document gives it."""
    doc = {
        "states": [list(lvl) for lvl in model.states],
        "eta0": [format_scalar(v) for v in model.eta0],
        "M": [[[format_scalar(v) for v in row] for row in mk]
              for mk in model.M],
        "G": [[format_scalar(v) for v in gk] for gk in model.G],
        "field": model.field,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("field", ["rational", "float"])
def test_model_hash_equals_the_indented_json_dump(tmp_path, field):
    for name in bundled_names():
        model = bundled_model(name, field)
        assert model_sha256(model) == indented_dump_hash(model)
    # a model file with unsorted keys, odd spacing and unreduced entries
    # hashes as its canonical form
    text = (' { "G" : [["4/2","1/2"] ,["1","3"],["1/2","5/2"],["1","2"]],\n'
            '"M":[[["2/4","1/2"],["1/4","3/4"]],[["2/3","1/3"],'
            '["1/5","4/5"]],\t[["3/7","4/7"],["1/2","1/2"]]],'
            '"states":[["a","b"],["a","b"],["a","b"],["a","b"]],'
            '  "eta0":["1/3","4/6"]}  \n')
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    model = load_model(str(path), field)
    assert model_sha256(model) == indented_dump_hash(model) == \
        model_sha256(bundled_model("drift2", field))


def test_random_model_is_seed_deterministic():
    a = random_rational_model(7)
    b = random_rational_model(7)
    assert a == b
    assert model_sha256(a) == model_sha256(b)
    c = random_rational_model(8)
    assert a != c
    sized = random_rational_model(3, sizes=(3, 2, 2))
    assert tuple(sized.size(k) for k in range(3)) == (3, 2, 2)
    assert sized.horizon == 2
    deep = random_rational_model(3, horizon=4)
    assert deep.horizon == 4
    with pytest.raises(InvalidParameter):
        random_rational_model(1, sizes=(0, 2))
    with pytest.raises(InvalidParameter):
        random_rational_model(1, sizes=(30,))


def test_random_models_are_valid_rational_models():
    for seed in range(10):
        m = random_rational_model(seed)
        assert m.field == "rational"
        assert sum(m.eta0) == 1
        for mk in m.M:
            for row in mk:
                assert sum(row) == 1
        fl = flow(m)
        for k in range(m.horizon + 1):
            assert sum(fl.eta_vec[k]) == 1
            assert fl.gnorm[k] > 0


def test_skew2_finite_ensemble_bias_witness(skew2):
    """The normalized one-particle marginal at finite N is genuinely biased
    here; these two gaps pin the model down as a regression anchor."""
    fl = flow(skew2)
    f = function_from_vector(skew2, 1, [1, 0])
    gap2 = exact_eta_tensor_oracle(skew2, 2, n=1, q=1, F=f) - fl.eta_vec[1][0]
    gap3 = exact_eta_tensor_oracle(skew2, 3, n=1, q=1, F=f) - fl.eta_vec[1][0]
    assert gap2 == Fraction(-49, 200)
    assert gap3 == Fraction(-749, 4180)
    # shrinking with N, and nonzero: the plain flow is not the N-particle law
    assert abs(gap3) < abs(gap2)


def test_json_preserves_field_and_shape(drift2):
    text = drift2.to_json()
    m = FKModel.from_json(text)
    assert m.field == "rational"
    assert m.states == drift2.states
    assert m.M == drift2.M and m.G == drift2.G
