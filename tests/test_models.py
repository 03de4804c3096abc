"""Bundled models, their frozen flow tables, and the seeded generator."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import fkforest
from fkforest import (
    DOCUMENTED_FLOW,
    FKModel,
    InvalidParameter,
    ValidationError,
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
from fkforest import models
from fkforest.fk_core import parse_values


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


def test_the_hash_constructor_is_sha256_at_its_padding_edges():
    """SHA-256 pads to 64-byte blocks and needs 9 bytes of room, so the
    lengths around 55 and 64 take the one- and two-block paddings."""
    for n in (0, 55, 56, 63, 64, 65, 1000):
        data = bytes(i * 7 % 256 for i in range(n))
        assert models.sha256(data).hexdigest() == \
            hashlib.sha256(data).hexdigest()


def test_the_hashlib_fallback_gives_the_same_model_hashes():
    """With both built-in modules hidden the import falls back to
    hashlib.sha256; every bundled model hashes as before, in both
    fields."""
    code = ("import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from fkforest import models\n"
            "assert models.sha256 is hashlib.sha256\n"
            "print(' '.join(models.model_sha256(models.bundled_model(n, f))\n"
            "               for n in models.bundled_names()\n"
            "               for f in ('rational', 'float')))\n")
    src = os.path.dirname(os.path.dirname(fkforest.__file__))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        model_sha256(bundled_model(name, field))
        for name in bundled_names() for field in ("rational", "float")]


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


# ---------------------------------------------------------------------------
# the entry parser against the routes it replaced


def fraction_route(v):
    """How a rational entry was read before the integer rows: Fraction(v),
    floats refused."""
    if isinstance(v, float):
        raise ValidationError(
            "rational mode rejects floats; pass 'num/den' strings")
    return Fraction(v)


def float_route(v):
    """How a float entry was read before: strings exactly, then rounded."""
    if isinstance(v, str):
        return float(Fraction(v))
    return float(v)


PARSER_INPUTS = ["3", "-3/4", "6/8", "+3", " 3/4", "3/", "/3", "3 /4", "1.5",
                 "1e3", "3_0/7", "-3/-4", "1/0", "١/٢", 3,
                 Fraction(3, 4), 0.5]


def outcome(read, v):
    try:
        value = read(v)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    return type(value), value


@pytest.mark.parametrize("v", PARSER_INPUTS, ids=ascii)
@pytest.mark.parametrize("field, route", [("rational", fraction_route),
                                          ("float", float_route)])
def test_the_entry_parser_reads_what_fraction_read(field, route, v):
    """The same value, or the same exception type and message."""
    model = bundled_model("drift2", field)

    def new(x):
        (num,), den = parse_values([x], field)
        return model.scalar(num, den)

    assert outcome(new, v) == outcome(route, v)


def model_file(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_unreduced_entries_load_the_same_model(tmp_path):
    reduced = {"states": [["a", "b"]] * 2, "eta0": ["1/3", "2/3"],
               "M": [[["1/2", "1/2"], ["1/4", "3/4"]]],
               "G": [["2", "1/2"], ["1", "3"]]}
    unreduced = {"states": [["a", "b"]] * 2, "eta0": ["2/6", "4/6"],
                 "M": [[["2/4", "3/6"], ["1/4", "6/8"]]],
                 "G": [["4/2", "1/2"], ["3/3", "3"]]}
    a = load_model(model_file(tmp_path, "a.json", reduced))
    b = load_model(model_file(tmp_path, "b.json", unreduced))
    assert model_sha256(a) == model_sha256(b)
    assert a == b and hash(a) == hash(b)
    assert a.eta0_row == b.eta0_row == ((1, 2), 3)
    assert a.M == b.M and a.G == b.G
    assert load_model(model_file(tmp_path, "c.json", reduced), "float") \
        == load_model(model_file(tmp_path, "d.json", unreduced), "float")


def test_a_model_file_is_read_as_utf8_whatever_its_line_ends(tmp_path):
    doc = {"states": [["α", "β"]] * 2, "eta0": ["1/3", "2/3"],
           "M": [[["1/2", "1/2"], ["1/4", "3/4"]]],
           "G": [["2", "1/2"], ["1", "3"]]}
    path = tmp_path / "m.json"
    path.write_bytes(json.dumps(doc, indent=1, ensure_ascii=False)
                     .replace("\n", "\r\n").encode("utf-8"))
    m = load_model(str(path))
    assert m.states == (("α", "β"),) * 2
    assert m == FKModel(doc["states"], doc["eta0"], doc["M"], doc["G"])


def test_float_views_return_the_floats_as_read(tmp_path):
    doc = {"states": [["a", "b", "c"]] * 2, "eta0": [0.1, 0.7, "1/5"],
           "M": [[["1/3", "1/3", "1/3"], [0.25, 0.5, 0.25],
                  [0.6, 0.3, 0.1]]],
           "G": [[1, "2/3", 0.1], [3.5, "1/7", 2]], "field": "float"}
    m = load_model(model_file(tmp_path, "m.json", doc))
    assert m.field == "float"
    assert m.eta0 == tuple(map(float_route, doc["eta0"]))
    assert m.M == tuple(tuple(tuple(map(float_route, row)) for row in mk)
                        for mk in doc["M"])
    assert m.G == tuple(tuple(map(float_route, gk)) for gk in doc["G"])
    assert {type(v) for v in m.eta0 + m.M[0][1] + m.G[1]} == {float}
    again = FKModel.from_json(m.to_json())
    assert again == m and hash(again) == hash(m)


def test_float_mode_refuses_entries_that_are_not_finite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            FKModel([["a"]], [1.0], [], [[bad]], "float")
