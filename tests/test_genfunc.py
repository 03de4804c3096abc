"""Series censuses and the Burnside class census against exhaustive
forest enumeration and against each other.

The series coefficients asserted here are recomputed by listing the
forests they claim to count, with the colored enumerator on the
white-topped embedding of each plain profile.  Boxes that dip and then
rise again get their own cases: the series is built over a monotone
envelope internally, and these profiles used to be dropped.  The class
census (`count_forests`, `class_census`) meets both sides, and its work
guard is checked before it lists a cycle type.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkforest import (Caps, SparseSeries, coalescence_series, count_forests,
                      enumerate_colored_forests, flat_pairs, hilbert_series,
                      marginalize_coalescence)
from fkforest import classsum
from fkforest.cli import main
from fkforest.errors import CapExceeded, InvalidParameter
from fkforest.genfunc import census_terms, class_census
from fkforest.series import _multiply_geometric


def enumerate_forests(profile):
    """Plain forests with this profile, as white-topped colored forests."""
    return enumerate_colored_forests(flat_pairs(profile))


def monomial_to_profile(mono):
    """Strip trailing zeros; None when a gap makes it unrealizable."""
    out = list(mono)
    while out and out[-1] == 0:
        out.pop()
    if any(v == 0 for v in out):
        return None
    return tuple(out)


def census_by_enumeration(bounds):
    counts = {}
    for mono in _box(bounds):
        prof = monomial_to_profile(mono)
        if prof is None:
            counts[mono] = 0
        elif not prof:
            counts[mono] = 1
        else:
            counts[mono] = len(enumerate_forests(prof))
    return counts


def _box(bounds):
    if not bounds:
        yield ()
        return
    for head in range(bounds[0] + 1):
        for rest in _box(bounds[1:]):
            yield (head,) + rest


BOXES = [
    (0, (3,)),
    (1, (3, 3)),
    (1, (2, 4)),
    (1, (1, 4)),
    (2, (2, 2, 2)),
    (2, (2, 1, 3)),
    (2, (1, 2, 4)),
    (3, (2, 2, 2, 2)),
]


@pytest.mark.parametrize("n,bounds", BOXES)
def test_census_coefficients_count_forests(n, bounds):
    series = hilbert_series(n, bounds)
    want = census_by_enumeration(bounds)
    for mono in _box(bounds):
        assert series.coefficient(mono) == want[mono], mono
    # nothing outside the requested box leaks through
    assert all(e <= b for mono, _ in series.items()
               for e, b in zip(mono, bounds))


def test_census_regression_box_that_dips_then_rises():
    series = hilbert_series(1, (2, 4))
    assert series.coefficient((2, 3)) == 2
    assert series.coefficient((2, 4)) == 3
    assert series.coefficient((1, 4)) == 1


def test_uniform_truncation_shorthand():
    assert hilbert_series(2, 3) == hilbert_series(2, (3, 3, 3))


@pytest.mark.parametrize("n,bounds", [(1, (3, 3)), (1, (2, 4)),
                                      (2, (2, 2, 3))])
def test_merge_refined_census_matches_filtered_enumeration(n, bounds):
    series = coalescence_series(n, bounds)
    ybounds = tuple(max(bounds[k + 1] - 1, 0) for k in range(n))
    for mono, coeff in series.items():
        x, y = mono[:n + 1], mono[n + 1:]
        prof = monomial_to_profile(x)
        if prof is None:
            assert coeff == 0
            continue
        if len(prof) <= 1:
            want = 1 if all(v == 0 for v in y) else 0
        else:
            pad = y[:len(prof) - 1]
            want = sum(1 for f in enumerate_forests(prof)
                       if f.coal == pad and all(v == 0
                                                for v in y[len(prof) - 1:]))
        assert coeff == want, mono
    # and no realizable pair is missing
    for prof in [(2, 2), (2, 3), (1, 3)]:
        if len(prof) > n + 1 or any(p > b for p, b in zip(prof, bounds)):
            continue
        mono_x = prof + (0,) * (n + 1 - len(prof))
        for f in enumerate_forests(prof):
            mono_y = f.coal + (0,) * (n - len(f.coal))
            if any(v > b for v, b in zip(mono_y, ybounds)):
                continue
            assert series.coefficient(mono_x + mono_y) >= 1


@pytest.mark.parametrize("n,bounds", [(1, (3, 3)), (1, (2, 4)),
                                      (2, (2, 2, 2)), (2, (2, 1, 3))])
def test_forgetting_merge_grading_recovers_plain_census(n, bounds):
    refined = coalescence_series(n, bounds)
    assert marginalize_coalescence(refined, n) == hilbert_series(n, bounds)


# deep, wide and lopsided profiles, each listed by the enumeration
PROFILES = [(1,), (4,), (1, 1), (2, 2), (1, 3), (3, 1), (2, 4), (4, 2),
            (2, 1, 2), (1, 2, 4), (3, 3, 2), (2, 2, 2, 2), (1, 1, 1, 5),
            (3, 3, 3, 3, 3), (1, 2, 3, 4), (4, 1, 4), (2, 3, 1, 2),
            (3, 1, 3, 1), (4, 4, 1), (1, 4, 4), (2, 2, 2, 2, 2)]


@pytest.mark.parametrize("profile", PROFILES)
def test_closed_count_equals_enumeration_length(profile):
    series = hilbert_series(len(profile) - 1, profile)
    assert count_forests(profile) == series.coefficient(profile) == \
        len(enumerate_forests(profile))


def test_census_depth_does_not_grow_with_the_candidates():
    """Two roots over 1,201 children: one candidate shape per child count,
    so more candidates than Python's frame limit, and 1,201 white leaves
    for the cycle index to sum.  The forests are the unordered splits
    a + b = 1201, 601 of them."""
    assert count_forests((2, 1201)) == 601


def test_census_equals_the_series_on_579_profiles():
    """Every profile of length 2-4 with entries 1-4 and of length 5 with
    entries 1-3: the plain census equals the series coefficient."""
    profiles = [p for length in (2, 3, 4)
                for p in itertools.product(range(1, 5), repeat=length)]
    profiles += itertools.product(range(1, 4), repeat=5)
    assert len(profiles) == 579
    series = {length: hilbert_series(length - 1, 4 if length < 5 else 3)
              for length in (2, 3, 4, 5)}
    for p in profiles:
        assert count_forests(p) == series[len(p)].coefficient(p)


@pytest.mark.parametrize("profile,classes", [((3, 3, 3), 12),
                                             ((3, 3, 3, 3), 54)])
def test_a_cap_at_the_count_answers_and_one_under_refuses(profile, classes):
    """The census counts before any tree is built: the request answers at
    a cap equal to the count and refuses one under it, with the count."""
    assert count_forests(profile) == classes
    pairs = flat_pairs(profile)
    assert len(enumerate_colored_forests(pairs, caps=Caps(forests=classes))) \
        == classes
    with pytest.raises(CapExceeded) as err:
        enumerate_colored_forests(pairs, caps=Caps(forests=classes - 1))
    assert (err.value.predicted, err.value.cap) == (classes, classes - 1)
    assert err.value.args[0] == "enumeration would produce too many forests"


def test_count_enumerates_no_class(tmp_path, monkeypatch):
    """count --n 3 --q 3 answers from the censuses alone."""
    def no_enumeration(*args):
        raise AssertionError("enumerated %r" % (args[0],))

    monkeypatch.setattr(classsum, "_colored_classes", no_enumeration)
    assert main(["count", "--n", "3", "--q", "3",
                 "--out", str(tmp_path / "out.json")]) == 0


def test_the_census_refuses_its_work_past_the_series_cap():
    """(24, 24, 24) meets each of the p(24) = 1,575 cycle types of its
    roots with the 1,575 of the middle level, and each of those with the
    24 terms of the white series and the one empty type on top; the
    census refuses before it lists one.  (20, 20, 20) is under the
    default cap."""
    pairs = flat_pairs((24, 24, 24))
    assert census_terms(pairs) == 1575 ** 2 + 1575 * 25 == 2_520_000
    with pytest.raises(CapExceeded) as err:
        class_census(pairs)
    assert (err.value.predicted, err.value.cap) == (2_520_000, Caps().series)
    assert census_terms(flat_pairs((20, 20, 20))) == 627 ** 2 + 627 * 21
    with pytest.raises(CapExceeded):
        class_census(flat_pairs((20, 20, 20)), caps=Caps(series=627 ** 2))


def test_count_profile_edges():
    with pytest.raises(InvalidParameter):
        count_forests((2, 0, 1))
    # the empty profile names the empty forest, matching the census's
    # constant term
    assert count_forests(()) == 1
    # one level is one class, however many vertices it holds: p(100),
    # about 1.9e8 cycle types, is never listed
    assert class_census(((3, 100),)) == class_census(((3, 100),), 2) == [1]


def test_sparse_series_basics():
    s = SparseSeries(2, (3, 2), {(0, 0): 1, (1, 0): 0, (4, 0): 3})
    # zero terms and terms outside the box are dropped
    assert s.terms == {(0, 0): 1}
    assert s.coefficient((0, 0)) == 1
    assert s.coefficient((1, 0)) == 0
    with pytest.raises(InvalidParameter):
        s.coefficient((4, 0))
    with pytest.raises(InvalidParameter):
        s.coefficient((1,))
    with pytest.raises(InvalidParameter):
        SparseSeries(2, (1,))


def test_geometric_factor_coefficients_are_multichoose():
    terms = {(0,): 1}
    _multiply_geometric(terms, (6,), (1,), 3, Caps())
    assert terms == {(k,): math.comb(3 - 1 + k, k) for k in range(7)}
    # a factor that leaves the box is the identity
    before = dict(terms)
    _multiply_geometric(terms, (6,), (7,), 3, Caps())
    assert terms == before


def test_geometric_factors_commute():
    one_way, other = {(0, 0): 1}, {(0, 0): 1}
    for terms, factors in ((one_way, [((1, 0), 2), ((1, 1), 3)]),
                           (other, [((1, 1), 3), ((1, 0), 2)])):
        for mono, exponent in factors:
            _multiply_geometric(terms, (4, 4), mono, exponent, Caps())
    assert one_way == other
    assert len(one_way) == 15


def test_marginalize_sums_dropped_variables():
    s = SparseSeries(2, (2, 2), {(0, 0): 1, (1, 0): 2, (1, 1): 5, (2, 1): 7})
    m = s.marginalize((0,))
    assert m.nvars == 1 and m.bounds == (2,)
    assert m.coefficient((0,)) == 1
    assert m.coefficient((1,)) == 7
    assert m.coefficient((2,)) == 7
    with pytest.raises(InvalidParameter):
        s.marginalize((0, 0))
    with pytest.raises(InvalidParameter):
        s.marginalize((2,))


def test_series_cap_is_a_structured_refusal():
    """The series refuses after the first geometric factor that takes it
    past the cap, and names the terms it holds then."""
    tiny = Caps(forests=10 ** 5, group=10 ** 6, tensor=10 ** 6,
                configs=10 ** 5, series=5)
    with pytest.raises(CapExceeded) as err:
        hilbert_series(2, (3, 3, 3), caps=tiny)
    assert (err.value.predicted, err.value.cap) == (10, 5)
    with pytest.raises(CapExceeded) as err:
        hilbert_series(5, 3, caps=Caps(series=500))
    assert (err.value.predicted, err.value.cap) == (553, 500)


@given(n=st.integers(0, 2),
       bounds=st.lists(st.integers(0, 3), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_marginalization_identity_on_random_boxes(n, bounds):
    if len(bounds) != n + 1:
        bounds = (bounds + [2] * (n + 1))[:n + 1]
    refined = coalescence_series(n, tuple(bounds))
    assert marginalize_coalescence(refined, n) == \
        hilbert_series(n, tuple(bounds))
