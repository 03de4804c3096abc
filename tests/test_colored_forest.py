"""Two-color forests against exhaustive grouping of labeled ancestries.

Same oracle pattern as the plain case: list every labeled colored
ancestry for a level profile, group by unlabeled class, compare class
lists and orbit sizes.  Colors bind whites to leaves, so parent maps only
ever point at black vertices.
"""

import itertools
import json
import random
import types
from math import factorial

import pytest

from fkforest import (Caps, black, black_chain, brute_force_colored_orbit_count,
                      build_wick_forest, colored_forest_of,
                      colored_planar_mapseq, count_colored_jungles,
                      enumerate_colored_forests, enumerate_colored_orbits,
                      first_order_path_forest, normalize_path_profile,
                      path_profile_bar, white, white_topped_chain,
                      wick_colored_tree)
from fkforest.cli import main
from fkforest.classsum import _colored_classes, _group_order
from fkforest.colored_forest import ColoredMapSeq, ColoredTree, colored_forest
from fkforest.errors import CapExceeded, InvalidParameter
from fkforest.genfunc import class_census, flat_blocks, jungle_census


def all_colored_mapseqs(pairs):
    ws = [w for w, _ in pairs]
    bs = [b for _, b in pairs]
    per_level = []
    for k in range(len(pairs) - 1):
        per_level.append(itertools.product(
            itertools.product(range(1, bs[k] + 1), repeat=ws[k + 1]),
            itertools.product(range(1, bs[k] + 1), repeat=bs[k + 1])))
    for maps in itertools.product(*per_level):
        yield ColoredMapSeq(ws, bs, maps)


def colored_orbits_by_grouping(pairs):
    counts = {}
    for a in all_colored_mapseqs(pairs):
        f = colored_forest_of(a)
        counts[f] = counts.get(f, 0) + 1
    return counts


PAIR_PROFILES = [
    ((0, 2), (1, 1), (1, 0)),
    ((0, 3), (2, 1), (1, 0)),
    ((0, 3), (1, 2), (2, 0)),
    ((0, 2), (0, 2), (2, 0)),
    ((0, 2), (1, 2), (1, 1), (1, 0)),
]


@pytest.mark.parametrize("pairs", PAIR_PROFILES)
def test_colored_enumeration_and_orbits_match_grouping(pairs):
    grouped = colored_orbits_by_grouping(pairs)
    listed = enumerate_colored_forests(pairs)
    assert sorted(f.encoding for f in listed) == \
        sorted(f.encoding for f in grouped)
    for f in listed:
        assert count_colored_jungles(f) == grouped[f]


@pytest.mark.parametrize("pairs", PAIR_PROFILES[:3])
def test_colored_orbit_formula_matches_stabilizer_sweep(pairs):
    for f in enumerate_colored_forests(pairs):
        a = colored_planar_mapseq(f)
        assert count_colored_jungles(f) == brute_force_colored_orbit_count(a)


@pytest.mark.parametrize("blocks", [(1, 1), (2,), (2, 1), (1, 2), (1, 1, 1),
                                    (2, 2)])
def test_colored_partition_identity(blocks):
    pairs = path_profile_bar(blocks)
    total = sum(c for _, c in enumerate_colored_orbits(blocks))
    want = 1
    for k in range(1, len(pairs)):
        w, b = pairs[k]
        want *= pairs[k - 1][1] ** (w + b)
    assert total == want


def test_block_profile_normalization():
    assert normalize_path_profile((2, 0, 1, 0)) == (2, 0, 1)
    assert normalize_path_profile([1]) == (1,)
    with pytest.raises(InvalidParameter):
        normalize_path_profile((0, 0))
    with pytest.raises(InvalidParameter):
        normalize_path_profile((1, -1))


def test_block_profile_to_level_pairs():
    pairs = path_profile_bar((2, 1))
    assert pairs == ((0, 3), (2, 1), (1, 0))
    # whites at level j are the block frozen at time j-1; blacks the rest
    blocks = (1, 2, 1)
    pairs = path_profile_bar(blocks)
    for j, (w, b) in enumerate(pairs):
        assert w == (blocks[j - 1] if j >= 1 else 0)
        assert b == sum(blocks[j:])


def test_colored_builders_and_bookkeeping():
    t = black((white(), black_chain(1)))
    f = colored_forest([t, white_topped_chain(1)])
    assert f.wprofile == (0, 2, 0)
    assert f.bprofile == (2, 1, 1)
    assert f.pair_profile == ((0, 2), (2, 1), (0, 1))
    # three children at level 1 share two internal parents: one merge
    assert f.coal == (1, 0)
    g = colored_forest([black((white(), white()))])
    assert g.coal == (1,)
    assert g.coal_degree == 1
    with pytest.raises(InvalidParameter):
        colored_forest([t, "oops"])


def test_trees_and_forests_built_apart_compare_and_hash_by_shape():
    """Two builds of one shape are two objects, yet equal: a tree sorts its
    children, so the order they come in does not matter."""
    a = black((white(), black_chain(1), white()))
    b = black((black((black(()),)), white(), white()))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a.aut == b.aut == 2
    assert a != black((white(), black_chain(1)))
    f = colored_forest([a, white_topped_chain(1), a])
    g = colored_forest([white_topped_chain(1), b, b])
    assert f == g and hash(f) == hash(g)
    assert count_colored_jungles(f) == count_colored_jungles(g)
    assert len({a, b}) == 1 and len({f, g}) == 1


def test_colored_roundtrip_and_relabel_invariance():
    rng = random.Random(11)
    for pairs in PAIR_PROFILES:
        for f in enumerate_colored_forests(pairs):
            a = colored_planar_mapseq(f)
            assert colored_forest_of(a) == f
            ws, bs = a.white_sizes, a.black_sizes
            for _ in range(4):
                bperms = [list(rng.sample(range(1, v + 1), v)) for v in bs]
                wperms = [list(rng.sample(range(1, v + 1), v)) for v in ws]
                maps = []
                for k, (wm, bm) in enumerate(a.maps):
                    up = bperms[k]
                    inv_w = _invert(wperms[k + 1])
                    inv_b = _invert(bperms[k + 1])
                    maps.append((
                        tuple(up[wm[inv_w[j] - 1] - 1]
                              for j in range(len(wm))),
                        tuple(up[bm[inv_b[j] - 1] - 1]
                              for j in range(len(bm)))))
                assert colored_forest_of(ColoredMapSeq(ws, bs, maps)) == f


def _invert(perm):
    inv = [0] * len(perm)
    for i, x in enumerate(perm, start=1):
        inv[x - 1] = i
    return tuple(inv)


def test_colored_orbit_sizes_divide_the_color_group_order():
    for pairs in PAIR_PROFILES:
        group = 1
        for w, b in pairs:
            group *= factorial(w) * factorial(b)
        for f in enumerate_colored_forests(pairs):
            assert group % count_colored_jungles(f) == 0


def test_merge_budget_filters_colored_enumeration():
    pairs = path_profile_bar((2, 2))
    full = enumerate_colored_forests(pairs)
    for budget in range(0, 4):
        got = enumerate_colored_forests(pairs, max_coal=budget)
        want = [f for f in full if f.coal_degree <= budget]
        assert sorted(f.encoding for f in got) == \
            sorted(f.encoding for f in want)


def test_a_budgeted_enumeration_builds_no_tree_over_its_budget(monkeypatch):
    # the black root each ColoredForest holds over its trees is no tree of
    # the class; it is built by ColoredTree itself, not through black
    from fkforest import classsum as module
    inner = module.black
    degrees = []

    def recorded(children):
        tree = inner(children)
        degrees.append(tree.coal_degree)
        return tree

    monkeypatch.setattr(module, "black", recorded)
    got = enumerate_colored_forests(path_profile_bar(flat_blocks(3, 3)),
                                    max_coal=1)
    assert len(got) == sum(class_census(
        path_profile_bar(flat_blocks(3, 3)), 1))
    assert degrees and max(degrees) == 1


def test_colored_enumeration_counts_past_the_cap():
    # the census counts a colored profile too, so a cap under the count is
    # refused up front with the exact count
    pairs = path_profile_bar((2, 1, 1))
    assert len(enumerate_colored_forests(pairs)) == 22
    for cap in (1, 5, 21):
        with pytest.raises(CapExceeded) as err:
            enumerate_colored_forests(pairs, caps=Caps(forests=cap))
        assert (err.value.predicted, err.value.cap) == (22, cap)
    assert len(enumerate_colored_forests(pairs, caps=Caps(forests=22))) \
        == 22


def orbit_totals(pairs, max_coal):
    """Per merge degree, the number of classes of a pair profile and the
    sum of their orbit sizes, by enumeration: the reference the censuses
    are checked against.  It sums over the classes as tuples of trees,
    and divides the group order by the automorphisms of a black root
    over them, which is the stabilizer of the class."""
    group = _group_order(pairs)
    totals = {}
    for trees in _colored_classes(pairs, max_coal):
        slot = totals.setdefault(sum(t.coal_degree for t in trees), [0, 0])
        slot[0] += 1
        slot[1] += group // ColoredTree(False, trees).aut
    return totals


TOTAL_PROFILES = [flat_blocks(n, q) for n, q in ((0, 2), (1, 2), (2, 3),
                                                  (3, 3))] + \
    [(2, 1, 1), (1, 2, 2), (1, 1, 1, 1)]


@pytest.mark.parametrize("max_coal", [None, 0, 1, 2])
@pytest.mark.parametrize("q", TOTAL_PROFILES)
def test_orbit_totals_equal_the_class_list(q, max_coal):
    want = {}
    for f, cnt in enumerate_colored_orbits(q, max_coal):
        slot = want.setdefault(f.coal_degree, [0, 0])
        slot[0] += 1
        slot[1] += cnt
    assert orbit_totals(path_profile_bar(q), max_coal) == want


@pytest.mark.parametrize("max_coal", [None, 0, 1, 2])
@pytest.mark.parametrize("q", TOTAL_PROFILES + [(2, 2, 2), (3, 1, 2),
                                                (0, 3, 3), (0, 0, 0, 4)])
def test_census_equals_the_enumeration_per_degree(q, max_coal):
    """Classes and jungles per merge degree: the censuses against the
    enumeration, and the plain census against their total."""
    check_census(path_profile_bar(q), max_coal)


# whites on the root level and blacks on the top one, which no block
# profile has
@pytest.mark.parametrize("max_coal", [None, 1])
@pytest.mark.parametrize("pairs", [((1, 2), (2, 1)), ((2, 1), (1, 2), (1, 1)),
                                   ((0, 2), (1, 2), (2, 2)), ((3, 0),)])
def test_census_counts_any_pair_profile(pairs, max_coal):
    check_census(pairs, max_coal)


def check_census(pairs, max_coal):
    top = sum(w + b for w, b in pairs[1:]) if max_coal is None else max_coal
    classes = class_census(pairs, top)
    jungles = jungle_census(pairs, top)
    assert len(classes) == len(jungles) <= top + 1
    got = {d: [c, j] for d, (c, j) in enumerate(zip(classes, jungles)) if c}
    assert got == orbit_totals(pairs, max_coal)
    assert all(j == 0 for c, j in zip(classes, jungles) if not c)
    if max_coal is None:
        assert class_census(pairs) == [sum(classes)]


@pytest.mark.parametrize("cap", [1, 5, 21])
def test_count_refuses_past_the_cap_while_generating(tmp_path, capsys, cap):
    """No class is generated: the census counts the colored profile, and
    a cap under its 22 classes refuses with that exact count."""
    out = tmp_path / "out.json"
    assert main(["count", "--q-seq", "2,1,1", "--cap-forests", str(cap),
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["predicted"], err["cap"]) == \
        ("CapExceeded", 22, cap)


def test_pairing_tree_shapes():
    t = wick_colored_tree(0, 1, 2)
    # whites freeze one level below their merge indices
    assert t.wprofile == (0, 0, 1, 1)
    assert t.bprofile == (1, 2, 1, 0)
    f = build_wick_forest({(0, 1, 2): 1, (1, 1, 1): 1})
    assert f.wprofile == (0, 0, 3, 1)
    assert f.coal_degree == 2
    # stubs pad the black counts so the class sits in the path census
    assert f.pair_profile == path_profile_bar((0, 3, 1))
    assert f in enumerate_colored_forests(f.pair_profile)


def test_single_fluctuation_shapes_live_in_their_profile():
    n, q = 2, 2
    for m in range(n + 1):
        blocks = [0] * (n + 1)
        blocks[m] += 1
        blocks[n] += q
        pairs = path_profile_bar(blocks)
        for k in range(m + 1):
            f = first_order_path_forest(n, q, k, m)
            assert f.pair_profile == pairs
            assert f in enumerate_colored_forests(pairs)
            assert f.coal_degree == 1


def test_submodule_import_binds_the_module():
    import fkforest.colored_forest as mod
    assert isinstance(mod, types.ModuleType)
    assert mod.colored_forest([white()]) == colored_forest([white()])
