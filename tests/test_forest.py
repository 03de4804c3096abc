"""Plain leveled forests, as colored forests whose whites sit on top.

A plain profile (p_0..p_h) embeds as the colored profile
((0,p_0)..(0,p_{h-1}),(p_h,0)), and a plain map sequence (one parent map
per level) as the colored one whose only white part is the top map.  The
main oracle below generates every labeled ancestry for a plain profile,
groups them by unlabeled class, and compares both the class list and every
orbit size with the colored enumeration and its product formula.  Nothing
on the oracle side touches stabilizers or symmetry multisets.
"""

import itertools
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkforest import (Caps, black, black_chain,
                      brute_force_colored_orbit_count, build_wick_forest,
                      colored_forest_of, colored_planar_mapseq,
                      count_colored_jungles,
                      count_forests, enumerate_colored_forests,
                      enumerate_colored_orbits, flat_blocks, flat_pairs,
                      path_profile_bar, white, white_topped_chain)
from fkforest.classsum import (cut_branch_forest, double_pair_forest,
                               nested_merge_forest, pair_merge_forest,
                               staggered_merge_forest, triple_merge_forest,
                               two_tree_merge_forest)
from fkforest.colored_forest import ColoredMapSeq, colored_forest
from fkforest.errors import CapExceeded, InvalidParameter


def embedded(sizes, maps):
    """The colored map sequence of a plain one: whites only on top."""
    sizes = tuple(sizes)
    ws = (0,) * (len(sizes) - 1) + (sizes[-1],)
    bs = sizes[:-1] + (0,)
    cmaps = [((), tuple(m)) for m in maps[:-1]]
    if maps:
        cmaps.append((tuple(maps[-1]), ()))
    return ColoredMapSeq(ws, bs, cmaps)


def plain_maps(a):
    """Inverse of embedded: one parent map per level."""
    return [w + b for w, b in a.maps]


# Reference orbit formula: strip the roots level by level, and divide the
# group order by the factorials of the multiplicities of equal trees and of
# equal sibling subtrees met on the way.  Only tests use it; the package
# reads the same stabilizer off one tree, the black root that a forest
# holds over its trees: its automorphism count.


def colored_remove_roots(f):
    out = []
    for t, m in f.items:
        for c in t.children:
            out.extend([c] * m)
    return colored_forest(out)


def colored_symmetry_multiset(f):
    out = []
    for t, m in f.items:
        local = {}
        for c in t.children:
            local[c] = local.get(c, 0) + 1
        out.extend(sorted(local.values()) * m)
    return tuple(sorted(out))


def remove_roots_orbit_count(f):
    num = 1
    for w, b in zip(f.wprofile, f.bprofile):
        num *= factorial(w) * factorial(b)
    den = 1
    for _, m in f.items:
        den *= factorial(m)
    g = f
    for _ in range(f.height):
        for m in colored_symmetry_multiset(g):
            den *= factorial(m)
        g = colored_remove_roots(g)
    assert num % den == 0
    return num // den


def forests(profile, max_coal=None):
    return enumerate_colored_forests(flat_pairs(profile), max_coal)


def all_mapseqs(sizes):
    """Every labeled ancestry with the given level sizes."""
    per_level = [itertools.product(range(1, sizes[k] + 1),
                                   repeat=sizes[k + 1])
                 for k in range(len(sizes) - 1)]
    for maps in itertools.product(*per_level):
        yield embedded(sizes, maps)


def orbits_by_grouping(sizes):
    counts = {}
    for a in all_mapseqs(sizes):
        f = colored_forest_of(a)
        counts[f] = counts.get(f, 0) + 1
    return counts


GROUPING_PROFILES = [(2,), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3),
                     (2, 1, 2), (2, 2, 2), (1, 3, 2), (2, 2, 3), (3, 3, 3),
                     (2, 2, 2, 2)]


@pytest.mark.parametrize("profile", GROUPING_PROFILES)
def test_enumeration_and_orbit_sizes_match_exhaustive_grouping(profile):
    grouped = orbits_by_grouping(profile)
    listed = forests(profile)
    assert sorted(f.encoding for f in listed) == \
        sorted(f.encoding for f in grouped)
    for f in listed:
        assert f.pair_profile == flat_pairs(profile)
        assert count_colored_jungles(f) == grouped[f]
    total = 1
    for k in range(len(profile) - 1):
        total *= profile[k] ** profile[k + 1]
    assert sum(grouped.values()) == total


@pytest.mark.parametrize("profile", [(2, 2), (3, 2), (2, 3), (2, 2, 2)])
def test_orbit_formula_matches_stabilizer_sweep(profile):
    for f in forests(profile):
        assert count_colored_jungles(f) == \
            brute_force_colored_orbit_count(colored_planar_mapseq(f))


def random_relabeling(sizes, maps, rng):
    perms = [list(rng.sample(range(1, v + 1), v)) for v in sizes]
    out = []
    for k, m in enumerate(maps):
        up, dn = perms[k], perms[k + 1]
        inv_dn = [0] * len(dn)
        for i, x in enumerate(dn, start=1):
            inv_dn[x - 1] = i
        out.append(tuple(up[m[inv_dn[j] - 1] - 1] for j in range(len(m))))
    return embedded(sizes, out)


def test_unlabeling_is_invariant_under_relabeling():
    rng = random.Random(7)
    for profile in [(2, 2, 2), (3, 3), (2, 3, 2)]:
        for f in forests(profile):
            maps = plain_maps(colored_planar_mapseq(f))
            for _ in range(5):
                a = random_relabeling(profile, maps, rng)
                assert colored_forest_of(a) == f


def test_planar_representative_roundtrip():
    for profile in [(2, 2), (3, 3), (2, 2, 2), (1, 3, 2)]:
        for f in forests(profile):
            a = colored_planar_mapseq(f)
            assert colored_forest_of(a) == f
            assert a == embedded(profile, plain_maps(a))
            assert a.coal == f.coal
            # planar maps are weakly increasing level by level
            for m in plain_maps(a):
                assert list(m) == sorted(m)


def test_forest_builder_sorts_and_merges_duplicates():
    a = black((white(), white()))
    b = white_topped_chain(1)
    assert colored_forest([a, b, a]) == colored_forest([a, a, b])
    assert colored_forest([a, b, a]).items == colored_forest([b, a, a]).items
    f = colored_forest([a, a])
    assert f.n_trees == 2
    assert f.pair_profile == flat_pairs((2, 4))
    with pytest.raises(InvalidParameter):
        colored_forest([a, "oops"])


def test_tree_profile_and_coalescence_bookkeeping():
    # a line stopping below the top level ends in a black leaf
    t = black((black((white(), white())), black_chain(0)))
    assert t.bprofile == (1, 2, 0)
    assert t.wprofile == (0, 0, 2)
    assert t.internal == (1, 1, 0)
    assert t.coal == (1, 1)
    assert t.height == 2
    f = colored_forest([t, white_topped_chain(2)])
    assert f.pair_profile == flat_pairs((2, 3, 3))
    assert f.coal == (1, 1)
    assert f.coal_degree == 2


def test_root_removal_is_a_bijection_onto_shorter_forests():
    for body in [(2,), (2, 2), (3, 2), (2, 3)]:
        trees = forests((1,) + body)
        bodies = forests(body)
        assert len(trees) == len(bodies)
        assert all(f.n_trees == 1 for f in trees)
        removed = {colored_remove_roots(f) for f in trees}
        assert removed == set(bodies)


def test_merge_budget_filters_the_full_enumeration():
    profile = (3, 3, 3)
    full = forests(profile)
    for budget in range(0, 5):
        got = forests(profile, max_coal=budget)
        want = [f for f in full if f.coal_degree <= budget]
        assert got == want


def test_level_orbit_listing_matches_profile_enumeration():
    out = enumerate_colored_orbits(flat_blocks(1, 2))
    assert path_profile_bar(flat_blocks(1, 2)) == flat_pairs((2, 2, 2))
    assert [f.pair_profile for f, _ in out] == \
        [flat_pairs((2, 2, 2))] * len(out)
    assert {f: c for f, c in out} == \
        {f: count_colored_jungles(f) for f in forests((2, 2, 2))}
    with pytest.raises(InvalidParameter):
        flat_blocks(-1, 2)
    with pytest.raises(InvalidParameter):
        flat_blocks(0, 0)
    with pytest.raises(InvalidParameter):
        flat_pairs((2, 0, 1))


def test_enumeration_refuses_early_with_predicted_size():
    profile = (4, 4, 4)
    small = Caps(forests=10, group=10 ** 6, tensor=10 ** 6,
                 configs=10 ** 5, series=10 ** 6)
    with pytest.raises(CapExceeded) as err:
        enumerate_colored_forests(flat_pairs(profile), caps=small)
    assert err.value.predicted == count_forests(profile)
    assert err.value.cap == 10


def trivial_forest(n: int, q: int):
    """q white-topped chains spanning all levels: the no-interaction class."""
    return colored_forest([white_topped_chain(n + 1)] * q)


NAMED_SHAPES = [
    (trivial_forest, (1, 3), {}),
    (pair_merge_forest, (2, 3), {"k": 1}),
    (triple_merge_forest, (1, 3), {"k": 0}),
    (double_pair_forest, (1, 4), {"k": 1}),
    (nested_merge_forest, (2, 3), {"k": 0, "l": 2}),
    (cut_branch_forest, (2, 2), {"k": 0, "l": 1}),
    (two_tree_merge_forest, (1, 4), {"k": 0, "l": 1}),
    (staggered_merge_forest, (2, 3), {"k": 0, "l": 2}),
]


@pytest.mark.parametrize("builder,nq,kw", NAMED_SHAPES)
def test_named_shapes_live_in_the_uniform_enumeration(builder, nq, kw):
    n, q = nq
    f = builder(n, q, **kw)
    assert f.pair_profile == flat_pairs((q,) * (n + 2))
    assert f in forests((q,) * (n + 2))


def test_named_shape_merge_counts():
    assert trivial_forest(2, 3).coal_degree == 0
    assert pair_merge_forest(2, 3, 1).coal_degree == 1
    assert triple_merge_forest(1, 3, 0).coal_degree == 2
    assert double_pair_forest(1, 4, 0).coal_degree == 2
    assert nested_merge_forest(2, 3, 0, 1).coal_degree == 2
    assert cut_branch_forest(2, 2, 0, 2).coal_degree == 2
    assert two_tree_merge_forest(1, 4, 0, 1).coal_degree == 2
    assert staggered_merge_forest(2, 3, 0, 1).coal_degree == 2
    # pure pairing shape: one binary merge per level, whites all on top
    w = build_wick_forest({(0, 1, 1): 1, (1, 1, 1): 1})
    assert w.pair_profile == flat_pairs((4, 4, 4))
    assert w.coal == (1, 1)
    with pytest.raises(InvalidParameter):
        build_wick_forest({})
    with pytest.raises(InvalidParameter):
        pair_merge_forest(1, 2, 3)
    with pytest.raises(InvalidParameter):
        pair_merge_forest(1, 1, 0)
    with pytest.raises(InvalidParameter):
        nested_merge_forest(2, 3, 1, 1)


def test_symmetry_multiset_examples():
    two_leaves = black((white(), white()))
    assert colored_symmetry_multiset(colored_forest([two_leaves])) == (2,)
    mixed = black((white_topped_chain(1), black_chain(0)))
    assert colored_symmetry_multiset(colored_forest([mixed])) == (1, 1)
    assert colored_symmetry_multiset(colored_forest([white(), white()])) \
        == ()


# (block profile, merge budget, also run the stabilizer sweep).  The sweep
# over the 252 unbudgeted flat (3,3) classes takes seconds, so there it
# runs on the budgeted list only.
ORBIT_CASES = [
    (flat_blocks(2, 3), None, True),
    (flat_blocks(2, 3), 2, True),
    (flat_blocks(3, 3), None, False),
    (flat_blocks(3, 3), 1, True),
    ((2, 1, 1), None, True),
    ((2, 1, 1), 2, True),
    ((1, 1, 1, 1), None, True),
    ((1, 1, 1, 1), 2, True),
]


@pytest.mark.parametrize("blocks,max_coal,sweep", ORBIT_CASES)
def test_automorphism_orbit_sizes_match_root_removal_and_stabilizers(
        blocks, max_coal, sweep):
    classes = enumerate_colored_orbits(blocks, max_coal)
    assert classes
    for f, c in classes:
        assert c == count_colored_jungles(f) == remove_roots_orbit_count(f)
        if sweep:
            assert c == brute_force_colored_orbit_count(
                colored_planar_mapseq(f))


def test_tree_automorphism_examples():
    assert white().aut == black(()).aut == 1
    cherry = black((white(), white()))
    assert cherry.aut == 2
    # two cherries: swap them, and flip each one
    assert black((cherry, cherry)).aut == 2 * 2 ** 2
    assert black((cherry, white_topped_chain(1))).aut == 2
    assert black((white(),) * 3).aut == 6


def test_orbit_sizes_divide_the_group_order():
    for n, q in [(0, 3), (1, 2), (1, 3)]:
        group = factorial(q) ** (n + 2)
        for f, c in enumerate_colored_orbits(flat_blocks(n, q)):
            assert group % c == 0


@st.composite
def small_mapseq(draw):
    depth = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(depth)]
    maps = [tuple(draw(st.integers(1, sizes[k]))
                  for _ in range(sizes[k + 1]))
            for k in range(depth - 1)]
    return sizes, maps


@given(small_mapseq())
@settings(max_examples=80, deadline=None)
def test_unlabel_then_canonical_label_is_stable(sizes_maps):
    sizes, maps = sizes_maps
    a = embedded(sizes, maps)
    f = colored_forest_of(a)
    assert colored_forest_of(colored_planar_mapseq(f)) == f
    assert f.pair_profile == flat_pairs(sizes)
    assert f.coal == a.coal
