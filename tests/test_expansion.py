"""Expansion engines: caps, the report's exactness check and the Wick
leading order.

A plain q-block moment is the block profile flat_blocks(n, q) =
(0,..,0,q) of the per-time-profile engines, which
tests/test_operator_route.py checks against the genealogy class sum.  The
other cross-checks of the engines on the bundled models (oracle, closed
forms, block law) are the `verify` checks, which tests/test_cli.py runs.
"""

import pytest

from fkforest import (Caps, CapExceeded, IdentityMismatch, bell_number,
                      bundled_model, center_function,
                      enumerate_colored_orbits, exact_QN, expansion_report_Q,
                      flat_blocks, function_from_vector, gamma_tensor,
                      gaussian_product_moment, path_derivative_Q,
                      path_exact_QN, path_max_order, path_wick_Q)

SMALL = Caps(forests=10)


def observable(m, k):
    return function_from_vector(
        m, k, [m.scalar(2 + i) for i in range(m.size(k))])


def test_caps_hold_whatever_the_caches_hold(drift2):
    prof = flat_blocks(2, 3)
    # first calls with default caps fill whatever caches there are
    path_derivative_Q(drift2, prof, 3)
    exact_QN(drift2, 2, 3, 5)
    enumerate_colored_orbits(prof, 3)
    enumerate_colored_orbits(prof)
    # the moment engines enumerate the Bell(3) = 5 set partitions of the
    # live block, not forests
    for call in (lambda c: path_derivative_Q(drift2, prof, 3, caps=c),
                 lambda c: exact_QN(drift2, 2, 3, 5, caps=c)):
        with pytest.raises(CapExceeded) as err:
            call(Caps(forests=4))
        assert (err.value.predicted, err.value.cap) == (5, 4)
        call(Caps(forests=5))
    with pytest.raises(CapExceeded) as err:
        enumerate_colored_orbits(prof, 3, SMALL)
    assert err.value.predicted == 11
    with pytest.raises(CapExceeded) as err:
        enumerate_colored_orbits(prof, None, SMALL)
    assert err.value.predicted == 54


def test_moment_engines_refuse_before_building_tables(drift2):
    with pytest.raises(CapExceeded) as err:
        path_derivative_Q(drift2, flat_blocks(2, 3), 3, caps=Caps(tensor=7))
    assert (err.value.predicted, err.value.cap) == (8, 7)
    # the 2**25-entry start table is refused, not built
    with pytest.raises(CapExceeded) as err:
        exact_QN(drift2, 0, 25, 30, caps=Caps(forests=10 ** 30))
    assert err.value.predicted == 2 ** 25
    with pytest.raises(CapExceeded) as err:
        exact_QN(drift2, 0, 25, 30)
    assert err.value.predicted == bell_number(25)


def test_report_is_the_exact_polynomial_in_one_over_n(drift2):
    rep = expansion_report_Q(drift2, 1, 2, Ns=(2, 3, 17))
    assert rep.check()
    assert rep.base == gamma_tensor(drift2, 1, 2)
    assert sorted(rep.orders) == [1, 2]
    rep.orders[2] = rep.orders[2].scale(2)
    with pytest.raises(IdentityMismatch):
        rep.check()


@pytest.mark.parametrize("name,prof", [("drift2", (0, 5)),
                                       ("cycle3", (1, 3))])
def test_operator_route_tables_are_block_symmetric(name, prof):
    """eta0 on every coordinate is exchangeable, each partition piece of an
    exchangeable block is too, and freezing and transport never mix
    same-level groups: no table of the route needs a symmetrization."""
    m = bundled_model(name)
    for k in range(path_max_order(prof) + 1):
        nu = path_derivative_Q(m, prof, k)
        assert nu.symmetrize_blocks() == nu
    mu = path_exact_QN(m, prof, sum(prof) + 2)
    assert mu.symmetrize_blocks() == mu


def test_wick_leading_order_is_the_gaussian_moment(drift2):
    q = 4
    f = center_function(drift2, observable(drift2, 1))
    F = f.tensor(f).tensor(f).tensor(f)
    vanish, half = path_wick_Q(drift2, flat_blocks(1, q), F)
    assert vanish == {0: 0, 1: 0}
    assert half == gaussian_product_moment(drift2, [(1, tuple(f.data))] * q)
