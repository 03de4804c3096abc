"""Expansion engines: caps, the report's exactness check and the Wick
leading order.

The flat q-block entry points run on the block profile (0,..,0,q) of the
colored engines.  The other cross-checks of the engines on the bundled
models (oracle, closed forms, block law) are the `verify` checks, which
tests/test_cli.py runs.
"""

import pytest

from fkforest import (Caps, CapExceeded, IdentityMismatch, center_function,
                      derivative_Q, exact_QN, expansion_report_Q,
                      function_from_vector, gamma_tensor,
                      gaussian_product_moment, path_wick_Q, wick_Q)

SMALL = Caps(forests=10)


def observable(m, k):
    return function_from_vector(
        m, k, [m.scalar(2 + i) for i in range(m.size(k))])


def test_caps_hold_whatever_the_caches_hold(drift2):
    # a first call with default caps fills the class caches
    derivative_Q(drift2, 2, 3, 3)
    with pytest.raises(CapExceeded) as err:
        derivative_Q(drift2, 2, 3, 3, caps=SMALL)
    assert err.value.predicted == 11
    exact_QN(drift2, 2, 3, 5)
    with pytest.raises(CapExceeded) as err:
        exact_QN(drift2, 2, 3, 5, caps=SMALL)
    assert err.value.predicted == 54


def test_report_is_the_exact_polynomial_in_one_over_n(drift2):
    rep = expansion_report_Q(drift2, 1, 2, Ns=(2, 3, 17))
    assert rep.check()
    assert rep.base == gamma_tensor(drift2, 1, 2)
    assert sorted(rep.orders) == [1, 2]
    rep.orders[2] = rep.orders[2].scale(2)
    with pytest.raises(IdentityMismatch):
        rep.check()


def test_wick_leading_order_is_the_gaussian_moment(drift2):
    q = 4
    f = center_function(drift2, observable(drift2, 1))
    F = f.tensor(f).tensor(f).tensor(f)
    vanish, half = wick_Q(drift2, 1, q, F)
    assert vanish == {0: 0, 1: 0}
    assert half == gaussian_product_moment(drift2, [(1, tuple(f.data))] * q)
    assert (vanish, half) == path_wick_Q(drift2, (0, q), F)
