"""The operator route for block moments against the genealogy class sum.

The moment engines compute E[(gamma^N)^{(x)q}] as a product over levels of
"select among the live coordinates, then transport one step".  Expanding
that product and grouping the map sequences by genealogy orbit gives the
class sum kept here as the reference: every colored class of the profile,
its measure `delta_colored`, its orbit size and its Stirling weight.  The
two routes must agree exactly, coefficient by coefficient and at finite N.
"""

import pytest

from fkforest import (bundled_model, delta_colored, enumerate_colored_orbits,
                      flat_blocks, path_derivative_Q, path_exact_QN,
                      path_max_order)
from fkforest.combinatorics import (compositions, falling_factorial,
                                    stirling_first)
from fkforest.models import random_rational_model


def blacks(prof):
    return tuple(sum(prof[k:]) for k in range(len(prof)))


def order_weight(image, src, k):
    """Order-k weight of a class with per-level image sizes `image` under
    per-level source sizes `src`:  sum over r >= 0 with ||r|| = k of
    prod_j s(m_j, s_j - r_j) / (s_j)_{m_j}."""
    total = 0
    for r in compositions(k, len(src), [s - 1 for s in src]):
        term = 1
        for m, s, rj in zip(image, src, r):
            term *= stirling_first(m, s - rj)
        total += term
    den = 1
    for m, s in zip(image, src):
        den *= falling_factorial(s, m)
    return total, den


class ClassSum:
    """Every class of the profile with its image sizes, orbit size and
    measure, weighted on demand."""

    def __init__(self, model, prof):
        n = len(prof) - 1
        self.model = model
        self.src = blacks(prof)
        self.terms = [(f.internal[:n + 1], cnt, delta_colored(model, f, prof))
                      for f, cnt in enumerate_colored_orbits(prof)]

    def weighted(self, weigh):
        total = None
        for image, cnt, delta in self.terms:
            num, den = weigh(image)
            if num:
                term = delta.scale(self.model.scalar(num * cnt, den))
                total = term if total is None else total + term
        return total.symmetrize_blocks()

    def coefficient(self, k):
        return self.weighted(lambda image: order_weight(image, self.src, k))

    def exact(self, N):
        def weigh(image):
            num = den = 1
            for m, b in zip(image, self.src):
                num *= falling_factorial(N, m)
                den *= falling_factorial(b, m) * N ** b
            return num, den

        return self.weighted(weigh)


CASES = [
    ("drift2", flat_blocks(1, 2)),
    ("drift2", flat_blocks(2, 3)),
    ("drift2", flat_blocks(1, 4)),
    ("drift2", (1, 1)),
    ("drift2", (2, 1, 1)),
    ("drift2", (1, 2, 1)),
    ("cycle3", flat_blocks(2, 3)),
    ("cycle3", (1, 1, 2)),
    # 2, 3 and 2 states on levels 0, 1 and 2: unequal strides per level
    ("sizes232", (1, 1, 1)),
    ("sizes232", (0, 3)),
]


def model(name):
    if name == "sizes232":
        return random_rational_model(7, sizes=(2, 3, 2))
    return bundled_model(name)


@pytest.mark.parametrize("name,prof", CASES,
                         ids=["%s-%s" % (m, "".join(map(str, p)))
                              for m, p in CASES])
def test_operator_route_is_the_class_sum(name, prof):
    m = model(name)
    ref = ClassSum(m, prof)
    for k in range(path_max_order(prof) + 1):
        assert path_derivative_Q(m, prof, k) == ref.coefficient(k)
    for N in (sum(prof), sum(prof) + 2):
        assert path_exact_QN(m, prof, N) == ref.exact(N)


def test_float_mode_agrees_with_the_class_sum():
    m = bundled_model("drift2", "float")
    prof = (2, 1, 1)
    ref = ClassSum(m, prof)

    def close(a, b):
        return (a - b).tv_norm() <= 1e-9 * (1 + a.tv_norm())

    for k in range(path_max_order(prof) + 1):
        assert close(path_derivative_Q(m, prof, k), ref.coefficient(k))
    assert close(path_exact_QN(m, prof, 5), ref.exact(5))


@pytest.mark.parametrize("name,prof", [("drift2", (2, 1, 1)),
                                       ("cycle3", (0, 3)),
                                       ("blend3", (1, 1))])
def test_float_mode_is_the_rounded_rational_route(name, prof):
    """Float entries enter the integer kernel exactly and every result is
    rounded once: each float table entry is float() of the rational route
    run on the exact Fractions of the float model's entries."""
    from test_fk_core import exact_twin
    m = bundled_model(name, "float")
    twin = exact_twin(m)

    def rounded(mu):
        return tuple(float(v) for v in mu.data)

    for k in range(path_max_order(prof) + 1):
        assert path_derivative_Q(m, prof, k).data == \
            rounded(path_derivative_Q(twin, prof, k))
    N = sum(prof) + 1
    assert path_exact_QN(m, prof, N).data == \
        rounded(path_exact_QN(twin, prof, N))
