"""Property tests of the scalar tower against the four-fraction oracle.

Derandomized, so every run draws the same examples.
"""

from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from ckq import render  # noqa: E402
from ckq.coeffring import _V_CAP, Cyclo8, DegreeCapError, DualElement, ScalarExpr  # noqa: E402
from cyclo_oracle import FracCyclo8  # noqa: E402

PROPS = settings(derandomize=True, max_examples=300, deadline=None)
FEW = settings(PROPS, max_examples=60)

rationals = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(max_denominator=40),
    st.fractions(min_value=-(10 ** 20), max_value=10 ** 20, max_denominator=10 ** 12),
)


@st.composite
def cyclo_pairs(draw):
    """(Cyclo8, FracCyclo8) of one value; every other one is rational."""
    parts = [draw(rationals) for _ in range(4)]
    if draw(st.booleans()):
        parts[1:] = [0, 0, 0]
    return Cyclo8(*parts), FracCyclo8(*parts)


def agree(x, oracle):
    """x has the oracle's value, prints like it and is in lowest terms."""
    assert isinstance(x, Cyclo8)
    assert (x.a, x.b, x.c, x.d) == oracle.parts()
    assert str(x) == str(oracle)
    assert render.cyclo_json(x) == render.cyclo_json(oracle)
    *nums, den = x.key()
    assert den > 0 and gcd(*nums, den) == 1
    # lowest terms make the stored form unique: rebuilding from the
    # oracle's fractions gives the same key and hash
    again = Cyclo8(*oracle.parts())
    assert again.key() == x.key() and again == x and hash(again) == hash(x)


@PROPS
@given(cyclo_pairs(), cyclo_pairs())
def test_cyclo8_arithmetic_matches_oracle(xp, yp):
    (x, ox), (y, oy) = xp, yp
    agree(x, ox)
    agree(x + y, ox + oy)
    agree(x - y, ox - oy)
    agree(x * y, ox * oy)
    agree(-x, -ox)


@PROPS
@given(cyclo_pairs(), rationals)
def test_cyclo8_mixed_with_rationals_matches_oracle(xp, k):
    x, ox = xp
    ok = FracCyclo8(k)
    agree(x + k, ox + ok)
    agree(k + x, ok + ox)
    agree(x - k, ox - ok)
    agree(k - x, ok - ox)
    agree(x * k, ox * ok)
    agree(k * x, ok * ox)


@PROPS
@given(cyclo_pairs())
def test_cyclo8_inverse_matches_oracle(xp):
    x, ox = xp
    assume(ox)
    agree(x.inverse(), ox.inverse())
    agree(x * x.inverse(), FracCyclo8(1))


# ------------------------------------------------ ScalarExpr and DualElement

cyclos = cyclo_pairs().map(lambda pair: pair[0])
scalars = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(0, 2)), cyclos, max_size=3,
).map(ScalarExpr)
N = 3
duals = st.dictionaries(st.integers(0, (1 << N) - 1), scalars, max_size=4).map(
    lambda terms: DualElement(N, terms))


def valid_scalar(x):
    """What the public constructor accepts and keeps unchanged."""
    assert all(isinstance(c, Cyclo8) and c for c in x.terms.values())
    assert all(0 <= ve <= _V_CAP for _, ve in x.terms)
    assert ScalarExpr(x.terms).terms == x.terms


def valid_dual(x):
    assert all(isinstance(s, ScalarExpr) and s for s in x.terms.values())
    assert all(0 <= m < 1 << x.n for m in x.terms)
    for s in x.terms.values():
        valid_scalar(s)
    assert DualElement(x.n, x.terms).terms == x.terms


@FEW
@given(scalars, scalars)
def test_scalar_raw_results_are_valid(x, y):
    for r in (x + y, x - y, -x, x * y, x * ScalarExpr.one(), ScalarExpr.one() * y):
        valid_scalar(r)
    assert x * ScalarExpr.one() == x and (x + y) - y == x


@FEW
@given(duals, duals)
def test_dual_raw_results_are_valid(x, y):
    for r in (x + y, x - y, -x, x * y, x * DualElement.one(N), x * ScalarExpr.lam()):
        valid_dual(r)
    assert x * DualElement.one(N) == x and (x + y) - y == x


@FEW
@given(st.integers(0, _V_CAP), st.integers(0, _V_CAP), cyclos, cyclos)
def test_raw_products_keep_the_v_degree_cap(v1, v2, c1, c2):
    assume(c1 and c2)
    # q - q^-1 times c v^k has v-degree k, and the product's top
    # v-degree is v1 + v2
    x = ScalarExpr.lam() * ScalarExpr.v_power(v1, c1) + ScalarExpr.one()
    y = ScalarExpr.v_power(v2, c2) + ScalarExpr.s_power(1)
    dx = DualElement.scalar(N, x) + DualElement.iota(N, 1)
    dy = DualElement.scalar(N, y) + DualElement.iota(N, 2)
    if v1 + v2 > _V_CAP:
        with pytest.raises(DegreeCapError):
            x * y
        with pytest.raises(DegreeCapError):
            dx * dy
    else:
        valid_scalar(x * y)
        valid_dual(dx * dy)

