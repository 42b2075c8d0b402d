"""Property tests of the scalar tower against the four-fraction oracle.

The fused kernel ``DualElement.dot`` is checked against a term-by-term
sum in the oracle's arithmetic, with and without a dot table.
Derandomized, so every run draws the same examples.
"""

from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from ckq import render  # noqa: E402
from ckq.coeffring import (_V_CAP, Cyclo8, DegreeCapError, DualElement,  # noqa: E402
                           ScalarExpr, _dots)
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
    *nums, den = x._t
    assert den > 0 and gcd(*nums, den) == 1
    # lowest terms make the stored form unique: rebuilding from the
    # oracle's fractions gives the same tuple and hash
    again = Cyclo8(*oracle.parts())
    assert again._t == x._t and again == x and hash(again) == hash(x)


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


nonzero_rationals = rationals.filter(bool)


@PROPS
@given(nonzero_rationals, st.booleans())
def test_rational_inverse_is_the_reciprocal(r, negate):
    x = Cyclo8(-r if negate else r)
    # the three conjugate products, as for an irrational element
    cofactor = x.conj_i() * x.conj_sqrt2() * x.conj_i().conj_sqrt2()
    by_conjugates = cofactor * (1 / (x * cofactor).a)
    inv = x.inverse()
    assert inv == by_conjugates and inv._t == by_conjugates._t
    assert inv._t[4] > 0 and gcd(*inv._t) == 1  # the sign on the numerator
    assert x * inv == 1


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
    x = ScalarExpr.lam() * ScalarExpr({(0, v1): c1}) + ScalarExpr.one()
    y = ScalarExpr({(0, v2): c2}) + ScalarExpr.s_power(1)
    dx = DualElement.scalar(N, x) + DualElement.monomial(N, 1)
    dy = DualElement.scalar(N, y) + DualElement.monomial(N, 2)
    if v1 + v2 > _V_CAP:
        with pytest.raises(DegreeCapError):
            x * y
        with pytest.raises(DegreeCapError):
            dx * dy
    else:
        valid_scalar(x * y)
        valid_dual(dx * dy)



# ------------------------------------------------- the fused kernel, DualElement.dot

capped = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(0, _V_CAP)), cyclos, max_size=3,
).map(ScalarExpr)
wide_duals = st.one_of(
    st.sampled_from([DualElement.one(N), DualElement.zero(N)]),
    st.dictionaries(st.integers(0, (1 << N) - 1), capped, max_size=3).map(
        lambda terms: DualElement(N, terms)))
ONE = {(0, 0, 0): (1, 0, 0, 0)}


def oracle_dot(pairs):
    """(subset, s, v) -> the four components of the coefficient, nonzero:
    every product of two terms formed and added one at a time in the
    four-fraction arithmetic; None past the v-degree cap."""
    out = {}
    for a, b in pairs:
        for m1, s1 in a.terms.items():
            for m2, s2 in b.terms.items():
                if m1 & m2:
                    continue
                for (se1, ve1), c1 in s1.terms.items():
                    for (se2, ve2), c2 in s2.terms.items():
                        if ve1 + ve2 > _V_CAP:
                            return None
                        key = (m1 | m2, se1 + se2, ve1 + ve2)
                        out[key] = out.get(key, FracCyclo8()) + frac(c1) * frac(c2)
    return {k: c.parts() for k, c in out.items() if c}


def frac(c):
    return FracCyclo8(c.a, c.b, c.c, c.d)


def flat(x):
    """x as the oracle's map, checking that each coefficient is in
    lowest terms over a positive denominator."""
    out = {}
    for m, sc in x.terms.items():
        for (se, ve), c in sc.terms.items():
            *nums, den = c._t
            assert den > 0 and gcd(*nums, den) == 1
            out[(m, se, ve)] = frac(c).parts()
    return out


@st.composite
def dual_sums(draw):
    """Pairs of D_3 elements; a drawn pair may be cancelled by its
    negation."""
    pairs = draw(st.lists(st.tuples(wide_duals, wide_duals), max_size=4))
    if pairs and draw(st.booleans()):
        a, b = pairs[draw(st.integers(0, len(pairs) - 1))]
        pairs.append((-a, b))
    return pairs


@settings(PROPS, max_examples=150)
@given(dual_sums(), st.booleans())
def test_dot_is_the_term_by_term_oracle_sum(pairs, to_one):
    want = oracle_dot(pairs)
    if want is None:
        for table in (None, {}):
            with pytest.raises(DegreeCapError):
                DualElement.dot(N, pairs, table)
        return
    one, zero = DualElement.one(N), DualElement.zero(N)
    if to_one:
        # top the sum up to one by two more pairs, 2d - d with d = 1 - sum
        d = one - DualElement.dot(N, pairs)
        pairs = pairs + [(d, DualElement.scalar(N, 2)), (d, DualElement.scalar(N, -1))]
        want = ONE
    got = DualElement.dot(N, pairs)
    table = {}
    tabled = DualElement.dot(N, pairs, table)
    assert flat(got) == want and flat(tabled) == want
    assert table[tabled] is tabled
    if len(pairs) != 1:
        # no one-pair short-cut: a cancelled sum and a sum equal to one
        # are the interned zero and one
        if not want:
            assert got is zero and tabled is zero
        if want == ONE:
            assert got is one and tabled is one


@FEW
@given(st.integers(1, _V_CAP), st.integers(1, _V_CAP), cyclos, cyclos)
def test_dot_past_the_cap_raises_and_stores_nothing(v1, v2, c1, c2):
    assume(c1 and c2 and v1 + v2 > _V_CAP)
    a = DualElement(N, {1: ScalarExpr({(0, v1): c1})})
    b = DualElement(N, {2: ScalarExpr({(1, v2): c2})})
    for pairs in ([(a, b)], [(a, b), (b, a)]):
        table = {}
        with pytest.raises(DegreeCapError):
            DualElement.dot(N, pairs, table)
        assert table == {}


def test_unit_pairs_return_the_table_object_and_add_no_key(monkeypatch):
    one = DualElement.one(N)
    x = DualElement(N, {3: ScalarExpr.lam(), 4: ScalarExpr.s_power(1)})
    held = DualElement(N, dict(x.terms))
    assert held == x and held is not x
    for pair in ((one, x), (x, one)):
        table = {held: held}
        assert DualElement.dot(N, (pair,), table) is held
        assert _dots(N, {"k": [pair]}, table)["k"] is held
        assert table == {held: held}
    # without a table the operand itself is the sum
    assert DualElement.dot(N, ((one, x),)) is x
    assert _dots(N, {"k": [(x, one)]})["k"] is x
    # _dots answers unit pairs inline, with no call per key
    monkeypatch.setattr(DualElement, "dot", None)
    assert _dots(N, {"k": [(one, x)], "m": [(x, one)]}, {}) == {"k": x, "m": x}
