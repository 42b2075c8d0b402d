import random
from fractions import Fraction

import pytest

from ckq.coeffring import (
    _V_CAP,
    Cyclo8,
    DegreeCapError,
    DimensionError,
    DualElement,
    JSignature,
    NotInvertibleError,
    ScalarExpr,
    specialize_q,
)
from ckq.freealg import NCPoly, mat_symbol
from conftest import all_signatures, rand_cyclo, rand_dual, rand_scalar, rand_unit_dual
from division_oracle import exact_div


def iota(n, k):
    return DualElement.monomial(n, 1 << (k - 1))


def one(n):
    return DualElement.one(n)


# ---------------------------------------------------------------- Cyclo8


def test_cyclo8_basis_products():
    i = Cyclo8(0, 1)
    r2 = Cyclo8(0, 0, 1)
    assert i * i == Cyclo8(-1)
    assert r2 * r2 == Cyclo8(2)
    assert i * r2 == Cyclo8(0, 0, 0, 1)
    assert (i * r2) * (i * r2) == Cyclo8(-2)


def test_cyclo8_inverse_multiplies_back():
    rng = random.Random(101)
    for _ in range(300):
        x = rand_cyclo(rng)
        if not x:
            continue
        assert x * x.inverse() == Cyclo8(1)
    with pytest.raises(NotInvertibleError):
        Cyclo8().inverse()


def test_cyclo8_field_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = (rand_cyclo(rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x


def test_cyclo8_mixed_operands_defer_or_reflect():
    two = Cyclo8(2)
    # a ScalarExpr operand: Cyclo8 defers to the reflected operator
    assert two * ScalarExpr.one() == ScalarExpr.from_value(2)
    assert isinstance(two * ScalarExpr.one(), ScalarExpr)
    assert two + ScalarExpr.one() == ScalarExpr.from_value(3)
    assert isinstance(two + ScalarExpr.one(), ScalarExpr)
    assert two - ScalarExpr.one() == ScalarExpr.one()
    assert two * DualElement.monomial(2, 1) == DualElement.monomial(2, 1) * 2
    # an int on the left: Cyclo8's own reflected operators
    assert sum([Cyclo8(1), Cyclo8(2)]) == Cyclo8(3)
    assert 1 - two == Cyclo8(-1)
    assert Fraction(1, 2) - Cyclo8(0, 1) == Cyclo8(Fraction(1, 2), -1)
    with pytest.raises(TypeError):
        two + 0.5


def test_hash_agrees_with_equality_across_the_tower():
    def forms(x):
        return [x, Cyclo8(x), ScalarExpr.from_value(x), DualElement.scalar(0, x),
                DualElement.scalar(3, x)]

    values = []
    for x in (0, 1, -3, 7):
        values += [x, Fraction(x)] + forms(x)
    for x in (Fraction(1, 2), Fraction(-5, 3)):
        values += forms(x)
    i = Cyclo8(0, 1)
    values += [i, ScalarExpr.from_value(i), DualElement.scalar(2, i)]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert len({Cyclo8(1), 1, Fraction(1), ScalarExpr.one(), DualElement.one(2)}) == 1
    assert len({ScalarExpr.lam(), ScalarExpr.s_power(2) - ScalarExpr.s_power(-2)}) == 1
    # non-constant values built from the same terms in two insertion orders
    s1 = ScalarExpr({(2, 0): 1, (-2, 1): i})
    s2 = ScalarExpr({(-2, 1): i, (2, 0): 1})
    d1 = DualElement(2, {0: s1, 3: ScalarExpr.lam()})
    d2 = DualElement(2, {3: ScalarExpr.lam(), 0: s2})
    a, b = mat_symbol(1, 2), mat_symbol(2, 1)
    p1 = NCPoly(2, {(a, b): d1, (b,): 1})
    p2 = NCPoly(2, {(b,): 1, (a, b): d2})
    for x, y in ((s1, s2), (d1, d2), (p1, p2)):
        assert list(x.terms) != list(y.terms)
        assert x == y and hash(x) == hash(y)
        assert x != -y and len({x, y, -x}) == 2


# ------------------------------------------------------------ ScalarExpr


def test_scalar_lambda_expansion():
    lam = ScalarExpr.lam()
    assert lam == ScalarExpr.s_power(2) - ScalarExpr.s_power(-2)
    assert lam.at_q_one().is_zero()


def test_scalar_monomial_inverse():
    x = ScalarExpr.s_power(3, Fraction(2, 5))
    assert x * x.inverse() == ScalarExpr.one()
    with pytest.raises(NotInvertibleError):
        ScalarExpr.lam().inverse()
    with pytest.raises(NotInvertibleError):
        ScalarExpr({(0, 1): 1}).inverse()


def test_scalar_exact_div():
    lam = ScalarExpr.lam()
    q3 = ScalarExpr.s_power(6)
    assert exact_div(lam * q3, lam) == q3
    assert exact_div(lam * lam, lam) == lam
    assert exact_div(ScalarExpr.one(), lam) is None
    v = ScalarExpr({(0, 1): 1})
    assert exact_div(v * q3, v) == q3
    assert exact_div(q3, v) is None


def test_scalar_exact_div_random():
    rng = random.Random(19)
    lam = ScalarExpr.lam()
    divisors = [lam, lam * lam, lam * ScalarExpr({(0, 1): 1}) + ScalarExpr.one()]
    exact = inexact = 0
    for _ in range(400):
        a = rand_scalar(rng)
        b = rng.choice(divisors) if rng.random() < 0.5 else rand_scalar(rng)
        if not b:
            continue
        if len(b.terms) > 1:
            assert exact_div(a * b, b) == a
        x = rand_scalar(rng)
        q = exact_div(x, b)
        if q is None:
            inexact += 1
        else:
            exact += 1
            assert q * b == x
    assert exact and inexact


def test_scalar_exact_div_wide_non_divisible():
    # positive coefficients keep the value at s = 1 nonzero, so no
    # multiple of q - q^-1 (which vanishes there) can equal x
    rng = random.Random(29)
    exps = rng.sample(range(-100, 100), 30)
    x = ScalarExpr({(se, rng.randint(0, 1)): Fraction(rng.randint(1, 9), rng.randint(1, 4))
                    for se in exps})
    assert exact_div(x, ScalarExpr.lam()) is None
    assert exact_div(x * ScalarExpr.lam(), ScalarExpr.lam()) == x


def test_scalar_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(400):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x


def test_v_degree_cap_guard():
    with pytest.raises(DegreeCapError):
        ScalarExpr({(0, _V_CAP + 1): 1})
    top = ScalarExpr({(0, _V_CAP): 1})
    v = ScalarExpr({(0, 1): 1})
    with pytest.raises(DegreeCapError):
        top * v
    with pytest.raises(DegreeCapError):
        DualElement.scalar(2, top) * DualElement.scalar(2, v)
    with pytest.raises(DegreeCapError):
        DualElement.scalar(2, top) * v
    assert top * ScalarExpr.one() is top


def test_scalar_rendering_canonical():
    x = ScalarExpr.s_power(1) + ScalarExpr({(0, 1): Fraction(-1, 2)})
    assert str(x) == "-1/2*v+q^(1/2)"
    assert str(ScalarExpr()) == "0"
    assert str(ScalarExpr.lam()) == "-q^-1+q"
    assert str(ScalarExpr.q_power(-1)) == "q^-1"


# ----------------------------------------------------------- DualElement


def test_dual_general_element_of_d2():
    # a0 + a1 iota1 + a2 iota2 + a12 iota1 iota2 closes under products
    n = 2
    a = one(n) * 3 + iota(n, 1) * 2 + iota(n, 2) * 5 + iota(n, 1) * iota(n, 2) * 7
    b = one(n) * 1 + iota(n, 1) * 4
    p = a * b
    # iota1 coefficient: a0*b1 + a1*b0 = 3*4 + 2*1
    assert p.terms[0b01] == ScalarExpr.from_value(14)
    assert p.terms[0b10] == ScalarExpr.from_value(5)
    # iota1*iota2 coefficient: a12*b0 + a2*b1 = 7 + 20
    assert p.terms[0b11] == ScalarExpr.from_value(27)


def test_nilpotency():
    n = 2
    assert (iota(n, 1) * iota(n, 1)).is_zero()
    assert ((iota(n, 1) * iota(n, 2)) * iota(n, 1)).is_zero()


def test_products_equal_to_one_are_the_interned_one():
    # specialized relation sets share one coefficient object per unit value
    n = 2
    half, two = DualElement.scalar(n, Fraction(1, 2)), DualElement.scalar(n, 2)
    assert half * two is DualElement.one(n)
    assert DualElement.dot(n, [(half, half)] * 4) is DualElement.one(n)
    x = DualElement(n, {0: ScalarExpr.from_value(Fraction(1, 2)), 1: ScalarExpr.from_value(3)})
    assert (x * two).terms[0] is ScalarExpr.one()
    j = JSignature.parse("iota,1")
    assert DualElement.scalar(j.n, ScalarExpr.q_power(2)).specialize(j).terms[0] is ScalarExpr.one()


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        iota(2, 1) + iota(3, 1)
    with pytest.raises(DimensionError):
        iota(2, 1) * iota(3, 1)


def test_dual_inverse_frozen_example():
    # (1 + iota1 + iota2)^(-1) = 1 - iota1 - iota2 + 2 iota1 iota2,
    # checked both against the literal and by multiplying back.
    n = 2
    a = one(n) + iota(n, 1) + iota(n, 2)
    expected = one(n) - iota(n, 1) - iota(n, 2) + iota(n, 1) * iota(n, 2) * 2
    assert a.inverse() == expected
    assert a * a.inverse() == one(n)


def test_dual_inverse_random_multiplies_back():
    rng = random.Random(23)
    for _ in range(200):
        a = rand_unit_dual(rng, 3)
        assert a * a.inverse() == one(3)


def test_dual_inverse_rejects_non_units():
    with pytest.raises(NotInvertibleError):
        iota(2, 1).inverse()
    with pytest.raises(NotInvertibleError):
        DualElement.scalar(2, ScalarExpr({(0, 1): 1})).inverse()
    with pytest.raises(NotInvertibleError):
        DualElement.zero(2).inverse()


def test_dual_ring_axioms_random():
    rng = random.Random(37)
    for _ in range(1000):
        x, y, z = (rand_dual(rng, 3) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x


# ------------------------------------------------------------ JSignature


def test_signature_parse_and_str():
    j = JSignature.parse("1,iota,1")
    assert j.N == 4 and j.flags == (False, True, False)
    assert str(j) == "1,iota,1"
    with pytest.raises(ValueError):
        JSignature.parse("1,2")


def test_group_weight_products():
    # J(mu,nu) J(nu,rho) = J(mu,rho) for every signature and index triple
    for N in range(2, 7):
        for j in all_signatures(N):
            for mu in range(1, N + 1):
                for nu in range(mu, N + 1):
                    for rho in range(nu, N + 1):
                        assert j.J(mu, nu) * j.J(nu, rho) == j.J(mu, rho)


def test_group_weight_trivial_and_nilpotent():
    j = JSignature.parse("iota,1")
    assert j.J(2, 1) == one(2)
    assert j.J(1, 2) == iota(2, 1)
    assert (j.J(1, 3) * j.J(1, 3)).is_zero()
    assert j.weight(3, 1) == j.J(1, 3)


# ----------------------------------------------------------- specialize_q


def test_specialize_simple_powers():
    # q^2 -> 1 + 2 iota1 v over the single-slot signature
    j = JSignature.parse("iota")
    got = specialize_q(ScalarExpr.q_power(2), j)
    want = one(1) + iota(1, 1) * ScalarExpr({(0, 1): 2})
    assert got == want
    # q^(1/2) -> 1 + (1/2) J v with J = iota1 in a two-slot signature
    j2 = JSignature.parse("iota,1")
    got = specialize_q(ScalarExpr.s_power(1), j2)
    want = one(2) + iota(2, 1) * ScalarExpr({(0, 1): Fraction(1, 2)})
    assert got == want


def test_specialize_lambda():
    # lambda = q - q^(-1) -> 2 J v
    j = JSignature.parse("iota,1")
    got = specialize_q(ScalarExpr.lam(), j)
    assert got == iota(2, 1) * ScalarExpr({(0, 1): 2})
    # full contraction: J = iota1 iota2
    jf = JSignature.parse("iota,iota")
    got = specialize_q(ScalarExpr.lam(), jf)
    assert got == iota(2, 1) * iota(2, 2) * ScalarExpr({(0, 1): 2})


def test_specialize_trivial_signature_is_identity():
    j = JSignature([False] * 2)
    x = ScalarExpr.s_power(5, Fraction(3, 7)) + ScalarExpr({(0, 1): 1})
    assert specialize_q(x, j) == DualElement.scalar(2, x)


def test_specialize_is_ring_homomorphism():
    rng = random.Random(51)
    for N in (2, 3, 4):
        for j in all_signatures(N):
            for _ in range(40):
                x, y = rand_scalar(rng), rand_scalar(rng)
                assert specialize_q(x * y, j) == specialize_q(x, j) * specialize_q(y, j)
                assert specialize_q(x + y, j) == specialize_q(x, j) + specialize_q(y, j)


def test_specialize_inverse_powers():
    # q^(-1) -> 1 - J v, and the two specializations multiply to 1
    j = JSignature.parse("iota")
    a = specialize_q(ScalarExpr.q_power(1), j)
    b = specialize_q(ScalarExpr.q_power(-1), j)
    assert a * b == one(1)
    assert b == one(1) - iota(1, 1) * ScalarExpr({(0, 1): 1})


# ------------------------------------------------------------- rendering


def test_dual_rendering_canonical():
    n = 2
    x = one(n) + iota(n, 1) * iota(n, 2) * ScalarExpr({(0, 1): Fraction(1, 2)}) - iota(n, 1)
    assert str(x) == "1-iota1+1/2*v*iota1*iota2"
    assert str(DualElement.zero(2)) == "0"


def test_equal_values_render_identically():
    rng = random.Random(77)
    for _ in range(100):
        a = rand_dual(rng, 3)
        b = (a + a) * Fraction(1, 2)
        assert a == b and str(a) == str(b)
