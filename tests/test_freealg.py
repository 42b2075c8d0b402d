"""Free algebra: word normalization, arithmetic, symbol and coefficient maps."""

import copy
import pickle

import pytest

from ckq.coeffring import DualElement, JSignature, ScalarExpr
from ckq.freealg import GenSymbol, NCPoly, canonical_word, mat_symbol, word_key

from conftest import rand_dual, seeded


def t(i, k, mask=0, copy=0):
    return mat_symbol(i, k, mask, copy)


def gen(sym, n=1, coeff=1):
    return NCPoly.gen(n, sym, coeff)


def test_word_key_ordering():
    # degree dominates, then row-major slots, then the weight tag
    assert word_key((t(1, 1),)) < word_key((t(1, 2),))
    assert word_key((t(1, 2),)) < word_key((t(2, 1),))
    assert word_key((t(2, 2),)) < word_key((t(1, 1), t(1, 1)))
    assert word_key((t(1, 2, mask=1),)) < word_key((t(1, 2, mask=2),))
    assert word_key((t(1, 1, copy=0),)) < word_key((t(1, 1, copy=1),))


def test_copy_normalization():
    # distinct copies commute; same-copy order survives the stable sort
    w = (t(1, 2, copy=1), t(2, 1, copy=0), t(1, 1, copy=1))
    assert canonical_word(w) == (t(2, 1, copy=0), t(1, 2, copy=1), t(1, 1, copy=1))


def test_mul_concatenates_words():
    p = gen(t(1, 1)) * gen(t(1, 2))
    assert p.terms == {(t(1, 1), t(1, 2)): DualElement.one(1)}


def test_cross_copy_mul_commutes():
    a = gen(t(1, 1, copy=1))
    b = gen(t(1, 2, copy=0))
    assert a * b == b * a
    # but same-copy factors do not merge
    x = gen(t(1, 1)) * gen(t(1, 2))
    y = gen(t(1, 2)) * gen(t(1, 1))
    assert x != y


def test_nilpotent_coefficient_kills_product():
    i1 = DualElement.monomial(1, 1)
    p = gen(t(1, 1), coeff=i1) * gen(t(1, 2), coeff=i1)
    assert p.is_zero()


def test_associativity_random():
    rng = seeded("ncpoly-assoc")
    syms = [t(i, k) for i in (1, 2) for k in (1, 2)]
    def rand_poly():
        p = NCPoly.zero(2)
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.choice(syms) for _ in range(rng.randint(0, 2)))
            p = p + NCPoly(2, {w: rand_dual(rng, 2)})
        return p
    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_normalize_before_or_after_mul():
    # commuting a copy-1 symbol past copy-0 first or last gives the same poly
    a = NCPoly(1, {(t(2, 2, copy=1), t(1, 1, copy=0)): DualElement.one(1)})
    b = gen(t(1, 2, copy=0))
    direct = a * b
    prenormalized = NCPoly(1, {canonical_word((t(2, 2, copy=1), t(1, 1, copy=0))):
                               DualElement.one(1)}) * b
    assert direct == prenormalized


def test_substitute_is_algebra_map():
    # replace t11 by t11 + 1 and check on a product
    def fn(g):
        if g == t(1, 1):
            return gen(t(1, 1)) + NCPoly.one(1)
        return NCPoly.gen(1, g)
    p = gen(t(1, 1)) * gen(t(1, 2))
    q = p.substitute(fn)
    assert q == gen(t(1, 1)) * gen(t(1, 2)) + gen(t(1, 2))


def test_evaluate_commutative():
    vals = {t(1, 1): DualElement.scalar(1, 3), t(1, 2): DualElement.monomial(1, 1)}
    p = gen(t(1, 1)) * gen(t(1, 2)) - gen(t(1, 2)) * gen(t(1, 1))
    assert p.evaluate(lambda g: vals[g]).is_zero()
    q = gen(t(1, 1)) * gen(t(1, 1))
    assert q.evaluate(lambda g: vals[g]) == DualElement.scalar(1, 9)


def test_specialize_distributes_over_mul():
    j = JSignature.parse("iota")
    q = DualElement.scalar(1, ScalarExpr.q_power(2))
    a = gen(t(1, 1), coeff=q)
    b = gen(t(1, 2), coeff=q)
    def spec(p):
        return p.map_coeffs(lambda c: c.specialize(j))
    assert spec(a * b) == spec(a) * spec(b)


def test_symbol_rendering():
    assert str(t(1, 2)) == "t[1,2]"
    assert str(t(1, 2, mask=3)) == "t[1,2;3]"
    assert str(t(1, 2, copy=1)) == "t[1,2]'"
    assert str(GenSymbol("upper", 1, 2)) == "l+[1,2]"
    assert str(GenSymbol("lower", 2, 1)) == "l-[2,1]"
    assert str(GenSymbol("lower", 2, 1, 5, 2)) == "l-[2,1;5]''"


def test_symbol_repr_is_pinned():
    assert repr(t(1, 2)) == "GenSymbol(family='mat', i=1, k=2, mask=0, copy=0)"
    assert (repr(GenSymbol("upper", 3, 4, 6, 1))
            == "GenSymbol(family='upper', i=3, k=4, mask=6, copy=1)")


@pytest.mark.parametrize("fields", [
    ("mat", 256, 1), ("mat", 1, 256), ("mat", 1, 1, 1 << 16),
    ("mat", -1, 1), ("mat", 1, -1), ("mat", 1, 1, -1), ("mat", 1, 1, 0, -1),
    ("upper", 1, 1, 0, -2), ("t", 1, 1), ("matrix", 1, 1)])
def test_symbol_fields_are_range_checked(fields):
    # each field is packed into its own bits, so one out of range raises
    with pytest.raises(ValueError):
        GenSymbol(*fields)


def test_symbol_pickles_and_copies_to_an_equal_symbol():
    g = GenSymbol("lower", 255, 7, (1 << 16) - 1, 3)
    for h in [pickle.loads(pickle.dumps(g, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.copy(g), copy.deepcopy(g)]:
        assert h == g and type(h) is GenSymbol
        assert (h.family, h.i, h.k, h.mask, h.copy) == ("lower", 255, 7, (1 << 16) - 1, 3)
