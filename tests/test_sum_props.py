"""Sums, differences and negation of the finite-sum types against a
term-by-term dict reference.

``ScalarExpr`` (keyed by (s, v) exponents), ``DualElement`` (keyed by
generator subsets) and ``NCPoly`` (keyed by words) each hold a zero-free
map from keys to coefficients of the type below.  The reference adds two
such maps key by key and drops the sums that vanish; an operand of a lower
type is the map of its constant term.  Derandomized, so every run draws the
same examples.
"""

import operator
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ckq.coeffring import Cyclo8, DimensionError, DualElement, ScalarExpr  # noqa: E402
from ckq.freealg import NCPoly, mat_symbol  # noqa: E402

PROPS = settings(derandomize=True, max_examples=300, deadline=None)

# few keys and few coefficient values, so that sums often cancel
numbers = st.sampled_from([0, 1, -1, 2, Fraction(-1, 2), Fraction(3, 2),
                           Cyclo8(0, 1), Cyclo8(0, -1), Cyclo8(1, 0, 1)])
SYMBOLS = (mat_symbol(1, 1), mat_symbol(1, 2), mat_symbol(2, 1, copy=1))


def scalars():
    keys = st.tuples(st.integers(-1, 1), st.integers(0, 1))
    return st.dictionaries(keys, numbers, max_size=3).map(ScalarExpr)


def duals(n):
    masks = st.integers(0, (1 << n) - 1)
    return st.dictionaries(masks, scalars(), max_size=3).map(
        lambda terms: DualElement(n, terms))


def polys(n):
    words = st.lists(st.sampled_from(SYMBOLS), max_size=2).map(tuple)
    return st.dictionaries(words, duals(n), max_size=3).map(
        lambda terms: NCPoly(n, terms))


def reference_terms(cls, n, x) -> dict:
    """x as a term map of ``cls``: its own terms, or one constant term."""
    if type(x) is cls:
        return x.terms
    if cls is ScalarExpr:
        c = x if isinstance(x, Cyclo8) else Cyclo8(x)
        key = (0, 0)
    elif cls is DualElement:
        c = ScalarExpr(reference_terms(ScalarExpr, n, x))
        key = 0
    else:
        c = DualElement(n, reference_terms(DualElement, n, x))
        key = ()
    return {key: c} if c else {}


def reference_sum(a: dict, b: dict) -> dict:
    sums = {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}
    return {k: c for k, c in sums.items() if c}


def reference_neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def agrees(x, cls, n, terms):
    assert type(x) is cls
    assert x.terms == terms
    assert all(x.terms.values())
    assert bool(x) is bool(terms) and x.is_zero() is (not terms)
    if cls is not ScalarExpr:
        assert x.n == n


@PROPS
@given(st.data())
def test_sums_match_a_term_dict_reference(data):
    cls = data.draw(st.sampled_from([ScalarExpr, DualElement, NCPoly]))
    n = data.draw(st.integers(1, 2))
    own = {ScalarExpr: scalars(), DualElement: duals(n), NCPoly: polys(n)}[cls]
    lower = [numbers] + ([scalars()] if cls is not ScalarExpr else [])
    x = data.draw(own)
    y = data.draw(st.one_of(own, *lower))
    rx, ry = reference_terms(cls, n, x), reference_terms(cls, n, y)
    agrees(x, cls, n, rx)
    agrees(-x, cls, n, reference_neg(rx))
    agrees(x - x, cls, n, {})
    # y of every type is an operand on either side
    agrees(x + y, cls, n, reference_sum(rx, ry))
    agrees(y + x, cls, n, reference_sum(ry, rx))
    agrees(x - y, cls, n, reference_sum(rx, reference_neg(ry)))
    agrees(y - x, cls, n, reference_sum(ry, reference_neg(rx)))
    if cls is NCPoly:
        # a D_n coefficient on the right of a polynomial
        d = data.draw(duals(n))
        rd = reference_terms(NCPoly, n, d)
        agrees(x + d, cls, n, reference_sum(rx, rd))
        agrees(x - d, cls, n, reference_sum(rx, reference_neg(rd)))
    if cls is not ScalarExpr:
        # another D_n, as the type itself or as a coefficient
        m = 3 - n
        alien = data.draw(duals(m) if cls is DualElement
                          else st.one_of(polys(m), duals(m)))
        for op in (operator.add, operator.sub):
            with pytest.raises(DimensionError):
                op(x, alien)
            if type(alien) is cls:
                with pytest.raises(DimensionError):
                    op(alien, x)
