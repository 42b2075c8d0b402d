"""Property tests of the packed generator symbols and of the ``NCPoly``
paths that skip work the answer does not need.

A ``GenSymbol`` is one int packing (copy, family rank, i, k, mask) from
high bits to low: its fields must come back as given, its int order must
be the order of that tuple, and a copy label must sort a word as the
stable sort by ``.copy`` does.  ``NCPoly.dot`` decides with one int
comparison whether a concatenated word is still canonical; the reference
canonicalizes every word through the validating constructor.
``evaluate`` stops a term at its first symbol mapped to zero and
``map_coeffs`` adopts its terms raw; the references form every product
and go through the validating constructor.  Derandomized, so every run
draws the same examples.
"""

import copy
import pickle
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ckq.coeffring import DualElement  # noqa: E402
from ckq.freealg import GenSymbol, NCPoly, canonical_word, mat_symbol  # noqa: E402
from conftest import rand_dual  # noqa: E402

PROPS = settings(derandomize=True, max_examples=200, deadline=None)
FAMILIES = ("mat", "upper", "lower")

fields = st.tuples(st.sampled_from(FAMILIES), st.integers(0, 255), st.integers(0, 255),
                   st.integers(0, (1 << 16) - 1), st.integers(0, 40))
symbols = fields.map(lambda f: GenSymbol(*f))


def field_order(f):
    family, i, k, mask, copy_ = f
    return (copy_, FAMILIES.index(family), i, k, mask)


@PROPS
@given(fields)
def test_fields_round_trip(f):
    g = GenSymbol(*f)
    assert (g.family, g.i, g.k, g.mask, g.copy) == f
    assert g.with_copy(7) == GenSymbol(*f[:4], 7)


@PROPS
@given(fields, fields)
def test_int_order_is_the_order_of_copy_family_i_k_mask(f, h):
    assert (GenSymbol(*f) < GenSymbol(*h)) == (field_order(f) < field_order(h))
    assert (GenSymbol(*f) == GenSymbol(*h)) == (f == h)


bad_field = st.one_of(
    st.tuples(st.just(1), st.integers(256, 1 << 40) | st.integers(-(1 << 40), -1)),
    st.tuples(st.just(2), st.integers(256, 1 << 40) | st.integers(-(1 << 40), -1)),
    st.tuples(st.just(3), st.integers(1 << 16, 1 << 40) | st.integers(-(1 << 40), -1)),
    st.tuples(st.just(4), st.integers(-(1 << 40), -1)),
    st.tuples(st.just(0), st.text(max_size=6).filter(lambda s: s not in FAMILIES)))


@PROPS
@given(fields, bad_field)
def test_a_field_out_of_range_raises(f, bad):
    pos, value = bad
    f = list(f)
    f[pos] = value
    with pytest.raises(ValueError):
        GenSymbol(*f)


@PROPS
@given(symbols)
def test_pickle_and_copy_give_an_equal_symbol(g):
    for h in ([pickle.loads(pickle.dumps(g, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
              + [copy.copy(g), copy.deepcopy(g)]):
        assert h == g and type(h) is GenSymbol and str(h) == str(g)


# few copies and slots, so words share copies and repeat symbols
small_symbols = st.builds(mat_symbol, st.integers(1, 2), st.integers(1, 2),
                          st.integers(0, 1), st.integers(0, 3))


@PROPS
@given(st.lists(small_symbols, max_size=8))
def test_canonical_word_is_the_stable_sort_by_copy(w):
    assert canonical_word(tuple(w)) == tuple(sorted(w, key=lambda g: g.copy))


N = 2  # D_2


def polys(max_terms=4, max_len=3):
    """Random polynomials over D_2 on the small symbols, coefficients from
    ``conftest.rand_dual`` (some of them zero)."""
    term = st.tuples(st.lists(small_symbols, max_size=max_len).map(tuple),
                     st.integers(0, 10 ** 6))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: NCPoly(N, {w: rand_dual(random.Random(seed), N) for w, seed in ts}))


@PROPS
@given(polys(), polys())
def test_dot_keeps_words_canonical_as_the_constructor_does(p, q):
    ref = NCPoly(N)
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            # the validating constructor canonicalizes w1 + w2
            ref = ref + NCPoly(N, {w1 + w2: c1 * c2})
    assert p * q == ref
    assert all(w == canonical_word(w) for w in (p * q).terms)


def evaluate_by_terms(p: NCPoly, fn) -> DualElement:
    """Every term's full product c * fn(g1) * ... * fn(gk), summed."""
    out = DualElement.zero(p.n)
    for w, c in p.terms.items():
        acc = c
        for g in w:
            acc = acc * fn(g)
        out = out + acc
    return out


@PROPS
@given(polys(max_len=4), st.integers(0, 10 ** 6))
def test_evaluate_equals_the_term_by_term_product(p, seed):
    rng = random.Random(seed)
    # each symbol maps to zero at random, else to a random value
    vals = {}

    def fn(g):
        if g not in vals:
            vals[g] = DualElement.zero(N) if rng.random() < 0.4 else rand_dual(rng, N)
        return vals[g]

    got = p.evaluate(fn)
    assert got == evaluate_by_terms(p, fn)


@PROPS
@given(polys())
def test_map_coeffs_that_kills_terms_equals_the_constructor(p):
    def body_only(c):
        # drops every nilpotent term, so a purely nilpotent coefficient dies
        return DualElement(c.n, {m: s for m, s in c.terms.items() if not m})

    got = p.map_coeffs(body_only)
    assert got == NCPoly(p.n, {w: body_only(c) for w, c in p.terms.items()})
    assert all(got.terms.values())
