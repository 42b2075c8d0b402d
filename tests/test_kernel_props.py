"""Property tests of the fused sum-of-products kernels against the naive
left fold of ``*`` and ``+``.

``NCPoly.dot`` and ``QTensor.dot`` group the pairs that land on each
output key and end in ``coeffring._dots``, which sums each key once with
the entry type's own ``dot``; ``*`` of D_n is ``DualElement.dot`` of one
pair, which returns an operand itself when the other factor is the
interned one or the interned zero (``@`` for tensors is the one-pair
``QTensor.dot``).  The references here build every term product and
every partial sum from the definitions, without ``*`` of D_n or of
polynomials.  With a dot table each kernel must give what it gives
without one, and so must ``NCPoly.substitute`` and ``QTensor.pair``,
which hand their table to those kernels.  Derandomized, so every run
draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ckq.ckclassical import random_cayley  # noqa: E402
from ckq.coeffring import (_V_CAP, Cyclo8, DegreeCapError, DualElement,  # noqa: E402
                           ScalarExpr, _dots)
from ckq.freealg import NCPoly, mat_symbol  # noqa: E402
from ckq.qgroup import QuantumCKGroup, build_t  # noqa: E402
from ckq.rmatrix import QTensor, _embed3  # noqa: E402
from conftest import all_signatures  # noqa: E402

PROPS = settings(derandomize=True, max_examples=100, deadline=None)
FEW = settings(PROPS, max_examples=30)
N = 3  # D_3: three nilpotent generators

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
cyclos = st.one_of(st.builds(Cyclo8, small),
                   st.builds(Cyclo8, small, small, st.integers(-1, 1), st.integers(-1, 1)))
# v-exponents up to the cap, so products can exceed it
scalars = st.one_of(
    st.just(ScalarExpr.one()),
    st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(0, _V_CAP)),
                    cyclos, max_size=3).map(ScalarExpr),
)
# masks overlap freely, so iota_k^2 kills are common
duals = st.dictionaries(st.integers(0, (1 << N) - 1), scalars, max_size=3).map(
    lambda terms: DualElement(N, terms))
low_duals = st.dictionaries(
    st.integers(0, (1 << N) - 1),
    st.one_of(st.just(ScalarExpr.one()),
              st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(0, 1)),
                              cyclos, max_size=2).map(ScalarExpr)),
    max_size=3).map(lambda terms: DualElement(N, terms))

# symbols on copies 0..2: a product of words with mixed copy labels must be
# sorted by copy (canonical_word)
symbols = st.builds(mat_symbol, st.integers(1, 2), st.integers(1, 2),
                    st.just(0), st.integers(0, 2))
words = st.lists(symbols, max_size=2).map(tuple)
polys = st.dictionaries(words, low_duals, max_size=3).map(lambda t: NCPoly(N, t))


def with_cancellation(pairs, draw):
    """Insert the negation of some pair and then the pair again, so an
    output coefficient cancels to zero partway and is re-added."""
    pairs = list(pairs)
    if pairs:
        k = draw(st.integers(0, len(pairs) - 1))
        a, b = pairs[k]
        pairs[k + 1:k + 1] = [(-a, b), (a, b)]
    return pairs


def naive_dual_mul(a, b):
    """D_n product by its definition: one partial sum per pair of terms,
    a squared nilpotent dies, and ``ScalarExpr`` refuses a v-degree above
    the cap."""
    acc = DualElement.zero(N)
    for m1, s1 in a.terms.items():
        for m2, s2 in b.terms.items():
            if m1 & m2:
                continue
            for (se1, ve1), c1 in s1.terms.items():
                for (se2, ve2), c2 in s2.terms.items():
                    e = (se1 + se2, ve1 + ve2)
                    acc = acc + DualElement(N, {m1 | m2: ScalarExpr({e: c1 * c2})})
    return acc


def naive_mul(p, q):
    """NCPoly product by its definition: one coefficient product and one
    partial sum per pair of words."""
    acc = NCPoly.zero(N)
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            acc = acc + NCPoly(N, {w1 + w2: naive_dual_mul(c1, c2)})
    return acc


def fold(zero, products):
    """The naive left fold: build each product, then each partial sum."""
    acc = zero
    for make in products:
        try:
            acc = acc + make()
        except DegreeCapError:
            return DegreeCapError
    return acc


def kernel(fn, *args):
    try:
        return fn(*args)
    except DegreeCapError:
        return DegreeCapError


@st.composite
def dual_pairs(draw, elements=duals):
    pairs = draw(st.lists(st.tuples(elements, elements), max_size=5))
    return with_cancellation(pairs, draw)


@PROPS
@given(dual_pairs())
def test_dot_is_the_fold_of_products(pairs):
    want = fold(DualElement.zero(N), [lambda a=a, b=b: naive_dual_mul(a, b) for a, b in pairs])
    got = kernel(DualElement.dot, N, pairs)
    assert got == want
    if got is not DegreeCapError:
        assert all(s and all(s.terms.values()) for s in got.terms.values())


def test_dot_kills_squared_nilpotents_and_caps_the_v_degree():
    i1, i2 = DualElement.monomial(N, 1), DualElement.monomial(N, 2)
    assert DualElement.dot(N, [(i1, i1 + i2), (i2, i1)]) == i1 * i2 * 2
    assert DualElement.dot(N, [(i1, i2), (-i2, i1)]) == DualElement.zero(N)
    hi = DualElement.scalar(N, ScalarExpr({(0, _V_CAP - 1): 1}))
    v = DualElement.scalar(N, ScalarExpr({(0, 1): 1}))
    assert DualElement.dot(N, [(hi, v)]) == hi * v
    with pytest.raises(DegreeCapError):
        DualElement.dot(N, [(hi, v), (hi, v * v)])


@PROPS
@given(duals, duals)
def test_dual_product_is_the_one_pair_dot(a, b):
    assert kernel(a.__mul__, b) == kernel(naive_dual_mul, a, b)


@PROPS
@given(duals)
def test_product_with_the_interned_one_or_zero_is_an_operand(a):
    one, zero = DualElement.one(N), DualElement.zero(N)
    assert a * one is a
    assert one * a is a
    assert a * zero is zero
    assert zero * a is zero


@st.composite
def poly_pairs(draw):
    # q scaled by an integer or an element of D_n, as in the exchange
    # components
    coeff = st.one_of(st.integers(-2, 2), low_duals)
    pairs = draw(st.lists(st.tuples(polys, st.tuples(polys, coeff)), max_size=4))
    return with_cancellation([(p, q * c) for p, (q, c) in pairs], draw)


@PROPS
@given(poly_pairs())
def test_poly_dot_is_the_fold_of_products(pairs):
    want = fold(NCPoly.zero(N), [lambda p=p, q=q: naive_mul(p, q) for p, q in pairs])
    got = kernel(NCPoly.dot, N, pairs)
    assert got == want
    if got is not DegreeCapError:
        assert all(c for c in got.terms.values())
        assert NCPoly(N, got.terms).terms == got.terms  # words are canonical


@PROPS
@given(polys, polys)
def test_poly_product_is_the_one_pair_dot(p, q):
    assert kernel(p.__mul__, q) == kernel(naive_mul, p, q)


def test_poly_dot_sorts_mixed_copies():
    a0, a1, b2 = mat_symbol(1, 1, 0, 0), mat_symbol(1, 2, 0, 1), mat_symbol(2, 1, 0, 2)
    p = NCPoly.gen(N, a1) + NCPoly.gen(N, b2)
    q = NCPoly.gen(N, a0)
    got = NCPoly.dot(N, [(p, q), (q, p * -1)])
    assert got == NCPoly.zero(N)  # distinct copies commute
    got = NCPoly.dot(N, [(p, q * 2), (q, p)])
    assert got == naive_mul(p, q) * 3
    assert got.terms == {(a0, a1): DualElement.scalar(N, 3), (a0, b2): DualElement.scalar(N, 3)}


def matrices(entries, size=3):
    """Two-leg tensors from dense rows of entries."""
    return st.lists(st.lists(entries, min_size=size, max_size=size),
                    min_size=size, max_size=size).map(
        lambda rows: QTensor(size, N, {(i + 1, k + 1): e for i, r in enumerate(rows)
                                       for k, e in enumerate(r)}))


def naive_matmul(A, B, zero, mul):
    rng = range(1, A.N + 1)
    data = {(i, k): fold(zero, [lambda a=A.data.get((i, m), zero),
                                b=B.data.get((m, k), zero): mul(a, b)
                                for m in rng])
            for i in rng for k in rng}
    if any(e is DegreeCapError for e in data.values()):
        return DegreeCapError
    return QTensor(A.N, N, data)


@FEW
@given(matrices(duals), matrices(duals))
def test_matmul_over_dn_is_the_fold(A, B):
    assert kernel(A.__matmul__, B) == naive_matmul(A, B, DualElement.zero(N), naive_dual_mul)


@FEW
@given(matrices(polys, 2), matrices(polys, 2))
def test_matmul_over_polynomials_is_the_fold(A, B):
    assert kernel(A.__matmul__, B) == naive_matmul(A, B, NCPoly.zero(N), naive_mul)


# tensors over a two-dimensional space; n = N, so entries are in D_3
def tensors(entries):
    keys = st.tuples(*[st.integers(1, 2)] * 4)
    return st.dictionaries(keys, entries, max_size=6).map(lambda d: QTensor(2, N, d))


def naive_compose(pairs, mul):
    """The sum of the compositions X @ Y by definition: every matching pair
    of entries, X[out, m] and Y[m, in], is multiplied and added to the
    partial sum at out + in."""
    acc = {}
    try:
        for X, Y in pairs:
            for xkey, u in X.data.items():
                h = len(xkey) // 2
                for ykey, w in Y.data.items():
                    if ykey[:h] == xkey[h:]:
                        key = xkey[:h] + ykey[h:]
                        acc[key] = acc[key] + mul(u, w) if key in acc else mul(u, w)
    except DegreeCapError:
        return DegreeCapError
    return {k: v for k, v in acc.items() if v}


def tensor_dot(pairs, table=None):
    got = kernel(QTensor.dot, pairs, table)
    return got if got is DegreeCapError else got.data


@st.composite
def tensor_pairs(draw, entries, legs=2):
    """Tensor pairs, one of them repeated after its negation so that an
    output entry cancels partway; with three legs each tensor is a random
    two-leg one embedded on two of the three slots."""
    pairs = draw(st.lists(st.tuples(tensors(entries), tensors(entries)),
                          min_size=1, max_size=3))
    if legs == 3:
        embeddings = st.sampled_from([(1, 2), (1, 3), (2, 3)])
        pairs = [(_embed3(X, draw(embeddings)), _embed3(Y, draw(embeddings)))
                 for X, Y in pairs]
    k = draw(st.integers(0, len(pairs) - 1))
    X, Y = pairs[k]
    pairs[k + 1:k + 1] = [(X.scale(-1), Y), (X, Y)]
    return pairs


@FEW
@given(tensor_pairs(duals))
def test_tensor_dot_over_dn_is_the_fold_of_compositions(pairs):
    assert tensor_dot(pairs) == naive_compose(pairs, naive_dual_mul)


@FEW
@given(tensor_pairs(polys))
def test_tensor_dot_over_polynomials_is_the_fold_of_compositions(pairs):
    assert tensor_dot(pairs) == naive_compose(pairs, naive_mul)


@FEW
@given(tensor_pairs(low_duals, legs=3))
def test_tensor_dot_on_three_legs_is_the_fold_of_compositions(pairs):
    assert tensor_dot(pairs) == naive_compose(pairs, naive_dual_mul)


@FEW
@given(tensors(duals), tensors(duals), tensors(polys), tensors(polys))
def test_tensor_product_is_the_one_pair_dot(X, Y, U, W):
    for A, B, mul in ((X, Y, naive_dual_mul), (U, W, naive_mul)):
        got = kernel(A.__matmul__, B)
        assert (got if got is DegreeCapError else got.data) == naive_compose([(A, B)], mul)


@FEW
@given(tensors(duals), tensors(polys))
def test_flipped_is_p_x_p(X, U):
    P = QTensor.flip(2, N)
    assert X.flipped() == P @ X @ P
    for (i, j, k, l), v in U.flipped().data.items():
        assert U.data[(j, i, l, k)] == v
    assert U.flipped().nnz() == U.nnz()


# ------------------------------------------------------- per-key sums


@st.composite
def keyed_pairs(draw, elements):
    """Pairs grouped by output key, as the kernels group them, with one
    key whose pairs cancel inserted at a drawn position."""
    pairs = st.lists(st.tuples(elements, elements), min_size=1, max_size=3)
    items = list(draw(st.dictionaries(st.integers(0, 5), pairs, max_size=4)).items())
    a, b = draw(elements), draw(elements)
    items.insert(draw(st.integers(0, len(items))), ("cancels", [(a, b), (-a, b)]))
    return dict(items)


def naive_dots(by_key, zero, mul):
    """Key -> nonzero fold of the key's products, in the keys' order."""
    out = {}
    for key, pairs in by_key.items():
        s = fold(zero, [lambda a=a, b=b: mul(a, b) for a, b in pairs])
        if s is DegreeCapError:
            return DegreeCapError
        if s:
            out[key] = s
    return out


@FEW
@given(keyed_pairs(duals), keyed_pairs(polys))
def test_dots_is_the_per_key_fold(dual_keyed, poly_keyed):
    for by_key, zero, mul in ((dual_keyed, DualElement.zero(N), naive_dual_mul),
                              (poly_keyed, NCPoly.zero(N), naive_mul)):
        want = naive_dots(by_key, zero, mul)
        for table in (None, {}):
            got = kernel(_dots, N, by_key, table)
            assert got == want
            if got is not DegreeCapError:
                assert "cancels" not in got
                assert list(got) == list(want)  # first-seen order
            if table is not None:
                check_table(table)


def test_dots_drops_a_cancelled_key_and_keeps_first_seen_order():
    a, b = DualElement.monomial(N, 1) + 2, DualElement.monomial(N, 2)
    by_key = {"z": [(a, b)], "gone": [(a, b), (-a, b)], "a": [(b, b), (a, a)]}
    for table in (None, {}):
        got = _dots(N, by_key, table)
        assert list(got) == ["z", "a"]
        assert got["z"] == a * b and got["a"] == a * a  # iota_2^2 dies


# ------------------------------------------------------------ dot tables


def twin(x):
    """An element equal to x but not x itself."""
    return DualElement(N, dict(x.terms))


def check_table(table):
    """Every sum a table holds is the plain dot of its pairs, and every
    value it interns is held under itself."""
    for key, val in table.items():
        if isinstance(key, tuple):
            assert val == DualElement.dot(N, key)
            assert table[val] is val
        else:
            assert val is key


@PROPS
@given(dual_pairs())
def test_tabled_dot_is_the_plain_dot(pairs):
    want = kernel(DualElement.dot, N, pairs)
    table = {}
    first = kernel(DualElement.dot, N, pairs, table)
    assert first == want
    twins = [(twin(a), twin(b)) for a, b in pairs]
    again = kernel(DualElement.dot, N, twins, table)
    assert again == want
    if want is DegreeCapError:
        assert table == {}
    else:
        assert again is first  # matched by value, the stored object returned
    check_table(table)


def test_tabled_dot_edge_cases():
    table = {}
    a, b = DualElement.monomial(N, 1) + 2, DualElement.monomial(N, 2)
    assert DualElement.dot(N, [], table) is DualElement.zero(N)
    ab = DualElement.dot(N, [(a, b)], table)
    assert ab == a * b
    assert DualElement.dot(N, [(twin(a), twin(b))], table) is ab
    # equal sums of different pairs are one object
    assert DualElement.dot(N, [(b, a)], table) is ab
    # a pair and its negation cancel to the interned zero, with or without
    # a table
    assert DualElement.dot(N, [(a, b), (-a, b)], table) is DualElement.zero(N)
    assert DualElement.dot(N, [(a, b), (a, -b)]) is DualElement.zero(N)
    check_table(table)


def test_tabled_dot_stores_no_error():
    hi = DualElement.scalar(N, ScalarExpr({(0, _V_CAP - 1): 1}))
    v2 = DualElement.scalar(N, ScalarExpr({(0, 2): 1}))
    table = {}
    for _ in range(2):
        with pytest.raises(DegreeCapError):
            DualElement.dot(N, [(hi, v2)], table)
    assert table == {}


@PROPS
@given(poly_pairs())
def test_tabled_poly_dot_is_the_plain_dot(pairs):
    want = kernel(NCPoly.dot, N, pairs)
    table = {}
    for _ in range(2):
        assert kernel(NCPoly.dot, N, pairs, table) == want
    check_table(table)


@FEW
@given(tensor_pairs(duals), tensor_pairs(polys))
def test_tabled_tensor_dot_is_the_plain_dot(dual_pairs, poly_pairs):
    for pairs in (dual_pairs, poly_pairs):
        want = tensor_dot(pairs)
        table = {}
        for _ in range(2):
            assert tensor_dot(pairs, table) == want
        check_table(table)


@FEW
@given(tensors(duals), st.dictionaries(st.tuples(st.integers(1, 2), st.integers(1, 2)),
                                       duals, max_size=4))
def test_tabled_apply_vec_is_the_plain_apply_vec(X, vec):
    want = kernel(X.apply_vec, vec)
    table = {}
    assert kernel(X.apply_vec, vec, table) == want
    check_table(table)


def check_interned(table, coeffs):
    """Every coefficient is the object the table holds for its value."""
    for c in coeffs:
        assert table[c] is c


# each of the 12 symbols that ``polys`` draws has its own image
images = st.lists(polys, min_size=12, max_size=12)


@FEW
@given(polys, images)
def test_tabled_substitute_is_the_plain_substitute(p, imgs):
    def fn(g):
        return imgs[6 * (g.i - 1) + 3 * (g.k - 1) + g.copy]

    want = kernel(p.substitute, fn)
    table = {}
    got = kernel(p.substitute, fn, table)
    assert got == want
    if got is not DegreeCapError:
        check_interned(table, got.terms.values())
    check_table(table)


# D_3 is the coefficient ring at N = 4
SIGNATURES_N4 = all_signatures(4)


@FEW
@given(st.sampled_from(SIGNATURES_N4), st.randoms(use_true_random=False))
def test_tabled_pair_of_a_cayley_sample_is_the_plain_pair(j, rng):
    A = random_cayley(j, rng)
    table = {}
    got = QTensor.pair(A, table)
    assert got == QTensor.pair(A)
    check_interned(table, got.data.values())
    check_table(table)


@pytest.mark.parametrize("j", SIGNATURES_N4, ids=str)
@pytest.mark.parametrize("atomic", [True, False], ids=["atomic", "split"])
def test_tabled_pair_of_t_is_the_plain_pair(j, atomic):
    T = build_t(QuantumCKGroup(j), atomic=atomic)
    table = {}
    got = QTensor.pair(T, table)
    assert got == QTensor.pair(T)
    check_interned(table, [c for p in got.data.values() for c in p.terms.values()])
    check_table(table)
