import pytest

from ckq.coeffring import DualElement, JSignature
from ckq.ckclassical import weight_pattern_symplectic
from ckq.freealg import GenSymbol, NCPoly, mat_symbol
from ckq.qgroup import QuantumCKGroup, antipode, build_t, t_symbols
from ckq.qdual import (
    DualPairing,
    dual_symbols,
    entry_words,
    formal_l_pattern,
    _fold_word,
    lower_symbol,
    relations_pair_to_zero,
    upper_symbol,
    verify_antipode_duality,
    verify_l_additional,
    verify_ll,
)

from conftest import all_signatures, seeded
from dual_oracle import RightFold, dual_antipode

J33 = JSignature.parse("iota,iota")
J31 = JSignature.parse("iota,1")
J30 = JSignature.parse("1,1")


def pairing(j):
    return DualPairing(QuantumCKGroup(j))


def one(n):
    return DualElement.one(n)


def zero(n):
    return DualElement.zero(n)


# ------------------------------------------------------------ generators


def test_dual_symbols_enumerates_both_triangles():
    syms = dual_symbols(3)
    assert len(syms) == 12
    upper = [g for g in syms if g.family == "upper"]
    lower = [g for g in syms if g.family == "lower"]
    assert all(g.i <= g.k for g in upper) and len(upper) == 6
    assert all(g.i >= g.k for g in lower) and len(lower) == 6
    assert all(g.mask == 0 and g.copy == 0 for g in syms)
    assert len(dual_symbols(4)) == 20


def test_functional_side_rejects_matrix_symbols():
    ctx = pairing(J30)
    with pytest.raises(ValueError):
        ctx.pair(mat_symbol(1, 1), NCPoly.one(J30.n))
    with pytest.raises(ValueError):
        ctx.pair(upper_symbol(1, 2), (upper_symbol(1, 1),))
    with pytest.raises(ValueError):
        ctx.pair(GenSymbol("upper", 1, 2, 1), NCPoly.one(J30.n))


def test_context_rejects_small_dimension():
    with pytest.raises(ValueError):
        DualPairing(QuantumCKGroup(JSignature.parse("iota")))
    # the tables are read off the contracted braiding only
    with pytest.raises(ValueError):
        DualPairing(QuantumCKGroup(J33, contracted=False))


# ------------------------------------------------------------ degree one


def test_degree_one_tables_equal_paired_tensors():
    for j in all_signatures(3):
        ctx = pairing(j)
        for fam in ("upper", "lower"):
            assert ctx.degree_one(fam) == ctx.tensor(fam).data


def test_degree_one_tables_are_triangular():
    for j in all_signatures(3) + [JSignature.parse("iota,1,iota")]:
        ctx = pairing(j)
        for (o1, _, i1, _) in ctx.tensor("upper").data:
            assert o1 <= i1
        for (o1, _, i1, _) in ctx.tensor("lower").data:
            assert o1 >= i1


def test_off_triangle_functionals_vanish_beyond_degree_one():
    ctx = pairing(J33)
    words = [(s,) for s in t_symbols(J33)]
    words += [(s, t) for s in t_symbols(J33)[:5] for t in t_symbols(J33)[:5]]
    for w in words:
        assert ctx.pair(upper_symbol(3, 1), w).is_zero()
        assert ctx.pair(lower_symbol(1, 3), w).is_zero()


def test_pair_against_unit_element_is_kronecker():
    for j in (J30, J33):
        ctx = pairing(j)
        unit = NCPoly.one(j.n)
        for g in dual_symbols(3):
            expect = one(j.n) if g.i == g.k else zero(j.n)
            assert ctx.pair(g, unit) == expect
        assert ctx.pair((upper_symbol(1, 2), lower_symbol(2, 1)), unit).is_zero()
        assert ctx.pair((upper_symbol(1, 1), lower_symbol(2, 2)), unit) == one(j.n)


def test_unit_functional_pairs_as_counit():
    for j in (J31, J33):
        ctx = pairing(j)
        T = build_t(j)
        for k in range(1, 4):
            for l in range(1, 4):
                expect = one(j.n) if k == l else zero(j.n)
                assert ctx.pair((), T.entry(k, l)) == expect
        for g in t_symbols(j):
            expect = one(j.n) if (g.i == g.k and g.mask == 0) else zero(j.n)
            assert ctx.pair((), (g,)) == expect


# ------------------------------------------------- weight-splitting layer


def test_split_values_reassemble_entry_values():
    for j in (J31, J33):
        ctx = pairing(j)
        pat = weight_pattern_symplectic(j)
        for fam in ("upper", "lower"):
            for i in range(1, 4):
                for jj in range(1, 4):
                    sym = GenSymbol(fam, i, jj)
                    for k in range(1, 4):
                        for l in range(1, 4):
                            total = zero(j.n)
                            for mask in pat[(k, l)]:
                                v = ctx.pair(sym, (mat_symbol(k, l, mask),))
                                total = total + DualElement.monomial(j.n, mask) * v
                            assert total == ctx.tensor(fam).get(i, k, jj, l)


def test_split_values_carry_leftover_weights():
    # the flipped tensor holds a two-slot weight above a one-slot entry
    # pattern, so the read-off value keeps one nilpotent factor
    ctx = pairing(J33)
    v = ctx.pair(upper_symbol(1, 2), (mat_symbol(2, 1, 1),))
    assert not v.is_zero()
    assert set(v.terms) == {2}
    assert ctx.pair(upper_symbol(1, 2), (mat_symbol(2, 1, 2),)).is_zero()


def test_pair_is_bilinear():
    rng = seeded("qdual-bilinear")
    ctx = pairing(J33)
    syms = t_symbols(J33)
    duals = dual_symbols(3)
    for _ in range(12):
        w1 = tuple(rng.choice(syms) for _ in range(2))
        w2 = tuple(rng.choice(syms) for _ in range(2))
        c1 = DualElement.monomial(J33.n, rng.choice((0, 1, 2)), rng.randint(1, 3))
        c2 = DualElement.monomial(J33.n, rng.choice((0, 1, 2)), rng.randint(-3, -1))
        p = NCPoly(J33.n, {w1: c1, w2: c2})
        f = rng.choice(duals)
        lhs = ctx.pair(f, p)
        rhs = c1 * ctx.pair(f, w1) + c2 * ctx.pair(f, w2)
        assert lhs == rhs
        f1, f2 = upper_symbol(1, 2), lower_symbol(2, 1)
        fp = NCPoly(J33.n, {(f1,): c1, (f2,): c2})
        assert ctx.pair(fp, w1) == \
            c1 * ctx.pair(f1, w1) + c2 * ctx.pair(f2, w1)


# ---------------------------------------------------- coproduct structure


def test_multiplication_is_dual_to_coproduct():
    rng = seeded("qdual-convolution")
    for j in (J30, J33):
        ctx = pairing(j)
        syms = t_symbols(j)
        for _ in range(10):
            x = tuple(rng.choice(syms) for _ in range(rng.randint(1, 2)))
            y = tuple(rng.choice(syms) for _ in range(rng.randint(1, 2)))
            for f in (upper_symbol(1, 2), lower_symbol(3, 1),
                      upper_symbol(2, 2)):
                lhs = ctx.pair(f, x + y)
                # f[i,k] -> sum_m f[i,m] (x) f[m,k]
                rhs = zero(j.n)
                for m in range(1, 4):
                    lft = GenSymbol(f.family, f.i, m)
                    rgt = GenSymbol(f.family, m, f.k)
                    rhs = rhs + ctx.pair(lft, x) * ctx.pair(rgt, y)
                assert lhs == rhs


def test_left_and_right_folds_agree_on_split_words():
    rng = seeded("qdual-folds")
    for j in (J30, J33):
        ctx = pairing(j)
        oracle = RightFold(ctx)
        syms = t_symbols(j)
        duals = dual_symbols(3)
        words = [(a, b) for a in syms for b in syms]
        words += [tuple(rng.choice(syms) for _ in range(3)) for _ in range(60)]
        nonzero = 0
        for w in words:
            f = rng.choice(duals)
            val = ctx.pair(f, w)
            assert val == oracle.pair(f, w)
            nonzero += bool(val)
        assert nonzero > 0


def test_left_and_right_folds_agree_on_entry_products():
    for j in (J30, J33):
        ctx = pairing(j)
        oracle = RightFold(ctx)
        T = build_t(j)
        functionals = [upper_symbol(1, 3), lower_symbol(3, 2),
                       (upper_symbol(1, 2), lower_symbol(2, 1)),
                       (upper_symbol(1, 1), upper_symbol(2, 3))]
        nonzero = 0
        for k1 in range(1, 4):
            for l1 in range(1, 4):
                for k2 in range(1, 4):
                    for l2 in range(1, 4):
                        m = T.entry(k1, l1) * T.entry(k2, l2)
                        for f in functionals:
                            val = ctx.pair(f, m)
                            assert val == oracle.pair(f, m)
                            nonzero += bool(val)
        assert nonzero > 0


# ------------------------------------------------------------ main laws


def test_exchange_law_all_n3_signatures():
    for j in all_signatures(3):
        report = verify_ll(pairing(j), degree=2)
        assert report["ok"], report["failures"][:3]
        assert report["identities"] == 3 * (1 + 9 + 81)


def test_exchange_law_n4_contracted_sample():
    report = verify_ll(pairing(JSignature.parse("iota,1,iota")), degree=2)
    assert report["ok"], report["failures"][:3]
    assert report["identities"] == 3 * (1 + 16 + 256)


def test_batched_exchange_values_match_pointwise_pairing():
    rng = seeded("qdual-batch")
    ctx = pairing(J33)
    T = build_t(J33)
    for fams in (("upper", "upper"), ("upper", "lower")):
        for _ in range(6):
            word = tuple((rng.randint(1, 3), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 2)))
            table = _fold_word(ctx, fams, word, {})
            elem = NCPoly.one(J33.n)
            for k, l in word:
                elem = elem * T.entry(k, l)
            for _ in range(6):
                a, b, c, d = (rng.randint(1, 3) for _ in range(4))
                fw = (GenSymbol(fams[0], a, c), GenSymbol(fams[1], b, d))
                expect = table.get(((a, b), (c, d)), zero(J33.n))
                assert ctx.pair(fw, elem) == expect


def test_metric_and_diagonal_laws_all_n3_signatures():
    for j in all_signatures(3):
        report = verify_l_additional(pairing(j), degree=2)
        assert report["ok"], report["failures"][:3]
        assert report["identities"] == 1365


def test_metric_and_diagonal_laws_n4_contracted_sample():
    report = verify_l_additional(pairing(JSignature.parse("1,iota,1")), degree=1)
    assert report["ok"], report["failures"][:3]
    assert report["identities"] == 17 * (8 + 8 + 1)


def test_transposed_metric_is_self_inverse():
    # both metric sandwiches coincide because the transposed metric
    # squares to the identity, mirroring the inverse-metric collapse on
    # the quantum group side
    for j in all_signatures(3) + [JSignature.parse("1,1,1")]:
        ctx = pairing(j)
        ct = ctx.group.C.transpose()
        assert ct.inverse() == ct
        assert ctx.group.C.inverse() == ctx.group.C


def test_relations_pair_to_zero_all_n3_signatures():
    expected = {"1,1": 14287, "iota,1": 14287, "1,iota": 14287,
                "iota,iota": 10362}
    for j in all_signatures(3):
        report = relations_pair_to_zero(pairing(j), max_len=2)
        assert report["ok"], report["failures"][:3]
        assert report["checked"] == expected[str(j)]


def test_relations_pair_to_zero_takes_words_of_every_admitted_length():
    # 66 relations times 1 + 12 + 12^2 + 12^3 functional words
    report = relations_pair_to_zero(pairing(J33), max_len=3)
    assert report["ok"], report["failures"][:3]
    assert report["checked"] == 124410


def test_relations_pair_to_zero_refutes_non_relations():
    """Injected non-relations are caught, word by word, as the oracle says."""
    # at iota,1 no functional word of length <= 2 separates the product
    # from zero, and the oracle agrees
    caught = {J30: {"fake-product", "fake-trace"}, J31: {"fake-trace"}}
    for j in (J30, J31):
        G = QuantumCKGroup(j)
        T = G.T
        rels = G.relations()
        assert rels.add(T.entry(1, 2) * T.entry(2, 1), "fake-product")
        assert rels.add(T.entry(1, 1) + T.entry(3, 3), "fake-trace")
        ctx = DualPairing(G)
        report = relations_pair_to_zero(ctx, max_len=2)

        oracle = RightFold(ctx)
        syms = dual_symbols(3)
        words = [()] + [(s,) for s in syms]
        words += [(s, t) for s in syms for t in syms]
        expect = [{"source": src, "word": w}
                  for r, src in rels.tagged() for w in words
                  if oracle.pair(w, r)]
        assert not report["ok"]
        assert report["checked"] == len(rels) * len(words) == 14287 + 2 * 157
        assert {f["source"] for f in expect} == caught[j]
        assert report["failures"] == expect


def test_relation_values_vanish_term_by_term_sample():
    ctx = pairing(J31)
    rels = QuantumCKGroup(J31).relations()
    w = (upper_symbol(1, 2), upper_symbol(2, 3))
    for r in rels.polys[:10]:
        assert ctx.pair(w, r).is_zero()


# ------------------------------------------------------------- antipode


def test_antipode_duality_degree_one():
    for j in all_signatures(3) + [JSignature.parse("1,1,1"),
                                  JSignature.parse("iota,iota,iota")]:
        report = verify_antipode_duality(pairing(j))
        assert report["ok"]
        assert report["checked"] == 2 * j.N ** 4


def test_dual_antipode_is_single_mirrored_generator():
    for j in (J30, J33):
        ctx = pairing(j)
        T = build_t(j)
        S = antipode(T, ctx.group.C)
        for g in dual_symbols(3):
            coeff, m = dual_antipode(ctx, g)
            assert m.family == g.family
            assert (m.i, m.k) == (4 - g.k, 4 - g.i)
            inv = coeff.inverse()
            assert inv is not None and coeff * inv == one(j.n)
            for k in range(1, 4):
                for l in range(1, 4):
                    lhs = coeff * ctx.pair(m, T.entry(k, l))
                    rhs = ctx.pair(g, S.entry(k, l))
                    assert lhs == rhs


# ------------------------------------------------------- formal pattern


def test_formal_pattern_trivial_signature_is_plain():
    rep = formal_l_pattern(J30)
    assert set(rep) == {(i, k) for i in range(1, 4) for k in range(1, 4)}
    for terms in rep.values():
        assert terms == ({"mask": 0, "slots": (), "pairing_defined": False},)


def test_formal_pattern_mirrors_entry_weights():
    for j in all_signatures(3) + [JSignature.parse("iota,iota,iota")]:
        rep = formal_l_pattern(j)
        pat = weight_pattern_symplectic(j)
        for key, terms in rep.items():
            assert tuple(t["mask"] for t in terms) == pat[key]


def test_formal_pattern_two_term_corner():
    rep = formal_l_pattern(J33)
    terms = rep[(1, 2)]
    assert len(terms) == 2
    assert terms[0]["slots"] == (1,) and terms[1]["slots"] == (2,)
    assert all(t["pairing_defined"] for t in terms)
    half = formal_l_pattern(J31)[(1, 2)]
    assert [t["pairing_defined"] for t in half] == [False, True]
    assert half[1]["slots"] == (1,)


# ------------------------------------------------------- trivial limits


def test_pairing_tables_are_kronecker_at_flat_limit():
    for j in all_signatures(3):
        ctx = pairing(j)
        for fam in ("upper", "lower"):
            flat = {key: val.at_v_zero().at_q_one()
                    for key, val in ctx.tensor(fam).data.items()}
            flat = {key: val for key, val in flat.items() if val}
            expect = {(i, k, i, k): one(j.n)
                      for i in range(1, 4) for k in range(1, 4)}
            assert flat == expect


def test_entry_words_enumeration_is_deterministic():
    words = list(entry_words(2, 2))
    assert words[0] == ()
    assert len(words) == 1 + 4 + 16
    assert words == sorted(words, key=lambda w: (len(w), w))
