import inspect

import pytest

from ckq import coeffring, qdual
from ckq.coeffring import DualElement, JSignature
from ckq.ckclassical import solve, weight_pattern_symplectic
from ckq.freealg import GenSymbol, NCPoly, mat_symbol, word_key
from ckq.qgroup import QuantumCKGroup, antipode, t_symbols
from ckq.rmatrix import QTensor
from ckq.qdual import (
    FUNCTIONAL_FAMILIES,
    dual_symbols,
    entry_words,
    lower_symbol,
    pair,
    relations_pair_to_zero,
    upper_symbol,
    verify_antipode_duality,
    verify_l_additional,
    verify_ll,
)

from conftest import all_signatures, at_q_one, at_v_zero, seeded
from dual_oracle import RightFold, dual_antipode

J33 = JSignature.parse("iota,iota")
J31 = JSignature.parse("iota,1")
J30 = JSignature.parse("1,1")


def l_table(G, family):
    """The degree-one value table of one functional family of G."""
    return G.l_tables[FUNCTIONAL_FAMILIES.index(family)]


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
    G = QuantumCKGroup(J30)
    with pytest.raises(ValueError):
        pair(G, mat_symbol(1, 1), NCPoly.one(J30.n))
    with pytest.raises(ValueError):
        pair(G, upper_symbol(1, 2), (upper_symbol(1, 1),))
    with pytest.raises(ValueError):
        pair(G, GenSymbol("upper", 1, 2, 1), NCPoly.one(J30.n))


def test_context_rejects_small_dimension():
    with pytest.raises(ValueError):
        QuantumCKGroup(JSignature.parse("iota"))
    # the tables are read off the contracted braiding only, so every
    # public function that takes a group refuses a symbolic one before
    # any work, at word length 0 too
    H = QuantumCKGroup(J33, contracted=False)
    calls = {"pair": [(upper_symbol(1, 1), NCPoly.one(J33.n)), ((), ())],
             "verify_ll": [(0,), (2,)],
             "verify_l_additional": [(0,), (2,)],
             "relations_pair_to_zero": [(0,), (2,)],
             "verify_antipode_duality": [()]}
    takes_group = {name for name, fn in vars(qdual).items()
                   if not name.startswith("_") and inspect.isfunction(fn)
                   and fn.__module__ == qdual.__name__
                   and list(inspect.signature(fn).parameters)[:1] == ["G"]}
    assert takes_group == set(calls)
    for name, arglists in calls.items():
        for args in arglists:
            with pytest.raises(ValueError,
                               match="the pairing reads a contracted group"):
                getattr(qdual, name)(H, *args)
    assert H.dual_steps == {}


# ------------------------------------------------------------ degree one


def test_degree_one_tables_equal_paired_tensors():
    # <L[i,j], t[k,l]> through the word evaluator is entry (i,k,j,l) of the
    # family's tensor, zeros included, which is what ``dual`` emits
    for j in all_signatures(3) + all_signatures(4):
        G = QuantumCKGroup(j)
        T = G.T
        rng = range(1, j.N + 1)
        for fam in ("upper", "lower"):
            R = l_table(G, fam)
            for i in rng:
                for jj in rng:
                    sym = GenSymbol(fam, i, jj)
                    for k in rng:
                        for l in rng:
                            assert (pair(G, sym, T.get(k, l))
                                    == R.get(i, k, jj, l)), (j, fam, i, jj, k, l)


def test_degree_one_tables_are_triangular():
    for j in all_signatures(3) + [JSignature.parse("iota,1,iota")]:
        G = QuantumCKGroup(j)
        for (o1, _, i1, _) in l_table(G, "upper").data:
            assert o1 <= i1
        for (o1, _, i1, _) in l_table(G, "lower").data:
            assert o1 >= i1


def test_off_triangle_functionals_vanish_beyond_degree_one():
    G = QuantumCKGroup(J33)
    syms = t_symbols(G.T)
    words = [(s,) for s in syms]
    words += [(s, t) for s in syms[:5] for t in syms[:5]]
    for w in words:
        assert pair(G, upper_symbol(3, 1), w).is_zero()
        assert pair(G, lower_symbol(1, 3), w).is_zero()


def test_pair_against_unit_element_is_kronecker():
    for j in (J30, J33):
        G = QuantumCKGroup(j)
        unit = NCPoly.one(j.n)
        for g in dual_symbols(3):
            expect = one(j.n) if g.i == g.k else zero(j.n)
            assert pair(G, g, unit) == expect
        assert pair(G, (upper_symbol(1, 2), lower_symbol(2, 1)), unit).is_zero()
        assert pair(G, (upper_symbol(1, 1), lower_symbol(2, 2)), unit) == one(j.n)


def test_unit_functional_pairs_as_counit():
    for j in (J31, J33):
        G = QuantumCKGroup(j)
        T = G.T
        for k in range(1, 4):
            for l in range(1, 4):
                expect = one(j.n) if k == l else zero(j.n)
                assert pair(G, (), T.get(k, l)) == expect
        for g in t_symbols(G.T):
            expect = one(j.n) if (g.i == g.k and g.mask == 0) else zero(j.n)
            assert pair(G, (), (g,)) == expect


# ------------------------------------------------- weight-splitting layer


def test_split_values_reassemble_entry_values():
    for j in (J31, J33):
        G = QuantumCKGroup(j)
        pat = weight_pattern_symplectic(j)
        for fam in ("upper", "lower"):
            for i in range(1, 4):
                for jj in range(1, 4):
                    sym = GenSymbol(fam, i, jj)
                    for k in range(1, 4):
                        for l in range(1, 4):
                            total = zero(j.n)
                            for mask in pat[(k, l)]:
                                v = pair(G, sym, (mat_symbol(k, l, mask),))
                                total = total + DualElement.monomial(j.n, mask) * v
                            assert total == l_table(G, fam).get(i, k, jj, l)


def test_split_values_carry_leftover_weights():
    # the flipped tensor holds a two-slot weight above a one-slot entry
    # pattern, so the read-off value keeps one nilpotent factor
    G = QuantumCKGroup(J33)
    v = pair(G, upper_symbol(1, 2), (mat_symbol(2, 1, 1),))
    assert not v.is_zero()
    assert set(v.terms) == {2}
    assert pair(G, upper_symbol(1, 2), (mat_symbol(2, 1, 2),)).is_zero()


def test_pair_is_bilinear():
    rng = seeded("qdual-bilinear")
    G = QuantumCKGroup(J33)
    syms = t_symbols(G.T)
    duals = dual_symbols(3)
    for _ in range(12):
        w1 = tuple(rng.choice(syms) for _ in range(2))
        w2 = tuple(rng.choice(syms) for _ in range(2))
        c1 = DualElement.monomial(J33.n, rng.choice((0, 1, 2)), rng.randint(1, 3))
        c2 = DualElement.monomial(J33.n, rng.choice((0, 1, 2)), rng.randint(-3, -1))
        p = NCPoly(J33.n, {w1: c1, w2: c2})
        f = rng.choice(duals)
        lhs = pair(G, f, p)
        rhs = c1 * pair(G, f, w1) + c2 * pair(G, f, w2)
        assert lhs == rhs
        f1, f2 = upper_symbol(1, 2), lower_symbol(2, 1)
        fp = NCPoly(J33.n, {(f1,): c1, (f2,): c2})
        assert pair(G, fp, w1) == \
            c1 * pair(G, f1, w1) + c2 * pair(G, f2, w1)


# ---------------------------------------------------- coproduct structure


def test_multiplication_is_dual_to_coproduct():
    rng = seeded("qdual-convolution")
    for j in (J30, J33):
        G = QuantumCKGroup(j)
        syms = t_symbols(G.T)
        for _ in range(10):
            x = tuple(rng.choice(syms) for _ in range(rng.randint(1, 2)))
            y = tuple(rng.choice(syms) for _ in range(rng.randint(1, 2)))
            for f in (upper_symbol(1, 2), lower_symbol(3, 1),
                      upper_symbol(2, 2)):
                lhs = pair(G, f, x + y)
                # f[i,k] -> sum_m f[i,m] (x) f[m,k]
                rhs = zero(j.n)
                for m in range(1, 4):
                    lft = GenSymbol(f.family, f.i, m)
                    rgt = GenSymbol(f.family, m, f.k)
                    rhs = rhs + pair(G, lft, x) * pair(G, rgt, y)
                assert lhs == rhs


def test_left_and_right_folds_agree_on_split_words():
    rng = seeded("qdual-folds")
    for j in (J30, J33):
        G = QuantumCKGroup(j)
        oracle = RightFold(G)
        syms = t_symbols(G.T)
        duals = dual_symbols(3)
        words = [(a, b) for a in syms for b in syms]
        words += [tuple(rng.choice(syms) for _ in range(3)) for _ in range(60)]
        nonzero = 0
        for w in words:
            f = rng.choice(duals)
            val = pair(G, f, w)
            assert val == oracle.pair(f, w)
            nonzero += bool(val)
        assert nonzero > 0


def test_left_and_right_folds_agree_on_entry_products():
    for j in (J30, J33):
        G = QuantumCKGroup(j)
        oracle = RightFold(G)
        T = G.T
        functionals = [upper_symbol(1, 3), lower_symbol(3, 2),
                       (upper_symbol(1, 2), lower_symbol(2, 1)),
                       (upper_symbol(1, 1), upper_symbol(2, 3))]
        nonzero = 0
        for k1 in range(1, 4):
            for l1 in range(1, 4):
                for k2 in range(1, 4):
                    for l2 in range(1, 4):
                        m = T.get(k1, l1) * T.get(k2, l2)
                        for f in functionals:
                            val = pair(G, f, m)
                            assert val == oracle.pair(f, m)
                            nonzero += bool(val)
        assert nonzero > 0


# ------------------------------------------------------------ main laws


def test_exchange_law_all_n3_signatures():
    for j in all_signatures(3):
        report = verify_ll(QuantumCKGroup(j), degree=2)
        assert report["ok"], report["failures"][:3]
        assert report["identities"] == 3 * (1 + 9 + 81)


def test_exchange_law_n4_contracted_sample():
    report = verify_ll(QuantumCKGroup(JSignature.parse("iota,1,iota")), degree=2)
    assert report["ok"], report["failures"][:3]
    assert report["identities"] == 3 * (1 + 16 + 256)


def test_batched_exchange_values_match_pointwise_pairing():
    # one fold of the entry word from all start rows holds, at each key
    # (avec, bvec), the pairing of the functional word those rows name
    rng = seeded("qdual-batch")
    G = QuantumCKGroup(J33)
    T = G.T
    starts = qdual._starts(3, 2)
    for fams in (("upper", "upper"), ("upper", "lower")):
        for _ in range(6):
            word = tuple((rng.randint(1, 3), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 2)))
            table = qdual._flat(qdual._fold(G, fams, starts, word, {}),
                                3, J33.n)
            elem = NCPoly.one(J33.n)
            for k, l in word:
                elem = elem * T.get(k, l)
            for _ in range(6):
                a, b, c, d = (rng.randint(1, 3) for _ in range(4))
                fw = (GenSymbol(fams[0], a, c), GenSymbol(fams[1], b, d))
                expect = table.get(a, b, c, d)
                assert pair(G, fw, elem) == expect


def _doubled(key):
    return lambda k, v: v + v if k == key else v


def _row_dropped(row):
    # every entry whose second output index is `row`, so that the tensors
    # of some diagonal words are empty where the counit is not
    return lambda k, v: None if k[1] == row else v


def _mutated(G, change):
    """G with each R+ entry v at key k replaced by change(k, v), or dropped
    where that is None, before any fold has read the table."""
    rp, rm = G.l_tables
    # a tensor drops the entries that are None, as it drops zeros
    G.__dict__["l_tables"] = (
        QTensor(G.N, G.n, {k: change(k, v) for k, v in rp.data.items()}), rm)
    return G


def _oracle_law_failures(G, degree):
    """The failure lists of ``verify_ll`` and ``verify_l_additional``, with
    every tensor folded by the right-folded oracle and every identity
    composed, the empty ones too."""
    N, n, T = G.N, G.n, G.T
    oracle = RightFold(G)
    rp, ct = G.l_tables[0], G.C.transpose().data
    words = list(entry_words(N, degree))
    elems, tensors = {}, {}
    for word in words:
        elems[word] = NCPoly.one(n)
        for k, l in word:
            elems[word] = elems[word] * T.get(k, l)

    def tensor(fams, word):
        if (fams, word) not in tensors:
            tensors[fams, word] = QTensor(
                N, n, oracle.tensor(fams, elems[word], N))
        return tensors[fams, word]

    def counit(word):
        return one(n) if all(k == l for k, l in word) else zero(n)

    ll = [{"families": fams, "word": word}
          for fams in (("upper", "upper"), ("lower", "lower"),
                       ("upper", "lower"))
          for word in words
          if rp @ tensor(fams, word) != tensor(fams[::-1], word).flipped() @ rp]
    add = []
    for fam in FUNCTIONAL_FAMILIES:
        for word in words:
            A = tensor((fam, fam), word)
            expect = ct if counit(word) else {}
            for law, X in (("sandwich-right", A),
                           ("sandwich-left", A.transpose())):
                if X.apply_vec(ct) != expect:
                    add.append({"family": fam, "law": law, "word": word})
    for k in range(1, N + 1):
        for fams in (("upper", "lower"), ("lower", "upper")):
            fw = (GenSymbol(fams[0], k, k), GenSymbol(fams[1], k, k))
            add.extend({"law": "diagonal-inverse", "slot": k,
                        "families": fams, "word": word}
                       for word in words
                       if oracle.pair(fw, elems[word]) != counit(word))
    diag = tuple(upper_symbol(i, i) for i in range(1, N + 1))
    add.extend({"law": "diagonal-product", "word": word} for word in words
               if oracle.pair(diag, elems[word]) != counit(word))
    return ll, add


@pytest.mark.parametrize("sig,change,sizes", [
    pytest.param("1,1", _doubled((1, 2, 2, 1)), (103, 25), id="1,1-double"),
    pytest.param("1,1,1", _doubled((1, 2, 2, 1)), (213, 31),
                 id="1,1,1-double"),
    # off the diagonal, a contracted R+ entry is nilpotent, and doubling
    # (1,2,2,1) at iota,1 breaks the metric laws only; a doubled diagonal
    # entry breaks both suites
    pytest.param("iota,1", _doubled((1, 2, 2, 1)), (0, 14),
                 id="iota,1-double-off-diagonal"),
    pytest.param("iota,1", _doubled((2, 2, 2, 2)), (68, 58),
                 id="iota,1-double-diagonal"),
    pytest.param("iota,1,iota", _doubled((2, 2, 2, 2)), (160, 64),
                 id="iota,1,iota-double-diagonal"),
    # identities with one empty side, and empty sandwiches that should
    # not be, which the suites must compose and count as failures
    pytest.param("iota,1", _row_dropped(2), (29, 64), id="iota,1-drop-row"),
])
def test_functional_laws_refute_a_wrong_r_plus_table(sig, change, sizes):
    """A wrong R+ table fails the exchange and metric laws exactly where
    the right-folded oracle, composing every identity, says so."""
    j = JSignature.parse(sig)
    G = _mutated(QuantumCKGroup(j), change)
    ll, add = verify_ll(G), verify_l_additional(G)
    expect_ll, expect_add = _oracle_law_failures(G, 2)
    assert ll["failures"] == expect_ll
    assert add["failures"] == expect_add
    assert (len(expect_ll), len(expect_add)) == sizes
    assert ll["ok"] == (not expect_ll) and not add["ok"]
    clean = QuantumCKGroup(j)
    assert ll["identities"] == verify_ll(clean)["identities"]
    assert add["identities"] == verify_l_additional(clean)["identities"]


def test_metric_and_diagonal_laws_all_n3_signatures():
    for j in all_signatures(3):
        report = verify_l_additional(QuantumCKGroup(j), degree=2)
        assert report["ok"], report["failures"][:3]
        assert report["identities"] == 1001


def test_metric_and_diagonal_laws_n4_contracted_sample():
    report = verify_l_additional(QuantumCKGroup(JSignature.parse("1,iota,1")), degree=1)
    assert report["ok"], report["failures"][:3]
    assert report["identities"] == 17 * (4 + 8 + 1)


def test_transposed_metric_is_self_inverse():
    # the transposed metric squares to the identity, so its sandwich law is
    # also the inverse-metric law, and verify_l_additional checks it once
    for j in all_signatures(3) + [JSignature.parse("1,1,1")]:
        G = QuantumCKGroup(j)
        ct = G.C.transpose()
        I = QTensor.identity(ct.N, ct.n)
        assert solve(ct, I) == ct
        assert solve(G.C, I) == G.C


def test_relations_pair_to_zero_all_n3_signatures():
    expected = {"1,1": 14287, "iota,1": 14287, "1,iota": 14287,
                "iota,iota": 10362}
    for j in all_signatures(3):
        report = relations_pair_to_zero(QuantumCKGroup(j), max_len=2)
        assert report["ok"], report["failures"][:3]
        assert report["checked"] == expected[str(j)]


def test_relations_pair_to_zero_takes_words_of_every_admitted_length():
    # 66 relations times 1 + 12 + 12^2 + 12^3 functional words
    report = relations_pair_to_zero(QuantumCKGroup(J33), max_len=3)
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
        assert rels.add(T.get(1, 2) * T.get(2, 1), "fake-product")
        assert rels.add(T.get(1, 1) + T.get(3, 3), "fake-trace")
        report = relations_pair_to_zero(G, max_len=2)

        oracle = RightFold(G)
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


def _inject_n4_non_relations(G):
    """Four non-relations added to G's relation set, after the real ones."""
    T = G.T
    rels = G.relations()
    # a real relation with its first coefficient doubled: its word rows
    # no longer cancel, so it pairs as that one term alone
    real = next(p for p in rels if len(p.terms) > 1)
    w0 = min(real.terms, key=word_key)
    doubled = NCPoly(G.n, {w: c + c if w == w0 else c
                           for w, c in real.terms.items()})
    for p, source in ((T.get(1, 2) * T.get(2, 1), "fake-product"),
                      (T.get(1, 1) + T.get(4, 4), "fake-trace"),
                      (doubled, "doubled-coefficient"),
                      (T.get(2, 1) * T.get(1, 1), "fake-lower-prefix")):
        assert rels.add(p, source)
    return rels


@pytest.mark.parametrize("sig,caught", [
    ("1,1,1", {"fake-product", "fake-trace", "doubled-coefficient",
               "fake-lower-prefix"}),
    # as at N=3 iota,1, no functional word of length <= 2 separates the
    # product from zero, and the oracle agrees
    ("iota,1,iota", {"fake-trace", "doubled-coefficient",
                     "fake-lower-prefix"}),
])
def test_relations_pair_to_zero_refutes_non_relations_n4(sig, caught):
    """Injected non-relations at N=4 are caught, word by word, exactly where
    the right-folded oracle pairs them to nonzero."""
    G = QuantumCKGroup(JSignature.parse(sig))
    real = len(G.relations())
    rels = _inject_n4_non_relations(G)
    report = relations_pair_to_zero(G, max_len=2)

    syms = dual_symbols(4)
    words = [()] + [(s,) for s in syms]
    words += [(s, t) for s in syms for t in syms]
    # the real relations pair to zero (the suite passes at every N=4
    # signature), so the oracle is asked about the injected ones only
    oracle = RightFold(G)
    expect = [{"source": src, "word": w}
              for r, src in list(rels.tagged())[real:] for w in words
              if oracle.pair(w, r)]
    assert not report["ok"]
    assert report["checked"] == len(rels) * len(words) == (real + 4) * 421
    assert {f["source"] for f in expect} == caught
    assert report["failures"] == expect

    # the lower-prefix fake is caught although each of its prefixes has
    # an empty tensor from all start rows under some family tuple, where
    # its words are skipped unfolded
    fake = rels.polys[-1]
    fam_tuples = {tuple(g.family for g in w) for w in words}
    for pre in {w[:-1] for w in fake.terms}:
        assert any(not qdual._fold(G, fams, qdual._starts(4, len(fams)),
                                   pre, {})
                   for fams in fam_tuples)


def test_relations_pair_to_zero_folds_each_word_once(monkeypatch):
    """One call folds each relation word at most once per family tuple,
    from all start rows, and never a word whose prefix tensor is empty."""
    G = QuantumCKGroup(JSignature.parse("iota,1,iota"))
    rel_words = {w for p in G.relations() for w in p.terms}
    folded, starts, skipped = {}, {}, set()
    twice = []
    fold = qdual._fold

    def counted(G, fams, rows, word, memo):
        # a word is folded when its tensor is formed and stored; one that
        # is returned unstored was skipped
        fresh = word not in memo
        got = fold(G, fams, rows, word, memo)
        if fresh and word in memo:
            if (fams, word) in folded:
                twice.append((fams, word))
            folded[(fams, word)] = got
            starts.setdefault(fams, set()).add(rows)
        elif fresh:
            skipped.add((fams, word))
        return got

    monkeypatch.setattr(qdual, "_fold", counted)
    assert relations_pair_to_zero(G, max_len=2)["ok"]
    assert not twice
    assert starts == {fams: {qdual._starts(4, len(fams))} for fams in starts}
    assert len(starts) == 1 + 2 + 4
    # a word is folded after its prefix, whose tensor must not be empty
    assert all(folded[(fams, w[:-1])] for fams, w in folded if w)
    assert {w for _, w in folded} <= rel_words | {
        w[:-1] for w in rel_words}
    # the skip is not vacuous: some relation word goes unfolded somewhere
    assert skipped and not skipped & set(folded)
    assert len(folded) < len(starts) * len(rel_words)


def test_relations_pair_to_zero_sums_each_coefficient_tuple_once(monkeypatch):
    """Every coefficient sum of the pairing goes through the group's dot
    table, so the body of ``DualElement.dot`` runs once per distinct tuple
    of pairs: under 1,500 times at N=4 1,1,1, where summing without the
    table runs it 15,619 times."""
    G = QuantumCKGroup(JSignature.parse("1,1,1"))
    # the relations and the L+- tables are built first, each through the
    # same table, so only the pairing's own sums count
    G.relations(), G.l_tables
    summed = []
    body = coeffring._dual_dot

    def counted(n, pairs):
        summed.append(tuple(pairs))
        return body(n, pairs)

    monkeypatch.setattr(coeffring, "_dual_dot", counted)
    assert relations_pair_to_zero(G)["ok"]
    assert len(summed) == len(set(summed))
    assert len(summed) < 1500


def test_relation_values_vanish_term_by_term_sample():
    G = QuantumCKGroup(J31)
    rels = QuantumCKGroup(J31).relations()
    w = (upper_symbol(1, 2), upper_symbol(2, 3))
    for r in rels.polys[:10]:
        assert pair(G, w, r).is_zero()


# ------------------------------------------------------------- antipode


def test_antipode_duality_degree_one():
    for j in all_signatures(3) + [JSignature.parse("1,1,1"),
                                  JSignature.parse("iota,iota,iota")]:
        report = verify_antipode_duality(QuantumCKGroup(j))
        assert report["ok"]
        assert report["checked"] == 2 * j.N ** 4


def test_dual_antipode_is_single_mirrored_generator():
    for j in (J30, J33):
        G = QuantumCKGroup(j)
        T = G.T
        S = antipode(T, G.C)
        for g in dual_symbols(3):
            coeff, m = dual_antipode(G, g)
            assert m.family == g.family
            assert (m.i, m.k) == (4 - g.k, 4 - g.i)
            inv = coeff.inverse()
            assert inv is not None and coeff * inv == one(j.n)
            for k in range(1, 4):
                for l in range(1, 4):
                    lhs = coeff * pair(G, m, T.get(k, l))
                    rhs = pair(G, g, S.get(k, l))
                    assert lhs == rhs


# ------------------------------------------------------- trivial limits


def test_pairing_tables_are_kronecker_at_flat_limit():
    for j in all_signatures(3):
        G = QuantumCKGroup(j)
        for fam in ("upper", "lower"):
            flat = {key: at_q_one(at_v_zero(val))
                    for key, val in l_table(G, fam).data.items()}
            flat = {key: val for key, val in flat.items() if val}
            expect = {(i, k, i, k): one(j.n)
                      for i in range(1, 4) for k in range(1, 4)}
            assert flat == expect


def test_entry_words_enumeration_is_deterministic():
    words = list(entry_words(2, 2))
    assert words[0] == ()
    assert len(words) == 1 + 4 + 16
    assert words == sorted(words, key=lambda w: (len(w), w))
