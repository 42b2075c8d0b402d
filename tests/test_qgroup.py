import pytest

from ckq.coeffring import DualElement, JSignature, ScalarExpr
from ckq.ckclassical import (
    CKMatrix,
    antidiagonal_c0,
    random_cayley,
    to_symplectic,
    weight_pattern_symplectic,
)
from ckq.freealg import NCPoly, mat_symbol
from ckq.rmatrix import QTensor
from ckq.qgroup import (
    QuantumCKGroup,
    antipode,
    build_t,
    contraction_commutes,
    coproduct,
    counit,
    counit_annihilates,
    counit_leg,
    expand_atomic,
    full_relation_set,
    orthogonality_relations,
    rtt_components,
    rtt_relations,
    sign_key,
    t_symbols,
    verify_antipode,
    verify_coassociativity,
    verify_coproduct_assembly,
    verify_counit_axioms,
    verify_delta_compat,
)

from conftest import all_signatures, seeded


def canon(p):
    return min(p.key(), (-p).key())


# ---------------------------------------------------------------- builders


def test_build_t_trivial_entries_are_single_symbols():
    j = JSignature.trivial(2)
    T = build_t(j)
    for i in range(1, 4):
        for k in range(1, 4):
            assert T.entry(i, k) == NCPoly.gen(2, mat_symbol(i, k))


def test_build_t_split_entry_structure():
    j = JSignature.parse("iota,iota")
    T = build_t(j)
    # corner entry carries the trivial subset and the full one
    e11 = T.entry(1, 1)
    assert set(e11.terms) == {(mat_symbol(1, 1, 0),), (mat_symbol(1, 1, 3),)}
    assert e11.terms[(mat_symbol(1, 1, 3),)] == DualElement.monomial(2, 3)
    # middle entry is weight-free
    assert T.entry(2, 2) == NCPoly.gen(2, mat_symbol(2, 2))
    # edge entry: two single-index subsets
    assert set(T.entry(1, 2).terms) == {
        (mat_symbol(1, 2, 1),), (mat_symbol(1, 2, 2),)}


@pytest.mark.parametrize("spec,count", [
    ("1,1", 9), ("iota,1", 17), ("1,iota", 17), ("iota,iota", 17),
])
def test_symbol_count_n3(spec, count):
    j = JSignature.parse(spec)
    syms = t_symbols(j)
    assert len(syms) == count
    assert len(set(syms)) == count
    pat = weight_pattern_symplectic(j)
    assert count == sum(len(v) for v in pat.values())


def test_symbol_count_n4():
    assert len(t_symbols(JSignature.trivial(3))) == 16
    assert len(t_symbols(JSignature.parse("iota,iota,iota"))) == 48


# ------------------------------------------------------------- relation sets


@pytest.mark.parametrize("spec,n_rtt,n_full", [
    ("1,1", 73, 91),
    ("iota,1", 73, 91),
    ("1,iota", 73, 91),
    ("iota,iota", 48, 66),
])
def test_relation_counts_n3(spec, n_rtt, n_full):
    G = QuantumCKGroup(JSignature.parse(spec))
    assert len(rtt_relations(G.T, G.R)) == n_rtt
    assert len(orthogonality_relations(G.T, G.C)) == 18
    assert len(G.relations()) == n_full


def test_relation_counts_n4():
    G = QuantumCKGroup(JSignature.trivial(3))
    assert len(rtt_relations(G.T, G.R)) == 224
    assert len(G.relations()) == 256
    assert len(QuantumCKGroup(JSignature.parse("iota,iota,iota")).relations()) == 180


def test_rtt_component_qcommutator_frozen():
    # same-column pair: t21 t11 = q^{-1} t11 t21, and the cross component
    # t21 t12 - t12 t21 with no deformation term
    G = QuantumCKGroup(JSignature.trivial(2))
    comps = rtt_components(G.T, G.R)
    t = lambda i, k: NCPoly.gen(2, mat_symbol(i, k))
    assert comps[(2, 1, 1, 1)] == t(2, 1) * t(1, 1) - (t(1, 1) * t(2, 1)) * ScalarExpr.q_power(-1)
    assert comps[(2, 1, 1, 2)] == t(2, 1) * t(1, 2) - t(1, 2) * t(2, 1)
    assert comps[(1, 1, 1, 1)].is_zero()


def test_relation_sources_tagged():
    G = QuantumCKGroup(JSignature.parse("iota,1"))
    rels = G.relations()
    sources = set(rels.sources)
    assert sources == {"rtt", "orth"}
    assert [s for _, s in rels.tagged()].count("orth") == 18


def test_identity_r_gives_plain_commutators():
    j = JSignature.trivial(2)
    T = build_t(j)
    comps = rtt_components(T, QTensor.identity(3, 2))
    for (i, jj, k, l), p in comps.items():
        expected = (T.entry(i, k) * T.entry(jj, l)
                    - T.entry(jj, l) * T.entry(i, k))
        assert p == expected


@pytest.mark.parametrize("spec", ["iota,1", "1,iota", "iota,iota"])
def test_contracted_rtt_at_v0_is_commutators(spec):
    j = JSignature.parse(spec)
    G = QuantumCKGroup(j)
    at_v0 = {canon(q) for q in (p.at_v_zero() for p in rtt_relations(G.T, G.R)) if q}
    flat = {canon(p) for p in rtt_relations(G.T, QTensor.identity(3, 2))}
    assert at_v0 == flat


@pytest.mark.parametrize("spec", ["iota,1", "iota,iota"])
def test_contracted_orth_at_v0_is_classical(spec):
    j = JSignature.parse(spec)
    G = QuantumCKGroup(j)
    at_v0 = {canon(q) for q in
             (p.at_v_zero() for p in orthogonality_relations(G.T, G.C)) if q}
    classical = {canon(p) for p in
                 orthogonality_relations(G.T, antidiagonal_c0(3, 2))}
    assert at_v0 == classical


def test_classical_substitution_kills_relations_at_q_one():
    # symbols evaluated on the subset coordinates of a Cayley-generated
    # classical matrix satisfy every relation once q is set to 1
    rng = seeded("classical-subst")
    for spec in ("1,1", "iota,1", "iota,iota"):
        j = JSignature.parse(spec)
        G = QuantumCKGroup(j, contracted=False)
        B = to_symplectic(random_cayley(j, rng))
        n = j.n

        def fn(g, B=B, n=n):
            c = B.entry(g.i, g.k).terms.get(g.mask)
            return DualElement.scalar(n, c) if c is not None else DualElement.zero(n)

        for rel in G.relations():
            assert rel.map_coeffs(lambda c: c.at_q_one()).evaluate(fn).is_zero()


@pytest.mark.parametrize("spec", ["1,1", "iota,1", "1,iota", "iota,iota"])
def test_contraction_commutes(spec):
    assert contraction_commutes(QuantumCKGroup(JSignature.parse(spec)))


def test_coefficient_shape_deformation_carries_jv():
    # for a contracted signature the deformation part of every relation
    # vanishes at v=0 together with R - I, i.e. carries a factor Jv
    j = JSignature.parse("iota,iota")
    G = QuantumCKGroup(j)
    for p in rtt_relations(G.T, G.R):
        assert deformation_part_is_nilpotent(p)


def deformation_part_is_nilpotent(p):
    # difference between the relation and its v=0 shadow must be nilpotent
    diff = p - p.at_v_zero()
    return all(c.nil_part() == c for c in diff.terms.values())


# ------------------------------------------------------------ Hopf structure


def test_coassociativity_and_counit_axioms():
    assert verify_coassociativity(3)
    assert verify_coassociativity(4)
    assert verify_counit_axioms(3)
    assert verify_counit_axioms(4)


@pytest.mark.parametrize("spec", ["1,1", "iota,1", "1,iota", "iota,iota"])
def test_coproduct_assembly(spec):
    assert verify_coproduct_assembly(QuantumCKGroup(JSignature.parse(spec)))


def test_coproduct_assembly_n4():
    assert verify_coproduct_assembly(
        QuantumCKGroup(JSignature.parse("iota,1,iota")))


def test_coproduct_is_algebra_map():
    n = 2
    t11 = NCPoly.gen(n, mat_symbol(1, 1))
    t12 = NCPoly.gen(n, mat_symbol(1, 2))
    assert coproduct(t11 * t12) == coproduct(t11) * coproduct(t12)
    assert coproduct(NCPoly.one(n)) == NCPoly.one(n)


def test_coproduct_rejects_split_symbols():
    with pytest.raises(ValueError):
        coproduct(NCPoly.gen(2, mat_symbol(1, 1, mask=3)))


def test_counit_on_assembled_entries():
    for spec in ("1,1", "iota,iota"):
        j = JSignature.parse(spec)
        T = build_t(j)
        for i in range(1, 4):
            for k in range(1, 4):
                expect = DualElement.one(2) if i == k else DualElement.zero(2)
                assert counit(T.entry(i, k)) == expect


def test_counit_leg_shifts_copies():
    n = 2
    p = NCPoly.gen(n, mat_symbol(1, 1, copy=0)) * NCPoly.gen(n, mat_symbol(1, 2, copy=1))
    assert counit_leg(p, 0) == NCPoly.gen(n, mat_symbol(1, 2, copy=0))
    assert counit_leg(p, 1).is_zero()


@pytest.mark.parametrize("spec", ["1,1", "iota,1", "1,iota", "iota,iota"])
def test_counit_annihilates_relations(spec):
    G = QuantumCKGroup(JSignature.parse(spec))
    assert counit_annihilates(G.relations())


# ----------------------------------------------------------------- antipode


def test_antipode_entries_mirror_with_metric_scalars():
    j = JSignature.parse("iota,iota")
    G = QuantumCKGroup(j, contracted=False)
    S = antipode(G.T, G.C)
    Ci = G.C.inverse()
    for i in range(1, 4):
        for k in range(1, 4):
            scalar = G.C.entry(i, 4 - i) * Ci.entry(4 - k, k)
            assert S.entry(i, k) == G.T.entry(4 - k, 4 - i) * scalar


def test_antipode_classical_inverse():
    rng = seeded("antipode-classical")
    for spec in ("1,1", "iota,iota"):
        j = JSignature.parse(spec)
        B = to_symplectic(random_cayley(j, rng))
        C0 = antidiagonal_c0(3, 2)
        assert (C0 @ B.transpose() @ C0) @ B == CKMatrix.identity(3, 2)


def test_s_squared_scaling():
    for spec, contracted in (("1,1", False), ("iota,iota", True),
                             ("1,1,1", False)):
        rep = verify_antipode(QuantumCKGroup(JSignature.parse(spec),
                                              contracted=contracted))
        assert rep["s_squared_refuted"] == [], spec
        assert rep["ok"], rep


# the last five are the N=5 signatures with non-contiguous iota slots
@pytest.mark.parametrize("spec", [
    "1,1", "iota,1", "1,iota", "iota,iota",
    "iota,1,iota,1", "iota,1,1,iota", "1,iota,1,iota", "iota,iota,1,iota",
    "iota,1,iota,iota",
])
def test_antipode_axiom_contracted(spec):
    rep = verify_antipode(QuantumCKGroup(JSignature.parse(spec)))
    assert rep["ok"], rep
    assert rep["entries"] > 0


@pytest.mark.parametrize("N", [3, 4, 5])
def test_antipode_axiom_symbolic(N):
    rep = verify_antipode(QuantumCKGroup(JSignature.trivial(N - 1),
                                          contracted=False))
    assert rep["ok"], rep


def test_metric_is_its_own_inverse():
    # C^(-1) = C is why the inverse-metric orthogonality family adds no
    # relation to the emitted ideal: it deduplicates onto the metric family
    for N in (3, 4, 5):
        for j in all_signatures(N):
            for contracted in (True, False):
                C = QuantumCKGroup(j, contracted=contracted).C
                assert C.inverse() == C, (j, contracted)


# ---------------------------------------------------- coproduct compatibility


@pytest.mark.parametrize("spec", ["1,1", "iota,1", "1,iota", "iota,iota"])
def test_delta_compat_certificates_n3(spec):
    rep = verify_delta_compat(QuantumCKGroup(JSignature.parse(spec)))
    assert rep["ok"]
    assert rep["components"] == 81
    assert rep["split_components"] == 81


def test_delta_compat_certificates_n4_sample():
    rep = verify_delta_compat(QuantumCKGroup(JSignature.parse("iota,1,iota")))
    assert rep["ok"]
    assert rep["components"] == 256
    assert rep["split_components"] == 0  # atomic + bridge only at N=4


def test_delta_compat_commutative_shadow():
    # at v=0 the contracted R is the identity and both sides of the
    # exchange collapse; every certificate target is then zero outright
    j = JSignature.parse("iota,iota")
    G = QuantumCKGroup(j)
    comps = rtt_components(G.T, G.R)
    for p in comps.values():
        q = p.at_v_zero()
        # commutator structure: vanishes under any commutative evaluation
        assert q.evaluate(lambda g: DualElement.one(2)).is_zero()


def test_expand_atomic_is_algebra_map():
    j = JSignature.parse("iota,iota")
    rng = seeded("expand-atomic")
    n = j.n
    for _ in range(20):
        syms = [mat_symbol(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(2)]
        p = NCPoly.gen(n, syms[0])
        q = NCPoly.gen(n, syms[1])
        assert expand_atomic(p * q, j) == expand_atomic(p, j) * expand_atomic(q, j)


# ------------------------------------------------------------------- guards


def test_small_n_rejected():
    with pytest.raises(ValueError):
        QuantumCKGroup(JSignature.parse("iota"))


def test_polymatrix_shape_guard():
    with pytest.raises(Exception):
        CKMatrix([[NCPoly.one(2)], [NCPoly.one(2), NCPoly.one(2)]])


def test_full_relation_set_matches_class_method():
    j = JSignature.parse("iota,1")
    G = QuantumCKGroup(j)
    direct = full_relation_set(G.T, G.R, G.C)
    assert direct.key_set() == G.relations().key_set()


_SIGN_KEY_CASES = ([(j, c) for N in (3, 4) for j in all_signatures(N)
                    for c in (True, False)]
                   + [(JSignature.parse(raw), True) for raw in
                      ("1,1,1,1", "iota,1,iota,1", "iota,iota,iota,iota")])


@pytest.mark.parametrize("j,contracted", _SIGN_KEY_CASES, ids=str)
def test_sign_key_is_key_up_to_sign(j, contracted):
    flips = set()
    for p in QuantumCKGroup(j, contracted=contracted).relations():
        key = min(p.key(), (-p).key())
        assert sign_key(p) == sign_key(-p) == key
        flips.add(key == p.key())
    assert flips == {True, False}
