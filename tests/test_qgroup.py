import ast
from itertools import product
from pathlib import Path

import pytest

import ckq
from ckq import coeffring, qgroup, render
from ckq.coeffring import DualElement, JSignature, ScalarExpr
from ckq.ckclassical import (
    antidiagonal_c0,
    random_cayley,
    solve,
    to_symplectic,
    weight_pattern_symplectic,
)
from ckq.freealg import NCPoly, mat_symbol
from ckq.qdual import dual_symbols, pair
from ckq.rmatrix import QTensor
from ckq.qgroup import (
    QuantumCKGroup,
    RelationSet,
    antipode,
    build_t,
    contraction_commutes,
    coproduct,
    counit,
    counit_annihilates,
    counit_leg,
    full_relation_set,
    orthogonality_cofactors,
    orthogonality_relations,
    rtt_components,
    rtt_relations,
    splitting_map,
    t_symbols,
    verify_antipode,
    verify_coassociativity,
    verify_coproduct_assembly,
    verify_counit_axioms,
    verify_delta_compat,
)

import exchange_oracle
from conftest import all_signatures, at_q_one, at_v_zero, seeded


def canon(p):
    """p up to sign, as a value."""
    return frozenset((p, -p))


# ---------------------------------------------------------------- builders


def test_build_t_trivial_entries_are_single_symbols():
    T = build_t(QuantumCKGroup(JSignature([False] * 2)))
    for i in range(1, 4):
        for k in range(1, 4):
            assert T.get(i, k) == NCPoly.gen(2, mat_symbol(i, k))


def test_build_t_split_entry_structure():
    T = build_t(QuantumCKGroup(JSignature.parse("iota,iota")))
    # corner entry carries the trivial subset and the full one
    e11 = T.get(1, 1)
    assert set(e11.terms) == {(mat_symbol(1, 1, 0),), (mat_symbol(1, 1, 3),)}
    assert e11.terms[(mat_symbol(1, 1, 3),)] == DualElement.monomial(2, 3)
    # middle entry is weight-free
    assert T.get(2, 2) == NCPoly.gen(2, mat_symbol(2, 2))
    # edge entry: two single-index subsets
    assert set(T.get(1, 2).terms) == {
        (mat_symbol(1, 2, 1),), (mat_symbol(1, 2, 2),)}


@pytest.mark.parametrize("spec,count", [
    ("1,1", 9), ("iota,1", 17), ("1,iota", 17), ("iota,iota", 17),
])
def test_symbol_count_n3(spec, count):
    j = JSignature.parse(spec)
    syms = t_symbols(QuantumCKGroup(j).T)
    assert len(syms) == count
    assert len(set(syms)) == count
    pat = weight_pattern_symplectic(j)
    assert count == sum(len(v) for v in pat.values())


def test_symbol_count_n4():
    assert len(t_symbols(QuantumCKGroup(JSignature([False] * 3)).T)) == 16
    assert len(t_symbols(QuantumCKGroup(JSignature.parse("iota,iota,iota")).T)) == 48


# --------------------------------------------------- one frame per group


def _call_sites(name: str) -> list:
    """(module, enclosing definitions) of every call of ``name`` in the
    package, as a bare name or as an attribute."""
    sites = []

    def visit(node, path, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path + (child.name,), module)
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                sites.append((module, ".".join(path)))
            visit(child, path, module)

    for path in sorted(Path(ckq.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (), path.name)
    return sites


def test_the_group_is_the_one_builder_of_its_pattern_and_l_tables():
    assert _call_sites("weight_pattern_symplectic") == [
        ("qgroup.py", "QuantumCKGroup.pattern")]
    assert _call_sites("r_plus_minus") == [("qgroup.py", "QuantumCKGroup.l_tables")]


@pytest.mark.parametrize("spec", ["1,1,1", "iota,1,iota"])
def test_l_tables_sum_each_coefficient_tuple_once(monkeypatch, spec):
    # r_plus_minus sums through the group's dot table: at N=4 1,1,1 the
    # body of DualElement.dot ran 89 times over 34 distinct tuples without it
    G = QuantumCKGroup(JSignature.parse(spec))
    G.R
    summed = []
    body = coeffring._dual_dot

    def counted(n, pairs):
        summed.append(tuple(pairs))
        return body(n, pairs)

    monkeypatch.setattr(coeffring, "_dual_dot", counted)
    Lp, Lm = G.l_tables
    assert summed and len(summed) == len(set(summed))
    table = G.dot_table
    assert all(table[e] is e for X in (Lp, Lm) for e in X.data.values())


class _Watched(dict):
    """A weight pattern that counts the lookups its readers make."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def items(self):
        self.reads += 1
        return super().items()


def test_readers_take_the_pattern_and_l_tables_from_the_group(monkeypatch):
    # each is built once per group, and T's builder, the pairing and the
    # LaTeX names read the group's own objects, not a copy of their own
    built = []
    for name in ("weight_pattern_symplectic", "r_plus_minus"):
        monkeypatch.setattr(qgroup, name, lambda *args, real=getattr(qgroup, name), name=name:
                            built.append(name) or real(*args))
    G = QuantumCKGroup(JSignature.parse("iota,1"))
    G.pattern = pattern = _Watched(G.pattern)
    syms = t_symbols(G.T)
    readers = {
        "build_t": lambda: build_t(G, copy=1),
        "pair": lambda: [pair(G, f, (g,)) for f in dual_symbols(3) for g in syms],
        "relations_tex": lambda: render.relations_tex(G),
    }
    for name, read in readers.items():
        pattern.reads = 0
        read()
        assert pattern.reads, name
    assert built == ["weight_pattern_symplectic", "r_plus_minus"]


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
    assert len(orthogonality_relations(G.cofactors)) == 18
    assert len(G.relations()) == n_full


def test_relation_counts_n4():
    G = QuantumCKGroup(JSignature([False] * 3))
    assert len(rtt_relations(G.T, G.R)) == 224
    assert len(G.relations()) == 256
    assert len(QuantumCKGroup(JSignature.parse("iota,iota,iota")).relations()) == 180


def test_rtt_component_qcommutator_frozen():
    # same-column pair: t21 t11 = q^{-1} t11 t21, and the cross component
    # t21 t12 - t12 t21 with no deformation term
    G = QuantumCKGroup(JSignature([False] * 2))
    comps = rtt_components(G.T, G.R).data
    t = lambda i, k: NCPoly.gen(2, mat_symbol(i, k))
    assert comps[(2, 1, 1, 1)] == t(2, 1) * t(1, 1) - (t(1, 1) * t(2, 1)) * ScalarExpr.q_power(-1)
    assert comps[(2, 1, 1, 2)] == t(2, 1) * t(1, 2) - t(1, 2) * t(2, 1)
    assert (1, 1, 1, 1) not in comps  # zero components are not stored


def test_relation_sources_tagged():
    G = QuantumCKGroup(JSignature.parse("iota,1"))
    rels = G.relations()
    sources = set(rels.sources)
    assert sources == {"rtt", "orth"}
    assert [s for _, s in rels.tagged()].count("orth") == 18


def test_identity_r_gives_plain_commutators():
    T = QuantumCKGroup(JSignature([False] * 2)).T
    comps = rtt_components(T, QTensor.pair(QTensor.identity(3, 2))).data
    rng = range(1, 4)
    for i, jj, k, l in product(rng, repeat=4):
        expected = (T.get(i, k) * T.get(jj, l)
                    - T.get(jj, l) * T.get(i, k))
        assert comps.get((i, jj, k, l), NCPoly.zero(2)) == expected


@pytest.mark.parametrize("spec", ["iota,1", "1,iota", "iota,iota"])
def test_contracted_rtt_at_v0_is_commutators(spec):
    j = JSignature.parse(spec)
    G = QuantumCKGroup(j)
    at_v0 = {canon(q) for q in (at_v_zero(p) for p in rtt_relations(G.T, G.R)) if q}
    flat = {canon(p) for p in rtt_relations(G.T, QTensor.pair(QTensor.identity(3, 2)))}
    assert at_v0 == flat


@pytest.mark.parametrize("spec", ["iota,1", "iota,iota"])
def test_contracted_orth_at_v0_is_classical(spec):
    j = JSignature.parse(spec)
    G = QuantumCKGroup(j)
    at_v0 = {canon(q) for q in
             (at_v_zero(p) for p in orthogonality_relations(G.cofactors)) if q}
    classical = {canon(p) for p in
                 orthogonality_relations(
                     orthogonality_cofactors(G.T, antidiagonal_c0(3, 2)))}
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
            c = B.get(g.i, g.k).terms.get(g.mask)
            return DualElement.scalar(n, c) if c is not None else DualElement.zero(n)

        for rel in G.relations():
            assert at_q_one(rel).evaluate(fn).is_zero()


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
    diff = p - at_v_zero(p)
    return all(0 not in c.terms for c in diff.terms.values())


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
        T = QuantumCKGroup(JSignature.parse(spec)).T
        for i in range(1, 4):
            for k in range(1, 4):
                expect = DualElement.one(2) if i == k else DualElement.zero(2)
                assert counit(T.get(i, k)) == expect


def test_counit_leg_shifts_copies():
    n = 2
    p = NCPoly.gen(n, mat_symbol(1, 1, copy=0)) * NCPoly.gen(n, mat_symbol(1, 2, copy=1))
    assert counit_leg(p, 0) == NCPoly.gen(n, mat_symbol(1, 2, copy=0))
    assert counit_leg(p, 1).is_zero()


@pytest.mark.parametrize("spec", ["1,1", "iota,1", "1,iota", "iota,iota"])
def test_counit_annihilates_relations(spec):
    G = QuantumCKGroup(JSignature.parse(spec))
    assert counit_annihilates(G.relations())


def test_counit_forms_no_product_with_zero(monkeypatch):
    # a coefficient times the counit's zero is the interned zero without
    # a sum being formed: 10,302 of the 10,484 sums of the counit suite
    # at N=5 iota,1,iota,1 were such products
    G = QuantumCKGroup(JSignature.parse("iota,1,iota"))
    rels = G.relations()
    zero = DualElement.zero(G.n)
    operands = []
    body = coeffring._dual_dot

    def counted(n, pairs):
        pairs = tuple(pairs)
        operands.extend(x for ab in pairs for x in ab)
        return body(n, pairs)

    monkeypatch.setattr(coeffring, "_dual_dot", counted)
    assert counit_annihilates(rels)
    assert not any(x is zero for x in operands)


# ----------------------------------------------------------------- antipode


def test_antipode_entries_mirror_with_metric_scalars():
    j = JSignature.parse("iota,iota")
    G = QuantumCKGroup(j, contracted=False)
    S = antipode(G.T, G.C)
    Ci = solve(G.C, QTensor.identity(3, 2))
    for i in range(1, 4):
        for k in range(1, 4):
            scalar = G.C.get(i, 4 - i) * Ci.get(4 - k, k)
            assert S.get(i, k) == G.T.get(4 - k, 4 - i) * scalar


def test_antipode_classical_inverse():
    rng = seeded("antipode-classical")
    for spec in ("1,1", "iota,iota"):
        j = JSignature.parse(spec)
        B = to_symplectic(random_cayley(j, rng))
        C0 = antidiagonal_c0(3, 2)
        assert (C0 @ B.transpose() @ C0) @ B == QTensor.identity(3, 2)


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
    rep = verify_antipode(QuantumCKGroup(JSignature([False] * (N - 1)),
                                          contracted=False))
    assert rep["ok"], rep


def test_metric_is_its_own_inverse():
    # C^(-1) = C is why one orthogonality family serves the antipode axiom
    # and why C T^t C is the antipode; QuantumCKGroup.C checks it as C C = I,
    # and this pins that check against the Gauss-Jordan inverse
    for N in (3, 4, 5):
        for j in all_signatures(N):
            for contracted in (True, False):
                C = QuantumCKGroup(j, contracted=contracted).C
                assert solve(C, QTensor.identity(N, N - 1)) == C, (j, contracted)


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


def _rows(rows) -> dict:
    """The nonzero components of a certificate side, joined from its rows:
    dicts, or iterators of (key, component)."""
    return {k: v for row in rows
            for k, v in (row.items() if isinstance(row, dict) else row) if v}


@pytest.mark.parametrize("atomic", [True, False], ids=["atomic", "split"])
@pytest.mark.parametrize("spec", [str(j) for j in all_signatures(3)]
                         + ["1,1,1", "iota,1,iota"])
def test_exchange_tensors_match_the_per_component_oracle(spec, atomic):
    # the rows of R T1 T2 - T2 T1 R in either row order, and the rows of
    # the coproduct certificate and of its target (the components of A B),
    # agree with the component-by-component sums, zero components dropped;
    # the certificate is compared once more with one copy-1 component
    # perturbed
    j = JSignature.parse(spec)
    G = QuantumCKGroup(j)
    A, B = build_t(G, 0, atomic), build_t(G, 1, atomic)
    rng = range(1, j.N + 1)
    order = qgroup._row_order(j.N)
    assert sorted(order) == list(product(rng, rng))
    nonzero = lambda comps: {k: p for k, p in comps.items() if p}
    relA, relB = rtt_components(A, G.R), rtt_components(B, G.R)
    for X, rel in ((A, relA), (B, relB)):
        assert rel.data == nonzero(exchange_oracle.rtt_components(X, G.R))
        for o in (order, sorted(order)):
            rows = list(qgroup.rtt_rows(X, G.R, None, o))
            assert len(rows) == len(o)
            assert all({k[:2] for k in row} <= {a} for a, row in zip(o, rows))
            assert _rows(rows) == rel.data
    sums = exchange_oracle.certificate_sums(A, B, relA.data, relB.data, G.R)

    def cert_rows(rel):
        return _rows(qgroup._certificate_rows(
            A, B, qgroup.rtt_rows(A, G.R, None, order), rel, None, order))

    cert = cert_rows(relB)
    target = _rows(qgroup.rtt_rows(A @ B, G.R, None, order))
    assert cert == nonzero({k: c for k, (c, _) in sums.items()})
    assert target == nonzero({k: t for k, (_, t) in sums.items()})
    assert cert == target == rtt_components(A @ B, G.R).data
    data = dict(relB.data)
    data[(2, 1, 1, 2)] = data.get((2, 1, 1, 2), NCPoly.zero(j.n)) + B.get(2, 2)
    sums = exchange_oracle.certificate_sums(A, B, relA.data, data, G.R)
    cert = cert_rows(QTensor(B.N, j.n, data))
    assert cert == nonzero({k: c for k, (c, _) in sums.items()})
    assert cert != target


def _corrupt_component(monkeypatch, copy):
    """Exchange component (2,1,1,3) of every copy-``copy`` T, atomic and
    split alike, gains the entry T[3,3] in every row stream that
    ``rtt_rows`` yields, the collected ``rtt_components`` included, so the
    splitting bridge still holds and only the certificate can refute it.
    The target's rows, of a product whose words mix copies, are left
    alone."""
    real = qgroup.rtt_rows

    def corrupt(T, R, table, order):
        copies = {g.copy for w in T.get(1, 1).terms for g in w}
        for row in real(T, R, table, order):
            if copies == {copy} and (2, 1, 1, 3) in row:
                row = dict(row)
                row[(2, 1, 1, 3)] = row[(2, 1, 1, 3)] + T.get(3, 3)
            yield row

    monkeypatch.setattr(qgroup, "rtt_rows", corrupt)


@pytest.mark.parametrize("spec", ["1,1", "iota,1,iota"])
def test_delta_compat_refutes_a_corrupt_copy_one_component(monkeypatch, spec):
    _corrupt_component(monkeypatch, 1)
    with pytest.raises(ArithmeticError, match="certificate mismatch"):
        verify_delta_compat(QuantumCKGroup(JSignature.parse(spec)))


@pytest.mark.parametrize("spec", ["1,1", "iota,1,iota"])
def test_delta_compat_refutes_a_corrupt_copy_zero_component(monkeypatch, spec):
    # relA's corrupt component reaches output row (2, 1) alone, wherever
    # that row falls in the certificate's row order
    _corrupt_component(monkeypatch, 0)
    with pytest.raises(ArithmeticError,
                       match=r"certificate mismatch at \(2, 1, \d, \d\)$"):
        verify_delta_compat(QuantumCKGroup(JSignature.parse(spec)))


def test_delta_compat_streams_the_certificate_rows(monkeypatch):
    # no tensor of degree-4 words outgrows one output row (N^2 entries),
    # and each pair row of (AB)1 (AB)2 is built once: every product of
    # two entries of A B, whose words mix copies 0 and 1, is formed once
    j = JSignature.parse("iota,1,iota")
    G = QuantumCKGroup(j)
    sizes, pairs = [], []
    real_init, real_dot = QTensor.__init__, NCPoly.dot.__func__

    def init(self, N, n, data=None):
        real_init(self, N, n, data)
        if any(len(w) == 4 for e in self.data.values()
               if isinstance(e, NCPoly) for w in e.terms):
            sizes.append(len(self.data))

    def mixed(p):
        return {g.copy for w in p.terms for g in w} == {0, 1}

    def dot(cls, n, ps, table=None):
        ps = list(ps)
        if len(ps) == 1 and all(mixed(p) for p in ps[0]):
            pairs.append(tuple(map(id, ps[0])))
        return real_dot(cls, n, ps, table)

    monkeypatch.setattr(QTensor, "__init__", init)
    monkeypatch.setattr(NCPoly, "dot", classmethod(dot))
    assert verify_delta_compat(G)["ok"]
    assert max(sizes, default=0) <= j.N ** 2
    assert len(pairs) == len(set(pairs)) == j.N ** 4


@pytest.mark.parametrize("spec", ["iota,1", "iota,1,iota"])
def test_delta_compat_refutes_a_corrupt_splitting_map(monkeypatch, spec):
    # t[1,2] split into its pattern plus a stray t[2,1]: the bridge from
    # atomic to split components must fail
    real = qgroup.splitting_map

    def corrupt(*copies):
        split = real(*copies)

        def fn(g):
            e = split(g)
            if (g.i, g.k) == (1, 2):
                e = e + NCPoly.gen(e.n, mat_symbol(2, 1, 0, g.copy))
            return e

        return fn

    G = QuantumCKGroup(JSignature.parse(spec))
    assert verify_delta_compat(G)["ok"]
    monkeypatch.setattr(qgroup, "splitting_map", corrupt)
    assert verify_delta_compat(G)["ok"] is False


def test_delta_compat_builds_each_split_entry_once(monkeypatch):
    # the split entries are the group's T, built once; the splitting map
    # looks them up, so past N = 3 the check builds only the atomic copies
    G = QuantumCKGroup(JSignature.parse("iota,1,iota"))
    assert G.T.nnz() == 4 ** 2
    calls = []
    real = qgroup.build_t

    def counted(G, copy=0, atomic=False):
        calls.append((copy, atomic))
        return real(G, copy, atomic)

    monkeypatch.setattr(qgroup, "build_t", counted)
    assert verify_delta_compat(G)["ok"]
    assert calls == [(0, True), (1, True)]


def test_relation_specialize_once_per_distinct_coefficient(monkeypatch):
    # contraction_commutes specializes each distinct coefficient of the
    # symbolic exchange components and cofactor entries once
    j = JSignature.parse("iota,1,iota")
    G = QuantumCKGroup(j)
    G.relations()
    H = QuantumCKGroup(j, contracted=False)
    symbolic = list(rtt_components(H.T, H.R).data.values()) + [
        p for F in H.cofactors for p in F.data.values()]
    coeffs = [c for p in symbolic for c in p.terms.values()]
    calls = []
    real = DualElement.specialize

    def counted(self, jj):
        calls.append(self)
        return real(self, jj)

    monkeypatch.setattr(DualElement, "specialize", counted)
    assert contraction_commutes(G)
    assert len(calls) == len(set(calls)) < len(coeffs)
    assert set(calls) == set(coeffs)


def test_delta_compat_commutative_shadow():
    # at v=0 the contracted R is the identity and both sides of the
    # exchange collapse; every certificate target is then zero outright
    j = JSignature.parse("iota,iota")
    G = QuantumCKGroup(j)
    comps = rtt_components(G.T, G.R)
    for p in comps.data.values():
        q = at_v_zero(p)
        # commutator structure: vanishes under any commutative evaluation
        assert q.evaluate(lambda g: DualElement.one(2)).is_zero()


def test_splitting_is_algebra_map():
    j = JSignature.parse("iota,iota")
    rng = seeded("expand-atomic")
    n = j.n
    split = splitting_map(QuantumCKGroup(j).T)
    for _ in range(20):
        syms = [mat_symbol(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(2)]
        p = NCPoly.gen(n, syms[0])
        q = NCPoly.gen(n, syms[1])
        assert (p * q).substitute(split) == p.substitute(split) * q.substitute(split)


# ------------------------------------------------------------------- guards


def test_small_n_rejected():
    with pytest.raises(ValueError):
        QuantumCKGroup(JSignature.parse("iota"))


def test_full_relation_set_matches_class_method():
    j = JSignature.parse("iota,1")
    G = QuantumCKGroup(j)
    direct = full_relation_set(QuantumCKGroup(j))
    assert direct.polys == G.relations().polys
    assert direct.sources == G.relations().sources


_N34_CASES = [(j, c) for N in (3, 4) for j in all_signatures(N) for c in (True, False)]


@pytest.mark.parametrize("j,contracted", _N34_CASES, ids=str)
def test_tabled_relations_are_the_untabled_ones(j, contracted):
    """The group sums its relation coefficients through its dot table: the
    relations, in order and with their sources, are those built with no
    table, and each distinct coefficient value is one object."""
    G = QuantumCKGroup(j, contracted=contracted)
    plain = orthogonality_relations(orthogonality_cofactors(G.T, G.C),
                                    rtt_relations(G.T, G.R))
    rels = G.relations()
    assert rels.polys == plain.polys and rels.sources == plain.sources
    coeffs = [c for p in rels for c in p.terms.values()]
    assert len({id(c) for c in coeffs}) == len(set(coeffs))


_SIGN_KEY_CASES = (_N34_CASES
                   + [(JSignature.parse(raw), True) for raw in
                      ("1,1,1,1", "iota,1,iota,1", "iota,iota,iota,iota")])


@pytest.mark.parametrize("j,contracted", _SIGN_KEY_CASES, ids=str)
def test_sign_key_is_key_up_to_sign(j, contracted):
    """A relation set holds each relation up to sign: p and -p are both
    in it, adding -p changes nothing, and p plus a generator is not in."""
    G = QuantumCKGroup(j, contracted=contracted)
    rels = G.relations()
    size = len(rels)
    g = NCPoly.gen(j.n, t_symbols(G.T)[0])
    for p in list(rels):
        assert p in rels and -p in rels
        assert not rels.add(-p, "flipped")
        assert len(rels) == size
        assert p + g not in rels
    assert len({canon(p) for p in rels}) == size


@pytest.mark.parametrize("j", [JSignature.parse(raw) for raw in ("1,1,1", "iota,1,iota")], ids=str)
def test_relation_set_refuses_negations_and_accepts_new_words(j, monkeypatch):
    """At N=4: -p is refused, p plus a generator is accepted, and a
    candidate on a word set that no relation has builds no -p."""
    G = QuantumCKGroup(j)
    source = G.relations()
    rels = RelationSet(source.n)
    for p, src in source.tagged():
        assert rels.add(p, src)
    g = NCPoly.gen(j.n, t_symbols(G.T)[0])
    negations = []
    neg = NCPoly.__neg__
    monkeypatch.setattr(NCPoly, "__neg__", lambda p: negations.append(p) or neg(p))
    word_sets = {frozenset(p.terms) for p in source}
    fresh_seen = 0
    for p in list(source):
        assert not rels.add(-p, "flipped")
        q = p + g
        fresh = frozenset(q.terms) not in word_sets
        negations.clear()
        assert rels.add(q, "shifted")
        if fresh:
            fresh_seen += 1
            assert negations == []
        word_sets.add(frozenset(q.terms))
        assert q in rels and -q in rels
    assert fresh_seen and len(rels) == 2 * len(source)


def test_contraction_commutes_compares_relations_up_to_sign():
    # one relation negated still passes; one relation dropped, or one
    # extra relation added, fails
    j = JSignature.parse("iota,1")
    G = QuantumCKGroup(j)
    rels = G.relations()
    flipped, dropped, extra = (RelationSet(rels.n) for _ in range(3))
    for k, (p, src) in enumerate(rels.tagged()):
        flipped.add(-p if k == 0 else p, src)
        extra.add(p, src)
        if k:
            dropped.add(p, src)
    g = NCPoly.gen(j.n, t_symbols(G.T)[0])
    assert extra.add(rels.polys[0] + g, "extra")
    G.relations = lambda: flipped
    assert contraction_commutes(G)
    for wrong in (dropped, extra):
        G.relations = lambda: wrong
        assert not contraction_commutes(G)


def test_relations_and_contraction_hold_no_four_leg_tensor(monkeypatch):
    # relation generation and the contraction check build no tensor of
    # polynomials larger than a matrix (N^2 entries), and the contraction
    # check creates one relation set, the contracted group's
    j = JSignature.parse("iota,1,iota")
    sizes, sets = [], []
    real_tensor, real_set = QTensor.__init__, RelationSet.__init__

    def tensor(self, N, n, data=None):
        real_tensor(self, N, n, data)
        if any(isinstance(e, NCPoly) for e in self.data.values()):
            sizes.append(len(self.data))

    def relation_set(self, n):
        sets.append(n)
        real_set(self, n)

    monkeypatch.setattr(QTensor, "__init__", tensor)
    monkeypatch.setattr(RelationSet, "__init__", relation_set)
    G = QuantumCKGroup(j)
    assert len(rtt_relations(G.T, G.R, G.dot_table)) == 148
    assert sets == [j.n] and max(sizes) <= j.N ** 2
    sets.clear()
    assert contraction_commutes(QuantumCKGroup(j))
    assert sets == [j.n] and max(sizes) <= j.N ** 2
