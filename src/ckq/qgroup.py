"""The quantum Cayley-Klein matrix group and its Hopf structure.

``QuantumCKGroup(j)`` is the one object per signature: it builds the
braiding tensor R, the metric C, the generating matrix T and the relation
ideal once each, on first use, and every check here and in ``qdual`` and
``cli`` reads them from it.  It also owns the ``DualElement.dot`` table
(``dot_table``) through which relation generation (the exchange
components and the cofactors), the coproduct and antipode certificates,
the coproduct's splitting bridge and assembly check, and the ``qdual``
checks sum their coefficients by the summing rule of ``coeffring``, so
each distinct coefficient of the group is formed once and held as one
object.

The generating matrix T has, in entry (i,k), one independent symbol per
subset monomial that the classical weight pattern allows there, so the
entry is the D-valued combination sum_W iota_W * t[i,k;W].  The defining
ideal collects the braid-exchange components R T1 T2 - T2 T1 R and the
quantum orthogonality T C T^t = T^t C T = C, whose relations are the
entries of the cofactors M = T C T^t - C and L = T^t C T - C
(``orthogonality_cofactors``, formed once per group as
``QuantumCKGroup.cofactors``).  The metric is an involution, C^(-1) = C,
checked when the group builds it, so the same two cofactors factor the
antipode defects S(T) T - I = C L and T S(T) - I = M C.  T and every
matrix built from it are two-leg ``QTensor`` instances with ``NCPoly``
entries.  The exchange components are four-leg ``QTensor`` sums of
products as the paper writes them: T1 T2 is ``QTensor.pair(T)``, T2 T1
its ``flipped()``, and the sum is one ``QTensor.dot``.

Every claimed identity is checked mechanically: coproduct axioms by exact
expansion; the compatibility of the coproduct with the exchange relations
and the antipode axiom by explicit membership certificates, closed-form
cofactor combinations of the relations that are replayed by exact
expansion; and S^2 = q^(2 rho)-conjugation as an identity of polynomial
matrices.
"""

from __future__ import annotations

from functools import cached_property

from .coeffring import DualElement, JSignature, interned
from .ckclassical import weight_pattern_symplectic
from .rmatrix import QTensor, _compose, contract, frt_c, frt_r, q_scalar, rho2
from .freealg import GenSymbol, NCPoly, mat_symbol


def _scalars(M, table: dict | None = None):
    """The scalar matrix or tensor M, entries lifted to constant polynomials;
    with a ``table``, each entry is first replaced by its ``interned`` value."""
    return M.map_entries(lambda e: NCPoly.scalar(
        M.n, e if table is None else interned(table, e)))


# --------------------------------------------------------- generating matrix


def build_t(j: JSignature, copy: int = 0, atomic: bool = False) -> QTensor:
    """The generating matrix, the one construction of T's symbols.

    Split form (default): entry (i,k) = sum_W iota_W * t[i,k;W] over the
    weight pattern.  Atomic form: entry (i,k) is the single opaque symbol
    t[i,k], used where only the entry-level algebra matters (certificates);
    the split form is its image under ``splitting_map``.
    """
    n, rng = j.n, range(1, j.N + 1)
    if atomic:
        data = {(i, k): NCPoly.gen(n, mat_symbol(i, k, 0, copy))
                for i in rng for k in rng}
    else:
        pat = weight_pattern_symplectic(j)
        data = {(i, k): NCPoly._raw(n, {(mat_symbol(i, k, mask, copy),):
                                        DualElement.monomial(n, mask)
                                        for mask in pat[(i, k)]})
                for i in rng for k in rng}
    return QTensor(j.N, n, data)


def t_symbols(T: QTensor) -> tuple:
    """All generator symbols of a split T from ``build_t``, in canonical
    (row-major, mask) order: the words of its entries."""
    return tuple(g for e in T.data.values() for (g,) in e.terms)


def splitting_map(*copies: QTensor):
    """The splitting homomorphism on symbols, t[i,k] of copy c -> entry
    (i,k) of the split matrix ``copies[c]``, as a function for
    ``NCPoly.substitute``."""
    return lambda g: copies[g.copy].get(g.i, g.k)


# ------------------------------------------------------------- relation sets


class RelationSet:
    """Relations (NCPoly = 0) with provenance tags, deduplicated up to sign.

    ``p in rels`` holds when p or -p is one of the relations, compared by
    ``NCPoly``'s own ``==``; ``add`` keeps a relation only when it is not
    already in.  The relations are bucketed by the hash of their word set,
    which p and -p share, so -p is built only when a relation on the same
    words is held.
    """

    __slots__ = ("n", "polys", "sources", "_held")

    def __init__(self, n: int):
        self.n = n
        self.polys: list = []
        self.sources: list = []
        self._held: dict = {}

    def __contains__(self, p: NCPoly) -> bool:
        return _holds(self._held.get(hash(frozenset(p.terms)), ()), p)

    def add(self, p: NCPoly, source: str) -> bool:
        if not p:
            return False
        held = self._held.setdefault(hash(frozenset(p.terms)), [])
        if _holds(held, p):
            return False
        held.append(p)
        self.polys.append(p)
        self.sources.append(source)
        return True

    def extend(self, other: "RelationSet"):
        for p, s in zip(other.polys, other.sources):
            self.add(p, s)

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def tagged(self):
        return zip(self.polys, self.sources)

    def specialize(self, j: JSignature) -> "RelationSet":
        """The relations with q^a -> 1 + a*J*v applied to every coefficient.

        Each distinct coefficient is specialized once per call; the
        relations share few of them (152 distinct among 8,700 at N=5
        iota,1,iota,1).
        """
        memo: dict = {}

        def spec(c: DualElement) -> DualElement:
            out = memo.get(c)
            if out is None:
                out = memo[c] = c.specialize(j)
            return out

        out = RelationSet(self.n)
        for p, s in self.tagged():
            out.add(p.map_coeffs(spec), s)
        return out


def _holds(held, p: NCPoly) -> bool:
    """Whether p or -p is in ``held``, relations on p's word set."""
    return bool(held) and (p in held or -p in held)


def rtt_components(T: QTensor, R: QTensor, table: dict | None = None) -> QTensor:
    """The braid-exchange components R T1 T2 - T2 T1 R, as a tensor;
    ``table`` as in ``QTensor.dot``."""
    TT = QTensor.pair(T, table)
    return QTensor.dot([(_scalars(R, table), TT),
                        (TT.flipped(), _scalars(R.scale(-1), table))], table)


def rtt_relations(T: QTensor, R: QTensor, table: dict | None = None) -> RelationSet:
    """Deduplicated braid-exchange relations R T1 T2 - T2 T1 R = 0;
    ``table`` as in ``QTensor.dot``."""
    rels = RelationSet(T.n)
    comps = rtt_components(T, R, table).data
    for key in sorted(comps):
        rels.add(comps[key], "rtt")
    return rels


def orthogonality_cofactors(T: QTensor, C: QTensor, table: dict | None = None) -> tuple:
    """The orthogonality cofactors (M, L) = (T C T^t - C, T^t C T - C).

    Their entries generate the orthogonality relations, and they factor
    the antipode defects (``verify_antipode``).  Each cofactor is one
    ``QTensor.dot`` of the pairs (T C, T^t) and (-I, C), so -C is summed
    with the products; ``table`` as in that ``dot``.
    """
    Cp = _scalars(C, table)
    minus_i = _scalars(QTensor.identity(T.N, T.n).scale(-1), table)
    Tt = T.transpose()
    return tuple(QTensor.dot([(QTensor.dot([(X, Cp)], table), Y), (minus_i, Cp)], table)
                 for X, Y in ((T, Tt), (Tt, T)))


def orthogonality_relations(cofactors: tuple) -> RelationSet:
    """Quantum orthogonality T C T^t = T^t C T = C: the entries of the
    cofactors (M, L) from ``orthogonality_cofactors``, M first, row by row.

    The antipode axiom consumes the same family for C^(-1), which is C
    itself: ``QuantumCKGroup.C`` checks that the metric is an involution.
    """
    rels = RelationSet(cofactors[0].n)
    for F in cofactors:
        for key in sorted(F.data):
            rels.add(F.data[key], "orth")
    return rels


def full_relation_set(G: QuantumCKGroup) -> RelationSet:
    """The exchange relations, then the orthogonality relations, every
    coefficient summed through the group's ``dot_table``."""
    rels = rtt_relations(G.T, G.R, G.dot_table)
    rels.extend(orthogonality_relations(G.cofactors))
    return rels


# ------------------------------------------------------------ Hopf structure


def coproduct(p: NCPoly, leg: int = 0) -> NCPoly:
    """Apply the matrix comultiplication at one tensor leg.

    Delta(t[i,k]) = sum_m t[i,m] (x) t[m,k], realized with copy labels:
    copy `leg` splits into copies (leg, leg+1) and higher copies shift up.
    The map lives on the entry algebra (weight-free symbols): a nonzero
    subset tag has no symbol-wise comultiplication, because a disjoint
    union of two pattern subsets can fall outside the target entry's
    pattern, so only the assembled D-valued entries comultiply.
    """
    n = p.n
    N = n + 1

    def fn(g):
        if g.family != "mat" or g.mask:
            raise ValueError("coproduct is defined on entry symbols")
        if g.copy < leg:
            return NCPoly.gen(n, g)
        if g.copy > leg:
            return NCPoly.gen(n, g.with_copy(g.copy + 1))
        return NCPoly.dot(n, [(NCPoly.gen(n, GenSymbol("mat", g.i, m, 0, leg)),
                               NCPoly.gen(n, GenSymbol("mat", m, g.k, 0, leg + 1)))
                              for m in range(1, N + 1)])

    return p.substitute(fn)


def counit(p: NCPoly) -> DualElement:
    """The counit: 1 on diagonal weight-free symbols, 0 otherwise."""
    one = DualElement.one(p.n)
    zero = DualElement.zero(p.n)
    return p.evaluate(
        lambda g: one if (g.i == g.k and g.mask == 0) else zero)


def counit_leg(p: NCPoly, leg: int = 0) -> NCPoly:
    """Apply the counit to one tensor leg, shifting higher copies down."""
    n = p.n

    def fn(g):
        if g.copy == leg:
            return (NCPoly.one(n) if (g.i == g.k and g.mask == 0)
                    else NCPoly.zero(n))
        if g.copy > leg:
            return NCPoly.gen(n, g.with_copy(g.copy - 1))
        return NCPoly.gen(n, g)

    return p.substitute(fn)


def antipode(T: QTensor, C: QTensor, table: dict | None = None) -> QTensor:
    """S(T) = C T^t C^(-1) = C T^t C for the involutive metric, entrywise
    scalar times a mirrored entry; ``table`` as in ``QTensor.dot``."""
    Cp = _scalars(C, table)
    return QTensor.dot([(QTensor.dot([(Cp, T.transpose())], table), Cp)], table)


# ------------------------------------------------------------- verification


class QuantumCKGroup:
    """One quantized group: R, C, T and the relation ideal.

    This is the one object per signature that every suite, emitter and
    ``DualPairing`` reads; nothing else builds R, C or T.  Each of them,
    and the relation ideal from ``relations()``, is built on first use and
    then kept, so a check builds only what it reads.  The weight pattern
    is ``weight_pattern_symplectic(j)``, read off in closed form.

    contracted=True (default) works over R_v(j), C(j); contracted=False
    keeps q symbolic while using the same signature-dependent symbols,
    which is the input to the contraction-commutation check.
    """

    def __init__(self, j: JSignature, contracted: bool = True):
        if j.N < 3:
            raise ValueError("need N >= 3")
        self.j = j
        self.N = j.N
        self.n = j.n
        self.contracted = contracted
        self._relations = None

    @cached_property
    def R(self) -> QTensor:
        R = frt_r(self.N)
        return contract(R, self.j) if self.contracted else R

    @cached_property
    def C(self) -> QTensor:
        """The metric, checked to be an involution: C^(-1) reads C."""
        C = frt_c(self.N)
        if self.contracted:
            C = contract(C, self.j)
        if C @ C != QTensor.identity(self.N, self.n):
            raise ArithmeticError("the metric is not an involution")
        return C

    @cached_property
    def T(self) -> QTensor:
        return build_t(self.j)

    @cached_property
    def cofactors(self) -> tuple:
        """The orthogonality cofactors (M, L) of T and C: the relation set
        takes its orthogonality family from them, and ``verify_antipode``
        its certificate."""
        return orthogonality_cofactors(self.T, self.C, self.dot_table)

    @cached_property
    def dot_table(self) -> dict:
        """The group's ``DualElement.dot`` table.  Relation generation,
        the coproduct and antipode checks and the ``qdual`` checks sum
        products of the same few R-derived coefficients over and over, and
        read it, so every relation coefficient is one interned object per
        value.  It holds only D_n values of this group."""
        return {}

    def relations(self) -> RelationSet:
        if self._relations is None:
            self._relations = full_relation_set(self)
        return self._relations


def verify_coassociativity(N: int) -> bool:
    """(Delta x id) Delta == (id x Delta) Delta on every entry symbol."""
    n = N - 1
    for i in range(1, N + 1):
        for k in range(1, N + 1):
            p = coproduct(NCPoly.gen(n, mat_symbol(i, k)), leg=0)
            if coproduct(p, leg=0) != coproduct(p, leg=1):
                return False
    return True


def verify_counit_axioms(N: int) -> bool:
    """Counit against either leg of the coproduct returns the generator."""
    n = N - 1
    for i in range(1, N + 1):
        for k in range(1, N + 1):
            base = NCPoly.gen(n, mat_symbol(i, k))
            p = coproduct(base, leg=0)
            if counit_leg(p, 0) != base or counit_leg(p, 1) != base:
                return False
    return True


def verify_coproduct_assembly(G: QuantumCKGroup) -> bool:
    """Splitting the comultiplied entries gives the two-copy matrix product.

    The splitting homomorphism applied to Delta t[i,k] must equal entry
    (i,k) of T0 @ T1 over the split symbols, i.e. the splitting
    homomorphism intertwines Delta with entrywise matrix comultiplication.
    Both sides sum through the group's ``dot_table``.
    """
    j, n, table = G.j, G.n, G.dot_table
    T1 = build_t(j, copy=1)
    split = splitting_map(G.T, T1)
    rng = range(1, j.N + 1)
    split_delta = QTensor(j.N, n, {
        (i, k): coproduct(NCPoly.gen(n, mat_symbol(i, k))).substitute(split, table)
        for i in rng for k in rng})
    return split_delta == QTensor.dot([(G.T, T1)], table)


def counit_annihilates(rels: RelationSet) -> bool:
    return all(counit(p).is_zero() for p in rels)


def _row_order(N: int) -> list:
    """The output rows (a, b) of a coproduct certificate: R's mirror rows
    (a, a'), which read the pair rows (c, c'), then each row by its flip."""
    rng = range(1, N + 1)
    return [(a, N + 1 - a) for a in rng] + [
        o for a in rng for b in rng if a <= b and a + b != N + 1
        for o in dict.fromkeys(((a, b), (b, a)))]


def _certificate_rows(A: QTensor, B: QTensor, relA: QTensor, relB: QTensor,
                      table: dict | None):
    """The rows of the certificate relA B1 B2 + A2 A1 relB over the
    exchange components of A and B, as dicts in ``_row_order``."""
    n = A.n
    BB = QTensor.pair(B, table).by_output()
    rA, rB, ix = relA.by_output(), relB.by_output(), A.by_output()
    for o in _row_order(A.N):
        a, b = o
        AA = {o + (c, d): NCPoly.dot(n, ((y, x),), table)
              for (d,), y in ix.get((b,), ()) for (c,), x in ix.get((a,), ())}
        yield _compose(n, [({o + ins: u for ins, u in rA.get(o, ())}, BB),
                           (AA, rB)], table)


def _target_rows(AB: QTensor, R: QTensor, table: dict | None):
    """The rows of R (AB)1 (AB)2 - (AB)2 (AB)1 R, as dicts in
    ``_row_order``.  Row o reads the pair rows (p, q) -> {(r, s): AB[p,r]
    AB[q,s]} that R's row o reaches, and pair row o reversed; each is
    built at its first reader and dropped after its last."""
    n, ix = AB.n, AB.by_output()
    Rs, mRs = (_scalars(X, table).by_output() for X in (R, R.scale(-1)))
    order = _row_order(AB.N)
    reads = {o: {pq for pq, _ in Rs.get(o, ())} | {o[::-1]} for o in order}
    last = {pq: o for o in order for pq in reads[o]}
    held: dict = {}
    for o in order:
        for p, q in reads[o] - held.keys():
            held[p, q] = [((r, s), NCPoly.dot(n, ((x, y),), table))
                          for (r,), x in ix.get((p,), ()) for (s,), y in ix.get((q,), ())]
        yield _compose(n, [({o + pq: r for pq, r in Rs.get(o, ())}, held),
                           ({o + (s, r): v for (r, s), v in held[o[::-1]]}, mRs)],
                       table)
        for pq in reads[o]:
            if last[pq] == o:
                del held[pq]


def verify_delta_compat(G: QuantumCKGroup) -> dict:
    """Certify that the coproduct descends to the quotient.

    The components of R (T T')1 (T T')2 - (T T')2 (T T')1 R, the exchange
    components of the product, must equal the two-term membership
    certificate over the copy-0 and copy-1 exchange relations.  Both are
    expanded exactly and compared one output row at a time
    (``_certificate_rows``, ``_target_rows``), so neither is held whole;
    the first differing row raises, naming its least differing component.
    Every product and sum goes through the group's ``dot_table``.

    This runs in the entry-level algebra; the splitting homomorphism
    (entry lookups in the group's T, verified on every relation component
    here) transports each certificate to the split symbols.  At N = 3 the
    certificates are also replayed after splitting.
    """
    j, N, R, table = G.j, G.N, G.R, G.dot_table

    def check(A: QTensor, B: QTensor, relA: QTensor) -> int:
        """relA is rtt_components(A, R, table)."""
        for cert, target in zip(
                _certificate_rows(A, B, relA, rtt_components(B, R, table), table),
                _target_rows(QTensor.dot([(A, B)], table), R, table)):
            if cert != target:
                raise ArithmeticError("certificate mismatch at %s" % (min(
                    k for k in cert.keys() | target.keys()
                    if cert.get(k) != target.get(k)),))
        return N ** 4

    A0 = build_t(j, copy=0, atomic=True)
    B0 = build_t(j, copy=1, atomic=True)
    relA_atomic = rtt_components(A0, R, table)
    checked = check(A0, B0, relA_atomic)

    # the splitting homomorphism carries each certificate to split symbols:
    # verify it maps the atomic relation components onto the split ones
    split = splitting_map(G.T)
    relA_split = rtt_components(G.T, R, table)
    ok = relA_atomic.map_entries(lambda p: p.substitute(split, table)) == relA_split
    split_checked = (check(G.T, build_t(j, copy=1), relA_split)
                     if N <= 3 else 0)
    return {"ok": ok, "components": checked,
            "split_components": split_checked}


def verify_antipode(G: QuantumCKGroup) -> dict:
    """Certify S(T) T = T S(T) = I modulo the emitted ideal, and check S^2.

    With S(T) = C T^t C^(-1) both defects factor through the cofactors
    M = T C T^t - C and L = T^t C^(-1) T - C^(-1) whose entries are the
    orthogonality relations (``QuantumCKGroup.cofactors``):

        S(T) T - I = C L,        T S(T) - I = M C^(-1).

    The metric is an involution (``QuantumCKGroup.C`` checks it), so
    C^(-1) reads C throughout.

    Both identities are replayed by exact expansion through the group's
    ``dot_table``; a mismatch raises ArithmeticError.  The certificate
    holds when every nonzero entry of L and M is (up to sign) a generator
    of the relation set; the entries that are not are listed under
    "uncertified", which leaves the axiom unrefuted but not proved.

    S^2 is conjugation by q^(2 rho): entry (i,k) of S(S(T)) is t[i,k]
    times q^(2 rho_k - 2 rho_i), contracted with the signature when G is.
    This is an identity of polynomial matrices, so the entries where it
    fails are listed under "s_squared_refuted" and refute the antipode.
    """
    T, table = G.T, G.dot_table
    N, n = G.N, G.n
    Cp = _scalars(G.C, table)
    I = _scalars(QTensor.identity(N, n))
    S = antipode(T, G.C, table)
    M, L = G.cofactors

    def mul(X, Y):
        return QTensor.dot([(X, Y)], table)

    if mul(S, T) - I != mul(Cp, L):
        raise ArithmeticError("certificate mismatch in S(T)T - I = C L")
    if mul(T, S) - I != mul(M, Cp):
        raise ArithmeticError("certificate mismatch in TS(T) - I = M C^-1")
    S2 = antipode(S, G.C, table)
    r2 = rho2(N)
    j = G.j if G.contracted else None
    refuted = []
    for i in range(1, N + 1):
        for k in range(1, N + 1):
            scale = q_scalar(n, r2[k - 1] - r2[i - 1], j)
            if S2.get(i, k) != T.get(i, k) * scale:
                refuted.append((i, k))
    rels = G.relations()
    uncertified = []
    entries = 0
    for tag, F in (("L", L), ("M", M)):
        for i, k in sorted(F.data):
            entries += 1
            if F.data[(i, k)] not in rels:
                uncertified.append((tag, i, k))
    return {"ok": not uncertified and not refuted, "entries": entries,
            "uncertified": uncertified, "s_squared_refuted": refuted}


def contraction_commutes(G: QuantumCKGroup) -> bool:
    """Generate symbolically then contract == generate contracted.

    G is the contracted group; the symbolic one is built here.  Compared
    as sets up to sign after dropping relations that contract to zero,
    which is the only way dedup can differ between the two paths.
    """
    a = QuantumCKGroup(G.j, contracted=False).relations().specialize(G.j)
    b = G.relations()
    return len(a) == len(b) and all(p in b for p in a)
