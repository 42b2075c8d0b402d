"""The quantum Cayley-Klein matrix group and its Hopf structure.

``QuantumCKGroup(j)`` is the one object per signature: it builds the
braiding tensor R, the metric C, the generating matrix T and the relation
ideal once each, on first use, and every check here and in ``qdual`` and
``cli`` reads them from it.

The generating matrix T has, in entry (i,k), one independent symbol per
subset monomial that the classical weight pattern allows there, so the
entry is the D-valued combination sum_W iota_W * t[i,k;W].  The defining
ideal collects the braid-exchange components R T1 T2 - T2 T1 R and the
quantum orthogonality T C T^t = T^t C T = C (plus the same with C^(-1),
which the antipode axiom consumes).  T and every matrix built from it are
``CKMatrix`` instances with ``NCPoly`` entries.

Every claimed identity is checked mechanically: coproduct axioms by exact
expansion; the compatibility of the coproduct with the exchange relations
and the antipode axiom by explicit membership certificates, closed-form
cofactor combinations of the relations that are replayed by exact
expansion; and S^2 = q^(2 rho)-conjugation as an identity of polynomial
matrices.
"""

from __future__ import annotations

from functools import cached_property

from .coeffring import DualElement, JSignature, ScalarExpr
from .ckclassical import CKMatrix, weight_pattern_symplectic
from .rmatrix import QTensor, contract, frt_c, frt_r, rho2
from .freealg import GenSymbol, NCPoly, mat_symbol


def _scalars(M: CKMatrix) -> CKMatrix:
    """The scalar matrix M with every entry lifted to a constant polynomial."""
    return M.map_entries(lambda e: NCPoly.scalar(M.n, e))


# --------------------------------------------------------- generating matrix


def t_symbols(j: JSignature, copy: int = 0) -> tuple:
    """All generator symbols of T(j), in canonical (row-major, mask) order."""
    pat = weight_pattern_symplectic(j)
    rng = range(1, j.N + 1)
    return tuple(mat_symbol(i, k, mask, copy)
                 for i in rng for k in rng for mask in pat[(i, k)])


def _split_entry(n: int, pat: dict, i: int, k: int, copy: int) -> NCPoly:
    """sum_W iota_W * t[i,k;W] over the weight pattern of entry (i,k)."""
    acc = NCPoly.zero(n)
    for mask in pat[(i, k)]:
        acc = acc + NCPoly.gen(n, mat_symbol(i, k, mask, copy),
                               DualElement.monomial(n, mask))
    return acc


def build_t(j: JSignature, copy: int = 0, atomic: bool = False) -> CKMatrix:
    """The generating matrix.

    Split form (default): entry (i,k) = sum_W iota_W * t[i,k;W] over the
    weight pattern.  Atomic form: entry (i,k) is the single opaque symbol
    t[i,k], used where only the entry-level algebra matters (certificates);
    the split form is its image under expand_atomic.
    """
    pat = weight_pattern_symplectic(j)

    def fn(i, k):
        if atomic:
            return NCPoly.gen(j.n, mat_symbol(i, k, 0, copy))
        return _split_entry(j.n, pat, i, k, copy)

    rng = range(1, j.N + 1)
    return CKMatrix([[fn(i, k) for k in rng] for i in rng], j)


def expand_atomic(p: NCPoly, j: JSignature) -> NCPoly:
    """The splitting homomorphism: t[i,k] -> sum_W iota_W * t[i,k;W]."""
    pat = weight_pattern_symplectic(j)
    return p.substitute(lambda g: _split_entry(j.n, pat, g.i, g.k, g.copy))


# ------------------------------------------------------------- relation sets


def sign_key(p: NCPoly) -> tuple:
    """min(p.key(), (-p).key()): the key of p up to sign.

    Both keys list the same words in the same order, so the first term's
    coefficient decides which is smaller; the negated key is built only
    when it wins.
    """
    key = p.key()
    if not key:
        return key
    word, coef_key = key[0]
    if (-p.terms[word]).key() < coef_key:
        return (-p).key()
    return key


class RelationSet:
    """Deduplicated list of relations (NCPoly = 0) with provenance tags."""

    __slots__ = ("n", "polys", "sources", "_keys")

    def __init__(self, n: int):
        self.n = n
        self.polys: list = []
        self.sources: list = []
        self._keys: set = set()

    def add(self, p: NCPoly, source: str) -> bool:
        if not p:
            return False
        key = sign_key(p)
        if key in self._keys:
            return False
        self._keys.add(key)
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
        out = RelationSet(self.n)
        for p, s in self.tagged():
            out.add(p.specialize(j), s)
        return out

    def key_set(self) -> frozenset:
        return frozenset(self._keys)


def _braid_index(R: QTensor) -> tuple:
    """R's nonzero components grouped by output pair and by input pair."""
    rows: dict = {}
    cols: dict = {}
    for (a, b, c, d), val in R.data.items():
        rows.setdefault((a, b), []).append(((c, d), val))
        cols.setdefault((c, d), []).append(((a, b), val))
    return rows, cols


def _rtt_component(T: CKMatrix, index: tuple, i: int, jj: int, k: int,
                   l: int) -> NCPoly:
    """Component (i,j,k,l) of R T1 T2 - T2 T1 R, from _braid_index(R)."""
    rows, cols = index
    acc = NCPoly.zero(T.n)
    for (a, b), val in rows.get((i, jj), ()):
        acc = acc + (T.entry(a, k) * T.entry(b, l)) * val
    for (a, b), val in cols.get((k, l), ()):
        acc = acc - (T.entry(jj, b) * T.entry(i, a)) * val
    return acc


def rtt_components(T: CKMatrix, R: QTensor) -> dict:
    """All braid-exchange components, keyed (i,j,k,l), zeros included."""
    index = _braid_index(R)
    rng = range(1, T.N + 1)
    return {(i, jj, k, l): _rtt_component(T, index, i, jj, k, l)
            for i in rng for jj in rng for k in rng for l in rng}


def rtt_relations(T: CKMatrix, R: QTensor) -> RelationSet:
    """Deduplicated braid-exchange relations R T1 T2 - T2 T1 R = 0."""
    rels = RelationSet(T.n)
    comps = rtt_components(T, R)
    for key in sorted(comps):
        rels.add(comps[key], "rtt")
    return rels


def orthogonality_components(T: CKMatrix, M: CKMatrix) -> list:
    """Components of T M T^t - M and T^t M T - M, in scan order."""
    N, n = T.N, T.n
    Mp = _scalars(M)
    left = T @ Mp @ T.transpose()
    right = T.transpose() @ Mp @ T
    out = []
    for src in (left, right):
        for i in range(1, N + 1):
            for k in range(1, N + 1):
                out.append(src.entry(i, k) - NCPoly.scalar(n, M.entry(i, k)))
    return out


def orthogonality_relations(T: CKMatrix, C: CKMatrix) -> RelationSet:
    """Quantum orthogonality for the metric and for its inverse.

    The inverse-metric family is consumed by the antipode axiom; for this
    metric C^(-1) = C, so deduplication collapses the two families.
    """
    rels = RelationSet(T.n)
    for M in (C, C.inverse()):
        for p in orthogonality_components(T, M):
            rels.add(p, "orth")
    return rels


def full_relation_set(T: CKMatrix, R: QTensor, C: CKMatrix) -> RelationSet:
    rels = rtt_relations(T, R)
    rels.extend(orthogonality_relations(T, C))
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
        acc = NCPoly.zero(n)
        for m in range(1, N + 1):
            acc = acc + (NCPoly.gen(n, GenSymbol("mat", g.i, m, 0, leg))
                         * NCPoly.gen(n, GenSymbol("mat", m, g.k, 0, leg + 1)))
        return acc

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


def antipode(T: CKMatrix, C: CKMatrix) -> CKMatrix:
    """S(T) = C T^t C^(-1), entrywise scalar times a mirrored entry."""
    return _scalars(C) @ T.transpose() @ _scalars(C.inverse())


# ------------------------------------------------------------- verification


class QuantumCKGroup:
    """One quantized group: R, C, T and the relation ideal.

    This is the one object per signature that every suite, emitter and
    ``DualPairing`` reads; nothing else builds R, C or T.  Each of them,
    and the relation ideal from ``relations()``, is built on first use and
    then kept, so a check builds only what it reads.  The weight pattern
    is the cached ``weight_pattern_symplectic(j)``.

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
        R = frt_r(self.N, self.n)
        return contract(R, self.j) if self.contracted else R

    @cached_property
    def C(self) -> CKMatrix:
        C = frt_c(self.N, self.n)
        return contract(C, self.j) if self.contracted else C

    @cached_property
    def T(self) -> CKMatrix:
        return build_t(self.j)

    def relations(self) -> RelationSet:
        if self._relations is None:
            self._relations = full_relation_set(self.T, self.R, self.C)
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

    expand_atomic(Delta t[i,k]) must equal entry (i,k) of T0 @ T1 over the
    split symbols, i.e. the splitting homomorphism intertwines Delta with
    entrywise matrix comultiplication.
    """
    j, n = G.j, G.n
    prod = G.T @ build_t(j, copy=1)
    for i in range(1, j.N + 1):
        for k in range(1, j.N + 1):
            d = coproduct(NCPoly.gen(n, mat_symbol(i, k)))
            if expand_atomic(d, j) != prod.entry(i, k):
                return False
    return True


def counit_annihilates(rels: RelationSet) -> bool:
    return all(counit(p).is_zero() for p in rels)


def verify_delta_compat(G: QuantumCKGroup) -> dict:
    """Certify that the coproduct descends to the quotient.

    For every component of R (T T')1 (T T')2 - (T T')2 (T T')1 R the
    two-term membership certificate over the copy-0 and copy-1 exchange
    relations is constructed and replayed by exact expansion.  This runs in
    the entry-level algebra; the splitting homomorphism (verified on every
    relation component here) transports each certificate to the split
    symbols.  At N = 3 the certificates are also replayed after splitting.
    """
    j, N, R = G.j, G.N, G.R
    index = _braid_index(R)
    pairs = [(a, b) for a in range(1, N + 1) for b in range(1, N + 1)]

    def check(A: CKMatrix, B: CKMatrix) -> int:
        relA = rtt_components(A, R)
        relB = rtt_components(B, R)
        P = A @ B
        checked = 0
        for (i, jj, k, l) in relA:
            target = _rtt_component(P, index, i, jj, k, l)
            acc = NCPoly.zero(j.n)
            for (a, b) in pairs:
                left = relA[(i, jj, a, b)]
                if left:
                    acc = acc + left * (B.entry(a, k) * B.entry(b, l))
                right = relB[(a, b, k, l)]
                if right:
                    acc = acc + (A.entry(jj, b) * A.entry(i, a)) * right
            if acc != target:
                raise ArithmeticError(
                    "certificate mismatch at %s" % ((i, jj, k, l),))
            checked += 1
        return checked

    A0 = build_t(j, copy=0, atomic=True)
    B0 = build_t(j, copy=1, atomic=True)
    checked = check(A0, B0)

    # the splitting homomorphism carries each certificate to split symbols:
    # verify it maps the atomic relation components onto the split ones
    As, Bs = G.T, build_t(j, copy=1)
    relA_atomic = rtt_components(A0, R)
    relA_split = rtt_components(As, R)
    ok = all(expand_atomic(relA_atomic[key], j) == relA_split[key]
             for key in relA_atomic)
    split_checked = check(As, Bs) if N <= 3 else 0
    return {"ok": ok, "components": checked,
            "split_components": split_checked}


def verify_antipode(G: QuantumCKGroup) -> dict:
    """Certify S(T) T = T S(T) = I modulo the emitted ideal, and check S^2.

    With S(T) = C T^t C^(-1) both defects factor through the orthogonality
    cofactors L = T^t C^(-1) T - C^(-1) and M = T C T^t - C:

        S(T) T - I = C L,        T S(T) - I = M C^(-1).

    Both identities are replayed by exact expansion; a mismatch raises
    ArithmeticError.  The certificate holds when every nonzero entry of L
    and M is (up to sign) a generator of the relation set; the entries
    that are not are listed under "uncertified", which leaves the axiom
    unrefuted but not proved.

    S^2 is conjugation by q^(2 rho): entry (i,k) of S(S(T)) is t[i,k]
    times q^(2 rho_k - 2 rho_i), contracted with the signature when G is.
    This is an identity of polynomial matrices, so the entries where it
    fails are listed under "s_squared_refuted" and refute the antipode.
    """
    T = G.T
    N, n = G.N, G.n
    Cp = _scalars(G.C)
    Ci = _scalars(G.C.inverse())
    I = _scalars(CKMatrix.identity(N, n))
    S = antipode(T, G.C)
    L = T.transpose() @ Ci @ T - Ci
    M = T @ Cp @ T.transpose() - Cp
    if (S @ T) - I != Cp @ L:
        raise ArithmeticError("certificate mismatch in S(T)T - I = C L")
    if (T @ S) - I != M @ Ci:
        raise ArithmeticError("certificate mismatch in TS(T) - I = M C^-1")
    S2 = antipode(S, G.C)
    r2 = rho2(N)
    refuted = []
    for i in range(1, N + 1):
        for k in range(1, N + 1):
            scale = DualElement.scalar(n, ScalarExpr.q_power(r2[k - 1] - r2[i - 1]))
            if G.contracted:
                scale = scale.specialize(G.j)
            if S2.entry(i, k) != T.entry(i, k) * scale:
                refuted.append((i, k))
    keys = G.relations().key_set()
    uncertified = []
    entries = 0
    for tag, F in (("L", L), ("M", M)):
        for i in range(1, N + 1):
            for k in range(1, N + 1):
                p = F.entry(i, k)
                if not p:
                    continue
                entries += 1
                if sign_key(p) not in keys:
                    uncertified.append((tag, i, k))
    return {"ok": not uncertified and not refuted, "entries": entries,
            "uncertified": uncertified, "s_squared_refuted": refuted}


def contraction_commutes(G: QuantumCKGroup) -> bool:
    """Generate symbolically then contract == generate contracted.

    G is the contracted group; the symbolic one is built here.  Compared
    as canonical key sets after dropping relations that contract to zero,
    which is the only way dedup can differ between the two paths.
    """
    symbolic = QuantumCKGroup(G.j, contracted=False).relations()
    return symbolic.specialize(G.j).key_set() == G.relations().key_set()
