"""The quantum Cayley-Klein matrix group and its Hopf structure.

The generating matrix T has, in entry (i,k), one independent symbol per
subset monomial that the classical weight pattern allows there, so the
entry is the D-valued combination sum_W iota_W * t[i,k;W].  The defining
ideal collects the braid-exchange components R T1 T2 - T2 T1 R and the
quantum orthogonality T C T^t = T^t C T = C (plus the same with C^(-1),
which the antipode axiom consumes).

Every claimed identity is checked mechanically: coproduct axioms by exact
expansion, and both the compatibility of the coproduct with the exchange
relations and the antipode axiom by explicit membership certificates,
closed-form cofactor combinations of the relations that are replayed by
exact expansion.
"""

from __future__ import annotations

from .coeffring import (
    DimensionError,
    DualElement,
    JSignature,
    ScalarExpr,
)
from .ckclassical import CKMatrix, weight_pattern_symplectic
from .rmatrix import QTensor, contract, frt_c, frt_r, rho2
from .freealg import GenSymbol, NCPoly, mat_symbol


class PolyMatrix:
    """A square matrix of noncommutative polynomials."""

    __slots__ = ("N", "n", "rows", "j")

    def __init__(self, rows, j: JSignature | None = None):
        self.rows = tuple(tuple(r) for r in rows)
        self.N = len(self.rows)
        for r in self.rows:
            if len(r) != self.N:
                raise DimensionError("matrix is not square")
        self.n = self.rows[0][0].n if self.N else 0
        self.j = j

    @classmethod
    def build(cls, N: int, n: int, fn, j: JSignature | None = None) -> "PolyMatrix":
        return cls([[fn(i, k) for k in range(1, N + 1)] for i in range(1, N + 1)], j)

    @classmethod
    def identity(cls, N: int, n: int) -> "PolyMatrix":
        return cls.build(N, n, lambda i, k: NCPoly.one(n) if i == k else NCPoly.zero(n))

    @classmethod
    def from_scalars(cls, M: CKMatrix) -> "PolyMatrix":
        return cls.build(M.N, M.n, lambda i, k: NCPoly.scalar(M.n, M.entry(i, k)), M.j)

    def entry(self, i: int, k: int) -> NCPoly:
        return self.rows[i - 1][k - 1]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.N != other.N:
            raise DimensionError("size mismatch in matrix product")
        N = self.N
        out = []
        for i in range(N):
            row = []
            for k in range(N):
                acc = NCPoly.zero(self.n)
                for m in range(N):
                    a = self.rows[i][m]
                    b = other.rows[m][k]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(out, self.j or other.j)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.j or other.j,
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.j or other.j,
        )

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(list(zip(*self.rows)), self.j)

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(a) for a in r] for r in self.rows], self.j)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return "PolyMatrix(%dx%d over D_%d)" % (self.N, self.N, self.n)


# --------------------------------------------------------- generating matrix


def t_symbols(j: JSignature, copy: int = 0) -> tuple:
    """All generator symbols of T(j), in canonical (row-major, mask) order."""
    pat = weight_pattern_symplectic(j)
    out = []
    for i in range(1, j.N + 1):
        for k in range(1, j.N + 1):
            for mask in pat[(i, k)]:
                out.append(mat_symbol(i, k, mask, copy))
    return tuple(out)


def build_t(j: JSignature, copy: int = 0, atomic: bool = False) -> PolyMatrix:
    """The generating matrix.

    Split form (default): entry (i,k) = sum_W iota_W * t[i,k;W] over the
    weight pattern.  Atomic form: entry (i,k) is the single opaque symbol
    t[i,k], used where only the entry-level algebra matters (certificates);
    the split form is its image under expand_atomic.
    """
    n = j.n
    pat = weight_pattern_symplectic(j)

    def fn(i, k):
        if atomic:
            return NCPoly.gen(n, mat_symbol(i, k, 0, copy))
        acc = NCPoly.zero(n)
        for mask in pat[(i, k)]:
            acc = acc + NCPoly.gen(n, mat_symbol(i, k, mask, copy),
                                   DualElement.monomial(n, mask))
        return acc

    return PolyMatrix.build(j.N, n, fn, j)


def expand_atomic(p: NCPoly, j: JSignature) -> NCPoly:
    """The splitting homomorphism: t[i,k] -> sum_W iota_W * t[i,k;W]."""
    pat = weight_pattern_symplectic(j)
    n = j.n

    def fn(g):
        acc = NCPoly.zero(n)
        for mask in pat[(g.i, g.k)]:
            acc = acc + NCPoly.gen(n, mat_symbol(g.i, g.k, mask, g.copy),
                                   DualElement.monomial(n, mask))
        return acc

    return p.substitute(fn)


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

    def by_source(self, source: str) -> list:
        return [p for p, s in self.tagged() if s == source]

    def specialize(self, j: JSignature) -> "RelationSet":
        out = RelationSet(self.n)
        for p, s in self.tagged():
            out.add(p.specialize(j), s)
        return out

    def key_set(self) -> frozenset:
        return frozenset(self._keys)


def rtt_components(T: PolyMatrix, R: QTensor) -> dict:
    """All braid-exchange components, keyed (i,j,k,l), zeros included."""
    N = T.N
    rows: dict = {}
    cols: dict = {}
    for (a, b, c, d), val in R.data.items():
        rows.setdefault((a, b), []).append(((c, d), val))
        cols.setdefault((c, d), []).append(((a, b), val))
    out = {}
    for i in range(1, N + 1):
        for jj in range(1, N + 1):
            for k in range(1, N + 1):
                for l in range(1, N + 1):
                    acc = NCPoly.zero(T.n)
                    for (a, b), val in rows.get((i, jj), ()):
                        acc = acc + (T.entry(a, k) * T.entry(b, l)) * val
                    for (a, b), val in cols.get((k, l), ()):
                        acc = acc - (T.entry(jj, b) * T.entry(i, a)) * val
                    out[(i, jj, k, l)] = acc
    return out


def rtt_relations(T: PolyMatrix, R: QTensor) -> RelationSet:
    """Deduplicated braid-exchange relations R T1 T2 - T2 T1 R = 0."""
    rels = RelationSet(T.n)
    comps = rtt_components(T, R)
    for key in sorted(comps):
        rels.add(comps[key], "rtt")
    return rels


def orthogonality_components(T: PolyMatrix, M: CKMatrix) -> list:
    """Components of T M T^t - M and T^t M T - M, in scan order."""
    N, n = T.N, T.n
    Mp = PolyMatrix.from_scalars(M)
    left = T @ Mp @ T.transpose()
    right = T.transpose() @ Mp @ T
    out = []
    for src in (left, right):
        for i in range(1, N + 1):
            for k in range(1, N + 1):
                out.append(src.entry(i, k) - NCPoly.scalar(n, M.entry(i, k)))
    return out


def orthogonality_relations(T: PolyMatrix, C: CKMatrix) -> RelationSet:
    """Quantum orthogonality for the metric and for its inverse.

    The inverse-metric family is consumed by the antipode axiom; for this
    metric C^(-1) = C, so deduplication collapses the two families.
    """
    rels = RelationSet(T.n)
    for M in (C, C.inverse()):
        for p in orthogonality_components(T, M):
            rels.add(p, "orth")
    return rels


def full_relation_set(T: PolyMatrix, R: QTensor, C: CKMatrix) -> RelationSet:
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


def antipode(T: PolyMatrix, C: CKMatrix) -> PolyMatrix:
    """S(T) = C T^t C^(-1), entrywise scalar times a mirrored entry."""
    Cp = PolyMatrix.from_scalars(C)
    Ci = PolyMatrix.from_scalars(C.inverse())
    return Cp @ T.transpose() @ Ci


# ------------------------------------------------------------- verification


class QuantumCKGroup:
    """Bundle of one quantized group: R, C, T and the relation ideal.

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
        R = frt_r(self.N, self.n)
        C = frt_c(self.N, self.n)
        if contracted:
            R = contract(R, j)
            C = contract(C, j)
        self.contracted = contracted
        self.R = R
        self.C = C
        self.T = build_t(j)

    def relations(self) -> RelationSet:
        return full_relation_set(self.T, self.R, self.C)

    def symbols(self) -> tuple:
        return t_symbols(self.j)


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


def verify_coproduct_assembly(j: JSignature) -> bool:
    """Splitting the comultiplied entries gives the two-copy matrix product.

    expand_atomic(Delta t[i,k]) must equal entry (i,k) of T0 @ T1 over the
    split symbols, i.e. the splitting homomorphism intertwines Delta with
    entrywise matrix comultiplication.
    """
    prod = build_t(j, copy=0) @ build_t(j, copy=1)
    n = j.n
    for i in range(1, j.N + 1):
        for k in range(1, j.N + 1):
            d = coproduct(NCPoly.gen(n, mat_symbol(i, k)))
            if expand_atomic(d, j) != prod.entry(i, k):
                return False
    return True


def counit_annihilates(rels: RelationSet) -> bool:
    return all(counit(p).is_zero() for p in rels)


def verify_delta_compat(j: JSignature, contracted: bool = True,
                        full_split: bool | None = None) -> dict:
    """Certify that the coproduct descends to the quotient.

    For every component of R (T T')1 (T T')2 - (T T')2 (T T')1 R the
    two-term membership certificate over the copy-0 and copy-1 exchange
    relations is constructed and replayed by exact expansion.  This runs in
    the entry-level algebra; the splitting homomorphism (verified on every
    relation component here) transports each certificate to the split
    symbols.  full_split additionally replays the certificates after
    splitting (default for N = 3).
    """
    N, n = j.N, j.n
    if full_split is None:
        full_split = N <= 3
    R = frt_r(N, n)
    if contracted:
        R = contract(R, j)
    pairs = [(a, b) for a in range(1, N + 1) for b in range(1, N + 1)]
    rows: dict = {}
    cols: dict = {}
    for (a, b, c, d), val in R.data.items():
        rows.setdefault((a, b), []).append(((c, d), val))
        cols.setdefault((c, d), []).append(((a, b), val))

    def check(A: PolyMatrix, B: PolyMatrix) -> int:
        relA = rtt_components(A, R)
        relB = rtt_components(B, R)
        P = A @ B
        checked = 0
        for i in range(1, N + 1):
            for jj in range(1, N + 1):
                for k in range(1, N + 1):
                    for l in range(1, N + 1):
                        target = NCPoly.zero(n)
                        for (a, b), val in rows.get((i, jj), ()):
                            target = target + (P.entry(a, k) * P.entry(b, l)) * val
                        for (a, b), val in cols.get((k, l), ()):
                            target = target - (P.entry(jj, b) * P.entry(i, a)) * val
                        acc = NCPoly.zero(n)
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
    As, Bs = build_t(j, copy=0), build_t(j, copy=1)
    relA_atomic = rtt_components(A0, R)
    relA_split = rtt_components(As, R)
    bridge_ok = all(
        expand_atomic(relA_atomic[key], j) == relA_split[key]
        for key in relA_atomic
    )
    split_checked = check(As, Bs) if full_split else 0
    return {
        "ok": bridge_ok,
        "components": checked,
        "split_components": split_checked,
        "bridge_ok": bridge_ok,
    }


def verify_antipode(j: JSignature, contracted: bool = True) -> dict:
    """Certify S(T) T = T S(T) = I modulo the emitted ideal.

    With S(T) = C T^t C^(-1) both defects factor through the orthogonality
    cofactors L = T^t C^(-1) T - C^(-1) and M = T C T^t - C:

        S(T) T - I = C L,        T S(T) - I = M C^(-1).

    Both identities are replayed by exact expansion; a mismatch raises
    ArithmeticError.  The certificate holds when every nonzero entry of L
    and M is (up to sign) a generator of the relation set; the entries
    that are not are listed under "uncertified", which leaves the axiom
    unrefuted but not proved.
    """
    G = QuantumCKGroup(j, contracted=contracted)
    T = G.T
    Cp = PolyMatrix.from_scalars(G.C)
    Ci = PolyMatrix.from_scalars(G.C.inverse())
    I = PolyMatrix.identity(G.N, G.n)
    S = antipode(T, G.C)
    L = T.transpose() @ Ci @ T - Ci
    M = T @ Cp @ T.transpose() - Cp
    if (S @ T) - I != Cp @ L:
        raise ArithmeticError("certificate mismatch in S(T)T - I = C L")
    if (T @ S) - I != M @ Ci:
        raise ArithmeticError("certificate mismatch in TS(T) - I = M C^-1")
    keys = G.relations().key_set()
    uncertified = []
    entries = 0
    for tag, F in (("L", L), ("M", M)):
        for i in range(1, G.N + 1):
            for k in range(1, G.N + 1):
                p = F.entry(i, k)
                if not p:
                    continue
                entries += 1
                if sign_key(p) not in keys:
                    uncertified.append((tag, i, k))
    return {"ok": not uncertified, "entries": entries,
            "uncertified": uncertified}


def contraction_commutes(j: JSignature) -> bool:
    """Generate symbolically then contract == generate contracted.

    Compared as canonical key sets after dropping relations that contract
    to zero, which is the only way dedup can differ between the two paths.
    """
    symbolic = QuantumCKGroup(j, contracted=False).relations()
    direct = QuantumCKGroup(j, contracted=True).relations()
    return symbolic.specialize(j).key_set() == direct.key_set()


def s_squared_conjugation(j: JSignature, contracted: bool = False) -> bool:
    """S^2 rescales entry (i,k) by the mirror-weight ratio of its slots."""
    G = QuantumCKGroup(j, contracted=contracted)
    S2 = antipode(antipode(G.T, G.C), G.C)
    r2 = rho2(G.N)
    for i in range(1, G.N + 1):
        for k in range(1, G.N + 1):
            scale = DualElement.scalar(G.n, ScalarExpr.s_power(2 * (r2[k - 1] - r2[i - 1])))
            if contracted:
                scale = scale.specialize(j)
            if S2.entry(i, k) != G.T.entry(i, k) * scale:
                return False
    return True
