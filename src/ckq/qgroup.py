"""The quantum Cayley-Klein matrix group and its Hopf structure.

``QuantumCKGroup(j)`` is the one object per signature: it builds the weight
pattern, the braiding tensor R, the metric C, the generating matrix T, the
L+- tables and the relation ideal once each, on first use, and every check
and emitter reads them from it.  The dual algebra is a view of the group:
the ``qdual`` functions take the group itself and keep their one memo, the
letter steps of the pairing, in its ``dual_steps``.  The group's
``dot_table`` sums its coefficients by the summing rule of ``coeffring``,
so each distinct coefficient is formed once and held as one object.

The generating matrix T has, in entry (i,k), one independent symbol per
subset monomial that the group's weight pattern allows there, so the
entry is the D-valued combination sum_W iota_W * t[i,k;W].  The defining
ideal collects the braid-exchange components R T1 T2 - T2 T1 R and the
quantum orthogonality T C T^t = T^t C T = C, whose relations are the
entries of the cofactors M = T C T^t - C and L = T^t C T - C
(``orthogonality_cofactors``, formed once per group as
``QuantumCKGroup.cofactors``).  The metric is an involution, C^(-1) = C,
checked when the group builds it, so the same two cofactors factor the
antipode defects S(T) T - I = C L and T S(T) - I = M C.  T and every
matrix built from it are two-leg ``QTensor`` instances with ``NCPoly``
entries.  The exchange components come from one generator, ``rtt_rows``,
one output row at a time, so no four-leg product is held.

Every claimed identity is checked mechanically: coproduct axioms by exact
expansion; the compatibility of the coproduct with the exchange relations
and the antipode axiom by explicit membership certificates, closed-form
cofactor combinations of the relations that are replayed by exact
expansion; and S^2 = q^(2 rho)-conjugation as an identity of polynomial
matrices.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product

from .coeffring import DualElement, JSignature, interned
from .ckclassical import weight_pattern_symplectic
from .rmatrix import (QTensor, _compose, contract, frt_c, frt_r, q_scalar,
                      r_plus_minus, rho2, specializer)
from .freealg import GenSymbol, NCPoly, mat_symbol


def _scalars(M, table: dict | None = None):
    """The scalar matrix M, entries lifted by ``_lift``."""
    return M.map_entries(lambda e: _lift(M.n, e, table))


def _lift(n: int, e: DualElement, table: dict | None) -> NCPoly:
    """e as a constant polynomial; with a ``table``, e is first replaced by
    its ``interned`` value."""
    return NCPoly.scalar(n, e if table is None else interned(table, e))


# -- generating matrix


def build_t(G: QuantumCKGroup, copy: int = 0, atomic: bool = False) -> QTensor:
    """The generating matrix of G, the one construction of T's symbols.

    Split form (default): entry (i,k) = sum_W iota_W * t[i,k;W] over
    ``G.pattern``.  Atomic form: entry (i,k) is the single opaque symbol
    t[i,k], used where only the entry-level algebra matters (certificates);
    the split form is its image under ``splitting_map``.
    """
    n, rng = G.n, range(1, G.N + 1)
    if atomic:
        data = {(i, k): NCPoly.gen(n, mat_symbol(i, k, 0, copy))
                for i in rng for k in rng}
    else:
        pat = G.pattern
        data = {(i, k): NCPoly._raw(n, {(mat_symbol(i, k, mask, copy),):
                                        DualElement.monomial(n, mask)
                                        for mask in pat[(i, k)]})
                for i in rng for k in rng}
    return QTensor(G.N, n, data)


def t_symbols(T: QTensor) -> tuple:
    """All generator symbols of a split T from ``build_t``, in canonical
    (row-major, mask) order: the words of its entries."""
    return tuple(g for e in T.data.values() for (g,) in e.terms)


def splitting_map(*copies: QTensor):
    """The splitting homomorphism on symbols, t[i,k] of copy c -> entry
    (i,k) of the split matrix ``copies[c]``, as a function for
    ``NCPoly.substitute``."""
    return lambda g: copies[g.copy].get(g.i, g.k)


# -- relation sets


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
        return self.find(p) is not None

    def find(self, p: NCPoly) -> NCPoly | None:
        """The held relation equal to p or to -p, or None."""
        return _find(self._held.get(hash(frozenset(p.terms)), ()), p)

    def add(self, p: NCPoly, source: str) -> bool:
        if not p:
            return False
        held = self._held.setdefault(hash(frozenset(p.terms)), [])
        if _find(held, p) is not None:
            return False
        held.append(p)
        self.polys.append(p)
        self.sources.append(source)
        return True

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def tagged(self):
        return zip(self.polys, self.sources)


def _find(held, p: NCPoly) -> NCPoly | None:
    """The relation of ``held``, relations on p's word set, equal to p or
    to -p, or None; -p is built only when ``held`` is not empty."""
    if held:
        for q in held:
            if q == p:
                return q
        neg = -p
        for q in held:
            if q == neg:
                return q
    return None


def _row_order(N: int) -> list:
    """The output rows (a, b) in the order that holds the fewest pair rows
    in ``rtt_rows``: R's mirror rows (a, a'), which read the pair rows
    (c, c'), then each row by its flip."""
    rng = range(1, N + 1)
    return [(a, N + 1 - a) for a in rng] + [
        o for a in rng for b in rng if a <= b and a + b != N + 1
        for o in dict.fromkeys(((a, b), (b, a)))]


def rtt_rows(X: QTensor, R: QTensor, table: dict | None, order: list):
    """The braid-exchange components R X1 X2 - X2 X1 R of a matrix X, one
    output row at a time: for each row o = (a, b) of ``order``, a dict
    (a, b, k, l) -> nonzero component.

    Row o reads the pair rows (p, q) -> {(r, s): X[p,r] X[q,s]} of X1 X2
    that R's row o reaches, and pair row o reversed for X2 X1; each is
    built at its first reader and dropped after its last, so no four-leg
    tensor is formed and each pair row is built once.  Every product and
    sum goes through ``table`` as in ``QTensor.dot``.
    """
    n, ix = X.n, X.by_output()
    Rs, mRs = ({o: [(pq, _lift(n, e * sign, table)) for pq, e in row]
                for o, row in R.by_output().items()} for sign in (1, -1))
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


def rtt_components(T: QTensor, R: QTensor, table: dict | None = None) -> QTensor:
    """The braid-exchange components R T1 T2 - T2 T1 R as one tensor, the
    rows of ``rtt_rows`` collected; ``table`` as in ``QTensor.dot``."""
    return QTensor(T.N, T.n, {key: p for row in rtt_rows(T, R, table, _row_order(T.N))
                              for key, p in row.items()})


def rtt_relations(T: QTensor, R: QTensor, table: dict | None = None) -> RelationSet:
    """Deduplicated braid-exchange relations R T1 T2 - T2 T1 R = 0, in key
    order: ``rtt_rows`` in row order, each row's components added as it
    arrives; ``table`` as in ``QTensor.dot``."""
    rels = RelationSet(T.n)
    for row in rtt_rows(T, R, table, sorted(_row_order(T.N))):
        for key in sorted(row):
            rels.add(row[key], "rtt")
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


def orthogonality_relations(cofactors: tuple,
                            rels: RelationSet | None = None) -> RelationSet:
    """Quantum orthogonality T C T^t = T^t C T = C: the entries of the
    cofactors (M, L) from ``orthogonality_cofactors``, M first, row by row,
    added to ``rels`` (a new set by default).
    """
    if rels is None:
        rels = RelationSet(cofactors[0].n)
    for F in cofactors:
        for key in sorted(F.data):
            rels.add(F.data[key], "orth")
    return rels


def full_relation_set(G: QuantumCKGroup) -> RelationSet:
    """The exchange relations, then the orthogonality relations, every
    coefficient summed through the group's ``dot_table``, in one set."""
    return orthogonality_relations(G.cofactors, rtt_relations(G.T, G.R, G.dot_table))


# -- Hopf structure


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


# -- verification


class QuantumCKGroup:
    """One quantized group: its weight pattern, R, C, T, L+- and ideal.

    Each of them, the relations and the pairing memo ``dual_steps`` are
    built on first use and kept (see the module docstring), so a check
    builds only what it reads.

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
    def pattern(self) -> dict:
        """(i,k) -> the subset masks of T's entry (i,k), in the frame that
        pairs axis k with N+1-k."""
        return weight_pattern_symplectic(self.j)

    @cached_property
    def T(self) -> QTensor:
        return build_t(self)

    @cached_property
    def l_tables(self) -> tuple:
        """(R+, R-), the L+- value tables, entries interned in ``dot_table``
        so that sums of their products match its keys by identity."""
        table = self.dot_table
        return tuple(X.map_entries(lambda e: interned(table, e))
                     for X in r_plus_minus(self.R, self.j if self.contracted else None,
                                           table))

    @cached_property
    def cofactors(self) -> tuple:
        """The orthogonality cofactors (M, L) of T and C: the relation set
        takes its orthogonality family from them, and ``verify_antipode``
        its certificate."""
        return orthogonality_cofactors(self.T, self.C, self.dot_table)

    @cached_property
    def dot_table(self) -> dict:
        """The group's ``DualElement.dot`` table, through which relation
        generation, the L+- tables, the Hopf checks and ``qdual`` sum the
        same few R-derived coefficients, so every relation coefficient is
        one interned object per value.  It holds only D_n values of G."""
        return {}

    @cached_property
    def dual_steps(self) -> dict:
        """The memo of ``qdual._step``: (families, start rows, letter) ->
        the letter's transition row, shared by every pairing read of this
        group."""
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
    (i,k) of T0 @ T1 over the split symbols.  Both sides sum through the group's ``dot_table``.
    """
    N, n, table = G.N, G.n, G.dot_table
    T1 = build_t(G, copy=1)
    split = splitting_map(G.T, T1)
    rng = range(1, N + 1)
    split_delta = QTensor(N, n, {
        (i, k): coproduct(NCPoly.gen(n, mat_symbol(i, k))).substitute(split, table)
        for i in rng for k in rng})
    return split_delta == QTensor.dot([(G.T, T1)], table)


def counit_annihilates(rels: RelationSet) -> bool:
    return all(counit(p).is_zero() for p in rels)


def _certificate_rows(A: QTensor, B: QTensor, relA_rows, relB: QTensor,
                      table: dict | None, order: list):
    """The certificate relA B1 B2 + A2 A1 relB over the exchange components
    of A and B, one output row of ``order`` at a time: each row is an
    iterator of (key, component) over its N^2 keys in key order, and each
    component is summed only when the iterator reaches it.

    ``relA_rows`` are A's ``rtt_rows`` in ``order``, read one at a time;
    every row reads all of relB and of B1 B2, which are held whole.
    """
    n, rng = A.n, range(1, A.N + 1)
    BB, rB, ix = QTensor.pair(B, table).data, relB.data, A.by_output()

    def components(o: tuple, left: list):
        """Row o from its left factors (mid, u, right): u times entry
        mid + (k, l) of the right factor, summed over mid."""
        for kl in product(rng, rng):
            yield o + kl, NCPoly.dot(n, [(u, w) for mid, u, right in left
                                         if (w := right.get(mid + kl)) is not None],
                                     table)

    for (a, b), rA in zip(order, relA_rows):
        yield components((a, b), [(key[2:], u, BB) for key, u in rA.items()] + [
            ((c, d), NCPoly.dot(n, ((y, x),), table), rB)
            for (d,), y in ix.get((b,), ()) for (c,), x in ix.get((a,), ())])


def verify_delta_compat(G: QuantumCKGroup) -> dict:
    """Certify that the coproduct descends to the quotient.

    The components of R (T T')1 (T T')2 - (T T')2 (T T')1 R, the exchange
    components of the product, must equal the two-term membership
    certificate over the copy-0 and copy-1 exchange relations.  Both are
    expanded exactly.  The target and the copy-0 relations stream from
    ``rtt_rows`` one output row at a time, and the certificate
    (``_certificate_rows``) is summed and compared with the target one
    component at a time, in key order, so the first differing component
    raises, named; only the copy-1 relations and B1 B2 are held whole.
    Every product and sum goes through the group's ``dot_table``.

    This runs in the entry-level algebra; the splitting homomorphism
    (entry lookups in the group's T, verified on every relation component
    here, row by row as the certificate reads them) transports each
    certificate to the split symbols.  At N = 3 the certificates are also
    replayed after splitting.
    """
    N, R, table = G.N, G.R, G.dot_table
    n, order = G.n, _row_order(N)
    zero = NCPoly.zero(n)

    def check(A: QTensor, B: QTensor, relA_rows) -> int:
        """relA_rows are A's ``rtt_rows`` in ``order``."""
        rows = zip(_certificate_rows(A, B, relA_rows, rtt_components(B, R, table),
                                     table, order),
                   rtt_rows(QTensor.dot([(A, B)], table), R, table, order))
        for cert, target in rows:
            for key, c in cert:
                if c != target.get(key, zero):
                    raise ArithmeticError("certificate mismatch at %s" % (key,))
        return N ** 4

    # the splitting homomorphism carries each certificate to split symbols:
    # verify it maps each atomic row of relation components, as the
    # certificate reads it, onto the split row
    split = splitting_map(G.T)
    unbridged = []

    def bridged(rows):
        for o, row, split_row in zip(order, rows, rtt_rows(G.T, R, table, order)):
            if {k: q for k, p in row.items()
                    if (q := p.substitute(split, table))} != split_row:
                unbridged.append(o)
            yield row

    A0 = build_t(G, copy=0, atomic=True)
    checked = check(A0, build_t(G, copy=1, atomic=True),
                    bridged(rtt_rows(A0, R, table, order)))
    split_checked = (check(G.T, build_t(G, copy=1), rtt_rows(G.T, R, table, order))
                     if N <= 3 else 0)
    return {"ok": not unbridged, "components": checked,
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
    scales: dict = {}
    refuted = []
    for i in range(1, N + 1):
        for k in range(1, N + 1):
            e = r2[k - 1] - r2[i - 1]
            if e not in scales:
                scales[e] = _lift(n, q_scalar(n, e, j), table)
            if S2.get(i, k) != NCPoly.dot(n, ((T.get(i, k), scales[e]),), table):
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

    G is the contracted group; the symbolic one is built here.  Its
    exchange components (streamed by ``rtt_rows``) and cofactor entries
    are contracted one at a time, each distinct coefficient once, and
    looked up up to sign in G's relation set, which is the only set held.
    Relations that contract to zero are dropped, which is the only way
    dedup can differ between the two paths.  The check passes when every
    contracted relation is found and every relation of G is hit: the two
    sets are equal up to sign.
    """
    rels = G.relations()
    H = QuantumCKGroup(G.j, contracted=False)
    spec = specializer(G.j)
    symbolic = chain((p for row in rtt_rows(H.T, H.R, H.dot_table, _row_order(G.N))
                      for p in row.values()),
                     (p for F in H.cofactors for p in F.data.values()))
    hit = set()
    for p in symbolic:
        q = p.map_coeffs(spec)
        if q:
            found = rels.find(q)
            if found is None:
                return False
            hit.add(id(found))
    return len(hit) == len(rels)
