"""Triangular functionals dual to the quantum matrix algebra.

The dual algebra is a view of the contracted group: every function here
takes one ``QuantumCKGroup`` and reads its weight pattern, L+- tables,
metric, generating matrix and relations, and a symbolic group is refused
(``_contracted``).  The group holds the one memo of the pairing, its
letter steps (``QuantumCKGroup.dual_steps``).

The dual algebra is generated by two triangular matrices of linear
functionals on the quantum group: an upper family read off the flipped
braid tensor and a lower family read off its inverse, the two
``QuantumCKGroup.l_tables``.  A functional word with families `fams`,
start rows `avec` and end rows `bvec` pairs with an element through its
representation matrix: for one letter of the element, the transition row
avec -> cvec is the chained tensor column of that letter, and the pairing
is entry (avec, bvec) of the product of the rows.

There is one letter step, `_step`, and one word fold, `_fold`: from a set
of start rows, a word's tensor (avec, cvec) -> value is its prefix's
stepped by the last letter, from the states the prefix reaches only, all
start rows summed in one coefficient dot; each word is folded once per
family tuple.  `pair` passes its one start row, the exchange and metric
laws and `relations_pair_to_zero` all start rows, the diagonal laws the
diagonal ones.

Every coefficient sum is formed by the summing rule of ``coeffring``
through the group's ``dot_table``, but for the ``@`` metric sandwiches of
``verify_antipode_duality`` and the ``+`` of ``pair``'s per-word values:
the values are products of a few contracted R entries, so tuples of pairs
recur thousands of times.  Table entries, relation coefficients and split
column values are interned there, so a recurring tuple matches its key by
identity.

The tensor of a family pair is a two-leg ``QTensor`` (`_flat`), so the
functional laws are tensor identities: the exchange law is R+ A ==
flip(B) R+ for the tensors A and B of a family pair and of its reverse,
and the metric laws are ``apply_vec`` of vec(C^t) on A and on its
transpose.  A column hops through the braiding tensor's ``by_output``
index, the one ``QTensor.dot`` composes with.

Weight-tagged generators never force an inverse nilpotent into a
coefficient.  The row of a split generator takes each column value whole
from the paired tensor and splits it over the entry's weight pattern:
every term goes to the first pattern weight it contains, and its leftover
weight stays in the coefficient ring, where it is well defined.
"""

from itertools import product

from .coeffring import DualElement, _dots, interned
from .freealg import GenSymbol, NCPoly, word_key
from .qgroup import QuantumCKGroup
from .rmatrix import QTensor

FUNCTIONAL_FAMILIES = ("upper", "lower")


def upper_symbol(i: int, k: int) -> GenSymbol:
    return GenSymbol("upper", i, k)


def lower_symbol(i: int, k: int) -> GenSymbol:
    return GenSymbol("lower", i, k)


def dual_symbols(N: int) -> tuple:
    """All triangular functional generators, upper block first."""
    upper = [upper_symbol(i, k)
             for i in range(1, N + 1) for k in range(i, N + 1)]
    lower = [lower_symbol(i, k)
             for i in range(1, N + 1) for k in range(1, i + 1)]
    return tuple(upper + lower)


def entry_positions(N: int) -> tuple:
    return tuple((k, l) for k in range(1, N + 1) for l in range(1, N + 1))


def entry_words(N: int, degree: int):
    """All products of assembled matrix entries up to a degree, unit first."""
    pos = entry_positions(N)
    for d in range(degree + 1):
        for word in product(pos, repeat=d):
            yield word


def _check_functional(sym: GenSymbol):
    if sym.family not in FUNCTIONAL_FAMILIES or sym.mask or sym.copy:
        raise ValueError("not a functional generator: %s" % (sym,))


def _check_matrix(sym: GenSymbol):
    if sym.family != "mat" or sym.copy:
        raise ValueError("not a matrix generator: %s" % (sym,))


def _terms(G: QuantumCKGroup, x, check) -> list:
    """(coefficient, word) terms of a symbol, word or polynomial, in word
    order, after `check` has accepted every symbol; each coefficient is
    the `interned` one of G's dot table."""
    n = G.n
    if isinstance(x, GenSymbol):
        x = (x,)
    if isinstance(x, tuple):
        x = NCPoly(n, {x: DualElement.one(n)})
    if not isinstance(x, NCPoly):
        raise TypeError("cannot pair %r" % (x,))
    out = []
    for w in sorted(x.terms, key=word_key):
        for g in w:
            check(g)
        out.append((interned(G.dot_table, x.terms[w]), w))
    return out


def _position_counit(n: int, positions) -> DualElement:
    for k, l in positions:
        if k != l:
            return DualElement.zero(n)
    return DualElement.one(n)


# -- the pairing


def _contracted(G: QuantumCKGroup) -> None:
    """Refuse a symbolic group: the tables are read off the contracted
    braiding only."""
    if not G.contracted:
        raise ValueError("the pairing reads a contracted group")


def _valuate(G: QuantumCKGroup, value: DualElement, k: int, l: int,
             mask: int) -> DualElement:
    """One weight-tagged generator's share of a column value.

    Each term of the column value is charged to the first pattern weight
    it contains; the leftover nilpotent factor stays in the coefficient,
    so no inverse weight is ever formed.  The terms charged to ``mask``
    all contain it, so their leftovers are distinct.
    """
    masks = G.pattern[(k, l)]
    out: dict = {}
    for m, c in value.terms.items():
        target = None
        for w in masks:
            if w & m == w:
                target = w
                break
        if target is None:
            raise ArithmeticError(
                "column value carries a weight outside the entry pattern")
        if target == mask:
            out[m ^ mask] = c
    return DualElement(G.n, out)


def _step(G: QuantumCKGroup, fams: tuple, avec: tuple, letter) -> dict:
    """Transitions avec -> cvec across one letter, kept in the group's
    ``dual_steps``: an assembled entry (k, l) chains column k through the
    family tables to row l, and a split generator takes the `_valuate`d
    share of its entry's step."""
    key = (fams, avec, letter)
    got = G.dual_steps.get(key)
    if got is not None:
        return got
    if isinstance(letter, GenSymbol):
        got = {}
        whole = _step(G, fams, avec, (letter.i, letter.k))
        for cvec, col in whole.items():
            v = _valuate(G, col, letter.i, letter.k, letter.mask)
            if v:
                got[cvec] = interned(G.dot_table, v)
    else:
        k, l = letter
        states = {((), k): DualElement.one(G.n)}
        for r, fam in enumerate(fams):
            hop = G.l_tables[FUNCTIONAL_FAMILIES.index(fam)].by_output()
            pairs: dict = {}
            for (pre, y), acc in states.items():
                for (x2, y2), val in hop.get((avec[r], y), ()):
                    pairs.setdefault((pre + (x2,), y2), []).append((acc, val))
            states = _dots(G.n, pairs, G.dot_table)
        got = {pre: acc for (pre, y), acc in states.items() if y == l}
    G.dual_steps[key] = got
    return got


def _fold(G: QuantumCKGroup, fams: tuple, starts: tuple, word: tuple,
          memo: dict) -> dict:
    """The word's tensor from the start rows, (avec, cvec) -> value, kept
    in `memo`, which the caller owns for this (fams, starts).  A word whose
    prefix tensor is empty is not stored; memo[None] holds one copy of
    each key, which the tensors share."""
    got = memo.get(word)
    if got is not None:
        return got
    if not word:
        got = {(a, a): DualElement.one(G.n) for a in starts}
    else:
        head = _fold(G, fams, starts, word[:-1], memo)
        if not head:
            return head
        pairs, steps = {}, {}
        for (a, cur), acc in head.items():
            step = steps.get(cur)
            if step is None:
                step = steps[cur] = _step(G, fams, cur, word[-1]).items()
            for cvec, val in step:
                pairs.setdefault((a, cvec), []).append((acc, val))
        keys = memo.setdefault(None, {})
        got = {keys.setdefault(k, k): v
               for k, v in _dots(G.n, pairs, G.dot_table).items()}
    memo[word] = got
    return got


def _flat(tensor: dict, N: int, n: int) -> QTensor:
    """The tensor of a family pair as a ``QTensor`` keyed avec + cvec."""
    return QTensor(N, n, {a + c: v for (a, c), v in tensor.items()})


def pair(G: QuantumCKGroup, functional, element) -> DualElement:
    """Evaluate a functional word/polynomial on an algebra element of the
    contracted group G.

    The functional side lives in the upper/lower families; the element
    side is anything the quantum matrix algebra produces (split
    generators, assembled entries, relation polynomials).
    """
    _contracted(G)
    total = DualElement.zero(G.n)
    terms = _terms(G, element, _check_matrix)
    for lc, lw in _terms(G, functional, _check_functional):
        fams, avec = tuple(g.family for g in lw), tuple(g.i for g in lw)
        key, memo, pairs = (avec, tuple(g.k for g in lw)), {}, {}
        for c, w in terms:
            t = _fold(G, fams, (avec,), w, memo)
            if key in t:
                pairs.setdefault(key, []).append((c, t[key]))
        for val in _dots(G.n, pairs, G.dot_table).values():
            total = total + lc * val
    return total


# -- verification


def _starts(N: int, r: int) -> tuple:
    """Every start row of r functional letters."""
    return tuple(product(range(1, N + 1), repeat=r))


def verify_ll(G: QuantumCKGroup, degree: int = 2) -> dict:
    """Exchange law between two functional rows, checked as functionals.

    For every family pair and every product of assembled entries up to
    the degree, both sides of the braid exchange R+ L1 L2 = L2 L1 R+ are
    paired against the word and compared exactly: with A and B the
    tensors of the family pair and of its reverse, R+ A == flip(B) R+,
    composed only if A or B is not empty.
    """
    _contracted(G)
    N, n, table = G.N, G.n, G.dot_table
    rp, starts = G.l_tables[0], _starts(N, 2)
    failures = []
    identities = 0
    for fams in (("upper", "upper"), ("lower", "lower"), ("upper", "lower")):
        rev = (fams[1], fams[0])
        memos = {fams: {}, rev: {}}
        for word in entry_words(N, degree):
            A = _flat(_fold(G, fams, starts, word, memos[fams]), N, n)
            B = A if rev == fams else _flat(
                _fold(G, rev, starts, word, memos[rev]), N, n)
            identities += 1
            if ((A.data or B.data)
                    and QTensor.dot([(rp, A)], table)
                    != QTensor.dot([(B.flipped(), rp)], table)):
                failures.append({"families": fams, "word": word})
    return {"ok": not failures, "identities": identities,
            "failures": failures}


def verify_l_additional(G: QuantumCKGroup, degree: int = 2) -> dict:
    """Metric and diagonal laws for the functional rows, as functionals.

    Checks, against every product of assembled entries up to the degree:
    each family is orthogonal for the transposed metric (one factor of the
    sandwich transposed, in either position, exactly as the generating
    matrix is), which is its own inverse, so this is also the law for the
    inverse metric; opposite diagonal generators are mutually inverse; the
    full upper diagonal multiplies to the unit functional.  A sandwich
    of an empty tensor that should be empty is not formed.
    """
    _contracted(G)
    N, n, table = G.N, G.n, G.dot_table
    ct = G.C.transpose().data
    failures = []
    identities = 0
    words = tuple(entry_words(N, degree))
    starts, zero = _starts(N, 2), DualElement.zero(n)
    for fam in FUNCTIONAL_FAMILIES:
        fams, memo = (fam, fam), {}
        for word in words:
            A = _flat(_fold(G, fams, starts, word, memo), N, n)
            expect = ct if _position_counit(n, word) else {}
            for law, T in (("sandwich-right", A),
                           ("sandwich-left", A.transpose())):
                identities += 1
                if (T.data or expect) and T.apply_vec(ct, table) != expect:
                    failures.append({"family": fam, "law": law,
                                     "word": word})
    kk = tuple((k, k) for k in range(1, N + 1))
    mixed = {}
    for fams in (("upper", "lower"), ("lower", "upper")):
        memo = {}
        mixed[fams] = [_fold(G, fams, kk, w, memo) for w in words]
    for k in range(1, N + 1):
        for fams, tensors in mixed.items():
            for word, t in zip(words, tensors):
                identities += 1
                if t.get(((k, k), (k, k)), zero) != _position_counit(n, word):
                    failures.append({"law": "diagonal-inverse", "slot": k,
                                     "families": fams, "word": word})
    diag = tuple(range(1, N + 1))
    fams, memo = ("upper",) * N, {}
    for word in words:
        val = _fold(G, fams, (diag,), word, memo).get((diag, diag), zero)
        identities += 1
        if val != _position_counit(n, word):
            failures.append({"law": "diagonal-product", "word": word})
    return {"ok": not failures, "identities": identities,
            "failures": failures}


def relations_pair_to_zero(G: QuantumCKGroup, max_len: int = 2) -> dict:
    """Every functional word of length at most max_len kills every
    defining relation.

    This is the statement that the degree-one tables extend to
    functionals on the quotient algebra, not merely on the free one.
    Each relation word is folded once per family tuple from all start
    rows, and each relation summed by one coefficient dot at every
    (start, end) pair of its words' tensors that names a functional word.
    A tensor leaves the memo after the last relation that reads it.
    """
    _contracted(G)
    rels = [(_terms(G, r, _check_matrix), source)
            for r, source in G.relations().tagged()]
    syms = dual_symbols(G.N)
    words = [w for d in range(max_len + 1) for w in product(syms, repeat=d)]
    groups: dict = {}  # families -> start row -> end row -> word index
    for idx, w in enumerate(words):
        rows = groups.setdefault(tuple(g.family for g in w), {})
        rows.setdefault(tuple(g.i for g in w), {})[
            tuple(g.k for g in w)] = idx
    last = {w[:d]: r for r, (terms, _) in enumerate(rels)
            for _, w in terms for d in range(len(w) + 1)}
    spent: dict = {}  # relation -> the words and prefixes it reads last
    for w, r in last.items():
        spent.setdefault(r, []).append(w)
    hits = []
    for fams, members in groups.items():
        starts, memo = _starts(G.N, len(fams)), {}
        for r, (terms, _) in enumerate(rels):
            pairs: dict = {}
            for c, w in terms:
                for (avec, bvec), val in _fold(G, fams, starts, w,
                                               memo).items():
                    idx = members.get(avec, {}).get(bvec)
                    if idx is not None:
                        pairs.setdefault(idx, []).append((c, val))
            hits.extend((r, idx) for idx in _dots(G.n, pairs, G.dot_table))
            for w in spent.get(r, ()):
                memo.pop(w, None)
    hits.sort()
    failures = [{"source": rels[r][1], "word": words[idx]} for r, idx in hits]
    return {"ok": not failures, "checked": len(rels) * len(words),
            "failures": failures}


def verify_antipode_duality(G: QuantumCKGroup) -> dict:
    """Degree-one mirror law: pairing the twisted-transpose functional
    against an entry equals pairing the functional against the antipode
    entry.

    For each family's table R, and with the involutive metric C, this is
    (C^t X^kl C^t)[i,j] = (C Y^ij C)[k,l] for X^kl[a,b] = R(b,k,a,l) and
    Y^ij[c,d] = R(i,d,j,c), compared entry by entry.
    """
    _contracted(G)
    N, n, C = G.N, G.n, G.C
    ct = C.transpose()
    rng = range(1, N + 1)
    mismatches = 0
    checked = 0
    for R in G.l_tables:
        lhs = {(k, l): ct @ QTensor.build(
                   N, n, lambda a, b: R.get(b, k, a, l)) @ ct
               for k in rng for l in rng}
        for i in rng:
            for jj in rng:
                rhs = C @ QTensor.build(
                    N, n, lambda c, d: R.get(i, d, jj, c)) @ C
                for (k, l), sandwich in lhs.items():
                    checked += 1
                    if sandwich.get(i, jj) != rhs.get(k, l):
                        mismatches += 1
    return {"ok": mismatches == 0, "checked": checked,
            "mismatches": mismatches}

