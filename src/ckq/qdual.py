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

There is one letter step, `_step`, and one word fold, `_row`: a word is
folded from the left, one transition row per letter, and the rows of the
word and its prefixes are kept in a memo the caller owns.  A polynomial is
evaluated word by word, each distinct word once per start row, and the
value at an end row is one coefficient dot over the words' rows.

Every coefficient sum is formed by the summing rule of ``coeffring``
through the group's ``dot_table``, but for the ``@`` metric sandwiches of
``verify_antipode_duality`` and the ``+`` of ``pair``'s per-word values:
the values are products of a few contracted R entries, so tuples of pairs
recur thousands of times.  Table entries, relation coefficients and split
column values are interned there, so a recurring tuple matches its key by
identity.

The tables of a family pair against one entry word form a two-leg
``QTensor`` (`_fold_word`), so the functional laws are tensor identities:
the exchange law is R+ A == flip(B) R+ for the tables A and B of a family
pair and of its reverse, and the metric laws are ``apply_vec`` of vec(C^t)
on A and on its transpose.  A column hops through the braiding tensor's
``by_output`` index, the one ``QTensor.dot`` composes with.

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


def _dot_at(G: QuantumCKGroup, terms: list, rows: dict, ends) -> dict:
    """End row -> nonzero value of sum c * rows[w][end] over the (c, w)
    terms of one polynomial, for the end rows in `ends`; a word missing
    from `rows` has an empty row."""
    pairs: dict = {}
    for c, w in terms:
        for cvec, val in rows.get(w, {}).items():
            if cvec in ends:
                pairs.setdefault(cvec, []).append((c, val))
    return _dots(G.n, pairs, G.dot_table)


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


def _row(G: QuantumCKGroup, fams: tuple, avec: tuple, word: tuple,
         memo: dict) -> dict:
    """Row avec of the word's representation matrix: cvec -> value.

    The word is a product of split generators or of assembled entries
    (k, l).  `memo` maps words to their rows for this one (fams, avec);
    the caller owns it, and each word and prefix is folded once per memo.
    A word whose prefix row is empty has an empty row, returned without
    being stored.
    """
    got = memo.get(word)
    if got is not None:
        return got
    if not word:
        got = {avec: DualElement.one(G.n)}
    else:
        head = _row(G, fams, avec, word[:-1], memo)
        if not head:
            return {}
        pairs: dict = {}
        for cur, acc in head.items():
            for cvec, val in _step(G, fams, cur, word[-1]).items():
                pairs.setdefault(cvec, []).append((acc, val))
        got = _dots(G.n, pairs, G.dot_table)
    memo[word] = got
    return got


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
        memo: dict = {}
        rows = {w: _row(G, fams, avec, w, memo) for _, w in terms}
        bvec = tuple(g.k for g in lw)
        val = _dot_at(G, terms, rows, (bvec,)).get(bvec)
        if val is not None:
            total = total + lc * val
    return total


def _fold_word(G: QuantumCKGroup, fams: tuple, word: tuple,
               memos: dict) -> QTensor:
    """Pairing values of every functional word over the families against
    one entry word, as a tensor keyed avec + cvec.

    `memos` maps each start row avec to its prefix memo; share it across
    the words of one family tuple only.
    """
    out = {}
    for avec in product(range(1, G.N + 1), repeat=len(fams)):
        memo = memos.setdefault(avec, {})
        for cvec, val in _row(G, fams, avec, word, memo).items():
            out[avec + cvec] = val
    return QTensor(G.N, G.n, out)


# -- verification


def verify_ll(G: QuantumCKGroup, degree: int = 2) -> dict:
    """Exchange law between two functional rows, checked as functionals.

    For every family pair and every product of assembled entries up to
    the degree, both sides of the braid exchange R+ L1 L2 = L2 L1 R+ are
    paired against the word and compared exactly: with A and B the
    tables of the family pair and of its reverse, R+ A == flip(B) R+.
    """
    _contracted(G)
    N, table = G.N, G.dot_table
    rp = G.l_tables[0]
    failures = []
    identities = 0
    for fams in (("upper", "upper"), ("lower", "lower"), ("upper", "lower")):
        rev = (fams[1], fams[0])
        memos = {fams: {}, rev: {}}
        for word in entry_words(N, degree):
            A = _fold_word(G, fams, word, memos[fams])
            B = A if rev == fams else _fold_word(G, rev, word, memos[rev])
            identities += 1
            if (QTensor.dot([(rp, A)], table)
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
    full upper diagonal multiplies to the unit functional.
    """
    _contracted(G)
    N, n, table = G.N, G.n, G.dot_table
    ct = G.C.transpose().data
    failures = []
    identities = 0
    words = tuple(entry_words(N, degree))
    for fam in FUNCTIONAL_FAMILIES:
        fams = (fam, fam)
        memos: dict = {}
        for word in words:
            A = _fold_word(G, fams, word, memos)
            expect = ct if _position_counit(n, word) else {}
            for law, vals in (("sandwich-right", A.apply_vec(ct, table)),
                              ("sandwich-left",
                               A.transpose().apply_vec(ct, table))):
                identities += 1
                if vals != expect:
                    failures.append({"family": fam, "law": law,
                                     "word": word})
    zero = DualElement.zero(n)
    for k in range(1, N + 1):
        for fams in (("upper", "lower"), ("lower", "upper")):
            memo: dict = {}
            for word in words:
                val = _row(G, fams, (k, k), word, memo).get((k, k), zero)
                identities += 1
                if val != _position_counit(n, word):
                    failures.append({"law": "diagonal-inverse", "slot": k,
                                     "families": fams, "word": word})
    diag = tuple(range(1, N + 1))
    fams = ("upper",) * N
    memo = {}
    for word in words:
        val = _row(G, fams, diag, word, memo).get(diag, zero)
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
    Functional words sharing their families and start row avec share the
    rows avec of the relation words, so each distinct relation word is
    folded once per such group.  The words are grouped by prefix, the word
    minus its last letter: a word whose prefix row is empty has an empty
    row and is not folded at all.  Only the relations that use a word with
    a nonempty row can be nonzero there; each of them is summed, one at a
    time, at every end row bvec of the group by one coefficient dot.
    """
    _contracted(G)
    rels = [(_terms(G, r, _check_matrix), source)
            for r, source in G.relations().tagged()]
    uses: dict = {}
    for r, (terms, _) in enumerate(rels):
        for _, w in terms:
            uses.setdefault(w, []).append(r)
    by_prefix: dict = {}
    for w in uses:
        by_prefix.setdefault(w[:-1], []).append(w)
    syms = dual_symbols(G.N)
    words = [w for d in range(max_len + 1) for w in product(syms, repeat=d)]
    groups: dict = {}
    for idx, w in enumerate(words):
        key = (tuple(g.family for g in w), tuple(g.i for g in w))
        groups.setdefault(key, {})[tuple(g.k for g in w)] = idx
    hits = []
    for (fams, avec), members in groups.items():
        rows: dict = {}  # the fold's memo; a word not in it has no row
        for pre, ws in by_prefix.items():
            if _row(G, fams, avec, pre, rows):
                for w in ws:
                    _row(G, fams, avec, w, rows)
        for r in {r for w, row in rows.items() if row
                  for r in uses.get(w, ())}:
            hits.extend((r, members[bvec])
                        for bvec in _dot_at(G, rels[r][0], rows, members))
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

