"""Triangular functionals dual to the quantum matrix algebra.

A ``DualPairing`` is built from one ``QuantumCKGroup`` and reads its
weight pattern, L+- tables, metric, generating matrix and relations;
every dual-side check takes that one pairing context.

The dual algebra is generated by two triangular matrices of linear
functionals on the quantum group: an upper family read off the flipped
braid tensor and a lower family read off its inverse.  A functional word
with families `fams`, start rows `avec` and end rows `bvec` pairs with an
element through its representation matrix: for one letter of the element,
the transition row avec -> cvec is the chained tensor column of that
letter, and the pairing is entry (avec, bvec) of the product of the rows.

There is one letter step, `DualPairing._step`, and one word fold,
`DualPairing._row`: a word is folded from the left, one transition row per
letter, and the rows of the word and its prefixes are kept in a memo the
caller owns.  A polynomial is evaluated word by word, each distinct word
once per start row, and the value at an end row is one coefficient dot
over the words' rows.

Every coefficient sum in a column, a row, a relation value or a tensor
law is formed by the summing rule of ``coeffring`` through the group's
dot table (``QuantumCKGroup.dot_table``): the values are products of a
few contracted R entries, so the same tuple of pairs recurs thousands of
times.  Two sums skip the table: ``verify_antipode_duality`` composes its
metric sandwiches with ``@``, and ``DualPairing.pair`` adds its per-word
values with ``+``.  The tables' entries, the relation coefficients and
the split column values are interned in it too, so a recurring tuple
matches its key by identity.

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


def _terms(n: int, x, check, table: dict) -> list:
    """(coefficient, word) terms of a symbol, word or polynomial, in word
    order, after `check` has accepted every symbol; each coefficient is
    the `interned` one of `table`."""
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
        out.append((interned(table, x.terms[w]), w))
    return out


def _dot_at(n: int, terms: list, rows: dict, ends, table: dict) -> dict:
    """End row -> nonzero value of sum c * rows[w][end] over the (c, w)
    terms of one polynomial, for the end rows in `ends`; a word missing
    from `rows` has an empty row."""
    pairs: dict = {}
    for c, w in terms:
        for cvec, val in rows.get(w, {}).items():
            if cvec in ends:
                pairs.setdefault(cvec, []).append((c, val))
    return _dots(n, pairs, table)


def _position_counit(n: int, positions) -> DualElement:
    for k, l in positions:
        if k != l:
            return DualElement.zero(n)
    return DualElement.one(n)


# ------------------------------------------------------------ the pairing


class DualPairing:
    """Evaluation context of one contracted group: caches over the group's
    pattern and L+- tables (``r_plus``, ``r_minus``)."""

    __slots__ = ("group", "N", "n", "r_plus", "r_minus", "table", "_steps")

    def __init__(self, G: QuantumCKGroup):
        if not G.contracted:
            raise ValueError("the pairing reads a contracted group")
        self.group = G
        self.N = G.N
        self.n = G.n
        self.table = G.dot_table
        self.r_plus, self.r_minus = G.l_tables
        self._steps = {}

    def tensor(self, family):
        """The degree-one value table of one family, as a two-leg tensor."""
        if family == "upper":
            return self.r_plus
        if family == "lower":
            return self.r_minus
        raise ValueError("unknown functional family %r" % (family,))

    # -- one letter and one word ----------------------------------------

    def _valuate(self, value: DualElement, k: int, l: int,
                 mask: int) -> DualElement:
        """One weight-tagged generator's share of a column value.

        Each term of the column value is charged to the first pattern
        weight it contains; the leftover nilpotent factor stays in the
        coefficient, so no inverse weight is ever formed.  The terms
        charged to ``mask`` all contain it, so their leftovers are
        distinct.
        """
        masks = self.group.pattern[(k, l)]
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
        return DualElement(self.n, out)

    def _step(self, fams: tuple, avec: tuple, letter) -> dict:
        """Transitions avec -> cvec across one letter: an assembled entry
        (k, l) chains column k through the family tensors to row l, and a
        split generator takes the `_valuate`d share of its entry's step."""
        key = (fams, avec, letter)
        got = self._steps.get(key)
        if got is not None:
            return got
        if isinstance(letter, GenSymbol):
            got = {}
            whole = self._step(fams, avec, (letter.i, letter.k))
            for cvec, col in whole.items():
                v = self._valuate(col, letter.i, letter.k, letter.mask)
                if v:
                    got[cvec] = interned(self.table, v)
        else:
            k, l = letter
            states = {((), k): DualElement.one(self.n)}
            for r, fam in enumerate(fams):
                hop = self.tensor(fam).by_output()
                pairs: dict = {}
                for (pre, y), acc in states.items():
                    for (x2, y2), val in hop.get((avec[r], y), ()):
                        pairs.setdefault((pre + (x2,), y2), []).append(
                            (acc, val))
                states = _dots(self.n, pairs, self.table)
            got = {pre: acc for (pre, y), acc in states.items() if y == l}
        self._steps[key] = got
        return got

    def _row(self, fams: tuple, avec: tuple, word: tuple, memo: dict) -> dict:
        """Row avec of the word's representation matrix: cvec -> value.

        The word is a product of split generators or of assembled entries
        (k, l).  `memo` maps words to their rows for this one (fams, avec);
        the caller owns it, and each word and prefix is folded once per
        memo.  A word whose prefix row is empty has an empty row, returned
        without being stored.
        """
        got = memo.get(word)
        if got is not None:
            return got
        if not word:
            got = {avec: DualElement.one(self.n)}
        else:
            head = self._row(fams, avec, word[:-1], memo)
            if not head:
                return {}
            pairs: dict = {}
            for cur, acc in head.items():
                for cvec, val in self._step(fams, cur, word[-1]).items():
                    pairs.setdefault(cvec, []).append((acc, val))
            got = _dots(self.n, pairs, self.table)
        memo[word] = got
        return got

    # -- public evaluation -------------------------------------------

    def pair(self, functional, element) -> DualElement:
        """Evaluate a functional word/polynomial on an algebra element.

        The functional side lives in the upper/lower families; the
        element side is anything the quantum matrix algebra produces
        (split generators, assembled entries, relation polynomials).
        """
        total = DualElement.zero(self.n)
        terms = _terms(self.n, element, _check_matrix, self.table)
        for lc, lw in _terms(self.n, functional, _check_functional,
                             self.table):
            fams, avec = tuple(g.family for g in lw), tuple(g.i for g in lw)
            memo: dict = {}
            rows = {w: self._row(fams, avec, w, memo) for _, w in terms}
            bvec = tuple(g.k for g in lw)
            val = _dot_at(self.n, terms, rows, (bvec,), self.table).get(bvec)
            if val is not None:
                total = total + lc * val
        return total


def _fold_word(ctx: DualPairing, fams: tuple, word: tuple,
               memos: dict) -> QTensor:
    """Pairing values of every functional word over the families against
    one entry word, as a tensor keyed avec + cvec.

    `memos` maps each start row avec to its prefix memo; share it across
    the words of one family tuple only.
    """
    out = {}
    for avec in product(range(1, ctx.N + 1), repeat=len(fams)):
        memo = memos.setdefault(avec, {})
        for cvec, val in ctx._row(fams, avec, word, memo).items():
            out[avec + cvec] = val
    return QTensor(ctx.N, ctx.n, out)


# ------------------------------------------------------------ verification


def verify_ll(ctx: DualPairing, degree: int = 2) -> dict:
    """Exchange law between two functional rows, checked as functionals.

    For every family pair and every product of assembled entries up to
    the degree, both sides of the braid exchange R+ L1 L2 = L2 L1 R+ are
    paired against the word and compared exactly: with A and B the
    tables of the family pair and of its reverse, R+ A == flip(B) R+.
    """
    N, table = ctx.N, ctx.table
    rp = ctx.r_plus
    failures = []
    identities = 0
    for fams in (("upper", "upper"), ("lower", "lower"), ("upper", "lower")):
        rev = (fams[1], fams[0])
        memos = {fams: {}, rev: {}}
        for word in entry_words(N, degree):
            A = _fold_word(ctx, fams, word, memos[fams])
            B = A if rev == fams else _fold_word(ctx, rev, word, memos[rev])
            identities += 1
            if (QTensor.dot([(rp, A)], table)
                    != QTensor.dot([(B.flipped(), rp)], table)):
                failures.append({"families": fams, "word": word})
    return {"ok": not failures, "identities": identities,
            "failures": failures}


def verify_l_additional(ctx: DualPairing, degree: int = 2) -> dict:
    """Metric and diagonal laws for the functional rows, as functionals.

    Checks, against every product of assembled entries up to the degree:
    each family is orthogonal for the transposed metric (one factor of the
    sandwich transposed, in either position, exactly as the generating
    matrix is), which is its own inverse, so this is also the law for the
    inverse metric; opposite diagonal generators are mutually inverse; the
    full upper diagonal multiplies to the unit functional.
    """
    N, n = ctx.N, ctx.n
    ct = ctx.group.C.transpose().data
    failures = []
    identities = 0
    words = tuple(entry_words(N, degree))
    for fam in FUNCTIONAL_FAMILIES:
        fams = (fam, fam)
        memos: dict = {}
        for word in words:
            A = _fold_word(ctx, fams, word, memos)
            expect = ct if _position_counit(n, word) else {}
            for law, vals in (("sandwich-right", A.apply_vec(ct, ctx.table)),
                              ("sandwich-left",
                               A.transpose().apply_vec(ct, ctx.table))):
                identities += 1
                if vals != expect:
                    failures.append({"family": fam, "law": law,
                                     "word": word})
    zero = DualElement.zero(n)
    for k in range(1, N + 1):
        for fams in (("upper", "lower"), ("lower", "upper")):
            memo: dict = {}
            for word in words:
                val = ctx._row(fams, (k, k), word, memo).get((k, k), zero)
                identities += 1
                if val != _position_counit(n, word):
                    failures.append({"law": "diagonal-inverse", "slot": k,
                                     "families": fams, "word": word})
    diag = tuple(range(1, N + 1))
    fams = ("upper",) * N
    memo = {}
    for word in words:
        val = ctx._row(fams, diag, word, memo).get(diag, zero)
        identities += 1
        if val != _position_counit(n, word):
            failures.append({"law": "diagonal-product", "word": word})
    return {"ok": not failures, "identities": identities,
            "failures": failures}


def relations_pair_to_zero(ctx: DualPairing, max_len: int = 2) -> dict:
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
    rels = [(_terms(ctx.n, r, _check_matrix, ctx.table), source)
            for r, source in ctx.group.relations().tagged()]
    uses: dict = {}
    for r, (terms, _) in enumerate(rels):
        for _, w in terms:
            uses.setdefault(w, []).append(r)
    by_prefix: dict = {}
    for w in uses:
        by_prefix.setdefault(w[:-1], []).append(w)
    syms = dual_symbols(ctx.N)
    words = [w for d in range(max_len + 1) for w in product(syms, repeat=d)]
    groups: dict = {}
    for idx, w in enumerate(words):
        key = (tuple(g.family for g in w), tuple(g.i for g in w))
        groups.setdefault(key, {})[tuple(g.k for g in w)] = idx
    hits = []
    for (fams, avec), members in groups.items():
        rows: dict = {}  # the fold's memo; a word not in it has no row
        for pre, ws in by_prefix.items():
            if ctx._row(fams, avec, pre, rows):
                for w in ws:
                    ctx._row(fams, avec, w, rows)
        for r in {r for w, row in rows.items() if row
                  for r in uses.get(w, ())}:
            hits.extend((r, members[bvec])
                        for bvec in _dot_at(ctx.n, rels[r][0], rows, members,
                                            ctx.table))
    hits.sort()
    failures = [{"source": rels[r][1], "word": words[idx]} for r, idx in hits]
    return {"ok": not failures, "checked": len(rels) * len(words),
            "failures": failures}


def verify_antipode_duality(ctx: DualPairing) -> dict:
    """Degree-one mirror law: pairing the twisted-transpose functional
    against an entry equals pairing the functional against the antipode
    entry.

    For each family's table R, and with the involutive metric C, this is
    (C^t X^kl C^t)[i,j] = (C Y^ij C)[k,l] for X^kl[a,b] = R(b,k,a,l) and
    Y^ij[c,d] = R(i,d,j,c), compared entry by entry.
    """
    N, n = ctx.N, ctx.n
    C = ctx.group.C
    ct = C.transpose()
    rng = range(1, N + 1)
    mismatches = 0
    checked = 0
    for fam in FUNCTIONAL_FAMILIES:
        R = ctx.tensor(fam)
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

