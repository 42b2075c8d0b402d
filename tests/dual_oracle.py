"""Right-folded dual pairing: an evaluation-order oracle for ckq.qdual.

Built only from the degree-one tensors of a contracted group (its L+-
tables) and the symplectic weight pattern.  The element word is absorbed from its right
end, each generator walking the paired tensor backwards from the rows it
produces, and each column value is split over the entry's weight pattern
here rather than by the package.  It shares no evaluation code with
`ckq.qdual`, so agreement checks the package's left fold.

`dual_antipode` states the antipode of a functional generator in closed
form, as the metric twist of its transpose.
"""

from itertools import product

from ckq.ckclassical import solve, weight_pattern_symplectic
from ckq.coeffring import DualElement
from ckq.freealg import GenSymbol, NCPoly
from ckq.rmatrix import QTensor


def _add_to(out, key, val):
    t = out[key] + val if key in out else val
    if t:
        out[key] = t
    else:
        out.pop(key, None)


def _terms(n, x):
    if isinstance(x, GenSymbol):
        x = (x,)
    if isinstance(x, tuple):
        x = NCPoly(n, {x: DualElement.one(n)})
    return x.terms.items()


class RightFold:
    """Pairing values of one signature, folded from the right."""

    def __init__(self, G):
        self.n = G.n
        self.pattern = weight_pattern_symplectic(G.j)
        self.rev = {}
        for fam, table in zip(("upper", "lower"), G.l_tables):
            rev = {}
            for (o1, o2, i1, i2), val in table.data.items():
                rev.setdefault((i1, i2), []).append((o1, o2, val))
            self.rev[fam] = rev
        self.columns = {}

    def column(self, fams, cvec, k, l):
        """Start rows avec -> value of the transitions avec -> cvec
        across the assembled entry (k, l)."""
        key = (fams, cvec, k, l)
        if key not in self.columns:
            states = {((), l): DualElement.one(self.n)}
            for r in range(len(fams) - 1, -1, -1):
                new = {}
                for (suf, y), acc in states.items():
                    for x1, y1, val in self.rev[fams[r]].get((cvec[r], y), ()):
                        _add_to(new, ((x1,) + suf, y1), val * acc)
                states = new
            self.columns[key] = {pre: acc for (pre, y), acc in states.items()
                                 if y == k}
        return self.columns[key]

    def split(self, value, g):
        """The share of a column value carried by the split generator g:
        each term goes to the first pattern weight it contains, and the
        rest of its weight stays in the coefficient."""
        out = {}
        for m, c in value.terms.items():
            first = next(w for w in self.pattern[(g.i, g.k)] if w & m == w)
            if first == g.mask:
                _add_to(out, m ^ first, c)
        return DualElement(self.n, out)

    def unfold(self, fams, bvec, word, acc):
        """Start row -> value of the element word from end row bvec, folded
        back from the word's right end, with acc at bvec."""
        states = {bvec: acc}
        for g in reversed(word):
            new = {}
            for cur, acc in states.items():
                for pvec, col in self.column(fams, cur, g.i, g.k).items():
                    v = self.split(col, g)
                    if v:
                        _add_to(new, pvec, v * acc)
            states = new
        return states

    def word_value(self, fams, avec, bvec, word):
        states = self.unfold(fams, bvec, word, DualElement.one(self.n))
        return states.get(avec, DualElement.zero(self.n))

    def tensor(self, fams, element, N):
        """Values of every functional word over the families against the
        element, keyed avec + bvec: every end row folded back over every
        term of the element."""
        out = {}
        for tw, tc in _terms(self.n, element):
            for bvec in product(range(1, N + 1), repeat=len(fams)):
                for avec, val in self.unfold(fams, bvec, tw, tc).items():
                    _add_to(out, avec + bvec, val)
        return out

    def pair(self, functional, element):
        total = DualElement.zero(self.n)
        for lw, lc in _terms(self.n, functional):
            fams = tuple(g.family for g in lw)
            avec = tuple(g.i for g in lw)
            bvec = tuple(g.k for g in lw)
            for tw, tc in _terms(self.n, element):
                total = total + lc * tc * self.word_value(fams, avec, bvec, tw)
        return total


def dual_antipode(G, sym):
    """(coefficient, generator): the metric twist of the transpose.

    Entries mirror across the antidiagonal with an invertible scalar, so
    the antipode of a generator is again a scalar multiple of a single
    generator of the same family.
    """
    N = G.N
    ct = G.C.transpose()
    cti = solve(ct, QTensor.identity(N, ct.n))
    im = N + 1 - sym.i
    km = N + 1 - sym.k
    coeff = ct.get(sym.i, im) * cti.get(km, sym.k)
    return coeff, GenSymbol(sym.family, km, im)
