"""Noncommutative polynomials over the dual-number scalars.

Words are sequences of generator symbols; coefficients live in D_n and are
central.  A symbol is one int packing (copy, family rank, i, k, mask)
from high bits to low, each field range-checked into its own bits, so
word order is int order and copy is the top field.  Symbols with distinct
copies commute — words are kept normalized with copies in ascending order
(stable, so the order inside each copy is untouched).  ``NCPoly`` is one
of the finite sums of ``coeffring``; ring results adopt their terms
through ``NCPoly._raw``.

``NCPoly.dot`` is the one place where word products are formed: ``*``,
matrix-product entries and the exchange components and certificates of
``qgroup`` all go through it.  It sums the coefficients that land on each
output word by the summing rule of ``coeffring``, with the dot table of
the caller's ``qgroup.QuantumCKGroup`` if any.

There is no normal form modulo a relation ideal here: ideal membership is
shown by explicit certificates, built and replayed by exact expansion
where a claim needs one (see ``qgroup``).
"""

from __future__ import annotations

from fractions import Fraction

from .coeffring import (Cyclo8, DimensionError, DualElement, ScalarExpr, _Combination,
                        _collect, _compound, _dots)

#: the symbol families in packing order: quantum-matrix coordinates first,
#: then the upper and lower triangular functionals of the dual algebra.
_FAMILIES = ("mat", "upper", "lower")
_LABELS = ("t", "l+", "l-")
_copy_of = (34).__rrshift__  # g -> g >> 34, the copy label


class GenSymbol(int):
    """One generator: family, matrix slot (i,k), weight tag, copy label,
    packed into one int as the module docstring says."""

    __slots__ = ()

    def __new__(cls, family: str, i: int, k: int, mask: int = 0, copy: int = 0):
        if not (0 <= i < 256 and 0 <= k < 256 and 0 <= mask < 65536 and copy >= 0):
            raise ValueError("symbol field out of range")
        # an unknown family raises ValueError in index
        return int.__new__(cls, copy << 34 | _FAMILIES.index(family) << 32
                           | i << 24 | k << 16 | mask)

    family = property(lambda g: _FAMILIES[g >> 32 & 3])
    i = property(lambda g: g >> 24 & 255)
    k = property(lambda g: g >> 16 & 255)
    mask = property(lambda g: g & 65535)
    copy = property(_copy_of)

    def __getnewargs__(self) -> tuple:
        return (self.family, self.i, self.k, self.mask, self.copy)

    def with_copy(self, copy: int) -> "GenSymbol":
        return GenSymbol(self.family, self.i, self.k, self.mask, copy)

    def __str__(self) -> str:
        tag = ";%d" % self.mask if self.mask else ""
        prime = "'" * self.copy
        return "%s[%d,%d%s]%s" % (_LABELS[self >> 32 & 3], self.i, self.k, tag, prime)

    def __repr__(self) -> str:
        return "GenSymbol(family=%r, i=%d, k=%d, mask=%d, copy=%d)" % self.__getnewargs__()


def mat_symbol(i: int, k: int, mask: int = 0, copy: int = 0) -> GenSymbol:
    return GenSymbol("mat", i, k, mask, copy)


def canonical_word(word: tuple) -> tuple:
    """Sort by copy label only; stable, so same-copy order is preserved.
    The copy is the top field of a symbol, so the key is one shift."""
    return tuple(sorted(word, key=_copy_of))


def word_key(word: tuple) -> tuple:
    """Degree first, then the symbols left to right in int order, the
    order of (copy, family rank, i, k, mask)."""
    return (len(word), word)


def _coerce(n: int, x) -> DualElement:
    if isinstance(x, DualElement):
        if x.n != n:
            raise DimensionError("coefficient in D_%d, expected D_%d" % (x.n, n))
        return x
    return DualElement.scalar(n, x)


class NCPoly(_Combination):
    """Finite map word -> DualElement coefficient, zero-free, normalized."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        coeffs = ((w, _coerce(n, c)) for w, c in (terms or {}).items())
        self.terms = _collect((canonical_word(tuple(w)), c) for w, c in coeffs if c)

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "NCPoly":
        """Adopt ``terms`` as is: canonical words to nonzero coefficients
        in D_n."""
        obj = object.__new__(cls)
        obj.n = n
        obj.terms = terms
        return obj

    # -- constructors

    @classmethod
    def zero(cls, n: int) -> "NCPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "NCPoly":
        return cls._raw(n, {(): DualElement.one(n)})

    @classmethod
    def scalar(cls, n: int, c) -> "NCPoly":
        return cls(n, {(): _coerce(n, c)})

    @classmethod
    def gen(cls, n: int, sym: GenSymbol, coeff=1) -> "NCPoly":
        if type(coeff) is int and coeff == 1:
            return cls._raw(n, {(sym,): DualElement.one(n)})
        return cls(n, {(sym,): _coerce(n, coeff)})

    # -- structure

    def __eq__(self, other) -> bool:
        if isinstance(other, NCPoly):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic

    def _lift(self, other) -> "NCPoly":
        if type(other) is not NCPoly:
            if not isinstance(other, (int, Fraction, Cyclo8, ScalarExpr, DualElement)):
                return NotImplemented
            return NCPoly.scalar(self.n, other)
        if other.n != self.n:
            raise DimensionError("mixing D_%d with D_%d" % (self.n, other.n))
        return other

    def _like(self, terms: dict) -> "NCPoly":
        return NCPoly._raw(self.n, terms)

    def __mul__(self, other) -> "NCPoly":
        if not isinstance(other, NCPoly):
            c = _coerce(self.n, other)
            # a nilpotent c can kill a term
            return NCPoly._raw(self.n, {w: t for w, u in self.terms.items() if (t := u * c)})
        return NCPoly.dot(self.n, ((self, other),))

    @classmethod
    def dot(cls, n: int, pairs, table: dict | None = None) -> "NCPoly":
        """The sum of p * q over the (p, q) pairs of polynomials over D_n.

        The coefficient pairs that land on each output word are collected
        and summed once by ``coeffring._dots`` with ``table``, so no
        product polynomial or partial sum is built per pair.
        """
        by_word: dict = {}
        for p, q in pairs:
            if p.n != n or q.n != n:
                raise DimensionError("operand outside D_%d" % n)
            for w1, c1 in p.terms.items():
                # both words are canonical, and so is w1 + w2 unless w2
                # starts below the least symbol of w1's last copy
                low = _copy_of(w1[-1]) << 34 if w1 else 0
                for w2, c2 in q.terms.items():
                    w = w1 + w2
                    if w2 and w2[0] < low:
                        w = canonical_word(w)
                    coeffs = by_word.get(w)
                    if coeffs is None:
                        by_word[w] = [(c1, c2)]
                    else:
                        coeffs.append((c1, c2))
        return cls._raw(n, _dots(n, by_word, table))

    # -- coefficient maps

    def map_coeffs(self, fn) -> "NCPoly":
        """The coefficients mapped by ``fn`` into D_n; the words are
        already canonical and distinct, and the zeros are dropped."""
        return NCPoly._raw(self.n, {w: x for w, c in self.terms.items() if (x := fn(c))})

    # -- symbol maps

    def substitute(self, fn, table: dict | None = None) -> "NCPoly":
        """Algebra map: replace each symbol g by the polynomial fn(g).

        The image of a term c*g1*...*gk is the product of c*fn(g1)*...
        with fn(gk); the last factors and the sum over the terms are one
        ``NCPoly.dot``, so no partial sum is built per term.  Every
        product, the partial ones included, is a ``dot``, and ``table``
        is handed to each as in ``dot``.
        """
        n = self.n
        pairs = []
        for w, c in self.terms.items():
            acc = NCPoly._raw(n, {(): c})
            for g in w[:-1]:
                acc = NCPoly.dot(n, ((acc, fn(g)),), table)
            pairs.append((acc, fn(w[-1]) if w else NCPoly.one(n)))
        return NCPoly.dot(n, pairs, table)

    def evaluate(self, fn) -> DualElement:
        """Evaluate in a commutative target: symbols g -> fn(g) in D_n."""
        out = DualElement.zero(self.n)
        for w, c in self.terms.items():
            acc = c
            for g in w:
                x = fn(g)
                if not x:
                    break  # the term is zero
                acc = acc * x
            else:
                out = out + acc
        return out

    def __str__(self) -> str:
        return self.layout(str, str)

    def layout(self, coeff_text, symbol_text) -> str:
        """The text of ``str(p)`` with each coefficient written by
        ``coeff_text`` and each symbol by ``symbol_text``."""
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=word_key, reverse=True):
            c = coeff_text(self.terms[w])
            ws = "*".join(symbol_text(g) for g in w) if w else "1"
            if _compound(c):
                c = "(" + c + ")"
            parts.append(ws if c == "1" else c + ("*" + ws if w else ""))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return "NCPoly(%d terms over D_%d)" % (len(self.terms), self.n)
