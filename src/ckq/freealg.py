"""Noncommutative polynomials over the dual-number scalars.

Words are sequences of generator symbols; coefficients live in D_n and are
central.  Symbols carry a tensor-copy label, and symbols with distinct
copies commute — words are kept normalized with copies in ascending order
(stable, so the order inside each copy is untouched).

There is no normal form modulo a relation ideal here: ideal membership is
shown by explicit certificates, built and replayed by exact expansion
where a claim needs one (see ``qgroup``).
"""

from __future__ import annotations

from typing import NamedTuple

from .coeffring import DimensionError, DualElement, JSignature

#: ordering rank of the symbol families: quantum-matrix coordinates first,
#: then the upper and lower triangular functionals of the dual algebra.
_FAMILY_RANK = {"mat": 0, "upper": 1, "lower": 2}

_FAMILY_LABEL = {"mat": "t", "upper": "l+", "lower": "l-"}


class GenSymbol(NamedTuple):
    """One generator: family, matrix slot (i,k), weight tag, copy label."""

    family: str
    i: int
    k: int
    mask: int = 0
    copy: int = 0

    def rank(self) -> tuple:
        return (self.copy, _FAMILY_RANK[self.family], self.i, self.k, self.mask)

    def with_copy(self, copy: int) -> "GenSymbol":
        return self._replace(copy=copy)

    def __str__(self) -> str:
        tag = ";%d" % self.mask if self.mask else ""
        prime = "'" * self.copy
        return "%s[%d,%d%s]%s" % (_FAMILY_LABEL[self.family], self.i, self.k, tag, prime)


def mat_symbol(i: int, k: int, mask: int = 0, copy: int = 0) -> GenSymbol:
    return GenSymbol("mat", i, k, mask, copy)


def canonical_word(word: tuple) -> tuple:
    """Sort by copy label only; stable, so same-copy order is preserved."""
    return tuple(sorted(word, key=lambda g: g.copy))


def word_key(word: tuple) -> tuple:
    """Degree first, then symbol ranks left to right."""
    return (len(word), tuple(g.rank() for g in word))


def _coerce(n: int, x) -> DualElement:
    if isinstance(x, DualElement):
        if x.n != n:
            raise DimensionError("coefficient in D_%d, expected D_%d" % (x.n, n))
        return x
    return DualElement.scalar(n, x)


class NCPoly:
    """Finite map word -> DualElement coefficient, zero-free, normalized."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None, normalized: bool = False):
        """``normalized=True`` adopts ``terms`` as is: canonical words to
        nonzero coefficients in D_n."""
        self.n = n
        out: dict = {}
        if terms:
            if normalized:
                out = terms
            else:
                for w, c in terms.items():
                    c = _coerce(n, c)
                    if not c:
                        continue
                    w = canonical_word(tuple(w))
                    acc = out.get(w)
                    t = c if acc is None else acc + c
                    if t:
                        out[w] = t
                    elif acc is not None:
                        del out[w]
        self.terms = out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "NCPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "NCPoly":
        return cls(n, {(): DualElement.one(n)}, normalized=True)

    @classmethod
    def scalar(cls, n: int, c) -> "NCPoly":
        return cls(n, {(): _coerce(n, c)})

    @classmethod
    def gen(cls, n: int, sym: GenSymbol, coeff=1) -> "NCPoly":
        return cls(n, {(sym,): _coerce(n, coeff)})

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def key(self) -> tuple:
        return tuple(sorted(
            ((w, c.key()) for w, c in self.terms.items()),
            key=lambda item: word_key(item[0]),
        ))

    def __eq__(self, other) -> bool:
        if isinstance(other, NCPoly):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic ---------------------------------------------------

    def _other(self, x) -> "NCPoly":
        if isinstance(x, NCPoly):
            if x.n != self.n:
                raise DimensionError("mixing D_%d with D_%d" % (self.n, x.n))
            return x
        return NCPoly.scalar(self.n, x)

    def __add__(self, other) -> "NCPoly":
        other = self._other(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w)
            if acc is None:
                out[w] = c
                continue
            t = acc + c
            if t:
                out[w] = t
            else:
                del out[w]
        return NCPoly(self.n, out, normalized=True)

    __radd__ = __add__

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.n, {w: -c for w, c in self.terms.items()}, normalized=True)

    def __sub__(self, other) -> "NCPoly":
        return self + (-self._other(other))

    def __rsub__(self, other) -> "NCPoly":
        return self._other(other) - self

    def __mul__(self, other) -> "NCPoly":
        if not isinstance(other, NCPoly):
            c = _coerce(self.n, other)
            # a nilpotent c can kill a term
            return NCPoly(self.n, {w: t for w, u in self.terms.items() if (t := u * c)},
                          normalized=True)
        if other.n != self.n:
            raise DimensionError("mixing D_%d with D_%d" % (self.n, other.n))
        out: dict = {}
        for w1, c1 in self.terms.items():
            last = w1[-1].copy if w1 else -1
            for w2, c2 in other.terms.items():
                c = c1 * c2
                if not c:
                    continue
                # both words are canonical: already in copy order unless
                # w1 ends in a later copy than w2 starts
                w = w1 + w2
                if w2 and last > w2[0].copy:
                    w = canonical_word(w)
                acc = out.get(w)
                if acc is None:
                    out[w] = c
                    continue
                t = acc + c
                if t:
                    out[w] = t
                else:
                    del out[w]
        return NCPoly(self.n, out, normalized=True)

    def __rmul__(self, other) -> "NCPoly":
        # scalars only (NCPoly * NCPoly is handled by __mul__)
        return self * other

    # -- coefficient maps ----------------------------------------------

    def map_coeffs(self, fn) -> "NCPoly":
        return NCPoly(self.n, {w: fn(c) for w, c in self.terms.items()})

    def specialize(self, j: JSignature) -> "NCPoly":
        return self.map_coeffs(lambda c: c.specialize(j))

    def at_v_zero(self) -> "NCPoly":
        return self.map_coeffs(lambda c: c.at_v_zero())

    # -- symbol maps ----------------------------------------------------

    def substitute(self, fn) -> "NCPoly":
        """Algebra map: replace each symbol g by the polynomial fn(g)."""
        out = NCPoly.zero(self.n)
        for w, c in self.terms.items():
            acc = NCPoly.scalar(self.n, c)
            for g in w:
                acc = acc * fn(g)
            out = out + acc
        return out

    def evaluate(self, fn) -> DualElement:
        """Evaluate in a commutative target: symbols g -> fn(g) in D_n."""
        out = DualElement.zero(self.n)
        for w, c in self.terms.items():
            acc = c
            for g in w:
                acc = acc * fn(g)
            out = out + acc
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=word_key, reverse=True):
            c = str(self.terms[w])
            ws = "*".join(str(g) for g in w) if w else "1"
            if ("+" in c[1:]) or ("-" in c[1:]):
                c = "(" + c + ")"
            parts.append(ws if c == "1" else c + ("*" + ws if w else ""))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return "NCPoly(%d terms over D_%d)" % (len(self.terms), self.n)
