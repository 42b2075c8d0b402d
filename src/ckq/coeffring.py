"""Exact scalar arithmetic and the nilpotent dual-number algebra.

Values live in a commutative tower built from the rationals:

* ``Cyclo8``: the field Q(i, sqrt2), stored as four integer numerators
  over the basis {1, i, sqrt2, i*sqrt2} and one positive denominator, in
  lowest terms.
* ``ScalarExpr``: Laurent polynomials in a carrier ``s`` with ``s^2 = q``
  (so half-integer powers of q stay exact), polynomial in a deformation
  variable ``v``, coefficients in ``Cyclo8``.
* ``DualElement``: the algebra D_n with nilpotent commuting generators
  iota_1 .. iota_n, iota_k^2 = 0, coefficients in ``ScalarExpr``.
  Subsets of generators are bitmasks, so n is capped at 16.

``JSignature`` describes a contraction signature, one flag per slot, and
produces the subset-monomial group weights.  ``specialize_q`` implements
the substitution q^a -> 1 + a*J*v used to contract the deformed data.

``ScalarExpr``, ``DualElement`` and ``freealg.NCPoly`` are finite sums: a
zero-free map ``terms`` from keys ((s, v) exponents, generator subsets,
words) to coefficients of the type below.  Their sum, negation and
difference are defined once, on the private base ``_Combination``, and
``_collect`` sums (key, coefficient) items for every such loop.

Everything is immutable and exact.  Rendering (``__str__``) is canonical:
terms are emitted in a fixed sorted order, so equal values always print
identically.  The public constructors validate their input; the ring
operations build their results through the private ``_raw`` constructor
of each of the four types, which trusts it.  A constant hashes like the
number it equals.

Every sum of products over D_n is formed by one rule.  A kernel
(``freealg.NCPoly.dot``, ``rmatrix.QTensor.dot``, the ``qdual`` fold)
groups the (a, b) pairs of each output key and hands them to ``_dots``,
which sums each key once with the entry type's own ``dot``; over D_n,
``DualElement.dot`` decides in this order:

1. a single pair with the interned one or zero of D_n as a factor gives
   the other operand or that zero, as ``*`` does (``_dots`` answers the
   unit case inline, with no call);
2. with a table, any other sum is memoized by the tuple of its pairs,
   compared by value;
3. ``_dual_dot`` forms the sum, adding the integer numerators of each
   (subset, s, v) coefficient over one denominator and reducing once.

A table interns every result (``interned``), so equal values are one
object and later keys match by identity first.  It belongs to one
``qgroup.QuantumCKGroup``, whose R-derived coefficients repeat, and
relation generation, the cofactors, the L+- tables and the group's
checks sum through it.  The R-matrix checks of ``rmatrix`` on the bare R
and the Cayley samples of ``ckclassical``, which hardly repeat, take no
table.  ``ScalarExpr`` products by ``ScalarExpr.one()`` return the other
operand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


class DimensionError(ValueError):
    """Operands live over a different number of nilpotent generators."""


class NotInvertibleError(ArithmeticError):
    """The element has no inverse in its ring."""


class DegreeCapError(RuntimeError):
    """Internal guard: the v-degree exceeded the cap ``_V_CAP``."""


_MAX_GENERATORS = 16

# Quadratic relations over contracted coefficients never exceed v-degree
# a little above 2; anything larger signals a bug upstream.
_V_CAP = 4


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an int or Fraction, got %r" % (x,))


def _signed_sum(parts, plus: str, minus: str) -> str:
    """Rendered terms joined into one sum: ``minus`` before a term that
    carries its own sign, ``plus`` before any other; "0" for no terms."""
    if not parts:
        return "0"
    return parts[0] + "".join((minus if p.startswith("-") else plus) + p
                              for p in parts[1:])


def _compound(text: str) -> bool:
    """Whether a rendered coefficient is a sum, so a factor brackets it."""
    return "+" in text[1:] or "-" in text[1:]


class Cyclo8:
    """An element a + b*i + c*sqrt2 + d*i*sqrt2 of Q(i, sqrt2).

    Stored as one tuple ``(a, b, c, d, den)`` of Python ints: four
    numerators over a common positive denominator, in lowest terms, so
    equal values have equal tuples.
    ``a``, ``b``, ``c`` and ``d`` read the components as fractions.
    """

    __slots__ = ("_t",)

    def __init__(self, a=0, b=0, c=0, d=0):
        parts = [_frac(x) for x in (a, b, c, d)]
        den = lcm(*(p.denominator for p in parts))
        # den is the lcm of reduced denominators, so no prime divides it
        # and every numerator: the tuple is already in lowest terms
        self._t = tuple(p.numerator * (den // p.denominator) for p in parts) + (den,)

    @classmethod
    def _raw(cls, t: tuple) -> "Cyclo8":
        """Wrap a tuple ``(a, b, c, d, den)`` already in lowest terms."""
        obj = _new(cls)
        obj._t = t
        return obj

    @classmethod
    def _rational(cls, x) -> "Cyclo8":
        """An int or a Fraction (always in lowest terms) as an element."""
        if isinstance(x, int):
            return cls._raw((int(x), 0, 0, 0, 1))
        return cls._raw((x.numerator, 0, 0, 0, x.denominator))

    a = property(lambda self: Fraction(self._t[0], self._t[4]))
    b = property(lambda self: Fraction(self._t[1], self._t[4]))
    c = property(lambda self: Fraction(self._t[2], self._t[4]))
    d = property(lambda self: Fraction(self._t[3], self._t[4]))

    def __bool__(self) -> bool:
        return self._t != _ZERO_T

    def __eq__(self, other) -> bool:
        if type(other) is not Cyclo8:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyclo8._rational(other)
        return self._t == other._t

    def __hash__(self):
        a, b, c, d, den = self._t
        if b or c or d:
            return hash(self._t)
        return hash(Fraction(a, den))  # a rational hashes like the number

    def __add__(self, other) -> "Cyclo8":
        if type(other) is not Cyclo8:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyclo8._rational(other)
        a1, b1, c1, d1, e1 = self._t
        a2, b2, c2, d2, e2 = other._t
        if e1 != e2:
            a1, b1, c1, d1 = a1 * e2, b1 * e2, c1 * e2, d1 * e2
            a2, b2, c2, d2 = a2 * e1, b2 * e1, c2 * e1, d2 * e1
            e1 *= e2
        return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, e1)

    __radd__ = __add__

    def __sub__(self, other) -> "Cyclo8":
        if not isinstance(other, (int, Fraction, Cyclo8)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyclo8":
        return (-self).__add__(other)

    def __neg__(self) -> "Cyclo8":
        a, b, c, d, den = self._t
        return Cyclo8._raw((-a, -b, -c, -d, den))

    def __mul__(self, other) -> "Cyclo8":
        if type(other) is not Cyclo8:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyclo8._rational(other)
        return _reduced(*_times(self._t, other._t))

    __rmul__ = __mul__

    def conj_i(self) -> "Cyclo8":
        a, b, c, d, den = self._t
        return Cyclo8._raw((a, -b, c, -d, den))

    def conj_sqrt2(self) -> "Cyclo8":
        a, b, c, d, den = self._t
        return Cyclo8._raw((a, b, -c, -d, den))

    def inverse(self) -> "Cyclo8":
        """Field inverse: a rational's reciprocal, else via the product of
        the three Galois conjugates."""
        if not self:
            raise NotInvertibleError("division by zero in Q(i, sqrt2)")
        if self.is_rational():
            return Cyclo8._rational(1 / self.a)
        cofactor = self.conj_i() * self.conj_sqrt2() * self.conj_i().conj_sqrt2()
        norm = self * cofactor
        if not norm.is_rational():  # pragma: no cover - norm is Galois invariant
            raise ArithmeticError("field norm left the rationals")
        return cofactor * (1 / norm.a)

    def is_rational(self) -> bool:
        _, b, c, d, _ = self._t
        return not (b or c or d)

    def __str__(self) -> str:
        parts = []
        for val, tag in ((self.a, ""), (self.b, "i"), (self.c, "sqrt2"), (self.d, "i*sqrt2")):
            if not val:
                continue
            if tag and abs(val) == 1:
                body = tag if val > 0 else "-" + tag
            else:
                body = str(val) + ("*" + tag if tag else "")
            parts.append(body)
        return _signed_sum(parts, "+", "")

    def __repr__(self) -> str:
        return "Cyclo8(%s)" % self


_new = object.__new__
_ZERO_T = (0, 0, 0, 0, 1)


def _times(x: tuple, y: tuple) -> list:
    """The product of two ``Cyclo8`` tuples, not reduced."""
    a1, b1, c1, d1, e1 = x
    a2, b2, c2, d2, e2 = y
    if b1 or c1 or d1 or b2 or c2 or d2:
        return [a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
                a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
                a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
                a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2, e1 * e2]
    return [a1 * a2, 0, 0, 0, e1 * e2]


def _reduced(a: int, b: int, c: int, d: int, den: int) -> Cyclo8:
    """The element (a + b*i + c*sqrt2 + d*i*sqrt2) / den, den > 0."""
    if den != 1:
        g = gcd(a, b, c, d, den)
        if g != 1:
            a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    return Cyclo8._raw((a, b, c, d, den))


_C_ZERO = Cyclo8()
_C_ONE = Cyclo8(1)


def _collect(items, out: dict | None = None) -> dict:
    """Sum the (key, coefficient) items into ``out`` (a new dict if None)
    and drop the keys whose sum cancels.  Each coefficient is nonzero."""
    if out is None:
        out = {}
    for k, c in items:
        acc = out.get(k)
        if acc is None:
            out[k] = c
            continue
        s = acc + c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


class _Combination:
    """A finite sum: a zero-free map ``terms`` from keys to coefficients.
    A type lifts an operand into itself with ``_lift`` (NotImplemented for
    a type it does not take) and adopts a term map with ``_like``."""

    __slots__ = ()

    def __init_subclass__(cls):
        # in each type's own namespace, where the per-class profile reads them
        for name in ("__bool__", "is_zero", "__add__", "__radd__", "__neg__",
                     "__sub__", "__rsub__"):
            setattr(cls, name, vars(_Combination)[name])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._like(_collect(other.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self


class ScalarExpr(_Combination):
    """Sparse Laurent polynomial in s (s^2 = q) and polynomial in v."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict | None = None):
        clean: dict = {}
        if terms:
            for (se, ve), coef in terms.items():
                if not isinstance(coef, Cyclo8):
                    coef = Cyclo8(coef)
                if not coef:
                    continue
                if ve < 0:
                    raise ValueError("negative v-exponent")
                if ve > _V_CAP:
                    raise DegreeCapError("v-degree %d exceeds cap %d" % (ve, _V_CAP))
                clean[(se, ve)] = coef
        self.terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict) -> "ScalarExpr":
        """Adopt ``terms`` as is: nonzero Cyclo8 values at exponents that
        satisfy the checks of ``__init__``."""
        obj = _new(cls)
        obj.terms = terms
        obj._hash = None
        return obj

    # -- constructors

    @classmethod
    def one(cls) -> "ScalarExpr":
        return _S_ONE

    @classmethod
    def from_value(cls, x) -> "ScalarExpr":
        if isinstance(x, ScalarExpr):
            return x
        if not isinstance(x, Cyclo8):
            x = Cyclo8._rational(_frac(x))
        if not x:
            return _S_ZERO
        if x == _C_ONE:
            return _S_ONE
        return cls._raw({(0, 0): x})

    @classmethod
    def s_power(cls, e: int, coef=1) -> "ScalarExpr":
        """coef * s^e, i.e. coef * q^(e/2)."""
        return cls({(e, 0): Cyclo8(coef) if not isinstance(coef, Cyclo8) else coef})

    @classmethod
    def q_power(cls, e: int, coef=1) -> "ScalarExpr":
        return cls.s_power(2 * e, coef)

    @classmethod
    def lam(cls) -> "ScalarExpr":
        """The standard deformation factor q - q^(-1), kept expanded."""
        return cls({(2, 0): _C_ONE, (-2, 0): Cyclo8(-1)})

    # -- ring operations

    def _lift(self, other) -> "ScalarExpr":
        if type(other) is ScalarExpr:
            return other
        if not isinstance(other, (int, Fraction, Cyclo8)):
            return NotImplemented
        return ScalarExpr.from_value(other)

    def _like(self, terms: dict) -> "ScalarExpr":
        return ScalarExpr._raw(terms)

    def __eq__(self, other) -> bool:
        if type(other) is not ScalarExpr:
            if not isinstance(other, (int, Fraction, Cyclo8)):
                return NotImplemented
            other = ScalarExpr.from_value(other)
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            if self.is_constant():
                self._hash = hash(self.constant_value())  # equals that number
            else:
                self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __mul__(self, other) -> "ScalarExpr":
        if type(other) is not ScalarExpr:
            if not isinstance(other, (int, Fraction, Cyclo8)):
                return NotImplemented
            other = ScalarExpr.from_value(other)
        if other is _S_ONE:
            return self
        if self is _S_ONE:
            return other
        return ScalarExpr._raw(_scalar_dot(((self, other),)))

    __rmul__ = __mul__

    def inverse(self) -> "ScalarExpr":
        """Invert a unit: a single term with zero v-exponent."""
        if len(self.terms) != 1:
            raise NotInvertibleError("only monomials in s are units")
        ((se, ve), coef), = self.terms.items()
        if ve != 0:
            raise NotInvertibleError("v is not invertible")
        return ScalarExpr({(-se, 0): coef.inverse()})

    # -- specializations

    def at_q_one(self) -> "ScalarExpr":
        """Set s = 1 (hence q = 1)."""
        return ScalarExpr._raw(_collect(((0, ve), c) for (_, ve), c in self.terms.items()))

    def constant_value(self) -> Cyclo8:
        """The coefficient of s^0 v^0."""
        return self.terms.get((0, 0), _C_ZERO)

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    # -- rendering

    def __str__(self) -> str:
        parts = []
        for (se, ve) in sorted(self.terms):
            coef = self.terms[(se, ve)]
            factors = []
            if se == 2:
                factors.append("q")
            elif se:
                factors.append("q^%d" % (se // 2) if se % 2 == 0 else "q^(%d/2)" % se)
            if ve:
                factors.append("v" if ve == 1 else "v^%d" % ve)
            cs = str(coef)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors and cs == "-1":
                body = "-" + "*".join(factors)
            else:
                if _compound(cs):
                    cs = "(" + cs + ")"
                body = "*".join([cs] + factors)
            parts.append(body)
        return _signed_sum(parts, "+", "")

    def __repr__(self) -> str:
        return "ScalarExpr[%s]" % self


_S_ZERO = ScalarExpr()
_S_ONE = ScalarExpr({(0, 0): _C_ONE})


def _scalar_dot(pairs) -> dict:
    """The terms of the sum of s1 * s2 over the (s1, s2) pairs of scalars:
    a map from (s, v) exponents to nonzero coefficients.

    Each exponent sums the integer numerators of its products over one
    denominator, reduced once.  Nonzero times nonzero is nonzero in
    Q(i, sqrt2), so only sums cancel; for the same reason the top v-degree
    of a product never cancels, and the cap is checked per pair of terms.
    """
    acc: dict = {}
    for s1, s2 in pairs:
        for (se1, ve1), x in s1.terms.items():
            for (se2, ve2), y in s2.terms.items():
                ve = ve1 + ve2
                if ve > _V_CAP:
                    raise DegreeCapError("v-degree %d exceeds cap %d" % (ve, _V_CAP))
                p = _times(x._t, y._t)
                t = acc.setdefault((se1 + se2, ve), p)
                if t is p:
                    continue
                f, g = p[4], t[4]
                if f == g:
                    t[0] += p[0]
                    t[1] += p[1]
                    t[2] += p[2]
                    t[3] += p[3]
                else:  # over the lcm of the two denominators
                    h = gcd(f, g)
                    f, g = f // h, g // h
                    t[:] = [t[0] * f + p[0] * g, t[1] * f + p[1] * g,
                            t[2] * f + p[2] * g, t[3] * f + p[3] * g, t[4] * f]
    return {e: _reduced(*t) for e, t in acc.items() if t[0] or t[1] or t[2] or t[3]}


class DualElement(_Combination):
    """Element of D_n: a map from generator subsets (bitmasks) to scalars."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = _generator_count(n)
        clean: dict = {}
        if terms:
            for mask, sc in terms.items():
                if mask >> n:
                    raise ValueError("subset %#x outside D_%d" % (mask, n))
                sc = ScalarExpr.from_value(sc)
                if sc:
                    clean[mask] = sc
        self.terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "DualElement":
        """Adopt ``terms`` as is: nonzero ScalarExpr values at subsets of
        the n generators."""
        obj = _new(cls)
        obj.n = n
        obj.terms = terms
        obj._hash = None
        return obj

    # -- constructors

    @classmethod
    def zero(cls, n: int) -> "DualElement":
        return _D_ZEROS[_generator_count(n)]

    @classmethod
    def one(cls, n: int) -> "DualElement":
        return _D_ONES[_generator_count(n)]

    @classmethod
    def scalar(cls, n: int, x) -> "DualElement":
        sc = ScalarExpr.from_value(x)
        if sc is _S_ONE:
            return cls.one(n)
        return cls(n, {0: sc})

    @classmethod
    def monomial(cls, n: int, mask: int, x=1) -> "DualElement":
        if not mask:
            return cls.scalar(n, x)
        return cls(n, {mask: ScalarExpr.from_value(x)})

    # -- structure

    def body(self) -> ScalarExpr:
        """The coefficient of the empty subset."""
        return self.terms.get(0, _S_ZERO)

    def __hash__(self):
        if self._hash is None:
            if all(m == 0 for m in self.terms):
                self._hash = hash(self.body())  # equals that scalar
            else:
                self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __eq__(self, other) -> bool:
        if type(other) is not DualElement:
            if not isinstance(other, (int, Fraction, Cyclo8, ScalarExpr)):
                return NotImplemented
            other = DualElement.scalar(self.n, other)
        return self.n == other.n and self.terms == other.terms

    def _lift(self, other) -> "DualElement":
        if type(other) is not DualElement:
            if not isinstance(other, (int, Fraction, Cyclo8, ScalarExpr)):
                return NotImplemented
            return DualElement.scalar(self.n, other)
        if other.n != self.n:
            raise DimensionError("mixing D_%d with D_%d" % (self.n, other.n))
        return other

    def _like(self, terms: dict) -> "DualElement":
        return DualElement._raw(self.n, terms)

    # -- arithmetic

    def __mul__(self, other) -> "DualElement":
        # ScalarExpr has no zero divisors, so only sums can cancel.
        n = self.n
        if type(other) is not DualElement:
            if not isinstance(other, (int, Fraction, Cyclo8, ScalarExpr)):
                return NotImplemented
            sc = ScalarExpr.from_value(other)
            if sc is _S_ONE:
                return self
            if not sc:
                return _D_ZEROS[n]
            return DualElement._raw(n, {m: s * sc for m, s in self.terms.items()})
        return DualElement.dot(n, ((self, other),))

    __rmul__ = __mul__

    @classmethod
    def dot(cls, n: int, pairs, table: dict | None = None) -> "DualElement":
        """The sum of a * b over the sequence of (a, b) pairs of elements
        of D_n, formed by the summing rule of the module docstring.  A
        squared nilpotent dies, and a v-degree above ``_V_CAP`` raises
        ``DegreeCapError``, which ``table`` does not store; the owner of
        the table keeps it to one D_n.
        """
        if len(pairs) == 1:
            (a, b), = pairs
            if a.n == n == b.n:
                one, zero = _D_ONES[n], _D_ZEROS[n]
                got = (b if a is one or b is zero else
                       a if b is one or a is zero else None)
                if got is not None:
                    return got if table is None else interned(table, got)
        if table is None:
            return _dual_dot(n, pairs)
        key = tuple(pairs)
        got = table.get(key)
        if got is None:
            got = table[key] = interned(table, _dual_dot(n, key))
        return got

    def inverse(self) -> "DualElement":
        """Inverse via the finite geometric series over the nilpotent part."""
        b_inv = self.body().inverse()  # raises NotInvertibleError if not a unit
        u = self * b_inv - DualElement.one(self.n)
        acc = p = DualElement.one(self.n)
        for _ in range(self.n):
            p = -(p * u)
            if not p:
                break
            acc = acc + p
        return acc * b_inv

    # -- specializations

    def specialize(self, j: "JSignature") -> "DualElement":
        """Apply q^a -> 1 + a*J*v to every scalar coefficient."""
        n = self.n
        # formed afresh, with no one-pair short-cut that would return an
        # operand as is: a coefficient equal to one is the interned one
        return _dual_dot(n, [(DualElement._raw(n, {m: _S_ONE}), specialize_q(s, j))
                             for m, s in self.terms.items()])

    # -- rendering

    def __str__(self) -> str:
        parts = []
        for m in sorted(self.terms, key=lambda mm: (bin(mm).count("1"), mm)):
            sc = str(self.terms[m])
            gens = "*".join("iota%d" % (k + 1) for k in range(self.n) if m >> k & 1)
            if not gens:
                parts.append(sc)
            elif sc == "1":
                parts.append(gens)
            elif sc == "-1":
                parts.append("-" + gens)
            else:
                if _compound(sc):
                    sc = "(" + sc + ")"
                parts.append(sc + "*" + gens)
        return _signed_sum(parts, "+", "")

    def __repr__(self) -> str:
        return "DualElement[%s | D_%d]" % (self, self.n)


def _generator_count(n: int) -> int:
    if not (0 <= n <= _MAX_GENERATORS):
        raise ValueError("generator count out of range: %d" % n)
    return n


_D_ZEROS = tuple(DualElement._raw(n, {}) for n in range(_MAX_GENERATORS + 1))
_D_ONES = tuple(DualElement._raw(n, {0: _S_ONE}) for n in range(_MAX_GENERATORS + 1))


def interned(table: dict, x):
    """The value equal to x that ``table`` holds, which is x itself the
    first time: a table holds each value it has seen under itself too, so
    that equal values are one object."""
    return table.setdefault(x, x)


def _memo(fn):
    """fn, computed once per argument for as long as the caller keeps the
    returned function."""
    done = {}

    def once(x):
        out = done.get(x)
        if out is None:
            out = done[x] = fn(x)
        return out
    return once


def _dots(n: int, by_key: dict, table: dict | None = None) -> dict:
    """Key -> nonzero sum of the key's (a, b) pairs, each key summed once
    by the entry type's own ``dot`` with ``table``."""
    out = {}
    one = _D_ONES[n]
    for key, pairs in by_key.items():
        a, b = pairs[0]
        if len(pairs) == 1 and (a is one or b is one) and a.n == b.n:
            c = b if a is one else a  # the unit rule; entries are nonzero
            out[key] = c if table is None else table.setdefault(c, c)
        elif c := type(a).dot(n, pairs, table):
            out[key] = c
    return out


def _dual_dot(n: int, pairs) -> DualElement:
    """The body of ``DualElement.dot``: the sum itself, formed afresh."""
    by_subset: dict = {}
    for a, b in pairs:
        if a.n != n or b.n != n:
            raise DimensionError("operand outside D_%d" % n)
        for m1, s1 in a.terms.items():
            for m2, s2 in b.terms.items():
                if m1 & m2:
                    continue  # a squared nilpotent dies
                scalars = by_subset.get(m1 | m2)
                if scalars is None:
                    by_subset[m1 | m2] = [(s1, s2)]
                else:
                    scalars.append((s1, s2))
    terms: dict = {}
    for m, scalars in by_subset.items():
        s1, s2 = scalars[0]
        if len(scalars) == 1 and (s1 is _S_ONE or s2 is _S_ONE):
            s = s2 if s1 is _S_ONE else s1
        else:
            out = _scalar_dot(scalars)
            if not out:
                continue
            s = ScalarExpr._raw(out)
        # a coefficient equal to one is stored as the interned one,
        # which later products short-cut and every such one shares
        terms[m] = _S_ONE if s.terms == _S_ONE.terms else s
    # zero and one are the interned ones, so table keys holding them
    # match by identity
    if not terms:
        return _D_ZEROS[n]
    if len(terms) == 1 and terms.get(0) is _S_ONE:
        return _D_ONES[n]
    return DualElement._raw(n, terms)


class JSignature:
    """A contraction signature: one slot per level, each 1 or iota_k."""

    __slots__ = ("flags",)

    def __init__(self, flags: Iterable[bool]):
        self.flags = tuple(bool(f) for f in flags)
        if len(self.flags) > _MAX_GENERATORS:
            raise ValueError("too many slots")

    @classmethod
    def parse(cls, text: str) -> "JSignature":
        flags = []
        for tok in text.split(","):
            tok = tok.strip()
            if tok == "1":
                flags.append(False)
            elif tok == "iota":
                flags.append(True)
            else:
                raise ValueError("bad signature token %r (want '1' or 'iota')" % tok)
        return cls(flags)

    @property
    def n(self) -> int:
        return len(self.flags)

    @property
    def N(self) -> int:
        return len(self.flags) + 1

    @property
    def iota_mask(self) -> int:
        return sum(1 << k for k, f in enumerate(self.flags) if f)

    def has_iota(self) -> bool:
        return any(self.flags)

    def J(self, mu: int, nu: int) -> DualElement:
        """The group weight J(mu, nu): product of the slots mu..nu-1."""
        if not (1 <= mu <= self.N and 1 <= nu <= self.N):
            raise ValueError("indices out of range")
        if mu >= nu:
            return DualElement.one(self.n)
        # slots mu..nu-1 are bits mu-1..nu-2
        return DualElement.monomial(self.n, self.iota_mask & ((1 << nu - 1) - (1 << mu - 1)))

    def weight(self, k: int, p: int) -> DualElement:
        """The matrix-entry weight: J(k,p) above the diagonal, J(p,k) below."""
        return self.J(k, p) if k < p else self.J(p, k)

    def __eq__(self, other) -> bool:
        return isinstance(other, JSignature) and self.flags == other.flags

    def __hash__(self):
        return hash(self.flags)

    def __str__(self) -> str:
        return ",".join("iota" if f else "1" for f in self.flags)

    def __repr__(self) -> str:
        return "JSignature(%s)" % self


def specialize_q(x: ScalarExpr, j: JSignature) -> DualElement:
    """Contract a scalar: substitute q^a -> 1 + a*J*v, J the full slot product.

    With at least one nilpotent slot J^2 = 0, so the substitution is a ring
    homomorphism.  If every slot is 1 the scalar is returned unchanged
    (q stays formal).
    """
    n = j.n
    if not j.has_iota():
        return DualElement.scalar(n, x)
    top = _collect(((0, ve + 1), coef * Fraction(se, 2))
                   for (se, ve), coef in x.terms.items() if se)
    return DualElement(n, {0: x.at_q_one(), j.iota_mask: ScalarExpr(top)})
