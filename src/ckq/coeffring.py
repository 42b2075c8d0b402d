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

Everything is immutable and exact.  Rendering (``__str__``) is canonical:
terms are emitted in a fixed sorted order, so equal values always print
identically.  The public constructors validate their input; the ring
operations build their results through private ``_raw`` constructors,
which trust it.  Multiplying by the interned one (``ScalarExpr.one()``,
``DualElement.one(n)``) returns the other operand.  A constant hashes
like the number it equals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator


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


class Cyclo8:
    """An element a + b*i + c*sqrt2 + d*i*sqrt2 of Q(i, sqrt2).

    Stored as one tuple ``(a, b, c, d, den)`` of Python ints: four
    numerators over a common positive denominator, in lowest terms, so
    equal values have equal tuples.  The tuple is also the element's key.
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

    @classmethod
    def i(cls) -> "Cyclo8":
        return cls(0, 1)

    @classmethod
    def sqrt2(cls) -> "Cyclo8":
        return cls(0, 0, 1)

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
        if b1 or c1 or d1 or b2 or c2 or d2:
            return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, e1)
        return _reduced_rational(a1 + a2, e1)

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
        a1, b1, c1, d1, e1 = self._t
        a2, b2, c2, d2, e2 = other._t
        if b1 or c1 or d1 or b2 or c2 or d2:
            return _reduced(
                a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
                a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
                a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
                a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
                e1 * e2,
            )
        return _reduced_rational(a1 * a2, e1 * e2)

    __rmul__ = __mul__

    def conj_i(self) -> "Cyclo8":
        a, b, c, d, den = self._t
        return Cyclo8._raw((a, -b, c, -d, den))

    def conj_sqrt2(self) -> "Cyclo8":
        a, b, c, d, den = self._t
        return Cyclo8._raw((a, b, -c, -d, den))

    def inverse(self) -> "Cyclo8":
        """Field inverse via the product of the three Galois conjugates."""
        if not self:
            raise NotInvertibleError("division by zero in Q(i, sqrt2)")
        cofactor = self.conj_i() * self.conj_sqrt2() * self.conj_i().conj_sqrt2()
        norm = self * cofactor
        if not norm.is_rational():  # pragma: no cover - norm is Galois invariant
            raise ArithmeticError("field norm left the rationals")
        return cofactor * (1 / norm.a)

    def is_rational(self) -> bool:
        _, b, c, d, _ = self._t
        return not (b or c or d)

    def key(self) -> tuple:
        return self._t

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
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += "+" + p if not p.startswith("-") else p
        return out

    def __repr__(self) -> str:
        return "Cyclo8(%s)" % self


_new = object.__new__
_ZERO_T = (0, 0, 0, 0, 1)


def _reduced(a: int, b: int, c: int, d: int, den: int) -> Cyclo8:
    """The element (a + b*i + c*sqrt2 + d*i*sqrt2) / den, den > 0."""
    if den != 1:
        g = gcd(a, b, c, d, den)
        if g != 1:
            a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    return Cyclo8._raw((a, b, c, d, den))


def _reduced_rational(a: int, den: int) -> Cyclo8:
    """The rational element a / den, den > 0."""
    if den != 1:
        g = gcd(a, den)
        if g != 1:
            a, den = a // g, den // g
    return Cyclo8._raw((a, 0, 0, 0, den))


_C_ZERO = Cyclo8()
_C_ONE = Cyclo8(1)


class ScalarExpr:
    """Sparse Laurent polynomial in s (s^2 = q) and polynomial in v."""

    __slots__ = ("terms", "_key")

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
        self._key = None

    @classmethod
    def _raw(cls, terms: dict) -> "ScalarExpr":
        """Adopt ``terms`` as is: nonzero Cyclo8 values at exponents that
        satisfy the checks of ``__init__``."""
        obj = _new(cls)
        obj.terms = terms
        obj._key = None
        return obj

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ScalarExpr":
        return _S_ZERO

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
    def v_power(cls, e: int, coef=1) -> "ScalarExpr":
        return cls({(0, e): Cyclo8(coef) if not isinstance(coef, Cyclo8) else coef})

    @classmethod
    def lam(cls) -> "ScalarExpr":
        """The standard deformation factor q - q^(-1), kept expanded."""
        return cls({(2, 0): _C_ONE, (-2, 0): Cyclo8(-1)})

    # -- ring operations ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if type(other) is not ScalarExpr:
            if not isinstance(other, (int, Fraction, Cyclo8)):
                return NotImplemented
            other = ScalarExpr.from_value(other)
        return self.terms == other.terms

    def key(self):
        if self._key is None:
            self._key = tuple(sorted((e, c.key()) for e, c in self.terms.items()))
        return self._key

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())  # equals that number
        return hash(self.key())

    def __add__(self, other) -> "ScalarExpr":
        if type(other) is not ScalarExpr:
            if not isinstance(other, (int, Fraction, Cyclo8)):
                return NotImplemented
            other = ScalarExpr.from_value(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
                continue
            s = acc + c
            if s:
                out[e] = s
            else:
                del out[e]
        return ScalarExpr._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ScalarExpr":
        if type(other) is not ScalarExpr:
            if not isinstance(other, (int, Fraction, Cyclo8)):
                return NotImplemented
            other = ScalarExpr.from_value(other)
        return self + (-other)

    def __rsub__(self, other) -> "ScalarExpr":
        if not isinstance(other, (int, Fraction, Cyclo8)):
            return NotImplemented
        return ScalarExpr.from_value(other) - self

    def __mul__(self, other) -> "ScalarExpr":
        if type(other) is not ScalarExpr:
            if not isinstance(other, (int, Fraction, Cyclo8)):
                return NotImplemented
            other = ScalarExpr.from_value(other)
        if other is _S_ONE:
            return self
        if self is _S_ONE:
            return other
        # Nonzero times nonzero is nonzero in Q(i, sqrt2), so only sums
        # can cancel; for the same reason the top v-degree of a product
        # never cancels, and the cap is checked per pair of terms.
        out: dict = {}
        for (s1, v1), c1 in self.terms.items():
            for (s2, v2), c2 in other.terms.items():
                ve = v1 + v2
                if ve > _V_CAP:
                    raise DegreeCapError("v-degree %d exceeds cap %d" % (ve, _V_CAP))
                e = (s1 + s2, ve)
                p = c1 * c2
                acc = out.get(e)
                if acc is None:
                    out[e] = p
                    continue
                s = acc + p
                if s:
                    out[e] = s
                else:
                    del out[e]
        return ScalarExpr._raw(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ScalarExpr":
        if k < 0:
            return self.inverse() ** (-k)
        out = ScalarExpr.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def inverse(self) -> "ScalarExpr":
        """Invert a unit: a single term with zero v-exponent."""
        if len(self.terms) != 1:
            raise NotInvertibleError("only monomials in s are units")
        ((se, ve), coef), = self.terms.items()
        if ve != 0:
            raise NotInvertibleError("v is not invertible")
        return ScalarExpr({(-se, 0): coef.inverse()})

    # -- specializations ----------------------------------------------

    def at_q_one(self) -> "ScalarExpr":
        """Set s = 1 (hence q = 1)."""
        out: dict = {}
        for (se, ve), c in self.terms.items():
            e = (0, ve)
            acc = out.get(e)
            s = c if acc is None else acc + c
            if s:
                out[e] = s
            elif acc is not None:
                del out[e]
        return ScalarExpr(out)

    def at_v_zero(self) -> "ScalarExpr":
        return ScalarExpr({e: c for e, c in self.terms.items() if e[1] == 0})

    def constant_value(self) -> Cyclo8:
        """The coefficient of s^0 v^0."""
        return self.terms.get((0, 0), _C_ZERO)

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
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
                if ("+" in cs[1:]) or ("-" in cs[1:]):
                    cs = "(" + cs + ")"
                body = "*".join([cs] + factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += "+" + p if not p.startswith("-") else p
        return out

    def __repr__(self) -> str:
        return "ScalarExpr[%s]" % self


_S_ZERO = ScalarExpr()
_S_ONE = ScalarExpr({(0, 0): _C_ONE})


def _coerce_scalar(x) -> ScalarExpr:
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction, Cyclo8)):
        return ScalarExpr.from_value(x)
    raise TypeError("cannot coerce %r into a scalar" % (x,))


class DualElement:
    """Element of D_n: a map from generator subsets (bitmasks) to scalars."""

    __slots__ = ("n", "terms", "_key")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = _generator_count(n)
        clean: dict = {}
        if terms:
            for mask, sc in terms.items():
                if mask >> n:
                    raise ValueError("subset %#x outside D_%d" % (mask, n))
                sc = _coerce_scalar(sc)
                if sc:
                    clean[mask] = sc
        self.terms = clean
        self._key = None

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "DualElement":
        """Adopt ``terms`` as is: nonzero ScalarExpr values at subsets of
        the n generators."""
        obj = _new(cls)
        obj.n = n
        obj.terms = terms
        obj._key = None
        return obj

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "DualElement":
        return _D_ZEROS[_generator_count(n)]

    @classmethod
    def one(cls, n: int) -> "DualElement":
        return _D_ONES[_generator_count(n)]

    @classmethod
    def scalar(cls, n: int, x) -> "DualElement":
        sc = _coerce_scalar(x)
        if sc is _S_ONE:
            return cls.one(n)
        return cls(n, {0: sc})

    @classmethod
    def iota(cls, n: int, k: int) -> "DualElement":
        if not 1 <= k <= n:
            raise ValueError("iota_%d does not exist in D_%d" % (k, n))
        return cls(n, {1 << (k - 1): _S_ONE})

    @classmethod
    def monomial(cls, n: int, mask: int, x=1) -> "DualElement":
        if not mask:
            return cls.scalar(n, x)
        return cls(n, {mask: _coerce_scalar(x)})

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def body(self) -> ScalarExpr:
        """The coefficient of the empty subset."""
        return self.terms.get(0, _S_ZERO)

    def nil_part(self) -> "DualElement":
        return DualElement._raw(self.n, {m: s for m, s in self.terms.items() if m})

    def key(self):
        if self._key is None:
            self._key = (self.n, tuple(sorted((m, s.key()) for m, s in self.terms.items())))
        return self._key

    def __hash__(self):
        if all(m == 0 for m in self.terms):
            return hash(self.body())  # equals that scalar
        return hash(self.key())

    def __eq__(self, other) -> bool:
        if type(other) is not DualElement:
            if not isinstance(other, (int, Fraction, Cyclo8, ScalarExpr)):
                return NotImplemented
            other = DualElement.scalar(self.n, other)
        return self.n == other.n and self.terms == other.terms

    def _check(self, other) -> "DualElement":
        if type(other) is not DualElement:
            if not isinstance(other, (int, Fraction, Cyclo8, ScalarExpr)):
                raise TypeError("cannot combine DualElement with %r" % (other,))
            return DualElement.scalar(self.n, other)
        if other.n != self.n:
            raise DimensionError("mixing D_%d with D_%d" % (self.n, other.n))
        return other

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "DualElement":
        other = self._check(other)
        out = dict(self.terms)
        for m, s in other.terms.items():
            acc = out.get(m)
            if acc is None:
                out[m] = s
                continue
            t = acc + s
            if t:
                out[m] = t
            else:
                del out[m]
        return DualElement._raw(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "DualElement":
        return DualElement._raw(self.n, {m: -s for m, s in self.terms.items()})

    def __sub__(self, other) -> "DualElement":
        return self + (-self._check(other))

    def __rsub__(self, other) -> "DualElement":
        return self._check(other) - self

    def __mul__(self, other) -> "DualElement":
        # ScalarExpr has no zero divisors, so only sums can cancel.
        n = self.n
        if type(other) is not DualElement:
            if not isinstance(other, (int, Fraction, Cyclo8, ScalarExpr)):
                return NotImplemented
            sc = _coerce_scalar(other)
            if sc is _S_ONE:
                return self
            if not sc:
                return _D_ZEROS[n]
            return DualElement._raw(n, {m: s * sc for m, s in self.terms.items()})
        if other.n != n:
            raise DimensionError("mixing D_%d with D_%d" % (n, other.n))
        one = _D_ONES[n]
        if other is one:
            return self
        if self is one:
            return other
        out: dict = {}
        for m1, s1 in self.terms.items():
            for m2, s2 in other.terms.items():
                if m1 & m2:
                    continue  # a squared nilpotent dies
                m = m1 | m2
                p = s1 * s2
                acc = out.get(m)
                if acc is None:
                    out[m] = p
                    continue
                t = acc + p
                if t:
                    out[m] = t
                else:
                    del out[m]
        return DualElement._raw(n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "DualElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = DualElement.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> "DualElement":
        """Inverse via the finite geometric series over the nilpotent part."""
        b_inv = self.body().inverse()  # raises NotInvertibleError if not a unit
        u = self * b_inv - DualElement.one(self.n)
        acc = DualElement.one(self.n)
        p = DualElement.one(self.n)
        for _ in range(self.n):
            p = -(p * u)
            if not p:
                break
            acc = acc + p
        return acc * b_inv

    # -- specializations ----------------------------------------------

    def map_scalars(self, fn) -> "DualElement":
        return DualElement(self.n, {m: fn(s) for m, s in self.terms.items()})

    def at_q_one(self) -> "DualElement":
        return self.map_scalars(lambda s: s.at_q_one())

    def at_v_zero(self) -> "DualElement":
        return self.map_scalars(lambda s: s.at_v_zero())

    def specialize(self, j: "JSignature") -> "DualElement":
        """Apply q^a -> 1 + a*J*v to every scalar coefficient."""
        out = DualElement.zero(self.n)
        for m, s in self.terms.items():
            out = out + DualElement.monomial(self.n, m) * specialize_q(s, j)
        return out

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
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
                if ("+" in sc[1:]) or ("-" in sc[1:]):
                    sc = "(" + sc + ")"
                parts.append(sc + "*" + gens)
        out = parts[0]
        for p in parts[1:]:
            out += "+" + p if not p.startswith("-") else p
        return out

    def __repr__(self) -> str:
        return "DualElement[%s | D_%d]" % (self, self.n)


def _generator_count(n: int) -> int:
    if not (0 <= n <= _MAX_GENERATORS):
        raise ValueError("generator count out of range: %d" % n)
    return n


_D_ZEROS = tuple(DualElement._raw(n, {}) for n in range(_MAX_GENERATORS + 1))
_D_ONES = tuple(DualElement._raw(n, {0: _S_ONE}) for n in range(_MAX_GENERATORS + 1))


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

    @classmethod
    def trivial(cls, n: int) -> "JSignature":
        return cls([False] * n)

    @classmethod
    def all_signatures(cls, N: int) -> Iterator["JSignature"]:
        """All 2^(N-1) signatures for an N-dimensional space, in binary order."""
        n = N - 1
        for bits in range(1 << n):
            yield cls([(bits >> k) & 1 == 1 for k in range(n)])

    @property
    def n(self) -> int:
        return len(self.flags)

    @property
    def N(self) -> int:
        return len(self.flags) + 1

    @property
    def iota_mask(self) -> int:
        m = 0
        for k, f in enumerate(self.flags):
            if f:
                m |= 1 << k
        return m

    def has_iota(self) -> bool:
        return any(self.flags)

    def J(self, mu: int, nu: int) -> DualElement:
        """The group weight J(mu, nu): product of the slots mu..nu-1."""
        if not (1 <= mu <= self.N and 1 <= nu <= self.N):
            raise ValueError("indices out of range")
        if mu >= nu:
            return DualElement.one(self.n)
        mask = 0
        for r in range(mu, nu):
            if self.flags[r - 1]:
                mask |= 1 << (r - 1)
        return DualElement.monomial(self.n, mask)

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
    mask = j.iota_mask
    body: dict = {}
    top: dict = {}
    for (se, ve), coef in x.terms.items():
        e0 = (0, ve)
        acc = body.get(e0)
        s = coef if acc is None else acc + coef
        if s:
            body[e0] = s
        elif acc is not None:
            del body[e0]
        if se:
            e1 = (0, ve + 1)
            add = coef * Fraction(se, 2)
            acc = top.get(e1)
            s = add if acc is None else acc + add
            if s:
                top[e1] = s
            elif acc is not None:
                del top[e1]
    return DualElement(n, {0: ScalarExpr(body), mask: ScalarExpr(top)})
