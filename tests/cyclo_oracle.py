"""Four-fraction Q(i, sqrt2): an arithmetic oracle for ckq.coeffring.Cyclo8.

Each component is its own ``fractions.Fraction``, so every sum and
product is reduced component by component by the standard library.  It
shares no arithmetic with the package's integer representation, so
agreement checks the package's common-denominator bookkeeping.
"""

from fractions import Fraction


class FracCyclo8:
    """a + b*i + c*sqrt2 + d*i*sqrt2 with four Fraction components."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a, self.b, self.c, self.d = (Fraction(x) for x in (a, b, c, d))

    def parts(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def __bool__(self) -> bool:
        return any(self.parts())

    def __add__(self, other) -> "FracCyclo8":
        return FracCyclo8(*(x + y for x, y in zip(self.parts(), other.parts())))

    def __sub__(self, other) -> "FracCyclo8":
        return FracCyclo8(*(x - y for x, y in zip(self.parts(), other.parts())))

    def __neg__(self) -> "FracCyclo8":
        return FracCyclo8(*(-x for x in self.parts()))

    def __mul__(self, other) -> "FracCyclo8":
        a1, b1, c1, d1 = self.parts()
        a2, b2, c2, d2 = other.parts()
        return FracCyclo8(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    def inverse(self) -> "FracCyclo8":
        """Galois conjugates over the rational norm."""
        a, b, c, d = self.parts()
        conj_i = FracCyclo8(a, -b, c, -d)
        conj_r = FracCyclo8(a, b, -c, -d)
        conj_ir = FracCyclo8(a, -b, -c, d)
        cofactor = conj_i * conj_r * conj_ir
        norm = (self * cofactor).a
        return FracCyclo8(*(x / norm for x in cofactor.parts()))

    def __str__(self) -> str:
        parts = []
        for val, tag in zip(self.parts(), ("", "i", "sqrt2", "i*sqrt2")):
            if not val:
                continue
            if tag and abs(val) == 1:
                parts.append(tag if val > 0 else "-" + tag)
            else:
                parts.append(str(val) + ("*" + tag if tag else ""))
        if not parts:
            return "0"
        return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])
