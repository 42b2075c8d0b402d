"""Deterministic text, LaTeX, and JSON emission for the symbolic layer.

Every emitter sorts whatever it touches, so a fixed input always yields
the same bytes.  Conventions (also in docs/schema.md): rationals are
decimal strings "p/q"; nilpotent subsets are sorted slot-index arrays;
the deformation exponent is stored doubled (the internal variable is the
square root of the deformation parameter).
"""

from fractions import Fraction

from .coeffring import DualElement, JSignature, ScalarExpr
from .freealg import GenSymbol, NCPoly, word_key

_FAMILY_TEX = {"mat": "t", "upper": "l^{+}", "lower": "l^{-}"}


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def cyclo_json(c) -> dict:
    out = {}
    for name, part in (("re", c.a), ("im", c.b), ("rt2", c.c), ("imrt2", c.d)):
        if part:
            out[name] = frac_str(part)
    return out


def scalar_json(sc: ScalarExpr) -> list:
    out = []
    for (se, ve) in sorted(sc.terms):
        out.append({"s": se, "v": ve, "coef": cyclo_json(sc.terms[(se, ve)])})
    return out


def mask_slots(mask: int) -> list:
    return [b + 1 for b in range(mask.bit_length()) if (mask >> b) & 1]


def dual_json(d: DualElement) -> list:
    out = []
    for mask in sorted(d.terms):
        out.append({"iota": mask_slots(mask), "scalar": scalar_json(d.terms[mask])})
    return out


def symbol_json(g: GenSymbol) -> dict:
    out = {"family": g.family, "i": g.i, "k": g.k, "iota": mask_slots(g.mask)}
    if g.copy:
        out["copy"] = g.copy
    return out


def poly_json(p: NCPoly) -> list:
    out = []
    for w in sorted(p.terms, key=word_key):
        out.append({"word": [symbol_json(g) for g in w],
                    "coeff": dual_json(p.terms[w])})
    return out


def signature_json(j: JSignature) -> list:
    return ["iota" if f else "1" for f in j.flags]


# --------------------------------------------------------------- LaTeX


def _cyclo_tex(c) -> str:
    parts = []
    for part, unit in ((c.a, ""), (c.b, "i"), (c.c, r"\sqrt{2}"),
                       (c.d, r"i\sqrt{2}")):
        if not part:
            continue
        mag = abs(part)
        body = unit if (mag == 1 and unit) else frac_str(mag) + unit
        parts.append(("-" if part < 0 else "+") + body)
    if not parts:
        return "0"
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def _power_tex(base: str, num: int, den: int = 1) -> str:
    if num == 0:
        return ""
    g = den
    if num % den == 0:
        num //= den
        g = 1
    if num == 1 and g == 1:
        return base
    if g == 1:
        return "%s^{%d}" % (base, num)
    return "%s^{%d/%d}" % (base, num, g)


def _monomial_tex(se: int, ve: int, coef) -> str:
    factors = []
    body = _cyclo_tex(coef)
    sign = ""
    if body.startswith("-") and "+" not in body and body.count("-") == 1:
        sign = "-"
        body = body[1:]
    if body != "1" or (se == 0 and ve == 0):
        factors.append(body if ("+" not in body and "-" not in body)
                       else "(" + (sign + body if sign else body) + ")")
        if factors[-1].startswith("("):
            sign = ""
    q = _power_tex("q", se, 2)
    if q:
        factors.append(q)
    if ve:
        factors.append(_power_tex("v", ve))
    if factors and factors[0] == "1" and len(factors) > 1:
        factors = factors[1:]
    return sign + " ".join(factors)


def _lam_monomial(sc: ScalarExpr):
    """(se, ve, c) with sc == (q - q^-1) * c s^se v^ve, or None.

    Read off the shape: exactly two terms c s^(se+2) v^ve and
    -c s^(se-2) v^ve.  These are the only scalars whose quotient by the
    commutator gap is a single monomial."""
    if len(sc.terms) != 2:
        return None
    (lo, lo_c), (hi, hi_c) = sorted(sc.terms.items())
    if hi[1] != lo[1] or hi[0] - lo[0] != 4 or lo_c != -hi_c:
        return None
    return hi[0] - 2, hi[1], hi_c


def scalar_tex(sc: ScalarExpr) -> str:
    """Laurent terms in the deformation parameter; a global factor equal
    to the standard commutator gap q - q^-1 is pulled out when the scalar
    is that gap times a single monomial (decided from its two terms, with
    no division)."""
    if sc.is_zero():
        return "0"
    gap_monomial = _lam_monomial(sc)
    if gap_monomial is not None:
        inner = _monomial_tex(*gap_monomial)
        if inner == "1":
            return r"\lambda"
        if inner == "-1":
            return r"-\lambda"
        if inner.startswith("-"):
            return "-" + r"\lambda " + inner[1:]
        return r"\lambda " + inner
    parts = [_monomial_tex(se, ve, sc.terms[(se, ve)])
             for (se, ve) in sorted(sc.terms)]
    text = parts[0]
    for p in parts[1:]:
        text += (" " + p) if p.startswith("-") else (" + " + p)
    return text


def dual_tex(d: DualElement) -> str:
    if d.is_zero():
        return "0"
    parts = []
    for mask in sorted(d.terms):
        iotas = "".join(r"\iota_{%d}" % s for s in mask_slots(mask))
        inner = scalar_tex(d.terms[mask])
        if not iotas:
            parts.append(inner)
        elif inner == "1":
            parts.append(iotas)
        elif inner == "-1":
            parts.append("-" + iotas)
        elif "+" in inner or (inner.count("-") - inner.startswith("-")) > 0:
            parts.append(r"\left(" + inner + r"\right) " + iotas)
        else:
            parts.append(inner + " " + iotas)
    text = parts[0]
    for p in parts[1:]:
        text += (" " + p) if p.startswith("-") else (" + " + p)
    return text


class EntryNaming:
    """Names weight-tagged generators by their entry's weight list.

    The first weight of an entry keeps the bare letter, the second gets
    a tilde, and any further ones get a numeric superscript, matching
    the two-term convention used for split entries.
    """

    def __init__(self, pattern: dict):
        self._rank = {}
        for (i, k), masks in pattern.items():
            for pos, mask in enumerate(masks):
                self._rank[(i, k, mask)] = pos

    def symbol_tex(self, g: GenSymbol) -> str:
        letter = _FAMILY_TEX[g.family]
        pos = self._rank.get((g.i, g.k, g.mask))
        if pos is None:
            pos = 0 if not g.mask else None
        if pos == 1:
            letter = r"\tilde{%s}" % letter
        elif pos is not None and pos > 1:
            letter = "%s^{(%d)}" % (letter, pos)
        elif pos is None:
            letter = "%s^{\\{%s\\}}" % (letter, ",".join(
                str(s) for s in mask_slots(g.mask)))
        prime = "'" * g.copy
        return "%s_{%d%d}%s" % (letter, g.i, g.k, prime)


def poly_tex(p: NCPoly, naming: EntryNaming) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for w in sorted(p.terms, key=word_key):
        coeff = dual_tex(p.terms[w])
        word = r" \, ".join(naming.symbol_tex(g) for g in w)
        if not word:
            parts.append(coeff)
        elif coeff == "1":
            parts.append(word)
        elif coeff == "-1":
            parts.append("-" + word)
        else:
            wrapped = coeff if ("+" not in coeff and coeff.count("-") <= (
                1 if coeff.startswith("-") else 0)) else r"\left(" + coeff + r"\right)"
            parts.append(wrapped + r" \, " + word)
    text = parts[0]
    for piece in parts[1:]:
        text += (" " + piece) if piece.startswith("-") else (" + " + piece)
    return text


# ------------------------------------------------------------ documents


def relations_json(j: JSignature, rels) -> dict:
    return {
        "n": j.N,
        "j": signature_json(j),
        "symbols": [symbol_json(g) for g in rels_symbols(j)],
        "relations": [{"terms": poly_json(p), "source": src}
                      for p, src in rels.tagged()],
    }


def rels_symbols(j: JSignature) -> list:
    from .qgroup import t_symbols
    return list(t_symbols(j))


def relations_text(j: JSignature, rels) -> str:
    lines = ["# n=%d j=%s relations=%d" % (j.N, ",".join(signature_json(j)),
                                           len(rels.polys))]
    for p, src in rels.tagged():
        lines.append("[%s] %s = 0" % (src, p))
    return "\n".join(lines) + "\n"


def relations_tex(j: JSignature, rels) -> str:
    from .ckclassical import weight_pattern_symplectic
    naming = EntryNaming(weight_pattern_symplectic(j))
    lines = ["%% n=%d j=%s" % (j.N, ",".join(signature_json(j))),
             r"\begin{align*}"]
    for p, src in rels.tagged():
        lines.append("  %s &= 0 && \\text{[%s]} \\\\" % (poly_tex(p, naming), src))
    lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"


def tensor_json(T) -> list:
    out = []
    for key in sorted(T.data):
        out.append({"key": list(key), "value": dual_json(T.data[key])})
    return out


def matrix_json(M) -> list:
    out = []
    for i in range(1, M.N + 1):
        for k in range(1, M.N + 1):
            e = M.entry(i, k)
            if e:
                out.append({"key": [i, k], "value": dual_json(e)})
    return out


def tensor_text(T) -> str:
    lines = ["# tensor N=%d nnz=%d" % (T.N, T.nnz())]
    for key in sorted(T.data):
        lines.append("%s: %s" % (list(key), T.data[key]))
    return "\n".join(lines) + "\n"


def pattern_json(pattern: dict) -> list:
    out = []
    for (i, k) in sorted(pattern):
        out.append({"entry": [i, k],
                    "terms": [{"iota": mask_slots(t["mask"]),
                               "pairing_defined": t["pairing_defined"]}
                              for t in pattern[(i, k)]]})
    return out


def pattern_text(pattern: dict) -> str:
    lines = []
    for (i, k) in sorted(pattern):
        terms = []
        for pos, t in enumerate(pattern[(i, k)]):
            letter = "l" if pos == 0 else ("l~" if pos == 1 else "l(%d)" % pos)
            weight = "".join("j%d^-1" % s for s in t["slots"]) or ""
            mark = "*" if t["pairing_defined"] else ""
            terms.append("%s%s[%d,%d]%s" % (weight and weight + " ",
                                            letter, i, k, mark))
        lines.append("L[%d,%d] = %s" % (i, k, " + ".join(terms)))
    return "\n".join(lines) + "\n"
