"""Deterministic text, LaTeX, and JSON emission for the symbolic layer.

Every emitter sorts whatever it touches, so a fixed input always yields
the same bytes.  Conventions (also in docs/schema.md): rationals are
decimal strings "p/q"; nilpotent subsets are sorted slot-index arrays;
the deformation exponent is stored doubled (the internal variable is the
square root of the deformation parameter).

The documents of ``ckq relations``, ``rmatrix`` and ``dual`` are built here
from the group: ``relations_text``/``_json``/``_tex``,
``rmatrix_text``/``_json``/``_tex``, ``dual_text`` and ``dual_doc``
(``dual_json`` encodes one element of D_n).

``write_json`` is the one JSON writer: every ``--format json`` document
goes through it, straight to its output stream, one top-level member at a
time.  A relation document holds thousands of coefficients but only a few
dozen distinct values, so the relation emitters format each distinct
coefficient and symbol once per document (``coeffring._memo``) and the JSON
writer writes each shared fragment once.
"""

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .coeffring import (DualElement, JSignature, ScalarExpr, _compound,
                        _memo, _signed_sum)
from .freealg import GenSymbol, NCPoly, word_key
from .qgroup import QuantumCKGroup, t_symbols

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


def poly_json(p: NCPoly, symbol, coeff) -> list:
    """Terms of p; ``symbol`` and ``coeff`` write a symbol and a
    coefficient (see ``relations_json``)."""
    return [{"word": [symbol(g) for g in w], "coeff": coeff(p.terms[w])}
            for w in sorted(p.terms, key=word_key)]


def signature_json(j: JSignature) -> list:
    return ["iota" if f else "1" for f in j.flags]


def config_json(j: JSignature) -> dict:
    return {"n": j.N, "j": signature_json(j)}


# -- LaTeX


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
                       else "(" + body + ")")
    q = _power_tex("q", se, 2)
    if q:
        factors.append(q)
    if ve:
        factors.append(_power_tex("v", ve))
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
    return _signed_sum([_monomial_tex(se, ve, sc.terms[(se, ve)])
                        for (se, ve) in sorted(sc.terms)], " + ", " ")


def dual_tex(d: DualElement) -> str:
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
        elif _compound(inner):
            parts.append(r"\left(" + inner + r"\right) " + iotas)
        else:
            parts.append(inner + " " + iotas)
    return _signed_sum(parts, " + ", " ")


class EntryNaming:
    """Names weight-tagged generators by their entry's weight list.

    The first weight of an entry keeps the bare letter, the second gets
    a tilde, and any further ones get a numeric superscript, matching
    the two-term convention used for split entries.
    """

    def __init__(self, pattern: dict):
        self._rank = {(i, k, mask): pos for (i, k), masks in pattern.items()
                      for pos, mask in enumerate(masks)}

    def symbol_tex(self, g: GenSymbol) -> str:
        """The LaTeX name of a symbol of T; one outside the pattern raises
        KeyError."""
        letter = _FAMILY_TEX[g.family]
        pos = self._rank[(g.i, g.k, g.mask)]
        if pos == 1:
            letter = r"\tilde{%s}" % letter
        elif pos > 1:
            letter = "%s^{(%d)}" % (letter, pos)
        prime = "'" * g.copy
        return "%s_{%d%d}%s" % (letter, g.i, g.k, prime)


def poly_tex(p: NCPoly, symbol_tex, coeff_tex) -> str:
    """LaTeX of p with symbols written by ``symbol_tex`` (such as
    ``EntryNaming.symbol_tex``) and coefficients by ``coeff_tex`` (such
    as ``dual_tex``)."""
    parts = []
    for w in sorted(p.terms, key=word_key):
        coeff = coeff_tex(p.terms[w])
        word = r" \, ".join(symbol_tex(g) for g in w)
        if not word:
            parts.append(coeff)
        elif coeff == "1":
            parts.append(word)
        elif coeff == "-1":
            parts.append("-" + word)
        elif _compound(coeff):
            parts.append(r"\left(" + coeff + r"\right) \, " + word)
        else:
            parts.append(coeff + r" \, " + word)
    return _signed_sum(parts, " + ", " ")


# -- documents


def relations_json(G: QuantumCKGroup) -> dict:
    """Equal symbols and equal coefficients share one fragment object, so
    ``write_json`` writes each of them once."""
    symbol = _memo(symbol_json)
    coeff = _memo(dual_json)
    return {
        **config_json(G.j),
        "symbols": [symbol(g) for g in t_symbols(G.T)],
        "relations": [{"terms": poly_json(p, symbol, coeff), "source": src}
                      for p, src in G.relations().tagged()],
    }


def relations_text(G: QuantumCKGroup) -> str:
    j, rels = G.j, G.relations()
    lines = ["# n=%d j=%s relations=%d" % (j.N, ",".join(signature_json(j)),
                                           len(rels.polys))]
    coeff = _memo(str)
    symbol = _memo(str)
    for p, src in rels.tagged():
        lines.append("[%s] %s = 0" % (src, p.layout(coeff, symbol)))
    return "\n".join(lines) + "\n"


def relations_tex(G: QuantumCKGroup) -> str:
    j, rels = G.j, G.relations()
    symbol = _memo(EntryNaming(G.pattern).symbol_tex)
    coeff = _memo(dual_tex)
    lines = ["%% n=%d j=%s" % (j.N, ",".join(signature_json(j))),
             r"\begin{align*}"]
    for p, src in rels.tagged():
        lines.append("  %s &= 0 && \\text{[%s]} \\\\"
                     % (poly_tex(p, symbol, coeff), src))
    lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"


def tensor_json(T) -> list:
    out = []
    for key in sorted(T.data):
        out.append({"key": list(key), "value": dual_json(T.data[key])})
    return out


def tensor_text(T) -> str:
    lines = ["# tensor N=%d nnz=%d" % (T.N, T.nnz())]
    for key in sorted(T.data):
        lines.append("%s: %s" % (list(key), T.data[key]))
    return "\n".join(lines) + "\n"


def rmatrix_json(G: QuantumCKGroup) -> dict:
    rp, rm = G.l_tables
    return {"config": config_json(G.j), "r": tensor_json(G.R),
            "r_plus": tensor_json(rp), "r_minus": tensor_json(rm),
            "metric": tensor_json(G.C)}


def rmatrix_tex(G: QuantumCKGroup) -> str:
    R = G.R
    lines = [r"  R^{%d%d}_{%d%d} &= %s \\" % (*key, dual_tex(R.data[key]))
             for key in sorted(R.data)]
    return "\n".join([r"\begin{align*}", *lines, r"\end{align*}"]) + "\n"


def rmatrix_text(G: QuantumCKGroup) -> str:
    C = G.C
    lines = ["# braiding tensor", tensor_text(G.R), "# metric"]
    lines += ["C[%d,%d] = %s" % (i, k, C.data[(i, k)]) for i, k in sorted(C.data)]
    return "\n".join(lines) + "\n"


def pattern_json(pattern: dict) -> list:
    """The functional weight pattern, read off the entry weight pattern
    (``QuantumCKGroup.pattern``): a term with a nilpotent weight is
    defined only through the pairing."""
    out = []
    for (i, k) in sorted(pattern):
        out.append({"entry": [i, k],
                    "terms": [{"iota": mask_slots(mask),
                               "pairing_defined": mask != 0}
                              for mask in pattern[(i, k)]]})
    return out


def pattern_text(pattern: dict) -> str:
    """``pattern_json`` as text: the inverted slot weights of each term,
    and * on the pairing-defined ones."""
    lines = []
    for (i, k) in sorted(pattern):
        terms = []
        for pos, mask in enumerate(pattern[(i, k)]):
            letter = "l" if pos == 0 else ("l~" if pos == 1 else "l(%d)" % pos)
            weight = "".join("j%d^-1" % s for s in mask_slots(mask))
            mark = "*" if mask else ""
            terms.append("%s%s[%d,%d]%s" % (weight and weight + " ",
                                            letter, i, k, mark))
        lines.append("L[%d,%d] = %s" % (i, k, " + ".join(terms)))
    return "\n".join(lines) + "\n"


# The functional weight pattern is the entry weight pattern, and the
# degree-one value tables of the two functional families are the two halves
# of the braiding, L+- (``QuantumCKGroup.l_tables``).
_DUAL_FAMILIES = ("upper", "lower")


def dual_doc(G: QuantumCKGroup) -> dict:
    return {"config": config_json(G.j),
            "pattern": pattern_json(G.pattern),
            "tables": {family: [{"functional": [i, jj], "entry": [k, l],
                                 "value": dual_json(val)}
                                for (i, k, jj, l), val in sorted(L.data.items())]
                       for family, L in zip(_DUAL_FAMILIES, G.l_tables)}}


def dual_text(G: QuantumCKGroup) -> str:
    lines = ["# formal functional weight pattern "
             "(* marks inverted-weight terms defined only through the pairing)",
             pattern_text(G.pattern), "# degree-one pairing tables"]
    for family, L in zip(_DUAL_FAMILIES, G.l_tables):
        for (i, k, jj, l), val in sorted(L.data.items()):
            lines.append("<%s[%d,%d], t[%d,%d]> = %s" % (family, i, jj, k, l, val))
    return "\n".join(lines) + "\n"


# -- JSON writer


def _shared_containers(doc) -> set:
    """ids of the containers that occur more than once in doc."""
    seen, shared = set(), set()
    stack = [doc]
    while stack:
        o = stack.pop()
        if isinstance(o, dict):
            children = o.values()
        elif isinstance(o, (list, tuple)):
            children = o
        else:
            continue
        if id(o) in seen:
            shared.add(id(o))
        else:
            seen.add(id(o))
            stack.extend(children)
    return shared


# The document and each container directly inside it are written member by
# member; anything deeper is formed as one string.
_STREAM_DEPTH = 2


def write_json(doc, out) -> None:
    """Write exactly the text of the standard ``json`` module's
    ``dumps(doc, sort_keys=True, indent=2)`` to the text stream ``out``.

    The one JSON writer of ckq.  The top-level container goes out one
    member at a time, and so does each container directly inside it, so
    the whole text of a large document is never held at once.  A container
    that occurs more than once in doc is never streamed: it is written once
    per depth and its text reused, for this call only; the emitters share
    one fragment per distinct coefficient and symbol.  Keys must be str and
    numbers int: a float or a non-str key raises TypeError instead of being
    written, and what was written before it stays written.
    """
    shared = _shared_containers(doc)
    memo = {}

    def key(k):
        if not isinstance(k, str):
            raise TypeError("JSON keys must be str, not %s" % type(k).__name__)
        return _json_str(k) + ": "

    def write(o, depth):
        if isinstance(o, str):
            return _json_str(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if not isinstance(o, (dict, list, tuple)):
            raise TypeError("Object of type %s is not JSON serializable"
                            % type(o).__name__)
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        if id(o) in shared:
            text = memo.get((id(o), depth))
            if text is not None:
                return text
        sep = ",\n" + "  " * (depth + 1)
        if isinstance(o, dict):
            parts = [key(k) + write(o[k], depth + 1) for k in sorted(o)]
            text = "{" + sep[1:] + sep.join(parts) + "\n" + "  " * depth + "}"
        else:
            text = ("[" + sep[1:] + sep.join([write(v, depth + 1) for v in o])
                    + "\n" + "  " * depth + "]")
        if id(o) in shared:
            memo[(id(o), depth)] = text
        return text

    def stream(head, o, depth):
        """Write head, then o at depth."""
        if (depth >= _STREAM_DEPTH or not isinstance(o, (dict, list, tuple))
                or not o or id(o) in shared):
            out.write(head + write(o, depth))
            return
        if isinstance(o, dict):
            members, brackets = [(key(k), o[k]) for k in sorted(o)], "{}"
        else:
            members, brackets = [("", v) for v in o], "[]"
        sep = ",\n" + "  " * (depth + 1)
        head += brackets[0] + sep[1:]
        for name, v in members:
            stream(head + name, v, depth + 1)
            head = sep
        out.write("\n" + "  " * depth + brackets[1])

    stream("", doc, 0)
