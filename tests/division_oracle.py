"""Exact division of Laurent scalars: a reference for ckq.render.scalar_tex.

``scalar_tex`` finds the factor q - q^-1 by the shape of a scalar's terms.
This oracle finds it by long division instead, so the two agree only if
the shape test is right.
"""

from ckq.coeffring import ScalarExpr


def _exponent_box(sc: ScalarExpr) -> tuple:
    """(min s, max s, min v, max v) over the terms of a nonzero scalar."""
    ss = [se for se, _ in sc.terms]
    vs = [ve for _, ve in sc.terms]
    return min(ss), max(ss), min(vs), max(vs)


def exact_div(x: ScalarExpr, d: ScalarExpr) -> "ScalarExpr | None":
    """Exact quotient x / d, or None when d does not divide x.

    Laurent in s, so s-exponents may go negative; v-exponents may not.
    Long division in the (v, s) lexicographic order yields the quotient's
    terms in strictly decreasing order.  Both coefficient rings
    (Q(i, sqrt2)[v] for powers of s, Laurent polynomials in s for powers
    of v) are domains, so every term of an exact quotient lies in the box
    of s- and v-exponents bounded by the differences of the operands'
    extreme exponents.  The first quotient term outside that box proves
    non-divisibility, and the loop ends within the box size.
    """
    if not d:
        return None
    if not x:
        return ScalarExpr()
    s_lo, s_hi, v_lo, v_hi = _exponent_box(x)
    d_s_lo, d_s_hi, d_v_lo, d_v_hi = _exponent_box(d)
    s_lo, s_hi = s_lo - d_s_lo, s_hi - d_s_hi
    v_lo, v_hi = max(0, v_lo - d_v_lo), v_hi - d_v_hi
    lead = max(d.terms, key=lambda e: (e[1], e[0]))
    lead_inv = d.terms[lead].inverse()
    rem = x
    quo: dict = {}
    while rem:
        (rs, rv) = max(rem.terms, key=lambda e: (e[1], e[0]))
        qe = (rs - lead[0], rv - lead[1])
        if not (s_lo <= qe[0] <= s_hi and v_lo <= qe[1] <= v_hi):
            return None
        qc = rem.terms[(rs, rv)] * lead_inv
        quo[qe] = qc
        rem = rem - ScalarExpr({qe: qc}) * d
    return ScalarExpr(quo)
