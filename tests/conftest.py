import random
import zlib
from fractions import Fraction

from ckq.coeffring import Cyclo8, DualElement, JSignature, ScalarExpr
from ckq.freealg import NCPoly

ACCEPTANCE_RESULTS = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> bool:
    ACCEPTANCE_RESULTS.append((name, bool(ok), detail))
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance checks")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        tail = "  (%s)" % detail if detail else ""
        terminalreporter.write_line(
            "%s  %s%s" % ("PASS" if ok else "FAIL", name, tail))


def all_signatures(N):
    """All 2^(N-1) signatures for an N-dimensional space, in binary order."""
    n = N - 1
    return [JSignature([(bits >> k) & 1 == 1 for k in range(n)])
            for bits in range(1 << n)]


def _on_scalars(x, fn):
    """fn applied to every scalar coefficient of x, a ScalarExpr, a
    DualElement or an NCPoly."""
    if isinstance(x, NCPoly):
        return x.map_coeffs(lambda c: _on_scalars(c, fn))
    if isinstance(x, DualElement):
        return DualElement(x.n, {m: fn(s) for m, s in x.terms.items()})
    return fn(x)


def at_v_zero(x):
    """x at v = 0: every coefficient term carrying a power of v dropped."""
    return _on_scalars(x, lambda s: ScalarExpr(
        {e: c for e, c in s.terms.items() if e[1] == 0}))


def at_q_one(x):
    """x at q = 1 (s = 1)."""
    return _on_scalars(x, ScalarExpr.at_q_one)


def rand_cyclo(rng, span=4):
    return Cyclo8(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        rng.randint(-1, 1),
        rng.randint(-1, 1),
    )


def rand_scalar(rng, v_max=1):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        terms[(rng.randint(-4, 4), rng.randint(0, v_max))] = rand_cyclo(rng)
    return ScalarExpr(terms)


def rand_dual(rng, n, v_max=1):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[rng.randrange(1 << n)] = rand_scalar(rng, v_max)
    return DualElement(n, terms)


def rand_unit_dual(rng, n):
    """A random invertible element: monomial body plus nilpotent junk."""
    body = ScalarExpr.s_power(rng.randint(-3, 3), Fraction(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 2)))
    d = DualElement.scalar(n, body)
    junk = rand_dual(rng, n)
    return d + DualElement(n, {m: s for m, s in junk.terms.items() if m})


def seeded(name):
    return random.Random(zlib.crc32(name.encode()))
