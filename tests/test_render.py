import random
from fractions import Fraction

import pytest

from ckq import render
from ckq.coeffring import Cyclo8, ScalarExpr
from ckq.qgroup import QuantumCKGroup

from conftest import all_signatures, rand_cyclo, rand_scalar
from division_oracle import exact_div


def division_scalar_tex(sc):
    """scalar_tex with the gap factor found by dividing by q - q^-1."""
    if sc.is_zero():
        return "0"
    quot = exact_div(sc, ScalarExpr.lam())
    if quot is not None and len(quot.terms) == 1:
        ((se, ve), coef), = quot.terms.items()
        inner = render._monomial_tex(se, ve, coef)
        if inner == "1":
            return r"\lambda"
        if inner == "-1":
            return r"-\lambda"
        if inner.startswith("-"):
            return "-" + r"\lambda " + inner[1:]
        return r"\lambda " + inner
    parts = [render._monomial_tex(se, ve, sc.terms[(se, ve)])
             for (se, ve) in sorted(sc.terms)]
    text = parts[0]
    for p in parts[1:]:
        text += (" " + p) if p.startswith("-") else (" + " + p)
    return text


def relation_scalars(j, contracted):
    for p in QuantumCKGroup(j, contracted=contracted).relations():
        for d in p.terms.values():
            yield from d.terms.values()


@pytest.mark.parametrize("contracted", [True, False])
@pytest.mark.parametrize("N", [3, 4])
def test_scalar_tex_matches_division_on_relations(N, contracted):
    gaps = 0
    for j in all_signatures(N):
        # a contracted signature specializes q, which removes every gap
        gap_free = contracted and any(j.flags)
        seen = set()
        for sc in relation_scalars(j, contracted):
            if sc.key() in seen:
                continue
            seen.add(sc.key())
            text = render.scalar_tex(sc)
            assert text == division_scalar_tex(sc), str(sc)
            assert not (gap_free and r"\lambda" in text)
            gaps += r"\lambda" in text
    assert gaps


def _near_misses(rng):
    c = rand_cyclo(rng) or Cyclo8(1)
    a, b = rng.randint(-6, 6), rng.randint(0, 2)
    other = c + rand_cyclo(rng) if rng.random() < 0.5 else c * 2
    gap = rng.choice([1, 2, 3, 5, 6, 8])
    yield ScalarExpr({(a + 2, b): c, (a - 2, b): -c})
    yield ScalarExpr({(a + 2, b): c, (a - 2, b): -other})
    yield ScalarExpr({(a + gap, b): c, (a, b): -c})
    yield ScalarExpr({(a + 2, b): c, (a - 2, (b + 1) % 3): -c})
    yield ScalarExpr({(a + 2, b): c, (a - 2, b): c})
    yield ScalarExpr({(a + 2, b): c, (a - 2, b): -c, (a + 6, b): c})
    yield ScalarExpr.lam() * rand_scalar(rng)


def test_scalar_tex_matches_division_on_near_misses():
    rng = random.Random(4017)
    for _ in range(300):
        for sc in _near_misses(rng):
            assert render.scalar_tex(sc) == division_scalar_tex(sc), str(sc)


def test_scalar_tex_gap_forms():
    lam = ScalarExpr.lam()
    assert render.scalar_tex(lam) == r"\lambda"
    assert render.scalar_tex(-lam) == r"-\lambda"
    assert render.scalar_tex(lam * ScalarExpr.s_power(-1, Fraction(-3, 2))) \
        == r"-\lambda 3/2 q^{-1/2}"
    assert render.scalar_tex(ScalarExpr.s_power(4) - ScalarExpr.s_power(-4)) \
        == r"-q^{-2} + q^{2}"
