import io
import json
import random
from fractions import Fraction

import pytest

from ckq import cli, render
from ckq.coeffring import Cyclo8, JSignature, ScalarExpr
from ckq.freealg import mat_symbol
from ckq.qgroup import QuantumCKGroup, build_t, t_symbols

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
            if sc in seen:
                continue
            seen.add(sc)
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


def test_entry_naming_names_exactly_the_symbols_of_t():
    for N in (3, 4):
        for j in all_signatures(N):
            G = QuantumCKGroup(j)
            naming = render.EntryNaming(G.pattern)
            symbols = t_symbols(G.T) + t_symbols(build_t(G, copy=1))
            assert len({naming.symbol_tex(g) for g in symbols}) == len(symbols)
    naming = render.EntryNaming(QuantumCKGroup(JSignature.parse("iota,iota")).pattern)
    assert naming.symbol_tex(mat_symbol(1, 2, 2)) == r"\tilde{t}_{12}"
    with pytest.raises(KeyError):
        naming.symbol_tex(mat_symbol(2, 2, 1))  # entry (2,2) has weight 0 only


def test_scalar_tex_gap_forms():
    lam = ScalarExpr.lam()
    assert render.scalar_tex(lam) == r"\lambda"
    assert render.scalar_tex(-lam) == r"-\lambda"
    assert render.scalar_tex(lam * ScalarExpr.s_power(-1, Fraction(-3, 2))) \
        == r"-\lambda 3/2 q^{-1/2}"
    assert render.scalar_tex(ScalarExpr.s_power(4) - ScalarExpr.s_power(-4)) \
        == r"-q^{-2} + q^{2}"


# one of every document type ckq writes as JSON
JSON_COMMANDS = [["relations"], ["rmatrix"], ["dual"],
                 ["verify", "--suite", "ybe,cubic"],
                 ["classical", "--samples", "2"]]


@pytest.mark.parametrize("N", [3, 4])
def test_json_text_is_stdlib_dumps_on_every_document(monkeypatch, tmp_path, N):
    written = []
    write_json = render.write_json

    def checked(doc, out):
        buf = io.StringIO()
        write_json(doc, buf)
        text = buf.getvalue()
        assert text == json.dumps(doc, sort_keys=True, indent=2)
        written.append(len(text))
        out.write(text)
    monkeypatch.setattr(render, "write_json", checked)
    for j in all_signatures(N):
        sig = ",".join(render.signature_json(j))
        for command in JSON_COMMANDS:
            argv = command[:1] + ["--n", str(N), "--j", sig, "--format",
                                  "json", "--out", str(tmp_path / "doc.json")]
            assert cli.main(argv + command[1:]) == 0, argv
    assert len(written) == len(JSON_COMMANDS) * len(all_signatures(N))


class _Writes:
    """A text stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_relation_document_is_written_one_relation_at_a_time():
    doc = render.relations_json(QuantumCKGroup(JSignature.parse("iota,1,iota")))
    out = _Writes()
    render.write_json(doc, out)
    assert "".join(out.writes) == json.dumps(doc, sort_keys=True, indent=2)
    # a relation is an element of a member of the document, at depth 2,
    # and goes out with the separator before it (",\n" and its indent)
    longest = max(len(json.dumps(r, sort_keys=True, indent=2)
                      .replace("\n", "\n    ")) for r in doc["relations"])
    assert max(len(w) for w in out.writes) <= longest + len(",\n    ")
    assert len(out.writes) > len(doc["relations"])


def test_relation_documents_share_one_fragment_per_value():
    G = QuantumCKGroup(JSignature.parse("iota,1,iota"))
    rels = G.relations()
    doc = render.relations_json(G)
    terms = [t for r in doc["relations"] for t in r["terms"]]
    coeffs = {id(t["coeff"]) for t in terms}
    symbols = {id(g) for t in terms for g in t["word"]}
    distinct = {c for p in rels for c in p.terms.values()}
    assert len(coeffs) == len(distinct) < len(terms)
    assert symbols <= {id(g) for g in doc["symbols"]}
