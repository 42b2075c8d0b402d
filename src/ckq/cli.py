"""Command line front end.

Subcommands
    relations   emit the defining relation set of the quantum matrix algebra
    rmatrix     emit the contracted braiding tensor, its triangular halves,
                and the metric
    classical   run the commutative-limit matrix-group suite
    dual        emit the degree-one pairing tables and the formal weight
                pattern of the functional generators
    verify      run named verification suites and report PASS / FAIL /
                INCONCLUSIVE / ERROR per check

Exit codes: 0 all checks pass, 1 at least one check fails or crashes
(ERROR), 2 usage error, 3 no failure but at least one inconclusive check
(a certificate cites a polynomial that is not a generator of the emitted
ideal).

Each command reads R, C, T and the relations from one ``QuantumCKGroup``,
which builds each of them on first use.  ``verify`` deals the suites out to
its worker processes in turn (serial is one worker); each worker builds one
group and, for the dual-side suites, one ``DualPairing`` on it, and every
suite takes one of these two objects.

All output is byte-deterministic for a fixed command line: every container
is sorted before emission and nothing depends on hash order.
"""

import argparse
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor

from . import ckclassical, qdual, qgroup, render, rmatrix
from .coeffring import JSignature

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

SUITES = ("ybe", "cubic", "projector", "classical", "coassoc", "counit",
          "coproduct", "antipode", "contraction", "exchange", "metric",
          "pairing")
DUAL_SUITES = ("exchange", "metric", "pairing")  # take a qdual.DualPairing

FORMATS = ("text", "json", "latex")


class UsageError(Exception):
    pass


def _parse_signature(raw: str | None, N: int) -> JSignature:
    if raw is None:
        raw = ",".join(["1"] * (N - 1))
    try:
        j = JSignature.parse(raw)
    except ValueError as exc:
        raise UsageError(str(exc))
    if j.N != N:
        raise UsageError("signature %r has %d slots, need %d for --n %d"
                         % (raw, j.n, N - 1, N))
    return j


def _check_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError("%s must be at least %d, got %d" % (name, low, value))


# entry_words yields N^(2*degree) functional words per family pair; the
# largest admitted case is N=5 at degree 3.
MAX_WORDS_PER_PAIR = 5 ** 6


def _check_degree(N: int, degree: int) -> None:
    _check_at_least("--degree", degree, 0)
    words = N ** (2 * degree)
    if words > MAX_WORDS_PER_PAIR:
        raise UsageError("--degree %d at --n %d gives %d words per family "
                         "pair, more than %d" % (degree, N, words,
                                                 MAX_WORDS_PER_PAIR))


def _write(ns, payload: str) -> None:
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _config(ns, j: JSignature) -> dict:
    return {"n": ns.n, "j": render.signature_json(j)}


# ----------------------------------------------------------- subcommands


def cmd_relations(ns) -> int:
    j = _parse_signature(ns.j, ns.n)
    rels = qgroup.QuantumCKGroup(j).relations()
    if ns.format == "json":
        _write(ns, _json_doc(render.relations_json(j, rels)))
    elif ns.format == "latex":
        _write(ns, render.relations_tex(j, rels))
    else:
        _write(ns, render.relations_text(j, rels))
    return EXIT_PASS


def cmd_rmatrix(ns) -> int:
    j = _parse_signature(ns.j, ns.n)
    G = qgroup.QuantumCKGroup(j)
    R, C = G.R, G.C
    rp, rm = rmatrix.r_plus_minus(R)
    if ns.format == "json":
        doc = {"config": _config(ns, j),
               "r": render.tensor_json(R),
               "r_plus": render.tensor_json(rp),
               "r_minus": render.tensor_json(rm),
               "metric": render.matrix_json(C)}
        _write(ns, _json_doc(doc))
    elif ns.format == "latex":
        lines = [r"\begin{align*}"]
        for key in sorted(R.data):
            lines.append(r"  R^{%d%d}_{%d%d} &= %s \\"
                         % (key[0], key[1], key[2], key[3],
                            render.dual_tex(R.data[key])))
        lines.append(r"\end{align*}")
        _write(ns, "\n".join(lines) + "\n")
    else:
        parts = ["# braiding tensor", render.tensor_text(R),
                 "# metric"]
        for i in range(1, ns.n + 1):
            for k in range(1, ns.n + 1):
                e = C.entry(i, k)
                if e:
                    parts.append("C[%d,%d] = %s" % (i, k, e))
        _write(ns, "\n".join(parts) + "\n")
    return EXIT_PASS


def _classical_report(j: JSignature, samples: int, seed: int) -> dict:
    rng = random.Random(seed)
    mats = [ckclassical.random_cayley(j, rng) for _ in range(samples)]
    orthogonal = sum(1 for A in mats if ckclassical.is_j_orthogonal(A))
    closed = 0
    pairs = 0
    for idx in range(0, len(mats) - 1, 2):
        pairs += 1
        if ckclassical.is_j_orthogonal(mats[idx] @ mats[idx + 1]):
            closed += 1
    ok = orthogonal == samples and closed == pairs
    return {"ok": ok, "samples": samples, "orthogonal": orthogonal,
            "product_pairs": pairs, "products_orthogonal": closed,
            "seed": seed}


def cmd_classical(ns) -> int:
    j = _parse_signature(ns.j, ns.n)
    _check_at_least("--samples", ns.samples, 0)
    report = _classical_report(j, ns.samples, ns.seed)
    doc = {"config": _config(ns, j), "report": report}
    if ns.format == "json":
        _write(ns, _json_doc(doc))
    else:
        lines = ["%s: %s" % (k, report[k]) for k in sorted(report)]
        _write(ns, "\n".join(lines) + "\n")
    return EXIT_PASS if report["ok"] else EXIT_FAIL


def cmd_dual(ns) -> int:
    j = _parse_signature(ns.j, ns.n)
    G = qgroup.QuantumCKGroup(j)
    ctx = qdual.DualPairing(G)
    pattern = qdual.formal_l_pattern(j)
    tables = {family: sorted(ctx.degree_one(family).items())
              for family in ("upper", "lower")}
    if ns.format == "json":
        doc = {"config": _config(ns, j),
               "pattern": render.pattern_json(pattern),
               "tables": {family: [{"functional": [i, jj], "entry": [k, l],
                                    "value": render.dual_json(val)}
                                   for (i, k, jj, l), val in rows]
                          for family, rows in tables.items()}}
        _write(ns, _json_doc(doc))
    else:
        parts = ["# formal functional weight pattern "
                 "(* marks inverted-weight terms defined only through the pairing)",
                 render.pattern_text(pattern), "# degree-one pairing tables"]
        for family, rows in tables.items():
            for (i, k, jj, l), val in rows:
                parts.append("<%s[%d,%d], t[%d,%d]> = %s"
                             % (family, i, jj, k, l, val))
        _write(ns, "\n".join(parts) + "\n")
    return EXIT_PASS


# ---------------------------------------------------------------- verify


def _suite_ybe(G, ns) -> tuple:
    ok = rmatrix.verify_ybe(G.R)
    return ("PASS" if ok else "FAIL",
            "braid relation on %d-dim tensor cube" % G.N)


def _suite_cubic(G, ns) -> tuple:
    ok = rmatrix.verify_cubic(G.R, G.j)
    return ("PASS" if ok else "FAIL", "minimal polynomial of braided swap")


def _suite_projector(G, ns) -> tuple:
    ok = rmatrix.projector_check(G.R, G.C, G.j)
    return ("PASS" if ok else "FAIL", "rank-one factor of the cubic")


def _suite_classical(G, ns) -> tuple:
    report = _classical_report(G.j, ns.samples, ns.seed)
    return ("PASS" if report["ok"] else "FAIL",
            "%d/%d orthogonal, %d/%d products closed"
            % (report["orthogonal"], report["samples"],
               report["products_orthogonal"], report["product_pairs"]))


def _suite_coassoc(G, ns) -> tuple:
    ok = qgroup.verify_coassociativity(G.N)
    return ("PASS" if ok else "FAIL", "coproduct associativity on generators")


def _suite_counit(G, ns) -> tuple:
    ok = qgroup.verify_counit_axioms(G.N)
    ok = ok and qgroup.counit_annihilates(G.relations())
    return ("PASS" if ok else "FAIL",
            "counit axioms and vanishing on relations")


def _suite_coproduct(G, ns) -> tuple:
    ok = qgroup.verify_coproduct_assembly(G)
    detail = "two-copy assembly"
    if ok:
        report = qgroup.verify_delta_compat(G)
        ok = report["ok"]
        detail = "two-copy assembly, %d ideal certificates" % report["components"]
    return ("PASS" if ok else "FAIL", detail)


def _suite_antipode(G, ns) -> tuple:
    report = qgroup.verify_antipode(G)
    refuted = report["s_squared_refuted"]
    if refuted:
        return ("FAIL", "S^2 is not q^(2 rho)-conjugation at %d of %d entries"
                % (len(refuted), G.N ** 2))
    if report["ok"]:
        return ("PASS", "S(T)T - I = C L and TS(T) - I = M C^-1, all %d "
                        "cofactor entries are relations; S^2 = q^(2 rho)-"
                        "conjugation on all %d entries"
                % (report["entries"], G.N ** 2))
    return ("INCONCLUSIVE", "%d of %d cofactor entries are not relations"
            % (len(report["uncertified"]), report["entries"]))


def _suite_contraction(G, ns) -> tuple:
    ok = qgroup.contraction_commutes(G)
    return ("PASS" if ok else "FAIL",
            "specializing symbolic relations matches direct generation")


def _suite_exchange(ctx, ns) -> tuple:
    report = qdual.verify_ll(ctx, degree=ns.degree)
    return ("PASS" if report["ok"] else "FAIL",
            "%d exchange identities" % report["identities"])


def _suite_metric(ctx, ns) -> tuple:
    report = qdual.verify_l_additional(ctx, degree=ns.degree)
    return ("PASS" if report["ok"] else "FAIL",
            "%d metric and diagonal identities" % report["identities"])


def _suite_pairing(ctx, ns) -> tuple:
    report = qdual.relations_pair_to_zero(ctx, max_len=ns.degree)
    ok = report["ok"]
    detail = ("%d relation evaluations on functional words of length <= %d"
              % (report["checked"], ns.degree))
    if ok:
        anti = qdual.verify_antipode_duality(ctx)
        ok = anti["ok"]
        detail += ", %d antipode transposes" % anti["checked"]
    return ("PASS" if ok else "FAIL", detail)


_SUITE_FN = {
    "ybe": _suite_ybe,
    "cubic": _suite_cubic,
    "projector": _suite_projector,
    "classical": _suite_classical,
    "coassoc": _suite_coassoc,
    "counit": _suite_counit,
    "coproduct": _suite_coproduct,
    "antipode": _suite_antipode,
    "contraction": _suite_contraction,
    "exchange": _suite_exchange,
    "metric": _suite_metric,
    "pairing": _suite_pairing,
}


def _parse_suites(raw: str) -> list:
    names = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "all":
            for s in SUITES:
                if s not in names:
                    names.append(s)
            continue
        if token not in _SUITE_FN:
            raise UsageError("unknown suite %r (choose from %s, or all)"
                             % (token, ", ".join(SUITES)))
        if token not in names:
            names.append(token)
    if not names:
        raise UsageError("no suites requested")
    return names


def _run_chunk(args: tuple) -> list:
    """Run suites in order on one group, which builds R, C, T and the
    relations as they are first read, and one pairing context, built by
    the first dual-side suite."""
    names, j, ns = args
    G, ctx = qgroup.QuantumCKGroup(j), None
    results = []
    for name in names:
        try:
            if name in DUAL_SUITES:
                ctx = ctx or qdual.DualPairing(G)
            status, detail = _SUITE_FN[name](
                ctx if name in DUAL_SUITES else G, ns)
        except Exception as exc:  # a crash is neither a pass nor a refutation
            status, detail = "ERROR", "%s: %s" % (type(exc).__name__, exc)
        results.append((name, status, detail))
    return results


def cmd_verify(ns) -> int:
    j = _parse_signature(ns.j, ns.n)
    names = _parse_suites(ns.suite)
    _check_degree(ns.n, ns.degree)
    _check_at_least("--samples", ns.samples, 0)
    _check_at_least("--jobs", ns.jobs, 1)
    # suites dealt out to the workers in turn, so the costly ones late in
    # SUITES spread across them; serial is one chunk
    chunks = min(ns.jobs, len(names))
    work = [(names[k::chunks], j, ns) for k in range(chunks)]
    if chunks > 1:
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            parts = list(pool.map(_run_chunk, work))
    else:
        parts = [_run_chunk(work[0])]
    # suite i ran as entry i // chunks of chunk i % chunks
    results = [parts[i % chunks][i // chunks] for i in range(len(names))]
    if ns.format == "json":
        doc = {"config": _config(ns, j),
               "results": [{"suite": nm, "status": st, "detail": dt}
                           for nm, st, dt in results]}
        _write(ns, _json_doc(doc))
    else:
        width = max(len(nm) for nm, _, _ in results)
        lines = ["%-*s  %-12s  %s" % (width, nm, st, dt)
                 for nm, st, dt in results]
        _write(ns, "\n".join(lines) + "\n")
    statuses = {st for _, st, _ in results}
    if "FAIL" in statuses or "ERROR" in statuses:
        return EXIT_FAIL
    if "INCONCLUSIVE" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


# ----------------------------------------------------------------- main


def _add_common(sub, with_format=True):
    sub.add_argument("--n", type=int, choices=(3, 4, 5), default=3,
                     help="matrix size (3-5)")
    sub.add_argument("--j", type=str, default=None,
                     help="contraction signature, e.g. iota,1 (default all 1)")
    if with_format:
        sub.add_argument("--format", choices=FORMATS, default="text")
    sub.add_argument("--out", type=str, default=None,
                     help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckq",
        description="Exact quantum orthogonal Cayley-Klein groups: "
                    "relations, braiding data, dual pairing, verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("relations", help="emit the defining relations")
    _add_common(p)
    p.set_defaults(fn=cmd_relations)

    p = subs.add_parser("rmatrix", help="emit braiding tensor and metric")
    _add_common(p)
    p.set_defaults(fn=cmd_rmatrix)

    p = subs.add_parser("classical", help="commutative-limit group suite")
    _add_common(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=20240)
    p.set_defaults(fn=cmd_classical)

    p = subs.add_parser("dual", help="emit pairing tables and weight pattern")
    _add_common(p)
    p.set_defaults(fn=cmd_dual)

    p = subs.add_parser("verify", help="run verification suites")
    _add_common(p)
    p.add_argument("--suite", type=str, default="all",
                   help="comma list of suites, or all: %s" % ", ".join(SUITES))
    p.add_argument("--degree", type=int, default=2,
                   help="word length bound for dual-side suites "
                        "(N^(2*degree) at most %d; pairing walks "
                        "(N(N+1))^degree words, about a minute at N=3 "
                        "degree 4 and N=5 degree 3)" % MAX_WORDS_PER_PAIR)
    p.add_argument("--jobs", type=int,
                   default=int(os.environ.get("CKQ_JOBS", "1")),
                   help="worker processes; suites are dealt out to them "
                        "in turn (env CKQ_JOBS)")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except UsageError as exc:
        print("ckq: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
