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
(ERROR), 2 usage error (also an --out that cannot be written), 3 no failure
but at least one inconclusive check (a certificate cites a polynomial that
is not a generator of the emitted ideal).

Each command reads the weight pattern, R, C, T, L+- and the relations from
one ``QuantumCKGroup``, which builds each of them on first use.
``relations``, ``rmatrix`` and ``dual`` are one command, ``cmd_emit``, and
a new emitted document is one row of ``_EMITTERS``.  ``verify`` deals the suites out to its worker processes in turn
(serial is one worker); each worker builds one group, and every suite takes
it, the dual-side suites included.

All output is byte-deterministic for a fixed command line: every container
is sorted before emission and nothing depends on hash order.  JSON documents
are written by ``render.write_json``, straight to --out or standard output.
"""

import argparse
import os
import random
import sys

from . import ckclassical, qdual, qgroup, render, rmatrix
from .coeffring import JSignature

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

FORMATS = ("text", "json")
LATEX_FORMATS = FORMATS + ("latex",)  # relations and rmatrix also write LaTeX


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


# pairing walks (N(N+1))^degree functional words; the largest admitted
# cases are N=3 at degree 4 and N=5 at degree 3.
MAX_FUNCTIONAL_WORDS = 30 ** 3


def _check_degree(N: int, degree: int) -> None:
    _check_at_least("--degree", degree, 0)
    words = 1
    for _ in range(degree):  # stops at the bound, so no large power is formed
        words *= N * (N + 1)
        if words > MAX_FUNCTIONAL_WORDS:
            raise UsageError("--degree %d at --n %d walks more than %d "
                             "functional words" % (degree, N,
                                                   MAX_FUNCTIONAL_WORDS))


def _check_out(path: str) -> None:
    """--out must name a file in a writable directory; checked before any
    work is done."""
    parent = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise UsageError("cannot write --out %s: %s is not a writable "
                         "directory" % (path, parent))
    if os.path.isdir(path):
        raise UsageError("cannot write --out %s: it is a directory" % path)


def _write(ns, payload) -> None:
    """Write payload to --out, or else to the standard output of the moment:
    a str as it is, a JSON document (a dict) through ``render.write_json``
    and then a newline."""
    def put(out):
        if isinstance(payload, str):
            out.write(payload)
        else:
            render.write_json(payload, out)
            out.write("\n")
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                put(fh)
        except OSError as exc:
            raise UsageError("cannot write --out %s: %s"
                             % (ns.out, exc.strerror or exc))
    else:
        try:
            put(sys.stdout)
        except BrokenPipeError:
            # the reader stopped early (say `| head`): the rest, and the
            # final flush at exit, go to the null device, and the exit code
            # is still the command's
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# -- subcommands


# (command, --format) -> the render function that builds the document the
# command writes from its group; a command's --format choices are its rows
_EMITTERS = {
    ("relations", "text"): render.relations_text,
    ("relations", "json"): render.relations_json,
    ("relations", "latex"): render.relations_tex,
    ("rmatrix", "text"): render.rmatrix_text,
    ("rmatrix", "json"): render.rmatrix_json,
    ("rmatrix", "latex"): render.rmatrix_tex,
    ("dual", "text"): render.dual_text,
    ("dual", "json"): render.dual_doc,
}


def cmd_emit(ns) -> int:
    j = _parse_signature(ns.j, ns.n)
    # no name holds the group: it, its dot table and the relation set are
    # freed once the document is built, before it is written, so the
    # command never holds both at its peak
    _write(ns, _EMITTERS[ns.command, ns.format](qgroup.QuantumCKGroup(j)))
    return EXIT_PASS


def _classical_report(j: JSignature, samples: int, seed: int) -> dict:
    """Draw the samples one at a time, check each, and multiply samples
    2k and 2k+1, so at most two are held whatever ``samples`` is."""
    rng = random.Random(seed)
    orthogonal = closed = 0
    prev = None
    for _ in range(samples):
        A = ckclassical.random_cayley(j, rng)
        orthogonal += ckclassical.is_j_orthogonal(A)
        if prev is None:
            prev = A
        else:
            closed += ckclassical.is_j_orthogonal(prev @ A)
            prev = None
    pairs = samples // 2
    ok = orthogonal == samples and closed == pairs
    return {"ok": ok, "samples": samples, "orthogonal": orthogonal,
            "product_pairs": pairs, "products_orthogonal": closed,
            "seed": seed}


def cmd_classical(ns) -> int:
    j = _parse_signature(ns.j, ns.n)
    _check_at_least("--samples", ns.samples, 1)
    report = _classical_report(j, ns.samples, ns.seed)
    doc = {"config": render.config_json(j), "report": report}
    if ns.format == "json":
        _write(ns, doc)
    else:
        lines = ["%s: %s" % (k, report[k]) for k in sorted(report)]
        _write(ns, "\n".join(lines) + "\n")
    return EXIT_PASS if report["ok"] else EXIT_FAIL


# -- verify


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


def _suite_exchange(G, ns) -> tuple:
    report = qdual.verify_ll(G, degree=ns.degree)
    return ("PASS" if report["ok"] else "FAIL",
            "%d exchange identities" % report["identities"])


def _suite_metric(G, ns) -> tuple:
    report = qdual.verify_l_additional(G, degree=ns.degree)
    return ("PASS" if report["ok"] else "FAIL",
            "%d metric and diagonal identities" % report["identities"])


def _suite_pairing(G, ns) -> tuple:
    report = qdual.relations_pair_to_zero(G, max_len=ns.degree)
    ok = report["ok"]
    detail = ("%d relation evaluations on functional words of length <= %d"
              % (report["checked"], ns.degree))
    if ok:
        anti = qdual.verify_antipode_duality(G)
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
SUITES = tuple(_SUITE_FN)


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
    """Run suites in order on one group, which builds R, C, T, the
    relations and the pairing's memo as they are first read."""
    names, j, ns = args
    G = qgroup.QuantumCKGroup(j)
    results = []
    for name in names:
        try:
            status, detail = _SUITE_FN[name](G, ns)
        except Exception as exc:  # a crash is neither a pass nor a refutation
            status, detail = "ERROR", "%s: %s" % (type(exc).__name__, exc)
        results.append((name, status, detail))
    return results


def cmd_verify(ns) -> int:
    j = _parse_signature(ns.j, ns.n)
    names = _parse_suites(ns.suite)
    _check_degree(ns.n, ns.degree)
    _check_at_least("--samples", ns.samples, 1)
    _check_at_least("--jobs", ns.jobs, 1)
    # suites dealt out to the workers in turn, so the costly ones late in
    # SUITES spread across them; serial is one chunk
    chunks = min(ns.jobs, len(names))
    work = [(names[k::chunks], j, ns) for k in range(chunks)]
    if chunks > 1:
        # imported here: the pool costs every serial run its import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            parts = list(pool.map(_run_chunk, work))
    else:
        parts = [_run_chunk(work[0])]
    # suite i ran as entry i // chunks of chunk i % chunks
    results = [parts[i % chunks][i // chunks] for i in range(len(names))]
    if ns.format == "json":
        doc = {"config": render.config_json(j),
               "results": [{"suite": nm, "status": st, "detail": dt}
                           for nm, st, dt in results]}
        _write(ns, doc)
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


# -- main


def _add_common(sub, formats=FORMATS):
    sub.add_argument("--n", type=int, choices=(3, 4, 5), default=3,
                     help="matrix size (3-5)")
    sub.add_argument("--j", type=str, default=None,
                     help="contraction signature, e.g. iota,1 (default all 1)")
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--out", type=str, default=None,
                     help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckq",
        description="Exact quantum orthogonal Cayley-Klein groups: "
                    "relations, braiding data, dual pairing, verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("relations", help="emit the defining relations")
    _add_common(p, LATEX_FORMATS)
    p.set_defaults(fn=cmd_emit)

    p = subs.add_parser("rmatrix", help="emit braiding tensor and metric")
    _add_common(p, LATEX_FORMATS)
    p.set_defaults(fn=cmd_emit)

    p = subs.add_parser("classical", help="commutative-limit group suite")
    _add_common(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=20240)
    p.set_defaults(fn=cmd_classical)

    p = subs.add_parser("dual", help="emit pairing tables and weight pattern")
    _add_common(p)
    p.set_defaults(fn=cmd_emit)

    p = subs.add_parser("verify", help="run verification suites")
    _add_common(p)
    p.add_argument("--suite", type=str, default="all",
                   help="comma list of suites, or all: %s" % ", ".join(SUITES))
    p.add_argument("--degree", type=int, default=2,
                   help="word length bound for dual-side suites "
                        "(pairing walks (N(N+1))^degree words, at most "
                        "%d: about 2.5 s at N=3 degree 4 and 5 s at N=5 "
                        "degree 3)" % MAX_FUNCTIONAL_WORDS)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; suites are dealt out to them "
                        "in turn")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error or --help
        return exc.code
    try:
        if ns.out:
            _check_out(ns.out)
        return ns.fn(ns)
    except UsageError as exc:
        print("ckq: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
