"""Workloads of the ckq benchmark: each is a list of ``ckq`` command lines.

Every job is one command line run through ``ckq.cli.main`` in a fresh
worker.  ``expect`` says how its output is checked:

* a verify job must exit 0 and report ``PASS`` for its suite in the JSON
  ``status`` field (the ``detail`` counts are not compared);
* an emit job must exit 0 and its output sha256 must equal the digest
  recorded in ``digests.json``.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

GROUP_SUITES = ("ybe", "cubic", "projector", "classical", "coassoc",
                "counit", "coproduct", "antipode", "contraction")

# End-to-end time of each job class, reported on the workloads where the
# class occurs (see README.md).
CLASS_OF_SUITE = {"pairing": "pairing_s", "exchange": "dual_laws_s",
                  "metric": "dual_laws_s", "coproduct": "coproduct_s",
                  "contraction": "contraction_s", "classical": "classical_s",
                  "antipode": "antipode_s"}

# Wrong verdicts the seed commit is known to give.  A known defect still
# counts as a failed job; it is only kept from marking the run incorrect.
# N=5 iota,1,iota,1 antipode: the rewriting in freealg.reduce_poly is not
# confluent and leaves a nonzero remainder, although the axiom holds.
KNOWN_DEFECTS = {("verify", "5", "iota,1,iota,1", "antipode"): "FAIL"}


def _verify(n, sig, suite, extra=()):
    argv = ["verify", "--n", str(n), "--j", sig, "--suite", suite,
            "--jobs", "1", "--format", "json"] + list(extra)
    return {"argv": argv, "sig": sig, "cls": CLASS_OF_SUITE.get(suite),
            "expect": {"suite": suite, "status": "PASS"},
            "known": KNOWN_DEFECTS.get(("verify", str(n), sig, suite))}


def _emit(command, n, sig, fmt, digests):
    argv = [command, "--n", str(n), "--j", sig, "--format", fmt]
    return {"argv": argv, "sig": sig, "cls": "emit_%s_s" % fmt,
            "expect": {"sha256": digests.get(" ".join(argv))},
            "known": None}


def load_digests():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def duality_n4(seed, digests):
    return [_verify(4, sig, suite)
            for sig in ("1,1,1", "iota,1,iota")
            for suite in ("pairing", "exchange", "metric")]


def group_n5(seed, digests):
    return [_verify(5, sig, suite,
                    ["--seed", str(seed)] if suite == "classical" else ())
            for sig in ("1,1,1,1", "iota,1,iota,1")
            for suite in GROUP_SUITES]


def emit_n5(seed, digests):
    jobs = []
    for sig in ("1,1,1,1", "iota,1,iota,1", "iota,iota,iota,iota"):
        for fmt in ("json", "text", "latex"):
            jobs.append(_emit("relations", 5, sig, fmt, digests))
        jobs.append(_emit("rmatrix", 5, sig, "json", digests))
        jobs.append(_emit("dual", 5, sig, "json", digests))
    return jobs


def selftest_n3(seed, digests):
    """Three tiny jobs, one of each kind; used by the self-test only."""
    return [_verify(3, "1,1", "ybe"),
            _emit("relations", 3, "iota,1", "latex", digests),
            _emit("dual", 3, "iota,1", "json", digests)]


WORKLOADS = {"duality-n4": duality_n4, "group-n5": group_n5,
             "emit-n5": emit_n5, "selftest-n3": selftest_n3}


def jobs(name, seed):
    return WORKLOADS[name](seed, load_digests())
