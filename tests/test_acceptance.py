"""End-to-end acceptance gate.

Each test covers one acceptance item and registers a PASS/FAIL line that
the conftest terminal-summary hook prints after the run.  Everything is
exact: no tolerances, no floating point anywhere.
"""

import os
import subprocess
import sys
import time

from conftest import all_signatures, at_q_one, at_v_zero, record_acceptance

from ckq import ckclassical as ck
from ckq import qgroup, render
from ckq.coeffring import JSignature
from ckq.freealg import NCPoly
from ckq.qdual import (
    relations_pair_to_zero,
    verify_antipode_duality,
    verify_l_additional,
    verify_ll,
)
from ckq.qgroup import QuantumCKGroup
from ckq.rmatrix import (
    QTensor,
    contract,
    frt_c,
    frt_r,
    projector_check,
    verify_cubic,
    verify_ybe,
)

SIZES = (3, 4, 5)


def _flat(x):
    return at_q_one(at_v_zero(x))


def _abelianized(p: NCPoly) -> NCPoly:
    out = {}
    for w, c in p.terms.items():
        key = tuple(sorted(w))
        out[key] = out[key] + c if key in out else c
    return NCPoly(p.n, out)


def test_01_braid_identity_symbolic_and_all_contractions():
    t0 = time.time()
    failures = []
    for N in SIZES:
        R = frt_r(N)
        if not verify_ybe(R):
            failures.append("symbolic N=%d" % N)
        for j in all_signatures(N):
            if not verify_ybe(contract(R, j)):
                failures.append("N=%d %s" % (N, j))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    record_acceptance("01 braid identity, sizes 3-5, every signature", ok,
                      "%.1fs" % elapsed)
    assert ok, (failures, elapsed)


def test_02_minimal_polynomial_symbolic_and_all_contractions():
    t0 = time.time()
    failures = []
    for N in SIZES:
        R = frt_r(N)
        if not verify_cubic(R):
            failures.append("symbolic N=%d" % N)
        for j in all_signatures(N):
            if not verify_cubic(contract(R, j), j):
                failures.append("N=%d %s" % (N, j))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    record_acceptance("02 cubic minimal polynomial, sizes 3-5", ok,
                      "%.1fs" % elapsed)
    assert ok, (failures, elapsed)


def test_03_metric_projector_consistency():
    failures = []
    for N in SIZES:
        R, C = frt_r(N), frt_c(N)
        if not projector_check(R, C):
            failures.append("symbolic N=%d" % N)
        for j in all_signatures(N):
            if not projector_check(contract(R, j), contract(C, j), j):
                failures.append("N=%d %s" % (N, j))
    ok = not failures
    record_acceptance("03 metric pins the rank-one projector", ok)
    assert ok, failures


def test_04_classical_group_suite():
    import random
    failures = []
    samples = 100
    for N in SIZES:
        n = N - 1
        D = ck.symplectic_d(N, n)
        C0 = ck.antidiagonal_c0(N, n)
        if D @ C0 @ D.transpose() != QTensor.identity(N, n):
            failures.append("frame change N=%d" % N)
        for j in all_signatures(N):
            rng = random.Random(97 * N + j.iota_mask)
            mats = [ck.random_cayley(j, rng) for _ in range(samples)]
            bad = sum(1 for A in mats if not ck.is_j_orthogonal(A))
            if bad:
                failures.append("orthogonality N=%d %s: %d bad" % (N, j, bad))
            for A in mats[:10]:
                B = ck.to_symplectic(A)
                if B @ C0 @ B.transpose() != C0 or B.transpose() @ C0 @ B != C0:
                    failures.append("symplectic form N=%d %s" % (N, j))
                    break
            for idx in range(samples):
                A1, A2 = mats[idx], mats[(idx + 37) % samples]
                P = A1 @ A2
                if not ck.is_j_orthogonal(P):
                    failures.append("closure N=%d %s" % (N, j))
                    break
                if idx < 10 and ck.to_symplectic(P) != (
                        ck.to_symplectic(A1) @ ck.to_symplectic(A2)):
                    failures.append("homomorphism N=%d %s" % (N, j))
                    break
    ok = not failures
    record_acceptance("04 classical limit group suite, 100 samples each", ok)
    assert ok, failures


def test_05_hopf_axioms():
    failures = []
    for N in SIZES:
        if not qgroup.verify_coassociativity(N):
            failures.append("coassociativity N=%d" % N)
        if not qgroup.verify_counit_axioms(N):
            failures.append("counit N=%d" % N)
        for j in all_signatures(N):
            G = QuantumCKGroup(j)
            if not qgroup.verify_coproduct_assembly(G):
                failures.append("assembly %s" % j)
            if not qgroup.verify_delta_compat(G)["ok"]:
                failures.append("coproduct certificates %s" % j)
            if not qgroup.counit_annihilates(G.relations()):
                failures.append("counit on relations %s" % j)
            if not qgroup.verify_antipode(G)["ok"]:
                failures.append("antipode uncertified %s" % j)
    ok = not failures
    record_acceptance("05 Hopf axioms: coproduct, counit, exact antipode", ok)
    assert ok, failures


def test_06_contraction_commutes_with_generation():
    failures = ["N=%d %s" % (N, j) for N in SIZES for j in all_signatures(N)
                if not qgroup.contraction_commutes(QuantumCKGroup(j))]
    ok = not failures
    record_acceptance("06 contract-then-generate equals generate-then-contract",
                      ok)
    assert ok, failures


def test_07_duality_pairing():
    failures = []
    for N in SIZES:
        for j in all_signatures(N):
            G = QuantumCKGroup(j)
            if not relations_pair_to_zero(G, max_len=2)["ok"]:
                failures.append("relations N=%d %s" % (N, j))
            if not verify_antipode_duality(G)["ok"]:
                failures.append("antipode transpose N=%d %s" % (N, j))
            if not verify_ll(G, degree=2)["ok"]:
                failures.append("exchange N=%d %s" % (N, j))
            if not verify_l_additional(G, degree=2)["ok"]:
                failures.append("metric laws N=%d %s" % (N, j))
    ok = not failures
    record_acceptance("07 dual pairing kills the ideal; exchange and "
                      "metric laws hold", ok)
    assert ok, failures


def test_08_two_term_entry_functional_correspondence():
    failures = []
    for raw in ("iota,1", "iota,iota"):
        j = JSignature.parse(raw)
        pattern = ck.weight_pattern_symplectic(j)
        t_pat = pattern[(1, 2)]
        l_pat = {tuple(e["entry"]): e["terms"]
                 for e in render.pattern_json(pattern)}[(1, 2)]
        if len(t_pat) != 2 or len(l_pat) != 2:
            failures.append("%s: not two terms" % raw)
            continue
        if [t["iota"] for t in l_pat] != [render.mask_slots(m) for m in t_pat]:
            failures.append("%s: masks differ" % raw)
        if not l_pat[-1]["pairing_defined"]:
            failures.append("%s: inverted weight not pairing-defined" % raw)
        syms = {g.mask for (g,) in qgroup.QuantumCKGroup(j).T.get(1, 2).terms}
        if syms != set(t_pat):
            failures.append("%s: entry symbols disagree" % raw)
    ok = not failures
    record_acceptance("08 split entries mirror two-term functionals", ok)
    assert ok, failures


def test_09_cli_output_is_byte_deterministic():
    def run(args, seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run([sys.executable, "-m", "ckq.cli", *args],
                              capture_output=True, env=env)

    failures = []
    for args in (["relations", "--n", "3", "--j", "iota,1", "--format", "json"],
                 ["verify", "--n", "3", "--j", "iota,iota", "--suite",
                  "ybe,cubic", "--format", "json"],
                 ["dual", "--n", "3", "--j", "1,iota"]):
        a = run(args, "0")
        b = run(args, "31337")
        if a.returncode != b.returncode or a.stdout != b.stdout:
            failures.append(" ".join(args))
    ok = not failures
    record_acceptance("09 identical bytes from repeated CLI runs", ok)
    assert ok, failures


def test_10_flat_limit_degenerates_to_classical_layer():
    failures = []
    for N in SIZES:
        R, C = frt_r(N), frt_c(N)
        for j in all_signatures(N):
            Rf = contract(R, j).map_entries(_flat)
            if Rf.data != QTensor.pair(QTensor.identity(N, j.n)).data:
                failures.append("R flat N=%d %s" % (N, j))
            Cf = contract(C, j).map_entries(_flat)
            if Cf != ck.antidiagonal_c0(N, j.n):
                failures.append("metric flat N=%d %s" % (N, j))
    for j in all_signatures(3):
        G = QuantumCKGroup(j)
        for p, src in G.relations().tagged():
            if src == "rtt":
                flat = p.map_coeffs(_flat)
                if not _abelianized(flat).is_zero():
                    failures.append("rtt flat %s" % j)
                    break
        quantum = qgroup.orthogonality_cofactors(G.T, G.C)
        classical = qgroup.orthogonality_cofactors(
            G.T, G.C.map_entries(_flat))
        if [F.map_entries(lambda p: p.map_coeffs(_flat))
                for F in quantum] != list(classical):
            failures.append("orthogonality flat %s" % j)
        for family, table in zip(("upper", "lower"), G.l_tables):
            for (i, k, jj, l), val in table.data.items():
                want_one = i == jj and k == l
                vf = _flat(val)
                if vf != (vf.one(vf.n) if want_one else vf.zero(vf.n)):
                    failures.append("pairing flat %s %s" % (family, j))
                    break
    ok = not failures
    record_acceptance("10 flat limit: identity braiding, classical "
                      "orthogonality, Kronecker pairing", ok)
    assert ok, failures
