"""Command line behaviour: exit codes, formats, byte determinism."""

import argparse
import concurrent.futures
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from ckq import ckclassical, cli, qgroup, rmatrix
from ckq.coeffring import JSignature

import classical_oracle

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, **env_extra):
    env = dict(os.environ)
    env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "ckq.cli", *args],
                          capture_output=True, text=True, env=env)


def test_relations_json_matches_golden(tmp_path):
    out = tmp_path / "rel.json"
    rc = cli.main(["relations", "--n", "3", "--j", "1,1",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "relations_n3_trivial.json").read_bytes()


def test_relations_json_builds_t_once(tmp_path, monkeypatch):
    # the document's symbols are read off the T its relations were built from
    calls = []
    real = qgroup.build_t

    def counted(G, copy=0, atomic=False):
        calls.append((copy, atomic))
        return real(G, copy, atomic)

    monkeypatch.setattr(qgroup, "build_t", counted)
    out = tmp_path / "rel.json"
    assert cli.main(["relations", "--n", "3", "--j", "1,1",
                     "--format", "json", "--out", str(out)]) == 0
    assert calls == [(0, False)]
    assert out.read_bytes() == (GOLDEN / "relations_n3_trivial.json").read_bytes()


def test_relations_latex_matches_golden(tmp_path):
    out = tmp_path / "rel.tex"
    rc = cli.main(["relations", "--n", "3", "--j", "1,1",
                   "--format", "latex", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "relations_n3_trivial.tex").read_bytes()


def test_rmatrix_json_matches_golden(tmp_path):
    out = tmp_path / "rm.json"
    rc = cli.main(["rmatrix", "--n", "3", "--j", "iota,iota",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "rmatrix_n3_iotaiota.json").read_bytes()


# the sha256 of every document the emit-n5 benchmark workload writes
N5_DIGESTS = json.loads((GOLDEN / "emit_n5_sha256.json").read_text())
N5_SIGNATURES = ["1,1,1,1", "iota,1,iota,1", "iota,iota,iota,iota"]
# the sha256 of every emitted document (relations and rmatrix in text, json
# and LaTeX, dual in text and json) at every N=3 and N=4 signature
N34_DIGESTS = json.loads((GOLDEN / "emit_n34_sha256.json").read_text())
N34_SIGNATURES = sorted({(int(key.split()[2]), key.split()[4])
                         for key in N34_DIGESTS})
# the sha256 of verify --format json at every N=3 and N=4 signature, for
# --suite classical,coproduct,contraction, --suite pairing,exchange,metric
# and --suite ybe,cubic,projector,coassoc,counit,antipode; the detail
# counts are part of the bytes
VERIFY_N34_DIGESTS = {
    **json.loads((GOLDEN / "verify_n34_sha256.json").read_text()),
    **json.loads((GOLDEN / "verify_dual_n34_sha256.json").read_text()),
    **json.loads((GOLDEN / "verify_group_n34_sha256.json").read_text())}


def _assert_digests(tmp_path, digests, N, sig, emits):
    for command, fmt in emits:
        argv = [command, "--n", str(N), "--j", sig, "--format", fmt]
        out = tmp_path / (command + "." + fmt)
        assert cli.main(argv + ["--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == digests[" ".join(argv)], " ".join(argv)


@pytest.mark.parametrize("sig", N5_SIGNATURES)
def test_relations_n5_match_golden_digests(tmp_path, sig):
    _assert_digests(tmp_path, N5_DIGESTS, 5, sig,
                    [("relations", fmt) for fmt in ("json", "text", "latex")])


@pytest.mark.parametrize("sig", N5_SIGNATURES)
def test_rmatrix_and_dual_n5_match_golden_digests(tmp_path, sig):
    _assert_digests(tmp_path, N5_DIGESTS, 5, sig,
                    [("rmatrix", "json"), ("dual", "json")])


@pytest.mark.parametrize("N,sig", N34_SIGNATURES)
def test_emit_n3_n4_match_golden_digests(tmp_path, N, sig):
    _assert_digests(tmp_path, N34_DIGESTS, N, sig,
                    [("relations", "json"), ("relations", "text"),
                     ("relations", "latex"), ("rmatrix", "json"),
                     ("rmatrix", "text"), ("rmatrix", "latex"),
                     ("dual", "json"), ("dual", "text")])


@pytest.mark.parametrize("argv", sorted(VERIFY_N34_DIGESTS))
def test_verify_n3_n4_match_golden_digests(tmp_path, argv):
    out = tmp_path / "verify.json"
    assert cli.main(argv.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_N34_DIGESTS[argv]


def test_output_bytes_stable_across_hash_seeds():
    for argv in (
        ["relations", "--n", "3", "--j", "iota,1", "--format", "json"],
        ["relations", "--n", "4", "--j", "iota,1,iota", "--format", "latex"],
        ["relations", "--n", "4", "--j", "iota,1,iota", "--format", "text"],
        ["verify", "--n", "4", "--j", "iota,1,iota",
         "--suite", "contraction,antipode", "--format", "json"],
        # the dot table is keyed by hash
        ["verify", "--n", "4", "--j", "1,1,1",
         "--suite", "pairing,exchange,metric,coproduct", "--format", "json"],
    ):
        a = run_cli(argv, PYTHONHASHSEED="1")
        b = run_cli(argv, PYTHONHASHSEED="4242")
        assert a.returncode == 0 and b.returncode == 0, argv
        assert a.stdout == b.stdout, argv
        assert a.stdout.endswith("\n")


def test_dual_output_stable_across_hash_seeds():
    a = run_cli(["dual", "--n", "3", "--j", "iota,iota", "--format", "json"],
                PYTHONHASHSEED="2")
    b = run_cli(["dual", "--n", "3", "--j", "iota,iota", "--format", "json"],
                PYTHONHASHSEED="77")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert set(doc) == {"config", "pattern", "tables"}
    assert set(doc["tables"]) == {"upper", "lower"}
    # triangular family: upper functionals vanish below the diagonal
    for row in doc["tables"]["upper"]:
        i, jj = row["functional"]
        assert i <= jj
    for row in doc["tables"]["lower"]:
        i, jj = row["functional"]
        assert i >= jj


def test_signature_length_mismatch_exits_2():
    r = run_cli(["verify", "--n", "4", "--j", "iota,1", "--suite", "ybe"])
    assert r.returncode == 2
    assert "slots" in r.stderr


def test_bad_signature_token_exits_2():
    r = run_cli(["relations", "--n", "3", "--j", "iota,zeta"])
    assert r.returncode == 2


def test_unknown_suite_exits_2():
    r = run_cli(["verify", "--n", "3", "--suite", "nonsense"])
    assert r.returncode == 2
    assert "unknown suite" in r.stderr




def test_jobs_environment_variable_is_not_read():
    # --jobs is the one setting for the worker count
    r = run_cli(["relations", "--n", "3"], CKQ_JOBS="abc")
    assert r.returncode == 0, r.stderr


def test_verify_fast_suites_pass_exit_0():
    r = run_cli(["verify", "--n", "3", "--j", "iota,1",
                 "--suite", "ybe,cubic,projector,classical,coassoc,counit"])
    assert r.returncode == 0
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    assert len(lines) == 6
    assert all("PASS" in ln for ln in lines)


def test_verify_json_format_and_jobs_agree():
    serial = run_cli(["verify", "--n", "3", "--j", "iota,iota",
                      "--suite", "ybe,exchange,pairing", "--format", "json"])
    assert serial.returncode == 0
    # two workers take ybe,pairing and exchange; three take one each
    for jobs in ("2", "3"):
        pooled = run_cli(["verify", "--n", "3", "--j", "iota,iota",
                          "--suite", "ybe,exchange,pairing", "--format",
                          "json", "--jobs", jobs])
        assert pooled.returncode == 0 and pooled.stdout == serial.stdout
    doc = json.loads(serial.stdout)
    assert [r["suite"] for r in doc["results"]] == ["ybe", "exchange", "pairing"]
    assert all(r["status"] == "PASS" for r in doc["results"])


def test_suite_all_expands_in_fixed_order():
    names = cli._parse_suites("all")
    assert names == list(cli.SUITES)
    assert cli._parse_suites("cubic,all")[:1] == ["cubic"]
    with pytest.raises(cli.UsageError):
        cli._parse_suites("")


def test_classical_command_runs_and_reports():
    r = run_cli(["classical", "--n", "4", "--j", "1,iota,1",
                 "--samples", "20", "--seed", "7", "--format", "json"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["report"]["orthogonal"] == 20
    assert doc["report"]["products_orthogonal"] == doc["report"]["product_pairs"]


def test_classical_seed_changes_nothing_about_verdict_but_is_recorded():
    a = run_cli(["classical", "--n", "3", "--j", "iota,1", "--samples", "5",
                 "--seed", "1", "--format", "json"])
    b = run_cli(["classical", "--n", "3", "--j", "iota,1", "--samples", "5",
                 "--seed", "2", "--format", "json"])
    assert a.returncode == b.returncode == 0
    assert json.loads(a.stdout)["report"]["seed"] == 1
    assert json.loads(b.stdout)["report"]["seed"] == 2


def _every_third_sample_spoiled(monkeypatch):
    """Make samples 2, 5, 8, ... I + X, which is not orthogonal, so the
    counts depend on which samples are multiplied together."""
    real = ckclassical.cayley
    calls = []

    def cayley(X):
        calls.append(X)
        if len(calls) % 3:
            return real(X)
        return rmatrix.QTensor.identity(X.N, X.n) + X

    monkeypatch.setattr(ckclassical, "cayley", cayley)
    return calls


@pytest.mark.parametrize("spoiled", [False, True], ids=["cayley", "spoiled"])
@pytest.mark.parametrize("spec,samples,seed", [
    ("iota,1", 12, 1), ("1,1", 9, 2), ("1,iota,1", 8, 3)])
def test_classical_report_is_the_list_oracle(monkeypatch, spec, samples, seed, spoiled):
    j = JSignature.parse(spec)
    calls = _every_third_sample_spoiled(monkeypatch) if spoiled else []
    got = cli._classical_report(j, samples, seed)
    calls.clear()  # restart the count, so the oracle spoils the same samples
    want = classical_oracle.classical_report(j, samples, seed)
    assert got == want
    assert got["ok"] is not spoiled


def test_classical_report_memory_does_not_grow_with_samples():
    j = JSignature.parse("iota,1")
    cli._classical_report(j, 2, 5)  # import and cache warm-up

    def traced_peak(samples):
        tracemalloc.start()
        try:
            cli._classical_report(j, samples, 5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(400) <= 2 * traced_peak(20)


def test_relations_text_has_one_line_per_relation():
    r = run_cli(["relations", "--n", "3", "--j", "iota,iota"])
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("# n=3")
    assert "relations=" in lines[0]
    count = int(lines[0].rsplit("=", 1)[1])
    body = [ln for ln in lines[1:] if ln.strip()]
    assert len(body) == count
    assert all(ln.endswith("= 0") for ln in body)
    assert all(ln.startswith("[rtt]") or ln.startswith("[orth]") for ln in body)


def test_missing_subcommand_exits_2():
    r = run_cli([])
    assert r.returncode == 2


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the inputs were checked")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "exchange", "--degree", "-1"],
    ["verify", "--suite", "classical", "--samples", "-1"],
    ["verify", "--suite", "classical", "--samples", "0"],
    ["verify", "--suite", "ybe,cubic", "--jobs", "0"],
    ["classical", "--samples", "-1"],
    ["classical", "--samples", "0"],
    ["verify", "--n", "4", "--suite", "exchange", "--degree", "4"],
    ["verify", "--n", "5", "--suite", "metric", "--degree", "4"],
    ["verify", "--n", "3", "--suite", "pairing", "--degree", "5"],
])
def test_out_of_range_inputs_exit_2_before_any_work(monkeypatch, capsys, argv):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_work)
    monkeypatch.setattr(cli, "_run_chunk", _no_work)
    monkeypatch.setattr(cli, "_classical_report", _no_work)
    # --n 3 unless the case names its own size
    assert cli.main(argv[:1] + ["--n", "3"] + argv[1:]) == 2
    assert argv[-2] in capsys.readouterr().err


RMATRIX_N3_IOTA1_LATEX_SHA256 = (
    "41ade498d1c45539283139000c1ec8f21065f78bdb44a9880c042b30652db46d")


def test_rmatrix_latex_matches_golden_digest(tmp_path):
    out = tmp_path / "rm.tex"
    assert cli.main(["rmatrix", "--n", "3", "--j", "iota,1",
                     "--format", "latex", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RMATRIX_N3_IOTA1_LATEX_SHA256


@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_rmatrix_forms_r_plus_minus_only_for_json(tmp_path, monkeypatch, fmt):
    # text and LaTeX print only R and C, so they neither pay for R+/R-
    # nor fail over them
    def refuse(R, j=None):
        raise ArithmeticError("r_plus_minus formed")

    # the group's L+- tables are the one caller of r_plus_minus
    monkeypatch.setattr(qgroup, "r_plus_minus", refuse)
    argv = ["rmatrix", "--n", "3", "--j", "iota,1", "--format", fmt]
    out = tmp_path / ("rm." + fmt)
    assert cli.main(argv + ["--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == (N34_DIGESTS[" ".join(argv)] if fmt == "text"
                      else RMATRIX_N3_IOTA1_LATEX_SHA256)


def test_emitting_commands_offer_exactly_their_emitter_rows():
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    for command in ("relations", "rmatrix", "dual"):
        fmt = next(a for a in subs.choices[command]._actions
                   if a.dest == "format")
        assert sorted(fmt.choices) == sorted(
            f for c, f in cli._EMITTERS if c == command), command
        assert subs.choices[command].get_default("fn") is cli.cmd_emit
    assert {c for c, _ in cli._EMITTERS} == {"relations", "rmatrix", "dual"}


@pytest.mark.parametrize("command", ["dual", "classical", "verify"])
def test_latex_is_a_usage_error_where_not_written(capsys, command):
    # only relations and rmatrix write LaTeX
    assert cli.main([command, "--n", "3", "--format", "latex"]) == 2
    assert "invalid choice: 'latex'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    ([], 2),                            # no subcommand
    (["relations", "--n", "6"], 2),     # outside the --n choices
    (["verify", "--help"], 0),
])
def test_argparse_exits_are_returned(capsys, argv, code):
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert "usage: ckq" in (captured.err if code else captured.out)


def test_reader_closing_the_pipe_ends_the_output_quietly():
    # 647 kB of JSON, far more than a pipe holds, so the writer meets the
    # closed pipe while it streams the document
    proc = subprocess.Popen([sys.executable, "-m", "ckq.cli", "relations",
                             "--n", "4", "--j", "iota,1,iota", "--format",
                             "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_exits_2_before_any_work(monkeypatch, capsys, tmp_path,
                                                where):
    monkeypatch.setattr(qgroup, "QuantumCKGroup", _no_work)
    out = tmp_path / where  # a missing directory, or a directory itself
    rc = cli.main(["relations", "--n", "3", "--format", "json",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ckq: ") and str(out) in err
    assert err.count("\n") == 1 and not (tmp_path / "missing").exists()


def test_failed_out_write_exits_2_with_one_line(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    out = tmp_path / "x.txt"
    assert cli.main(["classical", "--samples", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "ckq: cannot write --out %s: Permission denied\n" % out


@pytest.mark.parametrize("n,degree", [(3, 4), (4, 3), (5, 3)])
def test_largest_admitted_degrees_reach_the_suites(monkeypatch, n, degree):
    ran = []
    monkeypatch.setattr(cli, "_run_chunk",
                        lambda w: ran.append(w) or [(w[0][0], "PASS", "")])
    argv = ["verify", "--n", str(n), "--suite", "exchange",
            "--degree", str(degree)]
    assert cli.main(argv) == 0
    assert [(w[0], w[2].degree) for w in ran] == [(["exchange"], degree)]


def test_admitted_degrees_are_those_with_at_most_27000_pairing_words(monkeypatch):
    # (N(N+1))^degree <= 30^3: N=3 up to degree 4, N=4 and N=5 up to 3
    monkeypatch.setattr(cli, "_run_chunk",
                        lambda w: [(w[0][0], "PASS", "")])
    admitted = {(n, degree) for n in (3, 4, 5) for degree in range(8)
                if cli.main(["verify", "--n", str(n), "--suite", "exchange",
                             "--degree", str(degree)]) == 0}
    assert admitted == ({(3, d) for d in range(5)} | {(4, d) for d in range(4)}
                        | {(5, d) for d in range(4)})


@pytest.mark.parametrize("degree", [5, 3000, 100000, 10000000])
def test_large_degree_is_refused_at_once_in_one_short_line(capsys, degree):
    t0 = time.perf_counter()
    assert cli.main(["verify", "--n", "3", "--suite", "ybe",
                     "--degree", str(degree)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        "ckq: --degree %d at --n 3 walks more than 27000 functional words\n"
        % degree)


def test_crashing_suite_reports_error_not_fail(monkeypatch, capsys):
    def crash(j, ns):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli._SUITE_FN, "cubic", crash)
    rc = cli.main(["verify", "--n", "3", "--suite", "ybe,cubic",
                   "--jobs", "1", "--format", "json"])
    assert rc == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results == [
        {"suite": "ybe", "status": "PASS",
         "detail": "braid relation on 3-dim tensor cube"},
        {"suite": "cubic", "status": "ERROR",
         "detail": "ZeroDivisionError: boom"}]


def test_uncertified_antipode_reports_inconclusive_exit_3(monkeypatch, capsys):
    # without the orthogonality family no cofactor entry is a generator
    monkeypatch.setattr(qgroup.QuantumCKGroup, "relations",
                        lambda self: qgroup.rtt_relations(self.T, self.R))
    rc = cli.main(["verify", "--n", "3", "--j", "iota,1", "--suite",
                   "antipode", "--jobs", "1"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "INCONCLUSIVE" in out
    assert "18 of 18 cofactor entries" in out


def test_antipode_certificate_mismatch_reports_error(monkeypatch, capsys):
    monkeypatch.setattr(qgroup, "antipode", lambda T, C, table=None: T.transpose())
    rc = cli.main(["verify", "--n", "3", "--j", "iota,1", "--suite",
                   "antipode", "--jobs", "1", "--format", "json"])
    assert rc == 1
    [result] = json.loads(capsys.readouterr().out)["results"]
    assert result["status"] == "ERROR"
    assert result["detail"].startswith("ArithmeticError: certificate mismatch")


def test_metric_not_an_involution_reports_error(monkeypatch, capsys):
    # C^(-1) is read as C, so a metric that does not square to I must stop
    # the suite instead of passing on the wrong inverse
    monkeypatch.setattr(qgroup, "frt_c", lambda N: rmatrix.frt_c(
        N).map_entries(lambda e: e + e))
    rc = cli.main(["verify", "--n", "3", "--j", "iota,1", "--suite",
                   "antipode", "--jobs", "1", "--format", "json"])
    assert rc == 1
    [result] = json.loads(capsys.readouterr().out)["results"]
    assert result["status"] == "ERROR"
    assert result["detail"] == ("ArithmeticError: the metric is not an "
                                "involution")


def test_wrong_s_squared_shift_reports_fail_exit_1(monkeypatch, capsys):
    # S^2 = q^(2 rho)-conjugation is an exact identity, so a wrong shift
    # refutes it even though both cofactor certificates still hold
    monkeypatch.setattr(qgroup, "rho2", lambda N: tuple(range(N)))
    rc = cli.main(["verify", "--n", "3", "--j", "iota,1", "--suite",
                   "antipode", "--jobs", "1", "--format", "json"])
    assert rc == 1
    [result] = json.loads(capsys.readouterr().out)["results"]
    assert result["status"] == "FAIL"
    assert result["detail"].startswith("S^2 is not q^(2 rho)-conjugation")


def test_pairing_detail_states_the_word_length_checked(capsys):
    # --degree bounds the functional words the relations are paired
    # against, and the detail says which length was checked
    rc = cli.main(["verify", "--n", "4", "--j", "iota,1,iota", "--suite",
                   "pairing", "--degree", "3", "--jobs", "1",
                   "--format", "json"])
    assert rc == 0
    [result] = json.loads(capsys.readouterr().out)["results"]
    assert result["status"] == "PASS"
    assert "on functional words of length <= 3," in result["detail"]


def test_verify_all_builds_each_object_once(monkeypatch, capsys):
    # two groups, the contracted one and the symbolic one that contraction
    # builds, one contracted relation set, the orthogonality cofactors of
    # both groups (contraction streams the symbolic relations, so it builds
    # no second set) and one memo of the pairing's letter steps serve every
    # suite of the run
    built = {"groups": 0, "relations": 0, "cofactors": 0, "steps": 0}
    Group = qgroup.QuantumCKGroup
    real_init = Group.__init__
    real_steps = Group.dual_steps.func
    real_relations = qgroup.full_relation_set
    real_cofactors = qgroup.orthogonality_cofactors

    def relations(*args):
        built["relations"] += 1
        return real_relations(*args)

    def cofactors(*args):
        built["cofactors"] += 1
        return real_cofactors(*args)

    def init(self, *args, **kwargs):
        built["groups"] += 1
        real_init(self, *args, **kwargs)

    def steps(self):
        built["steps"] += 1
        return real_steps(self)

    steps = functools.cached_property(steps)
    steps.__set_name__(Group, "dual_steps")
    monkeypatch.setattr(qgroup, "full_relation_set", relations)
    monkeypatch.setattr(qgroup, "orthogonality_cofactors", cofactors)
    monkeypatch.setattr(Group, "__init__", init)
    monkeypatch.setattr(Group, "dual_steps", steps)
    rc = cli.main(["verify", "--n", "3", "--j", "iota,1", "--suite", "all",
                   "--jobs", "1"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == len(cli.SUITES)
    # antipode reads the contracted group's cofactors; no suite forms them again
    assert built == {"groups": 2, "relations": 1, "cofactors": 2, "steps": 1}


def test_non_orthogonal_samples_report_fail_exit_1(monkeypatch, capsys):
    # I + X is not orthogonal for X != 0, so every sample and every
    # product must be refuted
    monkeypatch.setattr(ckclassical, "cayley",
                        lambda X: rmatrix.QTensor.identity(X.N, X.n) + X)
    rc = cli.main(["verify", "--n", "3", "--j", "iota,1", "--suite",
                   "classical", "--samples", "6", "--jobs", "1",
                   "--format", "json"])
    assert rc == 1
    [result] = json.loads(capsys.readouterr().out)["results"]
    assert result["status"] == "FAIL"
    assert result["detail"] == "0/6 orthogonal, 0/3 products closed"


def test_corrupt_copy_one_exchange_component_reports_error(monkeypatch, capsys):
    # one copy-1 exchange component off by a word breaks the certificates
    # that cite it
    real = qgroup.rtt_components

    def corrupt(T, R, table=None):
        comps = real(T, R, table)
        if next(iter(T.get(1, 1).terms))[0].copy == 1:
            data = dict(comps.data)
            data[(1, 2, 2, 1)] = data[(1, 2, 2, 1)] + T.get(1, 1) * T.get(2, 2)
            comps = rmatrix.QTensor(comps.N, comps.n, data)
        return comps

    monkeypatch.setattr(qgroup, "rtt_components", corrupt)
    rc = cli.main(["verify", "--n", "3", "--j", "iota,1", "--suite",
                   "coproduct", "--jobs", "1", "--format", "json"])
    assert rc == 1
    [result] = json.loads(capsys.readouterr().out)["results"]
    assert result["status"] == "ERROR"
    assert result["detail"].startswith("ArithmeticError: certificate mismatch")
