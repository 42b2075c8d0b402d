"""Command line behaviour: exit codes, formats, byte determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ckq import cli, qdual, qgroup

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


N5_DIGESTS = json.loads((GOLDEN / "relations_n5_sha256.json").read_text())


@pytest.mark.parametrize("sig", ["1,1,1,1", "iota,1,iota,1",
                                 "iota,iota,iota,iota"])
def test_relations_n5_match_golden_digests(tmp_path, sig):
    for fmt in ("json", "text", "latex"):
        argv = ["relations", "--n", "5", "--j", sig, "--format", fmt]
        out = tmp_path / ("rel." + fmt)
        assert cli.main(argv + ["--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == N5_DIGESTS[" ".join(argv)], " ".join(argv)


def test_output_bytes_stable_across_hash_seeds():
    a = run_cli(["relations", "--n", "3", "--j", "iota,1", "--format", "json"],
                PYTHONHASHSEED="1")
    b = run_cli(["relations", "--n", "3", "--j", "iota,1", "--format", "json"],
                PYTHONHASHSEED="4242")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
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
    ["verify", "--suite", "ybe,cubic", "--jobs", "0"],
    ["classical", "--samples", "-1"],
    ["verify", "--n", "4", "--suite", "exchange", "--degree", "4"],
    ["verify", "--n", "5", "--suite", "metric", "--degree", "4"],
    ["verify", "--n", "3", "--suite", "pairing", "--degree", "5"],
])
def test_out_of_range_inputs_exit_2_before_any_work(monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _no_work)
    monkeypatch.setattr(cli, "_run_chunk", _no_work)
    monkeypatch.setattr(cli, "_classical_report", _no_work)
    # --n 3 unless the case names its own size
    assert cli.main(argv[:1] + ["--n", "3"] + argv[1:]) == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("n,degree", [(3, 4), (4, 3), (5, 3)])
def test_largest_admitted_degrees_reach_the_suites(monkeypatch, n, degree):
    ran = []
    monkeypatch.setattr(cli, "_run_chunk",
                        lambda w: ran.append(w) or [(w[0][0], "PASS", "")])
    argv = ["verify", "--n", str(n), "--suite", "exchange",
            "--degree", str(degree)]
    assert cli.main(argv) == 0
    assert [(w[0], w[2].degree) for w in ran] == [(["exchange"], degree)]


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
    monkeypatch.setattr(qgroup, "antipode", lambda T, C: T.transpose())
    rc = cli.main(["verify", "--n", "3", "--j", "iota,1", "--suite",
                   "antipode", "--jobs", "1", "--format", "json"])
    assert rc == 1
    [result] = json.loads(capsys.readouterr().out)["results"]
    assert result["status"] == "ERROR"
    assert result["detail"].startswith("ArithmeticError: certificate mismatch")


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
    # one contracted relation set, one symbolic one (for contraction) and
    # one pairing context serve every suite of the run
    built = {"relations": 0, "pairings": 0}
    real_relations = qgroup.full_relation_set
    real_init = qdual.DualPairing.__init__

    def relations(*args):
        built["relations"] += 1
        return real_relations(*args)

    def init(self, *args):
        built["pairings"] += 1
        real_init(self, *args)

    monkeypatch.setattr(qgroup, "full_relation_set", relations)
    monkeypatch.setattr(qdual.DualPairing, "__init__", init)
    rc = cli.main(["verify", "--n", "3", "--j", "iota,1", "--suite", "all",
                   "--jobs", "1"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == len(cli.SUITES)
    assert built == {"relations": 2, "pairings": 1}
