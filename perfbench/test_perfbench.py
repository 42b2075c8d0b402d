"""Self-test of the benchmark on three tiny N=3 jobs.

    python -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def jobs():
    return workloads.jobs("selftest-n3", 1)


def test_end_to_end_metrics_have_names_and_units(jobs):
    result, lines, notes = run.measure("selftest-n3", 1, 0.0, 0, jobs)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 3, 0)
    assert notes == []
    for spec in _bench()["end_to_end"]:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert got["value"] > 0
    readable = {name: unit for name, _, unit in lines}
    for name in ("max_job_s", "orthogonal_s", "contracted_s", "emit_latex_s",
                 "emit_json_s"):
        assert readable[name] == "s"
    assert readable["jobs_failed"] == readable["jobs_attempted"] == "count"


def test_per_layer_metrics_have_names_and_units(jobs):
    result, lines, notes = run.measure("selftest-n3", 1, 0.0, 1, jobs)
    assert result["correct"] and result["failed"] == 0
    per_layer = _bench()["per_layer"]
    assert set(result["metrics"]) == {spec["name"] for spec in per_layer}
    for spec in per_layer:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    readable = {name: value for name, value, _ in lines}
    assert {name for name, _ in run.BREAKDOWN} <= set(readable)
    # The three jobs enter every layer.
    for layer in LAYERS:
        name = layer + ".self_s"
        value = readable[name] if name in readable else result["metrics"][name]["value"]
        assert value > 0, name


def test_wrong_digest_raises_jobs_failed(jobs):
    bad = copy.deepcopy(jobs)
    bad[1]["expect"]["sha256"] = "0" * 64
    result, _, notes = run.measure("selftest-n3", 1, 0.0, 0, bad)
    assert result["failed"] == 1 and not result["correct"]
    assert "relations" in notes[0]


def test_wrong_verdict_raises_jobs_failed(jobs):
    bad = copy.deepcopy(jobs)
    bad[0]["expect"]["status"] = "FAIL"
    result, _, _ = run.measure("selftest-n3", 1, 0.0, 0, bad)
    assert result["failed"] == 1 and not result["correct"]


def test_known_defect_fails_the_job_but_not_the_run():
    known = [job for job in workloads.group_n5(1, {}) if job["known"]]
    assert len(known) == 1
    job = known[0]
    assert job["sig"] == "iota,1,iota,1" and job["expect"]["suite"] == "antipode"
    assert job["known"] == "FAIL" and job["expect"]["status"] == "PASS"
    wrong = {"exit": 1, "verdicts": [["antipode", "FAIL"]]}
    assert run.check(job, wrong) == (False, True)
    assert run.check(job, {"exit": 0, "verdicts": [["antipode", "PASS"]]}) == (True, False)
    crashed = {"exit": None, "verdicts": None}
    assert run.check(job, crashed) == (False, False)


def test_tracer_patches_every_binding_and_restores_it():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from ckq import coeffring, freealg, qdual, qgroup, rmatrix
    before = (freealg.reduce_poly, qgroup.reduce_poly, rmatrix.frt_r,
              qdual.frt_r, vars(coeffring.Cyclo8)["__mul__"])
    tracer = Tracer()
    tracer.install()
    try:
        assert qgroup.reduce_poly is freealg.reduce_poly is not before[0]
        assert qdual.frt_r is rmatrix.frt_r is not before[2]
        assert vars(coeffring.Cyclo8)["__mul__"] is not before[4]
        coeffring.Cyclo8(1) * coeffring.Cyclo8(2)
    finally:
        tracer.uninstall()
    assert tracer.snapshot()["spans"]["coeffring.Cyclo8.__mul__"][0] == 1
    assert (freealg.reduce_poly, qgroup.reduce_poly, rmatrix.frt_r,
            qdual.frt_r, vars(coeffring.Cyclo8)["__mul__"]) == before


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "emit-n5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
