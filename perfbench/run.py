"""ckq benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of ``workloads.py`` as a closed loop: one client, one job
at a time.  Each job is one ``ckq`` command line, run through
``ckq.cli.main(argv)`` in a fresh worker process (``worker.py``), so no
state carries from one command to the next.  Every job's output is checked.

With ``--trace 0`` a run repeats whole passes over the job list while the
next pass is expected to end within ``--seconds`` (the first pass always
runs) and reports the end-to-end metrics, medians over passes.  With
``--trace 1`` it runs one untraced pass and one traced pass and reports the
per-layer metrics of the traced one.

Lines starting with ``#`` describe the run for a reader; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload and
prints each metric by name and unit.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

BENCH_WORKLOADS = ("duality-n4", "group-n5", "emit-n5")
HASHSEED = "0"
# Workers still running this long after a run starts are killed and their
# jobs count as failed, so a run ends within three minutes.
RUN_BUDGET_S = 170
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Parts of wall_s, printed for a reader only: over 10-20 s of jobs the
# run-to-run spread on a shared 2-CPU machine is 10-20 %, too wide for a
# bound.  The job-class times exist only on the workloads that run the class.
PARTS = ("max_job_s", "orthogonal_s", "contracted_s", "pairing_s",
         "dual_laws_s", "coproduct_s", "contraction_s", "classical_s",
         "antipode_s", "emit_latex_s", "emit_json_s", "emit_text_s")


# ------------------------------------------------------------- per layer


def _calls(*spans):
    return lambda agg: sum(agg["spans"].get(s, (0, 0.0))[0] for s in spans)


def _incl(span):
    return lambda agg: agg["spans"].get(span, (0, 0.0))[1]


def _self(layer):
    return lambda agg: agg["self_s"].get(layer, 0.0)


def _count(key):
    return lambda agg: agg["counts"].get(key, 0)


def _zero_ratio(agg):
    tried = agg["counts"].get("freealg.reduce_poly.attempts", 0)
    return agg["counts"].get("freealg.reduce_poly.zero", 0) / tried if tried else 0.0


def _trace_overhead(agg):
    return agg["traced_wall_s"] - agg["untraced_wall_s"]


def _trace_unaccounted(agg):
    return agg["traced_wall_s"] - sum(agg["self_s"].values())


C = "coeffring."
PER_LAYER = (
    ("coeffring.self_s", "s", _self("coeffring")),
    ("coeffring.cyclo8_mul.calls", "count", _calls(C + "Cyclo8.__mul__")),
    ("coeffring.cyclo8_add.calls", "count",
     _calls(C + "Cyclo8.__add__", C + "Cyclo8.__sub__")),
    ("coeffring.scalar_mul.calls", "count", _calls(C + "ScalarExpr.__mul__")),
    ("coeffring.scalar_add.calls", "count",
     _calls(C + "ScalarExpr.__add__", C + "ScalarExpr.__sub__",
            C + "ScalarExpr.__rsub__")),
    ("coeffring.scalar_exact_div.calls", "count",
     _calls(C + "ScalarExpr.exact_div")),
    ("coeffring.dual_mul.calls", "count", _calls(C + "DualElement.__mul__")),
    ("coeffring.dual_add.calls", "count",
     _calls(C + "DualElement.__add__", C + "DualElement.__sub__",
            C + "DualElement.__rsub__")),
    ("coeffring.dual_inverse.calls", "count",
     _calls(C + "DualElement.inverse")),
    ("coeffring.specialize_q.calls", "count", _calls(C + "specialize_q")),
    ("ckclassical.self_s", "s", _self("ckclassical")),
    ("ckclassical.random_cayley.calls", "count",
     _calls("ckclassical.random_cayley")),
    ("ckclassical.inverse.calls", "count",
     _calls("ckclassical.CKMatrix.inverse")),
    ("ckclassical.matmul.calls", "count",
     _calls("ckclassical.CKMatrix.__matmul__")),
    ("ckclassical.is_j_orthogonal.calls", "count",
     _calls("ckclassical.is_j_orthogonal")),
    ("rmatrix.self_s", "s", _self("rmatrix")),
    ("rmatrix.frt_r.calls", "count", _calls("rmatrix.frt_r")),
    ("rmatrix.contract.calls", "count", _calls("rmatrix.contract")),
    ("rmatrix.r_plus_minus.calls", "count", _calls("rmatrix.r_plus_minus")),
    ("freealg.self_s", "s", _self("freealg")),
    ("freealg.ncpoly_mul.calls", "count", _calls("freealg.NCPoly.__mul__")),
    ("freealg.reduce_poly.calls", "count", _calls("freealg.reduce_poly")),
    ("freealg.reduce_poly.steps", "count",
     _count("freealg.reduce_poly.steps")),
    ("freealg.reduce_poly.zero_ratio", "ratio", _zero_ratio),
    ("qgroup.self_s", "s", _self("qgroup")),
    ("qgroup.relations.calls", "count",
     _calls("qgroup.QuantumCKGroup.relations")),
    ("qgroup.relations.count", "count", _count("qgroup.relations.count")),
    ("qgroup.relations.s", "s", _incl("qgroup.QuantumCKGroup.relations")),
    ("qgroup.saturated_rules.rules", "count",
     _count("qgroup.saturated_rules.rules")),
    ("qdual.contexts", "count", _calls("qdual.DualPairing.__init__")),
    ("qdual.pair.calls", "count", _calls("qdual.DualPairing.pair")),
    ("qdual.degree_one.calls", "count",
     _calls("qdual.DualPairing.degree_one")),
    ("render.self_s", "s", _self("render")),
    ("render.bytes", "bytes", lambda agg: agg["bytes"]),
    ("cli.self_s", "s", _self("cli")),
    ("cli.main.calls", "count", _calls("cli.main")),
    ("trace.overhead_s", "s", _trace_overhead),
    ("trace.unaccounted_s", "s", _trace_unaccounted),
)

# Layer times that are exactly zero on a workload that never enters the
# function, so they are printed for a reader but kept out of the per-layer
# metrics of BENCHMARK.json.
BREAKDOWN = (
    ("qdual.self_s", _self("qdual")),
    ("rmatrix.verify_ybe.s", _incl("rmatrix.verify_ybe")),
    ("freealg.reduce_poly.s", _incl("freealg.reduce_poly")),
    ("qgroup.saturated_rules.s", _incl("qgroup.saturated_rules")),
    ("qgroup.verify_delta_compat.s", _incl("qgroup.verify_delta_compat")),
    ("qgroup.verify_antipode.s", _incl("qgroup.verify_antipode")),
    ("qgroup.contraction_commutes.s", _incl("qgroup.contraction_commutes")),
    ("qdual.pair.s", _incl("qdual.DualPairing.pair")),
    ("qdual.verify_ll.s", _incl("qdual.verify_ll")),
    ("qdual.verify_l_additional.s", _incl("qdual.verify_l_additional")),
    ("qdual.relations_pair_to_zero.s", _incl("qdual.relations_pair_to_zero")),
    ("qdual.verify_antipode_duality.s",
     _incl("qdual.verify_antipode_duality")),
    ("render.relations_tex.s", _incl("render.relations_tex")),
    ("render.relations_json.s", _incl("render.relations_json")),
    ("render.relations_text.s", _incl("render.relations_text")),
)


# ------------------------------------------------------------------ jobs


def _worker_env():
    env = dict(os.environ)
    env.pop("CKQ_JOBS", None)
    env["PYTHONHASHSEED"] = HASHSEED
    return env


def run_job(job, trace, deadline):
    """Run one job in a fresh worker and check its output."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           json.dumps(job["argv"])] + (["--trace"] if trace else [])
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=_worker_env())
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out = b""
    try:
        res = json.loads(out.decode("utf-8").splitlines()[-1])
        res["setup_s"] = res["ready"] - spawned
    except (ValueError, IndexError):
        res = {"exit": None, "error": "worker exited %s" % proc.returncode,
               "wall_s": 0.0, "sha256": None, "bytes": 0, "verdicts": None,
               "maxrss_kb": 0, "trace": None, "setup_s": None}
    res["ok"], res["expected_fault"] = check(job, res)
    return res


def check(job, res):
    """(ok, expected_fault): ok is False for a wrong exit code, verdict or
    digest; expected_fault is True when the wrong result is exactly a
    known defect of the program (it still counts as a failed job)."""
    expect = job["expect"]
    if "status" in expect:
        want = [[expect["suite"], expect["status"]]]
        ok = res["exit"] == 0 and res["verdicts"] == want
        known = job["known"] is not None and res["verdicts"] == [
            [expect["suite"], job["known"]]]
        return ok, not ok and known
    ok = (res["exit"] == 0 and expect["sha256"] is not None
          and res["sha256"] == expect["sha256"])
    return ok, False


def run_pass(jobs, trace, deadline):
    return [run_job(job, trace, deadline) for job in jobs]


# --------------------------------------------------------------- metrics


def pass_times(jobs, results):
    walls = [r["wall_s"] for r in results]
    out = {"wall_s": sum(walls), "max_job_s": max(walls),
           "orthogonal_s": sum(w for j, w in zip(jobs, walls)
                               if "iota" not in j["sig"]),
           "contracted_s": sum(w for j, w in zip(jobs, walls)
                               if "iota" in j["sig"])}
    for job, wall in zip(jobs, walls):
        if job["cls"]:
            out[job["cls"]] = out.get(job["cls"], 0.0) + wall
    return out


def end_to_end(jobs, passes):
    per_pass = [pass_times(jobs, p) for p in passes]
    flat = [r for p in passes for r in p]
    metrics = {name: statistics.median(pt[name] for pt in per_pass)
               for name in per_pass[0]}
    setups = [r["setup_s"] for r in flat if r["setup_s"] is not None]
    metrics["setup_s"] = statistics.median(setups) if setups else 0.0
    metrics["peak_rss_mb"] = max(r["maxrss_kb"] for r in flat) / 1024.0
    return metrics


def aggregate_trace(traced, untraced):
    agg = {"self_s": {}, "spans": {}, "counts": {},
           "bytes": sum(r["bytes"] for r in traced),
           "traced_wall_s": sum(r["wall_s"] for r in traced),
           "untraced_wall_s": sum(r["wall_s"] for r in untraced)}
    for r in traced:
        t = r["trace"] or {"self_s": {}, "spans": {}, "counts": {}}
        for layer, s in t["self_s"].items():
            agg["self_s"][layer] = agg["self_s"].get(layer, 0.0) + s
        for name, (calls, incl) in t["spans"].items():
            c0, i0 = agg["spans"].get(name, (0, 0.0))
            agg["spans"][name] = (c0 + calls, i0 + incl)
        for key, val in t["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + val
    return agg


# ----------------------------------------------------------------- run


def context(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = os.path.join(ROOT, "src", "ckq")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": _git_commit(), "src_sha256": digest.hexdigest(),
            "seed": seed, "pythonhashseed": HASHSEED}


def _git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def measure(name, seed, seconds, trace, jobs=None):
    """Run one workload; returns the result object, readable (metric,
    value, unit) lines and notes on failed jobs."""
    jobs = workloads.jobs(name, seed) if jobs is None else jobs
    lines = []
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    if trace:
        untraced = run_pass(jobs, False, deadline)
        traced = run_pass(jobs, True, deadline)
        passes = [untraced, traced]
        agg = aggregate_trace(traced, untraced)
        metrics = {m: (fn(agg), unit) for m, unit, fn in PER_LAYER}
        for m, fn in BREAKDOWN:
            lines.append((m, fn(agg), "s"))
        same = all((a["sha256"], a["verdicts"]) == (b["sha256"], b["verdicts"])
                   for a, b in zip(untraced, traced))
    else:
        passes = []
        while True:
            passes.append(run_pass(jobs, False, deadline))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
        e2e = end_to_end(jobs, passes)
        units = dict(END_TO_END)
        metrics = {m: (e2e[m], units[m]) for m, _ in END_TO_END}
        for m in PARTS:
            if m in e2e:
                lines.append((m, e2e[m], "s"))
        same = True
    flat = [(job, r) for p in passes for job, r in zip(jobs, p)]
    failed = [(job, r) for job, r in flat if not r["ok"]]
    correct = same and all(r["expected_fault"] for _, r in failed)
    lines.append(("jobs_failed", len(failed) / len(passes), "count"))
    lines.append(("jobs_attempted", len(jobs), "count"))
    result = {"correct": correct, "attempted": len(flat),
              "failed": len(failed),
              "metrics": {m: {"value": v, "unit": u}
                          for m, (v, u) in metrics.items()}}
    notes = []
    for job, r in failed:
        notes.append("failed job%s: ckq %s -> exit %s, verdicts %s, error %s"
                     % (" (known defect)" if r["expected_fault"] else "",
                        " ".join(job["argv"]), r["exit"], r["verdicts"],
                        r["error"]))
    if not same:
        notes.append("traced and untraced passes disagree")
    return result, lines, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=BENCH_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ckq", "cli.py")):
        print("run.py: no ckq sources at %s" % os.path.join(ROOT, "src", "ckq"),
              file=sys.stderr)
        return 2
    print("# context " + json.dumps(context(ns.seed), sort_keys=True))
    names = BENCH_WORKLOADS if ns.workload == "all" else (ns.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, lines, notes = measure(name, ns.seed, ns.seconds, ns.trace)
        for note in notes:
            print("# %s %s" % (name, note))
        for m, spec in result["metrics"].items():
            print("# %-10s %-34s %14.6f %s" % (name, m, spec["value"], spec["unit"]))
        for m, value, unit in lines:
            print("# %-10s %-34s %14.6f %s" % (name, m, value, unit))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for m, spec in result["metrics"].items():
            combined["metrics"][prefix + m] = spec
    sys.stdout.flush()
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
