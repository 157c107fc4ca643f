#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py prints, that
each wrapper fires on the workload expected to call it, that two traced runs
with one seed give identical counts, that the output checks reject wrong
outputs, that short untraced runs are correct with the pinned digests, and
that the benchmark refuses to run without the program under test.  Takes a
few minutes; exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jobs
import run

ROOT = run.ROOT
SELFTEST_DIR = run.WORK / "selftest"

# Wrappers (span or count names) each workload must fire.
EXPECTED = {
    "build-square": ["cli.run", "builder.build", "builder.collect_avoid",
                     "builder.choose_cut", "space.neighbor_lists",
                     "space.distance_row", "space.dense_index", "files.save_subbase"],
    "check-gray": ["cli.run", "files.load_subbase", "checker.digit_table",
                   "checker.check", "subbase.digit", "space.gray_digit",
                   "subbase.phi", "subbase.enumerate_K", "subbase.is_cusl",
                   "subbase.permute", "space.distance_row", "seq.BottomedSeq",
                   "seq.try_join"],
    "check-built": ["cli.run", "files.load_subbase", "files.save_subbase",
                    "builder.collect_avoid", "builder.choose_cut",
                    "space.neighbor_lists", "space.dense_index", "space.distance_row",
                    "checker.digit_table", "checker.check", "subbase.digit",
                    "subbase.phi", "subbase.enumerate_K", "subbase.is_cusl",
                    "subbase.kslice_to_dot", "seq.BottomedSeq", "seq.leq",
                    "seq.try_join"],
}
COUNT_UNITS = ("count", "B")


def expect(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


def bench(*args, cwd=ROOT, script=run.HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script)] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def header(workload):
    with open(run.WORK / ("trace-%s-s%d.jsonl" % (workload, jobs.DEFAULT_SEED))) as fh:
        return json.loads(fh.readline())


def check_manifest():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS),
           "BENCHMARK.json workloads match jobs.WORKLOADS")


def check_traced(workload):
    seed = str(jobs.DEFAULT_SEED)
    runs = []
    for _ in range(2):
        code, out, err = bench("--workload", workload, "--seed", seed, "--trace", "1")
        expect(code == 0, "%s traced run exits 0 %s" % (workload, err[-300:]))
        res = result(out)
        expect(res["correct"] and res["failed"] == 0, "%s traced run is correct" % workload)
        expect(list(res["metrics"]) == [n for n, _u in run.PER_LAYER],
               "%s traced run reports every per-layer metric" % workload)
        runs.append((res["metrics"], header(workload)))
    (m1, h1), (m2, h2) = runs
    counts1 = {k: v["value"] for k, v in m1.items() if v["unit"] in COUNT_UNITS}
    counts2 = {k: v["value"] for k, v in m2.items() if v["unit"] in COUNT_UNITS}
    expect(counts1 == counts2, "%s: two traced runs give identical count metrics"
           % workload)
    expect(h1["counts"] == h2["counts"] and h1["calls_by_job"] == h2["calls_by_job"],
           "%s: two traced runs give identical wrapper counts" % workload)
    expect(not h1["absent"], "%s: no wrapper is absent" % workload)
    fired = set(h1["calls_by_job"]) | {k.split("@")[0] for k in h1["counts"]}
    missing = [name for name in EXPECTED[workload] if name not in fired]
    expect(not missing, "%s: expected wrappers fire (missing: %s)" % (workload, missing))
    return m1, h1


def check_layers(traces):
    required = set(run.tracing.REQUIRED)
    expected = set().union(*EXPECTED.values())
    expect(required <= expected, "every required wrapper is expected on some workload")
    for workload, (m, h) in traces.items():
        scanned = m["checker.candidates_scanned"]["value"]
        expect((scanned > 0) == (workload == "check-gray"),
               "%s: distance_row inside a check %d times" % (workload, scanned))
        phases = {job.split(":")[0] for job in h["calls_by_job"].get("builder.collect_avoid", {})}
        want = {"build-square": {"job"}, "check-gray": set(), "check-built": {"setup"}}
        expect(phases == want[workload],
               "%s: collect_avoid called in %s" % (workload, sorted(phases) or "no phase"))


def check_output_checks():
    """The checks must reject tampered outputs of a real check-built run."""
    wd = SELFTEST_DIR / "tamper"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    w = jobs.workload("check-built", jobs.DEFAULT_SEED)
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    outs = {}
    for job in w.setup + w.jobs:
        proc = subprocess.run([sys.executable, "-m", "subbases.cli"] + job.argv, cwd=wd,
                              env=env, capture_output=True, text=True, timeout=120)
        outs[job.name] = (job, proc.returncode, proc.stdout)
        expect(job.check(job, proc.returncode, proc.stdout, wd) == [],
               "check-built %s passes its output check" % job.name)

    job, code, stdout = outs["check_strong"]
    report = json.loads((wd / "report.json").read_text())
    data = json.loads((wd / "built.json").read_text())
    point = jobs.square_grid(data["space"]["resolution"])[0]
    report.update(verdict="fail", violations=[
        {"sigma": "0", "point": [str(c) for c in point], "nearest": None}])
    (wd / "report.json").write_text(json.dumps(report))
    expect(job.check(job, 1, stdout, wd) != [], "a violation that does not re-verify "
           "is rejected")

    job, code, stdout = outs["kslice"]
    dot = (wd / "kslice.dot").read_text().splitlines()
    (wd / "kslice.dot").write_text("\n".join(dot[:2] + dot[3:]) + "\n")
    expect(job.check(job, code, stdout, wd) != [], "a DOT file missing a node is rejected")

    job, code, stdout = outs["setup_build"]
    data["cuts"][0]["cut"] = "7/3"
    (wd / "built.json").write_text(json.dumps(data))
    expect(job.check(job, code, stdout, wd) != [], "a saved cut outside its interval "
           "is rejected")
    job, code, stdout = outs["check_cusl"]
    expect(job.check(job, 1, stdout, wd) != [], "a wrong exit code is rejected")
    seen = jobs.digests(job, stdout, wd)["stdout"]
    problems = jobs.run_checks(job, code, stdout, wd, {"stdout": "0" * 64})
    expect(len(problems) == 1 and seen in problems[0],
           "a digest mismatch is rejected and shows the observed digest")


def check_untraced(workload):
    code, out, err = bench("--workload", workload, "--seed", str(jobs.DEFAULT_SEED),
                           "--seconds", "1", "--trace", "0")
    res = result(out) if code == 0 else {}
    expect(code == 0 and res["correct"] and res["failed"] == 0,
           "%s untraced run is correct with pinned digests %s" % (workload, err[-300:]))
    expect(list(res["metrics"]) == [n for n, _u in run.END_TO_END]
           and all(v["value"] > 0 for v in res["metrics"].values()),
           "%s untraced run reports every end-to-end metric, none 0" % workload)


def check_no_program():
    bare = SELFTEST_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _err = bench("--workload", "check-gray", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare,
                            script=bare / run.HERE.name / "run.py")
    expect(code != 0 and '"correct"' not in out,
           "without the program the benchmark exits %d and prints no result" % code)
    shutil.rmtree(bare, ignore_errors=True)


def main():
    check_manifest()
    check_no_program()
    check_output_checks()
    for workload in jobs.WORKLOADS:
        check_untraced(workload)
    check_layers({w: check_traced(w) for w in jobs.WORKLOADS})
    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
