#!/usr/bin/env python3
"""Benchmark of the `subbase` command line tool.

    python3 perfbench/run.py --workload build-square --seed 1 --seconds 35 --trace 0

Run from anywhere; the program under test is the `src/` tree next to this
directory.  With `--trace 0` the jobs of the workload run as child processes,
one at a time in a closed loop with one client, for `--seconds` seconds;
every job's outputs are checked.  With `--trace 1` the jobs run once as
children and once in this process through `subbases.cli.run(argv)` with
wrappers around the package's public functions, which give per-layer self
times and work counts.  Human-readable lines come first; the last line of
standard output is one JSON object with the result.  README.md in this
directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

SETUPS = 5            # set-ups per untraced run; setup_s is their median
IMPORT_PROBES = 3     # fresh-interpreter imports timed for cli.import_s
RUN_LIMIT_S = 170     # a run ends before this, whatever --seconds says
JOB_TIMEOUT_S = 120

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
COMMANDS = ("build", "build_fine", "check_strong", "kslice", "check_cusl")
PER_LAYER = (
    ("machine.ref_s", "s"), ("cli.import_s", "s"),
    ("cli.self_s", "s"), ("files.self_s", "s"), ("space.self_s", "s"),
    ("builder.self_s", "s"), ("subbase.self_s", "s"), ("checker.self_s", "s"),
    ("files.load_subbase.self_s", "s"), ("files.save_subbase.self_s", "s"),
    ("space.distance_row.calls", "count"), ("space.distance_row.self_s", "s"),
    ("space.rows_distinct", "count"), ("space.row_bytes", "B"),
    ("space.neighbor_lists.self_s", "s"), ("space.dense_index.self_s", "s"),
    ("builder.collect_avoid.calls", "count"), ("builder.collect_avoid.self_s", "s"),
    ("builder.avoid.closed", "count"), ("builder.avoid.code", "count"),
    ("builder.avoid.boundary", "count"), ("builder.avoid.interaction", "count"),
    ("builder.avoid.total", "count"), ("builder.choose_cut.self_s", "s"),
    ("builder.retries", "count"), ("builder.cuts", "count"),
    ("builder.trivial_cuts", "count"), ("builder.nontrivial_ratio", "ratio"),
    ("subbase.digit.calls", "count"), ("subbase.digit.self_s", "s"),
    ("subbase.digit.total_s", "s"), ("subbase.phi.calls", "count"),
    ("subbase.enumerate_K.self_s", "s"), ("subbase.kslice_elements", "count"),
    ("subbase.is_cusl.self_s", "s"), ("subbase.kslice_to_dot.self_s", "s"),
    ("checker.digit_table.self_s", "s"), ("checker.digit_cells", "count"),
    ("checker.code_classes", "count"), ("checker.check.self_s", "s"),
    ("checker.patterns", "count"), ("checker.candidates_scanned", "count"),
    ("seq.sequences_built", "count"), ("seq.leq.calls", "count"),
    ("seq.try_join.calls", "count"),
    ("trace.overhead_ratio", "ratio"), ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
) + tuple(("cmd.%s_s" % c, "s") for c in COMMANDS)

PROBE = ("import sys, time; t = time.perf_counter(); import subbases.cli, numpy; "
         "print(time.perf_counter() - t, numpy.__version__)")


class Fatal(Exception):
    """The program under test cannot be run at all: no result is printed."""


def calibrate() -> float:
    """A fixed pure-Python loop, timed as context for host speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - t


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    """Runs jobs and keeps the tallies that every run reports."""

    def __init__(self, workload, seed):
        self.w = jobs.workload(workload, seed)
        self.seed = seed
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ref_s = []
        self.usage = {}      # job name -> [(cpu s, maxrss kB)] of its child runs
        self.pinned = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def spawn(self, argv, wd: Path, stdout_name: str):
        """Run one child to completion; (exit code, wall s, cpu s, maxrss kB)."""
        timeout = max(1.0, min(JOB_TIMEOUT_S, self.remaining()))
        with open(wd / stdout_name, "wb") as out, open(wd / "stderr.txt", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=wd, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def probe_import(self, wd: Path):
        """Fresh-interpreter import of subbases.cli: (seconds, numpy version)."""
        code, _wall, _cpu, _rss = self.spawn(["-c", PROBE], wd, "probe.txt")
        text = (wd / "probe.txt").read_text().split()
        if code != 0 or len(text) != 2:
            raise Fatal("cannot import subbases.cli from %s (exit %d)" % (SRC, code))
        return float(text[0]), text[1]

    def record(self, job, code, stdout, wd):
        """Check one job's outputs and count it."""
        self.attempted += 1
        pinned = None if self.pinned is None else self.pinned.get(job.name, {})
        problems = jobs.run_checks(job, code, stdout, wd, pinned)
        if problems:
            self.failed += 1
            self.problems += ["%s: %s" % (job.name, p) for p in problems]
        return not problems

    def run_child_job(self, job, wd: Path):
        for name in job.outputs:
            (wd / name).unlink(missing_ok=True)
        self.ref_s.append(calibrate())
        code, wall, cpu, rss = self.spawn(["-m", "subbases.cli"] + job.argv, wd,
                                          "stdout.txt")
        self.usage.setdefault(job.name, []).append((cpu, rss))
        stdout = (wd / "stdout.txt").read_text()
        if code < 0:
            self.problems.append("%s: killed by signal %d" % (job.name, -code))
        self.record(job, code, stdout, wd)
        return wall, stdout

    def prepare(self, wd: Path):
        """Fresh work dir with the workload's input files."""
        shutil.rmtree(wd, ignore_errors=True)
        wd.mkdir(parents=True)
        for name, text in self.w.files.items():
            (wd / name).write_text(text)


def context(bench, numpy_version, load_start):
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy_version, "loadavg_start": load_start,
            "loadavg_end": list(os.getloadavg()),
            "machine.ref_s": round(median(bench.ref_s), 6)}


def untraced(bench: Bench, seconds: int, wd_root: Path):
    """Set the workload up SETUPS times, then repeat the job sequence on the
    last set-up for `seconds`; only the sequences count against `seconds`."""
    load_start = list(os.getloadavg())
    setup_times, setup_digests, sequences = [], [], []
    for k in range(SETUPS):
        wd = wd_root / ("setup%d" % k)
        t0 = time.perf_counter()
        bench.prepare(wd)
        _imp, numpy_version = bench.probe_import(wd)
        stdouts = [bench.run_child_job(job, wd)[1] for job in bench.w.setup]
        setup_times.append(time.perf_counter() - t0)
        setup_digests.append([jobs.digests(j, out, wd)
                              for j, out in zip(bench.w.setup, stdouts)])
    t_start = time.perf_counter()
    while True:
        sequences.append({job.name: bench.run_child_job(job, wd)[0]
                          for job in bench.w.jobs})
        elapsed = time.perf_counter() - t_start
        last = sum(sequences[-1].values())
        # stop before a round that would overrun --seconds or the run limit
        if elapsed + last > seconds or bench.remaining() < 2 * elapsed / len(sequences):
            break
    if any(d != setup_digests[0] for d in setup_digests):
        bench.problems.append("set-up outputs differ between set-ups")
        bench.failed += 1
    # The host's speed drifts in periods of 10-20 s by up to 1.6x, so the median
    # of a run follows the host; each job's fastest time in the run does not.
    fastest = {job.name: min(s[job.name] for s in sequences) for job in bench.w.jobs}
    totals = [sum(s.values()) for s in sequences]
    metrics = {"wall_s": sum(fastest.values()),
               "peak_rss_mb": max(rss for job in bench.w.jobs
                                  for _cpu, rss in bench.usage[job.name]) / 1024.0,
               "setup_s": median(setup_times)}
    lines = ["# context %s" % json.dumps(context(bench, numpy_version, load_start))]
    q = statistics.quantiles(totals, n=4) if len(totals) > 1 else [totals[0]] * 3
    lines.append("wall_s         %10.4f s   sum of each job's fastest of %d rounds"
                 % (metrics["wall_s"], len(totals)))
    lines.append("sequence       %10.4f s   median of %d sequences, q1 %.4f, q3 %.4f"
                 % (median(totals), len(totals), q[0], q[2]))
    for job in bench.w.jobs:
        vals = [s[job.name] for s in sequences]
        cpu = [c for c, _rss in bench.usage[job.name]]
        lines.append("%-14s %10.4f s   fastest; median %.4f, cpu median %.4f" % (
            job.name + "_s", fastest[job.name], median(vals), median(cpu)))
    lines.append("peak_rss_mb    %10.2f MB  highest child ru_maxrss" % metrics["peak_rss_mb"])
    lines.append("setup_s        %10.4f s   median of %d set-ups" % (metrics["setup_s"],
                                                                   len(setup_times)))
    lines.append("error_rate     %10.4f     %d of %d jobs failed"
                 % (bench.failed / max(bench.attempted, 1), bench.failed,
                    bench.attempted))
    return metrics, lines


def run_inprocess(cli, tracer, job, wd: Path, job_id: str):
    """One job through cli.run(argv) in this process:
    (exit code, stdout, wall s, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    if tracer is not None:
        tracer.job = job_id
    os.chdir(wd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.run(list(job.argv))
            except Exception as exc:  # a crash is a failed job, not a failed run
                print("crash: %r" % (exc,), file=err)
                code = -1
            wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
        if tracer is not None:
            tracer.job = None
    return code, out.getvalue(), wall, err.getvalue()


def traced(bench: Bench, wd_root: Path, trace_file: Path):
    """The jobs once as children (cmd.* times), once in-process without and
    once with wrappers; set-up jobs run as children and traced."""
    load_start = list(os.getloadavg())
    plain, inproc = wd_root / "plain", wd_root / "traced"
    bench.prepare(plain)
    probes = [bench.probe_import(plain) for _ in range(IMPORT_PROBES)]
    cmd_s, plain_out = {}, {}
    for job in bench.w.setup + bench.w.jobs:
        cmd_s[job.name], plain_out[job.name] = bench.run_child_job(job, plain)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import subbases
    import subbases.cli as cli

    # the same jobs in-process without wrappers: the base of trace.overhead_ratio
    untraced_wall = 0.0
    for job in bench.w.jobs:
        code, stdout, wall, err = run_inprocess(cli, None, job, plain, None)
        untraced_wall += wall
        if not bench.record(job, code, stdout, plain) and err:
            bench.problems.append("%s: stderr %s" % (job.name, err.strip()[-300:]))

    bench.prepare(inproc)
    tracer = tracing.Tracer()
    tracer.install(subbases)
    traced_wall = 0.0
    built = []   # (stdout, saved subbase) of every build, set-up included
    try:
        for phase, job_list in (("setup", bench.w.setup), ("job", bench.w.jobs)):
            for job in job_list:
                bench.ref_s.append(calibrate())
                code, stdout, wall, err = run_inprocess(cli, tracer, job, inproc,
                                                        "%s:%s" % (phase, job.name))
                if phase == "job":
                    traced_wall += wall
                if not bench.record(job, code, stdout, inproc):
                    if err:
                        bench.problems.append("%s: stderr %s" % (job.name,
                                                                 err.strip()[-300:]))
                else:
                    differ = [name for name in job.outputs
                              if (inproc / name).read_bytes() != (plain / name).read_bytes()]
                    if stdout != plain_out[job.name]:
                        differ.append("stdout")
                    if differ:
                        bench.failed += 1
                        bench.problems.append("%s: traced %s differs from the untraced "
                                              "run" % (job.name, ", ".join(differ)))
                    if job.argv[0] == "build":
                        built.append((stdout, jobs.load_json(inproc, job.outputs[0])))
    finally:
        tracer.uninstall()

    summ = tracer.summary()

    def get(name, key="self_s"):
        return summ.get(name, {}).get(key, 0)

    def counted(name, parent=None):
        return sum(n for (nm, par), n in tracer.counts.items()
                   if nm == name and (parent is None or par == parent))

    families = {"closed": 0, "code": 0, "boundary": 0, "interaction": 0}
    for avoid in tracer.avoid_sets:
        for _value, tag in getattr(avoid, "values", ()):
            fam = ("interaction" if tag.startswith("interaction")
                   else tag.split("|")[-1].split("[")[0])
            families[fam] = families.get(fam, 0) + 1
    cuts = sum(len(data["cuts"]) for _out, data in built)
    trivial = sum(jobs.trivial_cuts(data) for _out, data in built)
    retries = sum(json.loads(line)["retries"] for out, _data in built
                  for line in out.splitlines() if line.startswith("{"))
    rows = [(n, len(r)) for n, r in tracer.row_stats]
    m = {
        "machine.ref_s": median(bench.ref_s),
        "cli.import_s": median([t for t, _version in probes]),
        "files.load_subbase.self_s": get("files.load_subbase"),
        "files.save_subbase.self_s": get("files.save_subbase"),
        "space.distance_row.calls": get("space.distance_row", "calls"),
        "space.distance_row.self_s": get("space.distance_row"),
        "space.rows_distinct": sum(r for _n, r in rows),
        "space.row_bytes": sum(n * r * 8 for n, r in rows),
        "space.neighbor_lists.self_s": get("space.neighbor_lists"),
        "space.dense_index.self_s": get("space.dense_index"),
        "builder.collect_avoid.calls": get("builder.collect_avoid", "calls"),
        "builder.collect_avoid.self_s": get("builder.collect_avoid"),
        "builder.avoid.total": sum(families.values()),
        "builder.choose_cut.self_s": get("builder.choose_cut"),
        "builder.retries": retries,
        "builder.cuts": cuts,
        "builder.trivial_cuts": trivial,
        "builder.nontrivial_ratio": (cuts - trivial) / cuts if cuts else 0.0,
        "subbase.digit.calls": get("subbase.digit", "outer_calls"),
        "subbase.digit.self_s": get("subbase.digit"),
        "subbase.digit.total_s": get("subbase.digit", "total_s"),
        "subbase.phi.calls": get("subbase.phi", "calls"),
        "subbase.enumerate_K.self_s": get("subbase.enumerate_K"),
        "subbase.kslice_elements": sum(tracer.kslice_sizes),
        "subbase.is_cusl.self_s": get("subbase.is_cusl"),
        "subbase.kslice_to_dot.self_s": get("subbase.kslice_to_dot"),
        "checker.digit_table.self_s": get("checker.digit_table"),
        "checker.digit_cells": sum(int(t.size) for t in tracer.tables),
        "checker.code_classes": sum(int(np.unique(t, axis=1).shape[1]) if t.size else 0
                                    for t in tracer.tables),
        "checker.check.self_s": get("checker.check"),
        "checker.patterns": counted("seq.BottomedSeq", "checker.check"),
        "checker.candidates_scanned": sum(
            1 for i, rec in enumerate(tracer.spans)
            if rec[0] == "space.distance_row" and tracer.has_ancestor(i, "checker.check")),
        "seq.sequences_built": counted("seq.BottomedSeq"),
        "seq.leq.calls": counted("seq.leq"),
        "seq.try_join.calls": counted("seq.try_join"),
        "trace.overhead_ratio": traced_wall / untraced_wall if untraced_wall else 0.0,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
    }
    for fam in ("closed", "code", "boundary", "interaction"):
        m["builder.avoid." + fam] = families[fam]
    for layer in tracing.LAYERS[:-1]:
        m[layer + ".self_s"] = sum(s["self_s"] for name, s in summ.items()
                                   if name.startswith(layer + "."))
    for c in COMMANDS:
        m["cmd.%s_s" % c] = cmd_s.get(c, 0.0)

    by_job = {}
    for name, _s, _e, _p, job in tracer.spans:
        by_job.setdefault(name, {}).setdefault(job, 0)
        by_job[name][job] += 1
    header = {"workload": bench.w.name, "seed": bench.seed, "absent": tracer.absent(),
              "installed": sorted(tracer.installed), "summary": summ,
              "calls_by_job": by_job,
              "counts": {"%s@%s" % k: n for k, n in sorted(tracer.counts.items(),
                                                           key=str)},
              "metrics": m}
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_file, header)
    lines = ["# context %s" % json.dumps(context(bench, probes[0][1], load_start)),
             "# absent wrappers: %s" % (", ".join(tracer.absent()) or "none"),
             "# spans written to %s (%d spans)" % (trace_file, len(tracer.spans))]
    units = dict(PER_LAYER)
    lines += ["%-30s %14.6g %s" % (name, m[name], units[name]) for name, _u in PER_LAYER]
    return m, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "subbases" / "cli.py").is_file():
        print("error: the program under test is missing: no %s"
              % (SRC / "subbases" / "cli.py"), file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    if args.seed == jobs.DEFAULT_SEED:
        with open(DIGESTS) as fh:
            bench.pinned = json.load(fh).get(args.workload)
    wd_root = WORK / ("%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    print("# perfbench workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    try:
        if args.trace:
            metrics, lines = traced(bench, wd_root, WORK / ("trace-%s-s%d.jsonl"
                                                            % (args.workload, args.seed)))
            units = dict(PER_LAYER)
        else:
            metrics, lines = untraced(bench, args.seconds, wd_root)
            units = dict(END_TO_END)
    except Fatal as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(wd_root, ignore_errors=True)
    for line in lines:
        print(line)
    for problem in bench.problems:
        print("# FAILED %s" % problem)
    result = {"correct": bench.failed == 0 and not bench.problems,
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
