"""Workloads of the benchmark and the checks on every job's outputs.

A workload is a seeded sequence of `subbase` CLI jobs plus the set-up
that prepares their inputs.  Each job names the files it writes; a check
reads them back and returns the problems it found (none means correct).
The checks on built subbases use the few-line distance classifier below,
not the package, so a wrong answer in the package cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

DEFAULT_SEED = 0   # the seed whose output digests are pinned in digests.json
SLACK = 1e-9       # the package's boundary tolerance and witness slack

GRAY_FILE = "gray.json"
GRAY_SUBBASE = '{"kind": "gray", "pairs": 10}\n'


@dataclass
class Job:
    """One CLI invocation; `name` is the stem of its `cmd.<name>_s` metric."""

    name: str
    argv: List[str]
    outputs: List[str]
    check: Callable  # (job, exit code, stdout, work dir) -> list of problems


@dataclass
class Workload:
    name: str
    files: Dict[str, str] = field(default_factory=dict)
    setup: List[Job] = field(default_factory=list)
    jobs: List[Job] = field(default_factory=list)


# -- a distance subbase on the square grid, classified independently -----


def square_grid(resolution: str):
    """Samples (x, y) of the square at grid step `resolution`, x-major."""
    steps = int(1 / Fraction(resolution))
    g = [Fraction(k, steps) for k in range(steps + 1)]
    return [(x, y) for x in g for y in g]


def dist(p, q) -> float:
    return math.hypot(float(p[0]) - float(q[0]), float(p[1]) - float(q[1]))


def codes(data: dict, points, depth: int) -> List[str]:
    """Digits '0', '1', 'b' of every sample under the first `depth` cuts."""
    cuts = [(points[c["center_index"]], float(Fraction(c["cut"])))
            for c in data["cuts"][:depth]]
    out = []
    for p in points:
        digits = []
        for centre, c in cuts:
            v = dist(centre, p) - c
            digits.append("0" if v < -SLACK else "1" if v > SLACK else "b")
        out.append("".join(digits))
    return out


def in_open(code: str, sigma: str) -> bool:
    return all(a == "_" or code[k] == a for k, a in enumerate(sigma))


def in_closed(code: str, sigma: str) -> bool:
    return all(a == "_" or code[k] == a or (a != "b" and code[k] == "b")
               for k, a in enumerate(sigma))


def prefixes(code: str, depth: int):
    """Renderings of the restrictions phi(x)|_m, m = 0..depth."""
    bottomed = code.replace("b", "_")
    return {bottomed[:m].rstrip("_") for m in range(depth + 1)}


def leq(u: str, v: str) -> bool:
    return all(a == "_" or (k < len(v) and v[k] == a) for k, a in enumerate(u))


def load_json(wd: Path, name: str):
    with open(wd / name) as fh:
        return json.load(fh)


def trivial_cuts(data: dict) -> int:
    """Cuts that put every grid sample on one side."""
    points = square_grid(data["space"]["resolution"])
    table = codes(data, points, len(data["cuts"]))
    return sum(1 for k in range(len(data["cuts"]))
               if len({c[k] for c in table}) == 1 and table[0][k] != "b")


# -- checks ----------------------------------------------------------------


def check_build(pairs: int, resolution: str):
    def check(job, code, stdout, wd):
        if code != 0:
            return ["exit %d, expected 0" % code]
        data = load_json(wd, job.outputs[0])
        log = [json.loads(line) for line in stdout.splitlines()
               if line.startswith("{")]
        problems = []
        if data.get("kind") != "distance" or data.get("space") != {
                "name": "square", "resolution": resolution}:
            problems.append("saved subbase is not a square %s distance "
                            "subbase" % resolution)
        if len(data.get("cuts", ())) != pairs or len(log) != pairs:
            return problems + ["expected %d cuts and log lines, got %d and %d"
                               % (pairs, len(data.get("cuts", ())), len(log))]
        npts = len(square_grid(resolution))
        for n, (cut, rec) in enumerate(zip(data["cuts"], log)):
            c = Fraction(cut["cut"])
            lo, hi = (Fraction(v) for v in rec["interval"])
            if rec["n"] != n or rec["c_n"] != cut["cut"] or not lo < c < hi:
                problems.append("cut %d disagrees with its log line" % n)
            if not 0 <= cut["center_index"] < npts:
                problems.append("cut %d has no centre on the grid" % n)
        return problems
    return check


def check_gray_strong(job, code, stdout, wd):
    report = load_json(wd, job.outputs[0])
    if code != 0 or report.get("verdict") != "pass" or report.get("violations"):
        return ["the Gray subbase must pass the strong check (exit %d, "
                "verdict %s)" % (code, report.get("verdict"))]
    return []


def check_built_strong(subbase_file: str, delta: str):
    """Every reported violation must re-verify against the saved subbase."""
    def check(job, code, stdout, wd):
        report = load_json(wd, job.outputs[0])
        want = 0 if report.get("verdict") == "pass" else 1
        problems = [] if code == want else ["exit %d for verdict %s"
                                            % (code, report.get("verdict"))]
        if (report.get("verdict") == "pass") == bool(report.get("violations")):
            problems.append("verdict and violation list disagree")
        if not report.get("violations"):
            return problems
        data = load_json(wd, subbase_file)
        points = square_grid(data["space"]["resolution"])
        table = codes(data, points, report["depth"])
        index = {p: i for i, p in enumerate(points)}
        d = float(Fraction(delta))
        for v in report["violations"]:
            sigma, p = v["sigma"], tuple(Fraction(c) for c in v["point"])
            i = index.get(p)
            if i is None or not in_closed(table[i], sigma) or in_open(table[i], sigma):
                problems.append("%s: point %s is not in the closed minus the "
                                "open set" % (sigma, v["point"]))
                continue
            near = [dist(p, q) for q, c in zip(points, table) if in_open(c, sigma)]
            nearest = min(near) if near else None
            if (nearest is None) != (v["nearest"] is None) or (
                    nearest is not None and (abs(nearest - v["nearest"]) > SLACK
                                             or nearest <= d + SLACK)):
                problems.append("%s: nearest %s does not re-verify (%s)"
                                % (sigma, v["nearest"], nearest))
        return problems
    return check


def check_kslice(subbase_file: str, depth: int):
    """The DOT nodes are exactly the sampled code prefixes; edges go up."""
    def check(job, code, stdout, wd):
        if code != 0:
            return ["exit %d, expected 0" % code]
        text = (wd / job.outputs[0]).read_text()
        labels = dict(re.findall(r'^  n(\d+) \[label="([01b_]*)"\];$', text, re.M))
        edges = re.findall(r"^  n(\d+) -> n(\d+);$", text, re.M)
        data = load_json(wd, subbase_file)
        want = set()
        for c in codes(data, square_grid(data["space"]["resolution"]), depth):
            want |= prefixes(c, depth)
        problems = []
        if set(labels.values()) != want or len(labels) != len(want):
            problems.append("DOT nodes differ from the sampled code prefixes")
        if "(%d nodes)" % len(labels) not in stdout:
            problems.append("node count in stdout differs from the DOT file")
        if any(not leq(labels.get(u, "?"), labels.get(v, "")) for u, v in edges):
            problems.append("a DOT edge does not go up in the order")
        return problems
    return check


def check_cusl_pass(permutations: int):
    def check(job, code, stdout, wd):
        want = "cusl PASS for identity and %d random permutations" % permutations
        lines = stdout.splitlines()
        if code != 0 or not lines or lines[-1] != want:
            return ["expected exit 0 and %r (exit %d)" % (want, code)]
        return []
    return check


# -- workloads ---------------------------------------------------------------


def build_job(name: str, resolution: str, pairs: int, seed: int, out: str) -> Job:
    return Job(name, ["build", "--space", "square", "--resolution", resolution,
                      "--pairs", str(pairs), "--strong", "--seed", str(seed),
                      "--out", out], [out], check_build(pairs, resolution))


def workload(name: str, seed: int) -> Workload:
    """The jobs of a workload; README.md says why each was chosen."""
    if name == "build-square":
        # builder-bound 1/32 build; 1/64 build whose full distance rows set peak RSS
        return Workload(name, jobs=[
            build_job("build", "1/32", 16, seed, "square32.json"),
            build_job("build_fine", "1/64", 4, seed, "square64.json"),
        ])
    if name == "check-gray":
        # exact Gray oracle, the only nearest scan that does work, 375-element slices
        space = ["--space", "interval", "--resolution", "1/4096", "--depth", "7"]
        return Workload(name, files={GRAY_FILE: GRAY_SUBBASE}, jobs=[
            Job("check_strong", ["check-strong", "--subbase", GRAY_FILE] + space
                + ["--delta", "1/512", "--json", "report.json"],
                ["report.json"], check_gray_strong),
            Job("check_cusl", ["check-cusl", "--subbase", GRAY_FILE] + space
                + ["--permutations", "2", "--seed", str(seed)], [], check_cusl_pass(2)),
        ])
    if name == "check-built":
        # pattern loop over few code classes; classification and nearest scan idle
        built = "built.json"
        return Workload(name, setup=[build_job("setup_build", "1/32", 12, seed, built)], jobs=[
            Job("check_strong", ["check-strong", "--subbase", built, "--depth", "8",
                                 "--delta", "1/16", "--json", "report.json"],
                ["report.json"], check_built_strong(built, "1/16")),
            Job("kslice", ["kslice", "--subbase", built, "--depth", "8",
                           "--dot", "kslice.dot"],
                ["kslice.dot"], check_kslice(built, 8)),
            Job("check_cusl", ["check-cusl", "--subbase", built, "--depth", "8",
                               "--permutations", "8", "--seed", str(seed)],
                [], check_cusl_pass(8)),
        ])
    raise KeyError(name)


WORKLOADS = ("build-square", "check-gray", "check-built")


# -- output digests ----------------------------------------------------------


def digests(job: Job, stdout: str, wd: Path) -> Dict[str, str]:
    out = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for name in job.outputs:
        out[name] = hashlib.sha256((wd / name).read_bytes()).hexdigest()
    return out


def run_checks(job: Job, code: int, stdout: str, wd: Path,
               pinned: Optional[Dict[str, str]]) -> List[str]:
    """All problems with one job's outputs; `pinned` digests when known."""
    try:
        problems = job.check(job, code, stdout, wd)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return ["outputs unreadable: %r" % (exc,)]
    if pinned is not None and not problems:
        seen = digests(job, stdout, wd)
        problems += ["%s digest differs from the pinned one (observed %s)"
                     % (k, seen.get(k)) for k in sorted(pinned)
                     if seen.get(k) != pinned[k]]
    return problems
