"""Pinned CLI outputs: every entry of `tests/pins.json`, one test each.

An entry names a command (`argv`, run as `python -m subbases.cli` with
this tree's `src` on PYTHONPATH), the exit code it must return, an
optional `timeout` in seconds, and SHA-256 digests of what it prints
(`stdout`, or `records`: the lines that start with `{`, as in a build
log whose other lines name paths) and of the `files` it writes, plus an
optional `last_line` it must print.  `why` says what the pin is for.

The entries run in order in one temporary directory with relative file
names, because headers print the paths they were given; a later entry
may read a file an earlier one wrote, so running one entry alone runs
those before it first.  The directory holds the inputs below: two Gray
subbase files, a three-cut distance subbase of the interval (it fails
every check) and a seeded 300-point L1 finite space.

The digests were recorded once and are pinned by hand; no test rewrites
them.  A mismatch prints the observed values in the manifest's own
fields, to be copied into the entry if the change is meant.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENTRIES = json.loads((ROOT / "tests" / "pins.json").read_text())
PINNED = ("exit", "stdout", "records", "files", "last_line")

DISTANCE3 = ('{"kind": "distance", "cuts": [{"center_index": 3, "cut": "1/8"}, '
             '{"center_index": 0, "cut": "1/4"}, '
             '{"center_index": 5, "cut": "1/8"}], '
             '"space": {"name": "interval", "resolution": "1/8"}}\n')


def write_inputs(cwd: Path):
    (cwd / "gray10.json").write_text('{"kind": "gray", "pairs": 10}\n')
    (cwd / "gray12.json").write_text('{"kind": "gray", "pairs": 12}\n')
    (cwd / "distance3.json").write_text(DISTANCE3)
    # 300 points with integer coordinates below 10^6 under the L1 metric
    r = random.Random(0)
    p = [(r.randrange(10 ** 6), r.randrange(10 ** 6)) for _ in range(300)]
    with open(cwd / "l1.json", "w") as fh:
        json.dump({"points": [[i] for i in range(300)],
                   "metric": [[abs(a - c) + abs(b - d) for c, d in p]
                              for a, b in p]}, fh)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned(entry) -> dict:
    return {k: entry[k] for k in PINNED if k in entry}


def observe(entry, cwd: Path) -> dict:
    """The values of the entry's pinned fields that its command gives in
    cwd, or {"timeout": "expired"} past its timeout."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    try:
        proc = subprocess.run([sys.executable, "-m", "subbases.cli", *entry["argv"]],
                              cwd=cwd, env=env, capture_output=True,
                              timeout=entry.get("timeout"))
    except subprocess.TimeoutExpired:
        return {"timeout": "expired"}
    lines = proc.stdout.split(b"\n")
    got = {"exit": proc.returncode,
           "stdout": _sha(proc.stdout),
           "records": _sha(b"".join(s + b"\n" for s in lines if s.startswith(b"{"))),
           "files": {f: _sha((cwd / f).read_bytes()) if (cwd / f).exists() else None
                     for f in entry["files"]},
           "last_line": proc.stdout.decode().rstrip("\n").split("\n")[-1]}
    return {k: got[k] for k in pinned(entry)}


def check(entry, observed):
    assert observed == pinned(entry), (
        "pin %r does not hold; observed:\n%s"
        % (entry["name"], json.dumps(observed, indent=2)))


@pytest.fixture(scope="module")
def run_upto(tmp_path_factory):
    """Observe the entries in order, each once, up to the one named."""
    cwd = tmp_path_factory.mktemp("pins")
    write_inputs(cwd)
    seen = {}

    def upto(name):
        for entry in ENTRIES:
            if entry["name"] not in seen:
                seen[entry["name"]] = observe(entry, cwd)
            if entry["name"] == name:
                return seen[name]
    return upto


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_pin(entry, run_upto):
    check(entry, run_upto(entry["name"]))


def test_manifest_shape():
    """Names are unique, every entry has its fields, and every pinned file
    is one the command names."""
    assert len({e["name"] for e in ENTRIES}) == len(ENTRIES)
    for e in ENTRIES:
        assert {"name", "why", "argv", "exit", "files"} <= set(e), e["name"]
        assert set(e) <= {"name", "why", "argv", "timeout", *PINNED}, e["name"]
        assert set(e["files"]) <= set(e["argv"]), e["name"]


def test_runner_refuses_wrong_values(tmp_path):
    """A wrong digest, exit code or last line fails an entry, and so does a
    timeout too small for its command."""
    probe = {"name": "probe", "argv": ["build", "--space", "circle",
                                       "--resolution", "1/16", "--pairs", "2",
                                       "--seed", "0", "--out", "probe.json"],
             "exit": 0, "timeout": 60, "stdout": "", "records": "",
             "files": {"probe.json": ""}, "last_line": ""}
    right = dict(probe, **observe(probe, tmp_path))
    observed = observe(right, tmp_path)
    check(right, observed)
    assert right["last_line"] == "# wrote probe.json"
    assert right["records"] != _sha(b"")
    wrong = "0" * 64
    for entry in (dict(right, stdout=wrong), dict(right, records=wrong),
                  dict(right, files={"probe.json": wrong}), dict(right, exit=1),
                  dict(right, last_line="# wrote x.json")):
        with pytest.raises(AssertionError, match="pin 'probe' does not hold"):
            check(entry, observed)
    late = observe(dict(right, timeout=0.001), tmp_path)
    assert late == {"timeout": "expired"}
    with pytest.raises(AssertionError, match="pin 'probe' does not hold"):
        check(right, late)
