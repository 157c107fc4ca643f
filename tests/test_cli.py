import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import subbases
from subbases import builder
from subbases.builder import MAX_RETRIES, Exhaustion
from subbases.cli import run
from subbases.files import (load_subbase, parse_point, parse_rational,
                            save_subbase, subbase_to_json)
from subbases.space import builtin_space
from subbases.subbase import GraySubbase


@pytest.fixture()
def gray_file(tmp_path):
    path = tmp_path / "gray.json"
    save_subbase(str(path), {"kind": "gray", "pairs": 8})
    return str(path)


def test_parse_rational():
    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    with pytest.raises(ValueError):
        parse_rational("1/4/2")


def test_parse_point():
    assert parse_point("1/2") == (Fraction(1, 2),)
    assert parse_point("0.5,1/3") == (Fraction(1, 2), Fraction(1, 3))
    from subbases.space import POINT_AT_INFINITY
    assert parse_point("p") is POINT_AT_INFINITY


def test_subbase_to_json_refuses_a_gray_subbase():
    # a Gray file is written by hand: {"kind": "gray", "pairs": n}
    with pytest.raises(ValueError, match="unsupported subbase type"):
        subbase_to_json(GraySubbase(4))


def test_encode_gray(gray_file, capsys):
    code = run(["encode", "--subbase", gray_file, "--point", "1/4",
                "--depth", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "0_10"


def test_encode_gray_depth8(gray_file, capsys):
    assert run(["encode", "--subbase", gray_file, "--point", "3/4",
                "--depth", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1_100000"


def test_check_proper_cli(gray_file, tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code = run(["check-proper", "--subbase", gray_file, "--space", "interval",
                "--resolution", "1/128", "--depth", "3", "--delta", "1/32",
                "--json", str(out_json)])
    assert code == 0
    data = json.loads(out_json.read_text())
    assert data["verdict"] == "pass"
    assert set(data) >= {"verdict", "depth", "delta", "violations"}


def test_check_strong_cli(gray_file, capsys):
    code = run(["check-strong", "--subbase", gray_file, "--space", "interval",
                "--resolution", "1/128", "--depth", "3", "--delta", "1/32"])
    assert code == 0


def test_check_cusl_cli(gray_file, capsys):
    code = run(["check-cusl", "--subbase", gray_file, "--space", "interval",
                "--resolution", "1/64", "--depth", "3",
                "--permutations", "5", "--seed", "1"])
    assert code == 0
    assert "cusl PASS" in capsys.readouterr().out


def test_kslice_dot(gray_file, tmp_path, capsys):
    dot = tmp_path / "k.dot"
    code = run(["kslice", "--subbase", gray_file, "--space", "interval",
                "--resolution", "1/64", "--depth", "2", "--dot", str(dot)])
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "->" in text


def test_kslice_without_dot_prints_the_dot_text(gray_file, tmp_path, capsys):
    dot = tmp_path / "k.dot"
    args = ["kslice", "--subbase", gray_file, "--space", "interval",
            "--resolution", "1/64", "--depth", "2"]
    assert run(args + ["--dot", str(dot)]) == 0
    header = capsys.readouterr().out.splitlines(keepends=True)[0]
    assert run(args) == 0
    assert capsys.readouterr().out == header + dot.read_text()


@pytest.mark.parametrize("command", [
    ["check-strong", "--delta", "1/32"], ["kslice"], ["check-cusl"],
])
def test_gray_file_without_a_space_exits_2(gray_file, capsys, command):
    assert run(command + ["--subbase", gray_file, "--depth", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: this command needs a space: pass --space or use a "
                   "subbase file with an embedded space\n")


def test_build_roundtrip(tmp_path, capsys):
    out = tmp_path / "built.json"
    code = run(["build", "--space", "interval", "--resolution", "1/32",
                "--pairs", "6", "--seed", "42", "--out", str(out)])
    assert code == 0
    S, M = load_subbase(str(out))
    assert len(S) == 6
    assert M.name == "interval"
    # rebuilding with the same seed yields the same file
    out2 = tmp_path / "built2.json"
    run(["build", "--space", "interval", "--resolution", "1/32",
         "--pairs", "6", "--seed", "42", "--out", str(out2)])
    assert json.loads(out.read_text()) == json.loads(out2.read_text())
    code = run(["check-proper", "--subbase", str(out), "--depth", "3",
                "--delta", "1/16"])
    assert code == 0


def test_demo_gray(capsys):
    assert run(["demo", "gray"]) == 0
    out = capsys.readouterr().out
    assert "phi(1/4) = 0_100000" in out


def test_demo_duplication(capsys):
    assert run(["demo", "duplication"]) == 1
    out = capsys.readouterr().out
    assert "1/2" in out
    assert "FAIL" in out


def test_demo_compactification(capsys):
    assert run(["demo", "compactification"]) == 1
    out = capsys.readouterr().out
    assert "phi(p) = __10" in out
    assert "PASS" in out and "FAIL" in out


def test_usage_errors(tmp_path, capsys):
    assert run(["encode", "--subbase", "missing.json", "--point", "1/2",
                "--depth", "2"]) == 2
    assert run(["frobnicate"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "nonsense"}))
    assert run(["encode", "--subbase", str(bad), "--point", "1/2",
                "--depth", "2"]) == 2


@pytest.fixture(scope="module")
def square_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("square") / "square.json"
    assert run(["build", "--space", "square", "--resolution", "1/16",
                "--pairs", "8", "--seed", "0", "--out", str(path)]) == 0
    return str(path)


def _encode(square_file, capsys, *space):
    code = run(["encode", "--subbase", square_file, "--point", "1/4,1/2",
                "--depth", "8"] + list(space))
    out, err = capsys.readouterr()
    return code, out.splitlines()[-1] if code == 0 else err


@pytest.mark.parametrize("space, named", [
    (["--space", "square"], "the square space at resolution 1/256"),
    (["--resolution", "1/32"], "resolution 1/32"),
    (["--space", "interval"], "the interval space at resolution 1/256"),
    (["--space", "square", "--resolution", "1/32"],
     "the square space at resolution 1/32"),
])
def test_space_conflicting_with_the_file_exits_2(square_file, capsys, space,
                                                 named):
    code, err = _encode(square_file, capsys, *space)
    assert code == 2
    assert "embeds the square space at resolution 1/16" in err
    assert "command line names %s" % named in err


@pytest.mark.parametrize("space", [
    ["--space", "square", "--resolution", "1/16"],
    ["--resolution", "1/16"],
])
def test_space_matching_the_file_keeps_the_code(square_file, capsys, space):
    plain = _encode(square_file, capsys)
    assert plain[0] == 0
    assert _encode(square_file, capsys, *space) == plain


@pytest.mark.parametrize("cut, shown", [
    (Fraction(5, 32), "_"), (Fraction(5, 32) + Fraction(1, 10 ** 10), "0"),
    (Fraction(5, 32) - Fraction(1, 10 ** 10), "1")])
def test_encode_decides_the_sphere_exactly(tmp_path, capsys, cut, shown):
    """The point (3/32, 4/32) is 5/32 from the square's corner: only the
    cut at 5/32 itself leaves its digit unclassified (bottom)."""
    path = tmp_path / "sphere.json"
    save_subbase(str(path), {
        "kind": "distance", "cuts": [{"center_index": 0, "cut": str(cut)}],
        "space": {"name": "square", "resolution": "1/32"}})
    assert run(["encode", "--subbase", str(path), "--point", "3/32,1/8",
                "--depth", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == shown


def test_center_index_out_of_range(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"kind": "distance", "cuts": [
        {"center_index": 3, "cut": "1/2"}, {"center_index": 17, "cut": "1/4"}]}))
    with pytest.raises(ValueError, match="center_index 17"):
        load_subbase(str(path), builtin_space("interval", Fraction(1, 8)))
    assert run(["encode", "--subbase", str(path), "--point", "1/2",
                "--depth", "2", "--space", "interval",
                "--resolution", "1/8"]) == 2
    assert "center_index 17" in capsys.readouterr().err


def test_finite_space_file_mismatch_exits_2(tmp_path, capsys):
    # a 4-point path metric and a 4-point uniform metric on the same points
    points = [[0], [1], [2], [3]]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"points": points, "metric": [
        [abs(i - j) for j in range(4)] for i in range(4)]}))
    b.write_text(json.dumps({"points": points, "metric": [
        [int(i != j) for j in range(4)] for i in range(4)]}))
    built = tmp_path / "s.json"
    assert run(["build", "--space-file", str(a), "--resolution", "1",
                "--pairs", "3", "--seed", "0", "--out", str(built)]) == 0
    digest = json.loads(built.read_text())["space"]["digest"]
    encode = ["encode", "--subbase", str(built), "--point", "1", "--depth", "3",
              "--resolution", "1", "--space-file"]
    capsys.readouterr()
    assert run(encode + [str(a)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "011"
    assert run(encode + [str(b)]) == 2
    err = capsys.readouterr().err
    assert "embeds the finite space with digest %s" % digest in err
    assert "%s has digest " % b in err and err.count("digest") == 2


def test_metric_entry_beyond_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"points": [[0], [1]],
                                "metric": [[0, 10 ** 400], [10 ** 400, 0]]}))
    assert run(["build", "--space-file", str(path), "--resolution", "1",
                "--pairs", "1", "--out", str(tmp_path / "s.json")]) == 2
    assert ("metric entry (0, 1) is too large for a float"
            in capsys.readouterr().err)


@pytest.mark.parametrize("body", [
    {"points": [0, 1], "metric": [[0, 1], [1, 0]]},
    {"points": [None, [1]], "metric": [[0, 1], [1, 0]]},
    {"points": 3, "metric": [[0, 1], [1, 0]]},
    {"points": [[0], [1]], "metric": [0, 1]},
    {"points": [[0], [1]], "metric": None},
    {"points": [], "metric": []},
], ids=["scalar-points", "null-point", "points-not-a-list", "scalar-rows",
        "null-metric", "no-points"])
def test_malformed_space_file_exits_2(tmp_path, capsys, body):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(body))
    assert run(["build", "--space-file", str(path), "--resolution", "1",
                "--pairs", "1", "--out", str(tmp_path / "s.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: space file 'points' must be a non-empty")


def test_delta_is_checked_before_the_space_file_loads(gray_file, tmp_path,
                                                      capsys, monkeypatch):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": [[0], [1]], "metric": [[0, 1], [1, 0]]}))

    def fail(*args):
        pytest.fail("the space file was loaded")

    monkeypatch.setattr("subbases.space.validate_metric", fail)
    assert run(["check-strong", "--subbase", gray_file, "--space-file",
                str(path), "--resolution", "1", "--depth", "2",
                "--delta", "1"]) == 2
    assert ("delta 1 is below twice the grid resolution 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["check-strong", "check-proper"])
def test_delta_below_an_embedded_space_resolution_prints_no_header(
        square_file, capsys, command):
    assert run([command, "--subbase", square_file, "--depth", "2",
                "--delta", "1/1000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "delta 1/1000 is below twice the grid resolution 1/16" in err


def test_check_cusl_rejects_negative_permutations(gray_file, capsys):
    assert run(["check-cusl", "--subbase", gray_file, "--space", "interval",
                "--resolution", "1/64", "--depth", "3",
                "--permutations", "-2"]) == 2
    out, err = capsys.readouterr()
    assert "cusl PASS" not in out
    assert "--permutations must be non-negative, got -2" in err


@pytest.mark.parametrize("command", [
    ["build", "--pairs", "1"],
    ["encode", "--point", "1"],
    ["kslice", "--depth", "1"],
    ["check-proper", "--depth", "1", "--delta", "2"],
    ["check-strong", "--depth", "1", "--delta", "2"],
    ["check-cusl", "--depth", "1"],
], ids=lambda command: command[0])
def test_space_and_space_file_together_exit_2(gray_file, tmp_path, capsys,
                                              command):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": [[0], [1]], "metric": [[0, 1], [1, 0]]}))
    built = tmp_path / "built.json"
    target = ["--out", str(built)] if command[0] == "build" else [
        "--subbase", gray_file]
    assert run(command + target + ["--space", "interval", "--space-file",
                                   str(space), "--resolution", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --space-file: not allowed with argument --space" in err
    assert not built.exists()


@pytest.mark.parametrize("resolution", ["-1", "0"])
def test_finite_resolution_not_positive_exits_2(gray_file, tmp_path, capsys,
                                                resolution):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": [[0], [1]], "metric": [[0, 1], [1, 0]]}))
    # a delta of twice the resolution passes check_delta
    assert run(["check-strong", "--subbase", gray_file, "--space-file",
                str(space), "--resolution", resolution, "--depth", "1",
                "--delta", str(2 * int(resolution))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: resolution must be positive: %s\n" % resolution
    # refused before the file is read: a missing file gives the same error
    assert run(["build", "--space-file", str(tmp_path / "missing.json"),
                "--resolution", resolution, "--pairs", "1",
                "--out", str(tmp_path / "built.json")]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("command", [
    ["check-strong", "--delta", "1/32"], ["check-proper", "--delta", "1/32"],
    ["kslice"], ["check-cusl"],
])
def test_negative_depth_exits_2_naming_it(gray_file, capsys, command):
    # refused before the header, as is a depth past the 8 pairs
    for depth, error in (("-3", "depth must be non-negative, got -3"),
                         ("9", "depth 9 exceeds number of cuts 8")):
        assert run(command + ["--subbase", gray_file, "--space", "interval",
                              "--resolution", "1/64", "--depth", depth]) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % error)


def test_gray_subbase_on_the_square_exits_2(gray_file, capsys):
    # a Gray digit reads one coordinate: the load refuses a plane lattice
    # before any header, on every command that reads a subbase
    for space in ("square", "torus"):
        for command in (["encode", "--point", "1/4,1/4"], ["kslice"],
                        ["check-strong", "--delta", "1/2"], ["check-cusl"]):
            assert run(command + ["--subbase", gray_file, "--space", space,
                                  "--resolution", "1/4", "--depth", "2"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("error: %s is a Gray subbase of [0, 1], not of the "
                           "%s: its digits read scalar points, and the %s's "
                           "points have 2 coordinates\n"
                           % (gray_file, space, space))


def test_gray_digit_row_refuses_a_plane_lattice():
    M = builtin_space("square", Fraction(1, 4))
    with pytest.raises(ValueError, match="the Gray subbase reads scalar "
                       "points, but the square's points have 2 coordinates"):
        GraySubbase(8).digit_row(0, M)


@pytest.mark.parametrize("command", [
    ["encode", "--point", "1/4"], ["kslice"],
    ["check-strong", "--delta", "1/32"], ["check-cusl"],
])
def test_gray_subbase_on_the_circle_exits_2(gray_file, capsys, command):
    # the circle identifies 0 with 1: Gray's first pair is not open there
    assert run(command + ["--subbase", gray_file, "--space", "circle",
                          "--resolution", "1/64", "--depth", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: %s is a Gray subbase of [0, 1], not of the circle: "
                   "the circle identifies 0 with 1, so S_0^0 = [0, 1/2) is "
                   "not open there\n" % gray_file)


def test_gray_subbase_on_a_point_outside_the_unit_interval_exits_2(
        gray_file, tmp_path, capsys):
    # the load reads every finite point as a Gray digit would, so a point
    # outside [0, 1] or of two coordinates is refused before any header
    for points, point, message in (
            ([[0], [1], [2]], "1", "x must lie in [0, 1]: 2"),
            ([[0, 0], [1, 0]], "1,0", "expected a scalar point, got "
             "(Fraction(0, 1), Fraction(0, 1))")):
        space = tmp_path / "space.json"
        n = len(points)
        space.write_text(json.dumps({"points": points, "metric": [
            [abs(i - j) for j in range(n)] for i in range(n)]}))
        for command in (["encode", "--point", point], ["kslice"],
                        ["check-strong", "--delta", "2"], ["check-cusl"]):
            assert run(command + ["--subbase", gray_file, "--space-file",
                                  str(space), "--resolution", "1",
                                  "--depth", "2"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: %s\n" % message


def test_encode_the_added_point_without_a_space_exits_2(gray_file, capsys):
    # with no space named, `p` (the compactification's added point) reaches
    # the Gray digit itself, which takes scalars only
    assert run(["encode", "--subbase", gray_file, "--point", "p",
                "--depth", "3"]) == 2
    assert capsys.readouterr().err == "error: expected a scalar point, got p\n"


def test_encode_negative_depth_exits_2(tmp_path, capsys):
    path = tmp_path / "gray10.json"
    save_subbase(str(path), {"kind": "gray", "pairs": 10})
    assert run(["encode", "--subbase", str(path), "--space", "interval",
                "--resolution", "1/16", "--point", "1/4", "--depth", "-2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: depth must be non-negative, got -2\n"


@pytest.mark.parametrize("data, message", [
    ({"kind": "gray", "pairs": 2.7},
     "pairs must be a non-negative integer, got 2.7"),
    ({"kind": "gray", "pairs": -3},
     "pairs must be a non-negative integer, got -3"),
    ({"kind": "gray", "pairs": True},
     "pairs must be a non-negative integer, got true"),
    ({"kind": "gray", "pairs": "4"},
     'pairs must be a non-negative integer, got "4"'),
    ({"kind": "distance", "cuts": [{"center_index": 5.9, "cut": "1/2"}]},
     "center_index must be a non-negative integer, got 5.9"),
    ({"kind": "distance", "cuts": [{"center_index": False, "cut": "1/2"}]},
     "center_index must be a non-negative integer, got false"),
    ({"kind": "distance", "cuts": [{"cut": "1/2"}]},
     "center_index must be a non-negative integer, got null"),
    ({"kind": "distance", "cuts": [{"center_index": 5, "cut": 0.5}]},
     'cut must be a string such as "1/3", got 0.5'),
    ([], "a subbase file must be a JSON object, got []"),
    ("gray", 'a subbase file must be a JSON object, got "gray"'),
    ({"kind": "distance", "cuts": [5]}, "cuts[0] must be an object, got 5"),
    ({"kind": "distance", "cuts": {"x": 1}},
     'cuts must be a list, got {"x": 1}'),
    ({"kind": "distance", "space": "square", "cuts": []},
     'space must be an object, got "square"'),
    ({"kind": "distance", "space": {"name": "square"}, "cuts": []},
     "space.resolution must be a string, got null"),
])
def test_malformed_subbase_fields_exit_2_naming_the_field(tmp_path, capsys,
                                                          data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["encode", "--subbase", str(path), "--space", "interval",
                "--resolution", "1/8", "--point", "1/2", "--depth", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.fixture(scope="module")
def built_files(tmp_path_factory):
    """One small built subbase per grid space, plus one on a 3-point
    finite space (with its space file)."""
    root = tmp_path_factory.mktemp("spaces")
    finite = root / "points.json"
    finite.write_text(json.dumps({"points": [[0], [1], [3]], "metric": [
        [0, 1, 3], [1, 0, 2], [3, 2, 0]]}))
    files = {}
    for name, space in (("square", ["--space", "square"]),
                        ("circle", ["--space", "circle"]),
                        ("torus", ["--space", "torus"]),
                        ("finite", ["--space-file", str(finite)])):
        files[name] = str(root / ("%s.json" % name))
        assert run(["build"] + space + ["--resolution", "1" if name == "finite"
                                        else "1/16", "--pairs", "2",
                                        "--out", files[name]]) == 0
    files["finite_space"] = ["--space-file", str(finite), "--resolution", "1"]
    return files


@pytest.mark.parametrize("space, point, message", [
    ("square", "2,2", "point 2,2 is not in the square space [0, 1] x [0, 1]"),
    ("square", "1/2,1/2,1/2",
     "point 1/2,1/2,1/2 is not in the square space [0, 1] x [0, 1]"),
    ("square", "1/2", "point 1/2 is not in the square space [0, 1] x [0, 1]"),
    ("square", "1/4,-1/8",
     "point 1/4,-1/8 is not in the square space [0, 1] x [0, 1]"),
    ("square", "p", "point p is not in the square space [0, 1] x [0, 1]"),
    ("circle", "5", "point 5 is not in the circle space [0, 1)"),
    ("circle", "1", "point 1 is not in the circle space [0, 1)"),
    ("circle", "1/2,0", "point 1/2,0 is not in the circle space [0, 1)"),
    ("torus", "1/2,1", "point 1/2,1 is not in the torus space [0, 1) x [0, 1)"),
    ("finite", "2", "point 2 is not one of the 3 points of the finite space"),
    ("finite", "1/2", "point 1/2 is not one of the 3 points of the finite space"),
])
def test_encode_point_outside_the_space_exits_2(built_files, capsys, space,
                                                point, message):
    extra = built_files["finite_space"] if space == "finite" else []
    capsys.readouterr()
    assert run(["encode", "--subbase", built_files[space], "--point", point,
                "--depth", "2"] + extra) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("space, point", [
    ("square", "1,0"), ("square", "1/3,1/7"), ("circle", "0"),
    ("circle", "99/100"), ("torus", "0,1/2"), ("finite", "3"),
])
def test_encode_point_of_the_space_exits_0(built_files, capsys, space, point):
    extra = built_files["finite_space"] if space == "finite" else []
    capsys.readouterr()
    assert run(["encode", "--subbase", built_files[space], "--point", point,
                "--depth", "2"] + extra) == 0
    assert len(capsys.readouterr().out.splitlines()[-1]) == 2


@pytest.mark.parametrize("command", [
    ["build", "--pairs", "1"],
    ["encode", "--point", "1/2", "--depth", "1"],
    ["kslice", "--depth", "1"],
    ["check-proper", "--depth", "1", "--delta", "1/2"],
    ["check-strong", "--depth", "1", "--delta", "1/2"],
    ["check-cusl", "--depth", "1"],
], ids=lambda command: command[0])
def test_resolution_with_a_zero_denominator_exits_2(gray_file, tmp_path, capsys,
                                                    command):
    built = tmp_path / "built.json"
    target = ["--out", str(built)] if command[0] == "build" else [
        "--subbase", gray_file]
    assert run(command + target + ["--space", "square",
                                   "--resolution", "1/0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --resolution: cannot parse rational '1/0'" in err
    assert "Traceback" not in err
    assert not built.exists()


@pytest.mark.parametrize("option", ["--resolution", "--delta"])
def test_rational_option_errors_name_what_they_parse(gray_file, capsys, option):
    """The error names the option and quotes parse_rational's message,
    not the name of the function argparse calls."""
    argv = ["check-proper", "--subbase", gray_file, "--space", "interval",
            "--depth", "1", "--delta", "1/2", option, "abc"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument %s: cannot parse rational 'abc'" % option in err
    assert "parse_rational" not in err and "Traceback" not in err


def test_exhausted_build_exits_2(tmp_path, capsys, monkeypatch):
    calls = []

    def crowded(interval, avoid, rng):
        calls.append(interval)
        raise Exhaustion("base interval %d is crowded" % len(calls))

    monkeypatch.setattr(builder, "choose_cut", crowded)
    built = tmp_path / "built.json"
    assert run(["build", "--space", "interval", "--resolution", "1/8",
                "--pairs", "1", "--out", str(built)]) == 2
    # the first base interval and MAX_RETRIES more are tried, then refused
    assert len(calls) == MAX_RETRIES + 1
    assert capsys.readouterr() == (
        "", "error: base interval %d is crowded\n" % (MAX_RETRIES + 1))
    assert not built.exists()


@pytest.mark.parametrize("command", [
    ["encode", "--point", "1/2"], ["kslice"], ["check-strong", "--delta", "1/4"],
], ids=lambda command: command[0])
def test_grid_past_the_int32_neighbour_arrays_exits_2(gray_file, capsys,
                                                      command):
    assert run(command + ["--subbase", gray_file, "--space", "interval",
                          "--resolution", "1e-30", "--depth", "2"]) == 2
    assert capsys.readouterr() == (
        "", "error: the interval grid at resolution 1/%d has %d samples, more "
        "than the 2147483647 an int32 neighbour array can index\n"
        % (10 ** 30, 10 ** 30 + 1))


BUILD_ON_FILE = ["build", "--space-file", "in.json", "--resolution", "1",
                 "--pairs", "1", "--out", "out.json"]


@pytest.mark.parametrize("body, argv, message", [
    (None, ["build", "--space", "square", "--resolution", "2", "--pairs", "1",
            "--out", "out.json"], "resolution must be in (0, 1]: 2"),
    ({"points": [[0], [1]]}, BUILD_ON_FILE,
     "space file must contain 'points' and 'metric'"),
    ({"points": [[0], [1]], "metric": [[0, 1], [1, 0], [1, 1]]}, BUILD_ON_FILE,
     "metric matrix must be 2x2"),
    ({"points": [[0], [0]], "metric": [[0, 1], [1, 0]]}, BUILD_ON_FILE,
     "duplicate points in space file"),
    ({"kind": "distance", "cuts": [{"center_index": 0, "cut": "1/2"}]},
     ["encode", "--subbase", "in.json", "--point", "1/2", "--depth", "1"],
     "distance subbase needs a space (embedded or via --space)"),
    (None, ["build", "--space", "square", "--resolution", "1/8", "--pairs",
            "-1", "--out", "out.json"], "count must be non-negative"),
], ids=["resolution-above-1", "no-metric", "metric-not-square",
        "duplicate-points", "distance-without-space", "negative-pairs"])
def test_refused_input_exits_2_with_one_error_line(tmp_path, capsys,
                                                   monkeypatch, body, argv,
                                                   message):
    monkeypatch.chdir(tmp_path)
    if body is not None:
        (tmp_path / "in.json").write_text(json.dumps(body))
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and two CPUs")
@pytest.mark.parametrize("env, expected", [({}, "1 1"),
                                           ({"OPENBLAS_NUM_THREADS": "2"}, "2 2")])
def test_cli_process_starts_one_blas_thread(env, expected):
    """A `subbase` process runs no OpenBLAS worker beside its main thread;
    a thread count the user set wins, with its worker.  The child gets no
    thread count from this process, which set one when it imported the
    CLI."""
    src = str(Path(subbases.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")}
    code = ("import os, subbases.cli; print(len(os.listdir('/proc/self/task')), "
            "os.environ['OPENBLAS_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(base, PYTHONPATH=src, **env)).stdout
    assert out.strip() == expected
