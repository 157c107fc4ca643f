"""Command-line front door: build, encode, K slices, checks and demos.

Exit codes: 0 on success/pass, 1 on a check failure, 2 on usage or
configuration errors.  A command does its work and writes its files
before it prints, so an exit 2 prints nothing on stdout.
"""

from __future__ import annotations

# one BLAS thread, set before `.space` imports numpy: the package makes
# no BLAS call (`np.add.outer` is a ufunc), so OpenBLAS's worker thread
# only costs CPU.  The command line sets it, not the library, and a value
# already in the environment wins.  `os` is loaded at start-up anyway.
import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# the package modules next, then the rest of the standard library:
# without a bytecode cache, importing argparse first raised a CLI's peak
# RSS by 0.1-0.3 MB
from .seq import render
from .space import POINT_AT_INFINITY, SpaceModel, builtin_space
from .subbase import (GraySubbase, compactified_example, digit_table,
                      duplicated_subbase, enumerate_K, is_cusl, kslice_to_dot,
                      phi, table_kslice)
from . import checker as checker_mod
from .builder import build, separation_fraction
from . import files

import argparse
import json
import random
import sys
from fractions import Fraction

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_RESOLUTION = Fraction(1, 256)


def _header(**kv):
    parts = ["%s=%s" % (k, v) for k, v in kv.items() if v is not None]
    print("# " + " ".join(parts))


def _resolution(args) -> Fraction:
    return DEFAULT_RESOLUTION if args.resolution is None else args.resolution


def _space_from_args(args) -> SpaceModel:
    if args.space_file:
        return builtin_space("finite", _resolution(args), file=args.space_file)
    return builtin_space(args.space, _resolution(args))


def _load_subbase(args, need_space=False):
    M = None
    if args.space or args.space_file:
        M = _space_from_args(args)
    S, M = files.load_subbase(args.subbase, M=M, space_file=args.space_file)
    if (args.resolution is not None and M is not None
            and M.resolution != args.resolution):
        raise ValueError("%s embeds the %s space at resolution %s, but the "
                         "command line names resolution %s"
                         % (args.subbase, M.name, M.resolution, args.resolution))
    if args.resolution is not None and M is None:
        raise ValueError("--resolution %s names no space: pass --space or "
                         "--space-file, or use a subbase file with an "
                         "embedded space" % args.resolution)
    if need_space and M is None:
        raise ValueError("this command needs a space: pass --space or use a "
                         "subbase file with an embedded space")
    return S, M


def cmd_build(args) -> int:
    M = _space_from_args(args)
    result = build(M, args.pairs, args.strong, args.seed)
    files.save_subbase(args.out, files.subbase_to_json(result.subbase))
    _header(command="build", space=M.name, resolution=M.resolution,
            pairs=args.pairs, strong=args.strong, seed=args.seed)
    for record in result.log:
        print(json.dumps(record))
    print("# separation=%.6f" % separation_fraction(result.table))
    print("# wrote %s" % args.out)
    return EXIT_PASS


def cmd_encode(args) -> int:
    S, M = _load_subbase(args)
    x = files.parse_point(args.point)
    if M is not None:
        M.check_point(x)
    code = phi(S, x, args.depth)
    _header(command="encode", subbase=args.subbase, point=args.point,
            depth=args.depth)
    print(render(code, width=args.depth))
    return EXIT_PASS


def cmd_kslice(args) -> int:
    S, M = _load_subbase(args, need_space=True)
    K = enumerate_K(S, M, args.depth)
    text = kslice_to_dot(K)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(text)
        text = "# wrote %s (%d nodes)\n" % (args.dot, len(K.elements))
    _header(command="kslice", space=M.name, resolution=M.resolution,
            depth=args.depth)
    print(text, end="")
    return EXIT_PASS


def cmd_check(args) -> int:
    if args.space or args.space_file:  # a bad delta exits before the load
        checker_mod.check_delta(_resolution(args), args.delta)
    S, M = _load_subbase(args, need_space=True)
    fn = checker_mod.check_strong_proper if args.strong else checker_mod.check_proper
    report = fn(S, M, args.depth, args.delta)
    text = report.to_text()
    if args.json:
        checker_mod.report_to_json_file(report, args.json)
        text += "\n# wrote %s" % args.json
    _header(command=args.command, space=M.name, resolution=M.resolution,
            depth=args.depth, delta=args.delta)
    print(text)
    return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_check_cusl(args) -> int:
    if args.permutations < 0:
        raise ValueError("--permutations must be non-negative, got %d"
                         % args.permutations)
    S, M = _load_subbase(args, need_space=True)
    table = digit_table(S, M, args.depth)
    rng = random.Random(args.seed)
    perms = [list(range(args.depth))]
    for _ in range(args.permutations):
        pi = list(range(args.depth))
        rng.shuffle(pi)
        perms.append(pi)
    reports = [is_cusl(table_kslice(table[pi])) for pi in perms]
    _header(command="check-cusl", space=M.name, resolution=M.resolution,
            depth=args.depth, permutations=args.permutations, seed=args.seed)
    for pi, rep in zip(perms, reports):
        if not rep.ok:
            print("cusl FAIL under permutation %s: pair (%s, %s), minimal "
                  "upper bounds %s"
                  % (pi, render(rep.sigma), render(rep.tau),
                     [render(u) for u in rep.minimal_upper_bounds]))
    if all(rep.ok for rep in reports):
        print("cusl PASS for identity and %d random permutations"
              % args.permutations)
        return EXIT_PASS
    return EXIT_FAIL


def cmd_demo(args) -> int:
    return {"gray": _demo_gray, "duplication": _demo_duplication,
            "compactification": _demo_compactification}[args.name]()


def _demo_gray() -> int:
    _header(command="demo", name="gray", resolution=Fraction(1, 256),
            depth=4, delta=Fraction(1, 32))
    S = GraySubbase(8)
    for x in (Fraction(1, 4), Fraction(3, 4), Fraction(1, 3)):
        print("phi(%s) = %s" % (x, render(phi(S, (x,), 8), width=8)))
    M = builtin_space("interval", Fraction(1, 256))
    report = checker_mod.check_strong_proper(S, M, 4, Fraction(1, 32))
    print(report.to_text())
    K = enumerate_K(S, M, 4)
    rep = is_cusl(K)
    print("kslice: %d elements, cusl %s" % (len(K.elements),
                                            "PASS" if rep.ok else "FAIL"))
    return EXIT_PASS if report.ok and rep.ok else EXIT_FAIL


def _demo_duplication() -> int:
    _header(command="demo", name="duplication", resolution=Fraction(1, 256),
            depth=5, delta=Fraction(1, 64))
    S = duplicated_subbase(GraySubbase(4), 0)
    M = builtin_space("interval", Fraction(1, 256))
    report = checker_mod.check_proper(S, M, 5, Fraction(1, 64))
    print(report.to_text())
    print("duplicating a pair makes the subbase non-proper: the pattern "
          "0 at the first copy and 1 at the second has empty open set but "
          "keeps the shared boundary point in its closed set.")
    return EXIT_PASS if report.ok else EXIT_FAIL


def _demo_compactification() -> int:
    _header(command="demo", name="compactification",
            resolution=Fraction(1, 256), depth=3, delta=Fraction(1, 32))
    M, S = compactified_example(Fraction(1, 256))
    print("phi(p) = %s" % render(phi(S, POINT_AT_INFINITY, 4), width=4))
    proper = checker_mod.check_proper(S, M, 3, Fraction(1, 32))
    print(proper.to_text())
    strong = checker_mod.check_strong_proper(S, M, 3, Fraction(1, 32))
    print(strong.to_text())
    print("the model is proper but not strongly proper: the added point "
          "lies in the closed set of (boundary at 0, 0 at 1) while the "
          "corresponding open set is empty.")
    # any failing check exits 1; the strong check is expected to fail here
    return EXIT_PASS if proper.ok and strong.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="subbase",
                                description="Dyadic subbases: encode points, "
                                "verify properness, build subbases.")
    sub = p.add_subparsers(dest="command", required=True)

    def rational(text):
        """`files.parse_rational`, whose message argparse prints as is."""
        try:
            return files.parse_rational(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    def add_space(sp):
        where = sp.add_mutually_exclusive_group()
        where.add_argument("--space", choices=("interval", "circle", "square",
                                               "torus"))
        where.add_argument("--space-file", help="finite space JSON file")
        sp.add_argument("--resolution", type=rational,
                        help="grid step, e.g. 1/256 (the default)")

    sp = sub.add_parser("build", help="construct a subbase by randomized cuts")
    add_space(sp)
    sp.add_argument("--pairs", type=int, required=True)
    sp.add_argument("--strong", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("encode", help="print the code of a point")
    sp.add_argument("--subbase", required=True)
    sp.add_argument("--point", required=True, help='e.g. "1/4" or "1/2,1/3"')
    sp.add_argument("--depth", type=int, required=True)
    add_space(sp)
    sp.set_defaults(fn=cmd_encode)

    sp = sub.add_parser("kslice", help="enumerate a K slice, export DOT")
    sp.add_argument("--subbase", required=True)
    add_space(sp)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--dot", help="output DOT file")
    sp.set_defaults(fn=cmd_kslice)

    for name in ("check-proper", "check-strong"):
        sp = sub.add_parser(name)
        sp.add_argument("--subbase", required=True)
        add_space(sp)
        sp.add_argument("--depth", type=int, required=True)
        sp.add_argument("--delta", type=rational, required=True,
                        help="witness radius, e.g. 1/64")
        sp.add_argument("--json", help="machine-readable report file")
        sp.set_defaults(fn=cmd_check, strong=name == "check-strong")

    sp = sub.add_parser("check-cusl")
    sp.add_argument("--subbase", required=True)
    add_space(sp)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--permutations", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_check_cusl)

    sp = sub.add_parser("demo", help="reproduce the worked examples")
    sp.add_argument("name", choices=("gray", "duplication", "compactification"))
    sp.set_defaults(fn=cmd_demo)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.fn(args)
    except (ValueError, OSError, IndexError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
