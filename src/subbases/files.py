"""JSON serialization of subbases and parsing of points/rationals."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Tuple

from .space import POINT_AT_INFINITY, SpaceModel, builtin_space
from .subbase import DistanceCut, DistanceSubbase, DyadicSubbase, GraySubbase


def parse_rational(text: str) -> Fraction:
    """Accept 'p/q' and decimal notation; decimals become exact rationals."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("cannot parse rational %r" % text) from exc


def parse_point(text: str):
    """Point syntax: 'x' or 'x,y' with rational/decimal coordinates; 'p'
    names the compactification point."""
    text = text.strip()
    if text == "p":
        return POINT_AT_INFINITY
    return tuple(parse_rational(part) for part in text.split(","))


def space_digest(M: SpaceModel) -> str:
    """SHA-256 of a finite space's points and exact matrix, in sample order."""
    import hashlib  # loads OpenSSL, about 3.5 MB of RSS: only finite spaces pay
    data = {"points": [[str(c) for c in p] for p in M.sample_points],
            "metric": [[str(v) for v in row] for row in M.exact]}
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def subbase_to_json(S: DyadicSubbase) -> dict:
    """A distance subbase with its space: name and resolution, plus the
    digest of a finite space, whose file the name does not identify."""
    if not isinstance(S, DistanceSubbase):
        raise ValueError("unsupported subbase type for serialization")
    space = {"name": S.space.name, "resolution": str(S.space.resolution)}
    if S.space.name == "finite":
        space["digest"] = space_digest(S.space)
    return {
        "kind": "distance",
        "cuts": [{"center_index": c.center_index, "cut": str(c.c)}
                 for c in S.cuts],
        "space": space,
    }


def save_subbase(path: str, data: dict):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _count(rec: dict, field: str, default=None) -> int:
    """A non-negative JSON integer field (a bool is not one)."""
    value = rec.get(field, default)
    if type(value) is not int or value < 0:
        raise ValueError("%s must be a non-negative integer, got %s"
                         % (field, json.dumps(value)))
    return value


def _typed(value, name: str, kind: type, what: str):
    """value if it is a `kind`, else a ValueError naming it."""
    if not isinstance(value, kind):
        raise ValueError("%s must be %s, got %s" % (name, what, json.dumps(value)))
    return value


def load_subbase(path: str, M: SpaceModel = None,
                 space_file: str = None) -> Tuple[DyadicSubbase, Optional[SpaceModel]]:
    """Load a subbase JSON file.

    A distance subbase's embedded space wins: a space M named besides it
    must have the same name and resolution, and a finite space the same
    digest, or the load fails.  A Gray subbase is refused on the circle
    and on every lattice of more than one axis.
    """
    with open(path) as fh:
        data = _typed(json.load(fh), "a subbase file", dict, "a JSON object")
    kind = data.get("kind")
    if kind == "gray":
        if M is not None and M.name == "circle":
            raise ValueError("%s is a Gray subbase of [0, 1], not of the "
                             "circle: the circle identifies 0 with 1, so "
                             "S_0^0 = [0, 1/2) is not open there" % path)
        if M is not None and M.lattice is not None and len(M.lattice.shape) > 1:
            raise ValueError("%s is a Gray subbase of [0, 1], not of the %s: "
                             "its digits read scalar points, and the %s's "
                             "points have %d coordinates"
                             % (path, M.name, M.name, len(M.lattice.shape)))
        return GraySubbase(_count(data, "pairs", 8)), M
    if kind == "distance":
        if "space" in data:
            space = _typed(data["space"], "space", dict, "an object")
            name = _typed(space.get("name"), "space.name", str, "a string")
            resolution = parse_rational(_typed(space.get("resolution"),
                                               "space.resolution", str, "a string"))
            if M is None:
                M = builtin_space(name, resolution, file=space_file)
            elif (M.name, M.resolution) != (name, resolution):
                raise ValueError("%s embeds the %s space at resolution %s, but "
                                 "the command line names the %s space at "
                                 "resolution %s" % (path, name, resolution,
                                                    M.name, M.resolution))
            if name == "finite":
                digest = space_digest(M)
                if space.get("digest") != digest:
                    raise ValueError("%s embeds the finite space with digest %s, "
                                     "but %s has digest %s"
                                     % (path, space.get("digest"),
                                        space_file or "the given space", digest))
        elif M is None:
            raise ValueError("distance subbase needs a space "
                             "(embedded or via --space)")
        cuts = []
        for k, rec in enumerate(_typed(data.get("cuts"), "cuts", list, "a list")):
            rec = _typed(rec, "cuts[%d]" % k, dict, "an object")
            cuts.append(DistanceCut(_count(rec, "center_index"), parse_rational(
                _typed(rec.get("cut"), "cut", str, 'a string such as "1/3"'))))
        return DistanceSubbase(M, cuts), M
    raise ValueError("unknown subbase kind %r" % kind)
