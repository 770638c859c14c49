"""Plain-text data formats: fan files, collection files, the poset file.

Everything is bit-exact integers in whitespace-separated fields; no floats
anywhere.  Parse errors carry the file and line they came from.
"""

from __future__ import annotations

import shlex
from pathlib import Path
from typing import NamedTuple

from .fans import Fan
from .pipelines import PosetEdge


class ParseError(ValueError):
    pass


class FanFile(NamedTuple):
    label: str
    fan: Fan
    pic_basis: tuple[int, ...] | None = None


class CollectionFile(NamedTuple):
    label: str
    fan_label: str
    basis: tuple[int, ...] | None
    bundles: list[tuple[int, ...]]
    theta: tuple[int, ...] | None = None
    frobenius_m: int | None = None


def _ints(head, values, where) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in values)
    except ValueError:
        raise ParseError(f"{where}: expected integers, got {values!r}")


def _one_value(head, values, where) -> str:
    if len(values) != 1:
        raise ParseError(f"{where}: {head} needs exactly one value, got {values!r}")
    return values[0]


def _one_int(head, values, where) -> int:
    return _ints(head, [_one_value(head, values, where)], where)[0]


def _label(head, values, where) -> str:
    """A bare label is empty, so the parser falls back to the file stem."""
    return _one_value(head, values, where) if values else ""


def _read(path: Path, fields, blocks) -> dict:
    """The header values and block rows of one fan or collection file.

    `fields` maps each header keyword to its reader (head, values, where);
    each keyword in `blocks` opens a block of integer rows that runs to the
    next keyword.  Returns one dict: the value of every header read and the
    row list of every block.
    """
    out = {b: [] for b in blocks}
    block = None
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *values = line.split()
        where = f"{path}:{ln}"
        if head in fields:
            if head in out:
                raise ParseError(f"{where}: {head} given twice")
            out[head] = fields[head](head, values, where)
            block = None
        elif head in blocks:
            if values:
                raise ParseError(f"{where}: {head} takes no value, got {values!r}")
            block = head
        elif block is not None:
            out[block].append(_ints(block, [head] + values, where))
        else:
            raise ParseError(f"{where}: unexpected line {line!r}")
    return out


def parse_fan_file(path) -> FanFile:
    path = Path(path)
    f = _read(path, {"label": _label, "dim": _one_int, "pic_basis": _ints},
              ("rays", "max_cones"))
    if "dim" not in f:
        raise ParseError(f"{path}: missing dim field")
    if not f["rays"] or not f["max_cones"]:
        raise ParseError(f"{path}: missing rays or max_cones")
    label = f.get("label", "")
    try:
        fan = Fan(f["dim"], tuple(f["rays"]), tuple(f["max_cones"]), label=label)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
    return FanFile(label or path.stem, fan, f.get("pic_basis"))


def write_fan_file(path, fan: Fan, pic_basis=None):
    lines = [f"label {fan.label}", f"dim {fan.dim}"]
    if pic_basis is not None:
        lines.append("pic_basis " + " ".join(str(i) for i in pic_basis))
    lines.append("rays")
    for r in fan.rays:
        lines.append(" ".join(str(x) for x in r))
    lines.append("max_cones")
    for c in fan.max_cones:
        lines.append(" ".join(str(i) for i in c))
    Path(path).write_text("\n".join(lines) + "\n")


def _level(head, values, where) -> int:
    m = _one_int(head, values, where)
    if m < 1:
        raise ParseError(f"{where}: frobenius_m must be at least 1, got {m}")
    return m


def parse_collection_file(path) -> CollectionFile:
    path = Path(path)
    f = _read(path, {"label": _label, "fan": _one_value, "basis": _ints,
                     "theta": _ints, "frobenius_m": _level}, ("bundles",))
    bundles = f["bundles"]
    if not bundles:
        raise ParseError(f"{path}: no bundles listed")
    if len({len(b) for b in bundles}) != 1:
        raise ParseError(f"{path}: bundles of mixed Pic rank")
    theta = f.get("theta")
    if theta is not None and len(theta) != len(bundles):
        raise ParseError(f"{path}: theta length differs from the bundle count")
    return CollectionFile(f.get("label", "") or path.stem, f.get("fan", ""),
                          f.get("basis"), bundles, theta, f.get("frobenius_m"))


def write_collection_file(path, col: CollectionFile):
    lines = [f"label {col.label}"]
    if col.fan_label:
        lines.append(f"fan {col.fan_label}")
    if col.basis is not None:
        lines.append("basis " + " ".join(str(i) for i in col.basis))
    if col.theta is not None:
        lines.append("theta " + " ".join(str(t) for t in col.theta))
    if col.frobenius_m is not None:
        lines.append(f"frobenius_m {col.frobenius_m}")
    lines.append("bundles")
    for b in col.bundles:
        lines.append(" ".join(str(x) for x in b))
    Path(path).write_text("\n".join(lines) + "\n")


def _key_values(tokens, where, keys) -> dict[str, str]:
    fields = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ParseError(f"{where}: expected key=value, got {tok!r}")
        if key not in keys:
            raise ParseError(f"{where}: unknown key {key!r}, expected one of "
                             f"{', '.join(keys)}")
        if key in fields:
            raise ParseError(f"{where}: {key} given twice")
        fields[key] = value
    return fields


def parse_poset_file(path):
    """Node and edge records; returns (node specs, edge list).

    Node spec fields reference fan and collection files by name; the
    workspace resolves them after all files are read.
    """
    path = Path(path)
    nodes = []
    edges = []
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{ln}"
        try:
            tokens = shlex.split(line)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}")
        kind = tokens[0]
        if kind == "node":
            if len(tokens) < 2:
                raise ParseError(f"{where}: node needs a label")
            nodes.append((tokens[1], _key_values(tokens[2:], where,
                                                 ("fan", "collection", "recipe"))))
        elif kind == "edge":
            if len(tokens) < 3:
                raise ParseError(f"{where}: edge needs source and target")
            fields = _key_values(tokens[3:], where, ("collapsed", "note"))
            collapsed = (_one_int("collapsed", [fields["collapsed"]], where)
                         if "collapsed" in fields else None)
            edges.append(PosetEdge(tokens[1], tokens[2], collapsed,
                                   fields.get("note", "")))
        else:
            raise ParseError(f"{where}: unknown record {kind!r}")
    return nodes, edges
