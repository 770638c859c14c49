"""Plain-text data formats: fan files, collection files, the poset file.

Everything is bit-exact integers in whitespace-separated fields; no floats
anywhere.  Parse errors carry the file and line they came from.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field
from pathlib import Path

from .fans import Fan
from .pipelines import PosetEdge


class ParseError(ValueError):
    pass


@dataclass
class FanFile:
    label: str
    fan: Fan
    pic_basis: tuple[int, ...] | None = None


@dataclass
class CollectionFile:
    label: str
    fan_label: str
    basis: tuple[int, ...] | None
    bundles: list[tuple[int, ...]]
    theta: tuple[int, ...] | None = None
    frobenius_m: int | None = None


def _int_row(tokens, path, ln):
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise ParseError(f"{path}:{ln}: expected integers, got {tokens!r}")


def _one_value(tokens, path, ln) -> str:
    if len(tokens) != 2:
        raise ParseError(f"{path}:{ln}: {tokens[0]} needs exactly one value, "
                         f"got {tokens[1:]!r}")
    return tokens[1]


def _one_int(tokens, path, ln) -> int:
    return _int_row([_one_value(tokens, path, ln)], path, ln)[0]


def parse_fan_file(path) -> FanFile:
    path = Path(path)
    label = ""
    dim = None
    pic_basis = None
    rays: list = []
    cones: list = []
    mode = None
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "label":
            label = tokens[1] if len(tokens) > 1 else ""
            mode = None
        elif head == "dim":
            dim = _one_int(tokens, path, ln)
            mode = None
        elif head == "pic_basis":
            pic_basis = _int_row(tokens[1:], path, ln)
            mode = None
        elif head == "rays":
            mode = "rays"
        elif head == "max_cones":
            mode = "cones"
        elif mode == "rays":
            rays.append(_int_row(tokens, path, ln))
        elif mode == "cones":
            cones.append(_int_row(tokens, path, ln))
        else:
            raise ParseError(f"{path}:{ln}: unexpected line {line!r}")
    if dim is None:
        raise ParseError(f"{path}: missing dim field")
    if not rays or not cones:
        raise ParseError(f"{path}: missing rays or max_cones")
    try:
        fan = Fan(dim, tuple(rays), tuple(cones), label=label)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
    return FanFile(label or path.stem, fan, pic_basis)


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


def parse_collection_file(path) -> CollectionFile:
    path = Path(path)
    label = ""
    fan_label = ""
    basis = None
    theta = None
    frobenius_m = None
    bundles: list = []
    mode = None
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "label":
            label = tokens[1] if len(tokens) > 1 else ""
            mode = None
        elif head == "fan":
            fan_label = _one_value(tokens, path, ln)
            mode = None
        elif head == "basis":
            basis = _int_row(tokens[1:], path, ln)
            mode = None
        elif head == "theta":
            theta = _int_row(tokens[1:], path, ln)
            mode = None
        elif head == "frobenius_m":
            frobenius_m = _one_int(tokens, path, ln)
            if frobenius_m < 1:
                raise ParseError(f"{path}:{ln}: frobenius_m must be at least 1, "
                                 f"got {frobenius_m}")
            mode = None
        elif head == "bundles":
            mode = "bundles"
        elif mode == "bundles":
            bundles.append(_int_row(tokens, path, ln))
        else:
            raise ParseError(f"{path}:{ln}: unexpected line {line!r}")
    if not bundles:
        raise ParseError(f"{path}: no bundles listed")
    widths = {len(b) for b in bundles}
    if len(widths) != 1:
        raise ParseError(f"{path}: bundles of mixed Pic rank")
    if theta is not None and len(theta) != len(bundles):
        raise ParseError(f"{path}: theta length differs from the bundle count")
    return CollectionFile(label or path.stem, fan_label, basis, bundles,
                          theta, frobenius_m)


def write_collection_file(path, col: CollectionFile):
    lines = [f"label {col.label}", f"fan {col.fan_label}"]
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


def _key_values(tokens, path, ln) -> dict[str, str]:
    fields = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"{path}:{ln}: expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        fields[k] = v
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
        try:
            tokens = shlex.split(line)
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: {exc}")
        kind = tokens[0]
        if kind == "node":
            if len(tokens) < 2:
                raise ParseError(f"{path}:{ln}: node needs a label")
            nodes.append((tokens[1], _key_values(tokens[2:], path, ln)))
        elif kind == "edge":
            if len(tokens) < 3:
                raise ParseError(f"{path}:{ln}: edge needs source and target")
            fields = _key_values(tokens[3:], path, ln)
            collapsed = None
            if "collapsed" in fields:
                collapsed = _int_row([fields["collapsed"]], path, ln)[0]
            edges.append(PosetEdge(tokens[1], tokens[2], collapsed,
                                   fields.get("note", "")))
        else:
            raise ParseError(f"{path}:{ln}: unknown record {kind!r}")
    return nodes, edges
