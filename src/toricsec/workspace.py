"""Workspace assembly: parse every data file up front, validate, register."""

from __future__ import annotations

import importlib.resources
from pathlib import Path
from typing import NamedTuple

from .fans import Fan, FanError, PicBasis, deg_and_pic, validate_fan
from .files import (
    CollectionFile,
    parse_collection_file,
    parse_fan_file,
    parse_poset_file,
)
from .pipelines import ContractionPoset, PosetNode


class WorkspaceError(ValueError):
    pass


class Workspace(NamedTuple):
    fans: dict[str, Fan]
    pics: dict[str, PicBasis]
    collections: dict[str, CollectionFile]
    poset: ContractionPoset
    warnings: list[str]

    def fan(self, label: str) -> Fan:
        if label not in self.fans:
            raise WorkspaceError(f"no fan registered under {label!r}")
        return self.fans[label]

    def pic(self, label: str) -> PicBasis:
        if label not in self.pics:
            raise WorkspaceError(f"no fan registered under {label!r}")
        return self.pics[label]

    def collection_for(self, fan_label: str) -> CollectionFile | None:
        for col in self.collections.values():
            if col.fan_label == fan_label:
                return col
        return None


def bundled_data_dir() -> Path:
    return Path(importlib.resources.files("toricsec") / "data")


def load_workspace(paths=None) -> Workspace:
    """Parse fans, collections and the poset; abort on any invalid fan.

    `paths` may be a directory or an iterable of files; defaults to the
    bundled data.  A path that does not exist fails the load naming it.
    Every registered fan must pass the smooth/complete validation or the
    load fails naming the label.
    """
    if paths is None:
        paths = bundled_data_dir()
    if isinstance(paths, (str, Path)):
        paths = [paths]
    files = []
    for p in map(Path, paths):
        if not p.exists():
            raise WorkspaceError(f"no such data path: {str(p)!r}")
        files.extend(sorted(p.glob("*")) if p.is_dir() else [p])
    ws = Workspace({}, {}, {}, ContractionPoset({}, []), [])
    poset_specs = []
    for f in files:
        if f.suffix == ".fan":
            parsed = parse_fan_file(f)
            if parsed.label in ws.fans:
                raise WorkspaceError(f"duplicate fan label {parsed.label!r}")
            report = validate_fan(parsed.fan)
            if not (report.smooth and report.complete):
                raise WorkspaceError(
                    f"fan {parsed.label!r} fails validation: {report.errors}")
            ws.fans[parsed.label] = parsed.fan
            try:
                ws.pics[parsed.label] = deg_and_pic(parsed.fan, parsed.pic_basis)
            except FanError as exc:
                raise WorkspaceError(f"fan {parsed.label!r}: {exc}")
        elif f.suffix == ".col":
            parsed = parse_collection_file(f)
            if parsed.label in ws.collections:
                raise WorkspaceError(f"duplicate collection label {parsed.label!r}")
            ws.collections[parsed.label] = parsed
        elif f.suffix == ".poset":
            poset_specs.append(f)
    if not ws.fans:
        ws.warnings.append("workspace is empty")
    for col in ws.collections.values():
        pic = ws.pics.get(col.fan_label)
        if pic is None:
            continue
        if any(len(b) != pic.rank for b in col.bundles):
            raise WorkspaceError(
                f"collection {col.label!r}: bundle width differs from the Pic "
                f"rank {pic.rank} of fan {col.fan_label!r}")
        if col.basis is not None and col.basis != pic.basis_indices:
            raise WorkspaceError(
                f"collection {col.label!r}: basis {col.basis} differs from the "
                f"pinned basis {pic.basis_indices} of fan {col.fan_label!r}")
    for spec in poset_specs:
        nodes, edges = parse_poset_file(spec)
        for label, fields in nodes:
            fan_label = fields.get("fan")
            col_label = fields.get("collection")
            fan = pic = bundles = theta = frobenius_m = None
            if fan_label:
                fan, pic = ws.fan(fan_label), ws.pic(fan_label)
            if col_label:
                col = ws.collections.get(col_label)
                if col is None:
                    raise WorkspaceError(f"poset node {label}: no collection {col_label!r}")
                if fan_label and col.fan_label != fan_label:
                    raise WorkspaceError(
                        f"poset node {label}: collection {col_label!r} is for fan "
                        f"{col.fan_label!r}, not {fan_label!r}")
                bundles = [tuple(b) for b in col.bundles]
                theta, frobenius_m = col.theta, col.frobenius_m
            ws.poset.add_node(PosetNode(label, fan, pic, bundles, theta,
                                        fields.get("recipe", ""), frobenius_m))
        ws.poset.edges.extend(edges)
    return ws
