"""Workspace assembly: parse every data file up front, validate, register."""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

from .fans import Fan, PicBasis, deg_and_pic, validate_fan
from .files import (
    CollectionFile,
    parse_collection_file,
    parse_fan_file,
    parse_poset_file,
)
from .pipelines import ContractionPoset, PosetNode


class WorkspaceError(ValueError):
    pass


@dataclass
class Workspace:
    fans: dict[str, Fan] = field(default_factory=dict)
    pics: dict[str, PicBasis] = field(default_factory=dict)
    collections: dict[str, CollectionFile] = field(default_factory=dict)
    poset: ContractionPoset = field(default_factory=ContractionPoset)
    warnings: list[str] = field(default_factory=list)

    def fan(self, label: str) -> Fan:
        if label not in self.fans:
            raise WorkspaceError(f"no fan registered under {label!r}")
        return self.fans[label]

    def pic(self, label: str) -> PicBasis:
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
    bundled data.  Every registered fan must pass the smooth/complete
    validation or the load fails naming the label.
    """
    if paths is None:
        paths = bundled_data_dir()
    if isinstance(paths, (str, Path)):
        root = Path(paths)
        files = sorted(root.glob("*")) if root.is_dir() else [root]
    else:
        files = [Path(p) for p in paths]
    ws = Workspace()
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
            ws.pics[parsed.label] = deg_and_pic(parsed.fan, parsed.pic_basis)
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
        if pic is not None and any(len(b) != pic.rank for b in col.bundles):
            raise WorkspaceError(
                f"collection {col.label!r}: bundle width differs from the Pic "
                f"rank {pic.rank} of fan {col.fan_label!r}")
    for spec in poset_specs:
        nodes, edges = parse_poset_file(spec)
        for label, fields in nodes:
            fan_label = fields.get("fan")
            col_label = fields.get("collection")
            node = PosetNode(label=label, recipe=fields.get("recipe", ""))
            if fan_label:
                node.fan = ws.fan(fan_label)
                node.pic = ws.pic(fan_label)
            if col_label:
                col = ws.collections.get(col_label)
                if col is None:
                    raise WorkspaceError(f"poset node {label}: no collection {col_label!r}")
                node.bundles = [tuple(b) for b in col.bundles]
                node.theta = col.theta
                node.frobenius_m = col.frobenius_m
                if node.pic is not None and col.basis is not None and \
                        col.basis != node.pic.basis_indices:
                    raise WorkspaceError(
                        f"poset node {label}: collection basis {col.basis} differs "
                        f"from the fan's pinned basis {node.pic.basis_indices}")
            ws.poset.add_node(node)
        ws.poset.edges.extend(edges)
    return ws
