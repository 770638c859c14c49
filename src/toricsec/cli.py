"""Command-line front end.

Reports are one record per line in key=value form.  The exit status is 0
when the report status is pass, 1 for a fail or inconclusive verdict and 2
for rejected input (an error= line).  All randomized stages consume an
explicit seed so reruns are byte-identical.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .cohomology import (
    cohomology_dims,
    forbidden_sets,
    has_higher_cohomology,
    strong_exceptional_check,
)
from .diagonal import diagonal_resolution_verdict, serialize_complex
from .fans import validate_fan
from .files import ParseError
from .frobenius import frobenius_gen_support, frobenius_split_classes
from .method1 import GenerationCertificate, generation_closure
from .pipelines import (
    PipelineError,
    helix_twist,
    propagate_collection,
    tilting_total_space_check,
    verify_variety_recipe,
)
from .quiver import build_quiver_of_sections, covering_quiver_on_y
from .workspace import WorkspaceError, load_workspace


class Report:
    def __init__(self, out):
        self.lines = []
        self.out = out
        self.status = "pass"

    def add(self, key, value):
        self.lines.append(f"{key}={value}")

    def set_status(self, status):
        self.status = status

    def finish(self, code=None):
        self.lines.append(f"status={self.status}")
        text = "\n".join(self.lines) + "\n"
        if self.out:
            Path(self.out).write_text(text)
        click.echo(text, nl=False)
        sys.exit(code if code is not None else 0 if self.status == "pass" else 1)

    def reject(self, error):
        """Finish as status=fail naming bad input; exits 2, unlike a verdict."""
        self.add("error", error)
        self.set_status("fail")
        self.finish(2)


def _fmt_vec(v):
    return ",".join(str(x) for x in v)


def _collection(ws, label):
    node = ws.poset.nodes.get(label)
    if node is not None and node.bundles:
        return node.bundles, node.theta, node.frobenius_m
    col = ws.collection_for(label)
    if col is None:
        raise WorkspaceError(f"no collection registered for {label}")
    return [tuple(b) for b in col.bundles], col.theta, col.frobenius_m


@contextmanager
def _reported_value_error(rep):
    """Finish `rep` as status=fail with error= when the body raises ValueError."""
    try:
        yield
    except ValueError as exc:
        rep.reject(f"{type(exc).__name__}: {exc}")


class _Main(click.Group):
    """Reports bad input named by a library error as status=fail with error=."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ParseError, PipelineError, WorkspaceError) as exc:
            Report(ctx.params.get("out")).reject(f"{type(exc).__name__}: {exc}")


@click.group(cls=_Main)
@click.option("--data", "data_dir", default=None,
              help="Directory of fan/collection/poset files (default: bundled).")
@click.option("--out", default=None, help="Write the report to this file as well.")
@click.option("--seed", default=0, show_default=True)
@click.option("--trials", default=32, show_default=True)
@click.option("--prime", default=2147483647, show_default=True)
@click.pass_context
def main(ctx, data_dir, out, seed, trials, prime):
    """Verify strong exceptional collections on smooth toric Fano varieties."""
    ctx.ensure_object(dict)
    ctx.obj["ws"] = load_workspace(data_dir)
    ctx.obj["out"] = out
    ctx.obj["seed"] = seed
    ctx.obj["trials"] = trials
    ctx.obj["prime"] = prime


@main.command()
@click.argument("label")
@click.pass_context
def validate(ctx, label):
    """Smoothness, completeness and the Fano test for one fan."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    fan = ws.fan(label)
    r = validate_fan(fan)
    rep.add("label", label)
    rep.add("rays", fan.n_rays)
    rep.add("max_cones", len(fan.max_cones))
    rep.add("smooth", r.smooth)
    rep.add("complete", r.complete)
    rep.add("fano", r.fano)
    if not (r.smooth and r.complete and r.fano):
        rep.set_status("fail")
        for e in r.errors:
            rep.add("error", e)
    rep.finish()


@main.command("forbidden-sets")
@click.argument("label")
@click.pass_context
def forbidden_sets_cmd(ctx, label):
    """Forbidden ray sets grouped by the cohomology degree they feed."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    fan = ws.fan(label)
    rep.add("label", label)
    table = {}
    for fs in forbidden_sets(fan):
        for i in fs.degrees:
            table.setdefault(i, []).append(sorted(fs.ray_indices))
    for i in sorted(table):
        for s in sorted(table[i]):
            rep.add(f"h{i}", _fmt_vec(s))
    rep.add("count", sum(len(v) for v in table.values()))
    rep.finish()


@main.command()
@click.argument("label")
@click.argument("cls")
@click.pass_context
def cohomology(ctx, label, cls):
    """Cone test and brute-force dims for one Pic class (comma-separated)."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    fan, pic = ws.fan(label), ws.pic(label)
    rep.add("label", label)
    try:
        vec = tuple(int(x) for x in cls.split(","))
        pic.lift(vec)
    except ValueError as exc:
        rep.add("class", cls)
        rep.reject(f"bad class: {exc}")
    bad, witness = has_higher_cohomology(fan, pic, vec)
    dims = cohomology_dims(fan, pic, vec)
    rep.add("class", _fmt_vec(vec))
    rep.add("higher_cohomology", bad)
    rep.add("dims", _fmt_vec(dims))
    if witness is not None:
        from .cohomology import fiber_witness
        rep.add("witness", _fmt_vec(sorted(witness.ray_indices)))
        point = fiber_witness(pic, vec, witness.ray_indices)
        if point is not None:
            rep.add("witness_point", _fmt_vec(point))
    if bad != any(d for d in dims[1:]):
        rep.set_status("fail")
        rep.add("error", "cone test disagrees with the character oracle")
    rep.finish()


@main.command("strong-exceptional")
@click.argument("label")
@click.pass_context
def strong_exceptional(ctx, label):
    """Strong exceptionality of the registered collection."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    fan, pic = ws.fan(label), ws.pic(label)
    bundles, _, _ = _collection(ws, label)
    v = strong_exceptional_check(fan, pic, bundles)
    rep.add("label", label)
    rep.add("bundles", len(bundles))
    if v.ok:
        rep.add("ordering", _fmt_vec(v.ordering))
    else:
        rep.set_status("fail")
        rep.add("failure", v.failure)
        if v.witness_pair:
            rep.add("witness_pair", _fmt_vec(v.witness_pair))
        if v.witness_set:
            rep.add("witness_set", _fmt_vec(sorted(v.witness_set)))
    rep.finish()


@main.command()
@click.argument("label")
@click.option("--m", default=10, show_default=True)
@click.option("--twist", default=0, show_default=True,
              help="Anticanonical twist level i (weights w = i on every ray).")
@click.option("--gen", is_flag=True, help="Also list the generation-set sizes.")
@click.pass_context
def frobenius(ctx, label, m, twist, gen):
    """Frobenius pushforward split classes."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    fan, pic = ws.fan(label), ws.pic(label)
    rep.add("label", label)
    rep.add("m", m)
    rep.add("twist", twist)
    with _reported_value_error(rep):
        split = frobenius_split_classes(fan, pic, m, (twist,) * fan.n_rays,
                                        check_charts=True)
        pieces = None
        if gen:
            # the gen-set pieces are the twists 0..n; reuse the one just split
            pieces = {i: split if i == twist else
                      frobenius_split_classes(fan, pic, m, (i,) * fan.n_rays)
                      for i in range(fan.dim + 1)}
    rep.add("support", len(split.support))
    for cls in sorted(split.support):
        rep.add("class", _fmt_vec(cls))
    if gen:
        union = set()
        for i, piece in pieces.items():
            rep.add(f"size_twist_{i}", len(piece.support))
            union |= piece.support
        rep.add("size_gen", len(union))
    rep.finish()


@main.command()
@click.argument("label")
@click.option("--m", default=None, type=int, help="Frobenius level for the target set.")
@click.pass_context
def method1(ctx, label, m):
    """Generation closure of the registered collection over D_m^gen."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    fan, pic = ws.fan(label), ws.pic(label)
    bundles, _, stored_m = _collection(ws, label)
    mm = m if m is not None else stored_m or 10
    rep.add("label", label)
    rep.add("m", mm)
    with _reported_value_error(rep):
        targets = frobenius_gen_support(fan, pic, mm)
    res = generation_closure(fan, pic, bundles, targets)
    rep.add("targets", len(targets))
    if isinstance(res, GenerationCertificate):
        rep.add("steps", len(res.steps))
        rep.add("generated", len(res.generated))
        for step in res.steps:
            rep.add("step", f"{_fmt_vec(step.ray_set)}|{_fmt_vec(step.twist)}|"
                            f"{_fmt_vec(step.produced)}")
    else:
        rep.set_status("inconclusive")
        for t in res.unreached:
            rep.add("unreached", _fmt_vec(t))
    rep.finish()


@main.command()
@click.argument("label")
@click.option("--total-space", "on_y", is_flag=True,
              help="Build the covering quiver on tot(omega).")
@click.pass_context
def quiver(ctx, label, on_y):
    """Quiver of sections of the registered collection."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    fan, pic = ws.fan(label), ws.pic(label)
    bundles, _, _ = _collection(ws, label)
    q = covering_quiver_on_y(fan, pic, bundles) if on_y \
        else build_quiver_of_sections(fan, pic, bundles)
    rep.add("label", label)
    rep.add("vertices", q.n_vertices)
    rep.add("arrows", len(q.arrows))
    for n, a in enumerate(q.arrows, start=1):
        rep.add("arrow", f"{n}|{a.tail}|{a.head}|{_fmt_vec(a.div)}")
    rep.finish()


@main.command()
@click.argument("label")
@click.option("--dump-complex", "dump_path", default=None,
              help="Also serialize the signed chain complex to this file.")
@click.pass_context
def method2(ctx, label, dump_path):
    """Diagonal-resolution verdict for the registered collection."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    fan, pic = ws.fan(label), ws.pic(label)
    bundles, theta, _ = _collection(ws, label)
    verdict = diagonal_resolution_verdict(
        fan, pic, bundles, theta=theta, trials=ctx.obj["trials"],
        seed=ctx.obj["seed"], prime=ctx.obj["prime"])
    if dump_path and verdict.signed_complex is not None:
        Path(dump_path).write_text(serialize_complex(verdict.signed_complex))
        rep.add("complex_file", dump_path)
    rep.add("label", label)
    rep.add("ranks", _fmt_vec(verdict.ranks))
    rep.add("stage", verdict.stage)
    if verdict.fiber:
        rep.add("off_diagonal_ranks", _fmt_vec(verdict.fiber.off_diagonal_ranks))
        rep.add("diagonal_homology", _fmt_vec(verdict.fiber.diagonal_homology))
    rep.add("verdict", verdict.status)
    if not verdict.full:
        rep.set_status("inconclusive")
    rep.finish()


@main.command()
@click.argument("source")
@click.argument("target")
@click.option("--m", default=None, type=int)
@click.pass_context
def propagate(ctx, source, target, m):
    """Push the source collection down the contraction chain to the target."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    chain = ws.poset.chain(source, target)
    bundles, _, stored_m = _collection(ws, source)
    mm = m if m is not None else stored_m or 8
    rep.add("source", source)
    rep.add("target", target)
    rep.add("m", mm)
    with _reported_value_error(rep):
        report = propagate_collection(chain, bundles, mm)
    rep.add("membership", report.membership_m is not None)
    if report.chain_verdict:
        for level, image, ok in report.chain_verdict.per_level:
            rep.add(f"level_{level}_size", len(image))
            rep.add(f"level_{level}_ok", ok)
    if not report.ok:
        rep.set_status("fail")
        rep.add("failure", report.detail)
    rep.finish()


@main.command("tilting-total-space")
@click.argument("label")
@click.pass_context
def tilting_total_space(ctx, label):
    """Minimal nef threshold and vanishing checks on tot(omega)."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    fan, pic = ws.fan(label), ws.pic(label)
    bundles, _, _ = _collection(ws, label)
    report = tilting_total_space_check(fan, pic, bundles)
    rep.add("label", label)
    rep.add("T", report.threshold)
    rep.add("pairs_checked", len(bundles) * (len(bundles) - 1) * max(report.threshold, 0))
    if not report.ok:
        rep.set_status("fail")
        for f in report.failures[:10]:
            rep.add("failure", f)
    rep.finish()


@main.command()
@click.argument("label")
@click.option("--m", default=None, type=int)
@click.pass_context
def recipe(ctx, label, m):
    """Run the database verification recipe for one variety."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    verdict = verify_variety_recipe(ws, label, m=m, seed=ctx.obj["seed"],
                                    trials=ctx.obj["trials"], prime=ctx.obj["prime"])
    rep.add("label", verdict.label)
    rep.add("recipe", verdict.recipe)
    rep.add("detail", verdict.detail)
    rep.set_status(verdict.status)
    rep.finish()


@main.command()
@click.argument("label")
@click.option("--steps", default=0, show_default=True)
@click.option("--twist-class", "twist_cls", default=None,
              help="Comma-separated Pic coordinates of the twist.")
@click.pass_context
def helix(ctx, label, steps, twist_cls):
    """Thread shift plus twist of the registered collection."""
    ws = ctx.obj["ws"]
    rep = Report(ctx.obj["out"])
    fan, pic = ws.fan(label), ws.pic(label)
    bundles, _, _ = _collection(ws, label)
    rep.add("label", label)
    rep.add("steps", steps)
    try:
        twist = tuple(int(x) for x in twist_cls.split(",")) if twist_cls \
            else (0,) * pic.rank
        pic.lift(twist)
    except ValueError as exc:
        rep.add("twist", twist_cls)
        rep.reject(f"bad twist class: {exc}")
    rep.add("twist", _fmt_vec(twist))
    result = helix_twist(fan, pic, bundles, steps, twist)
    for b in result.collection:
        rep.add("bundle", _fmt_vec(b))
    if not result.ok:
        rep.set_status("fail")
        rep.add("failure", result.detail)
    rep.finish()


if __name__ == "__main__":
    main()
