"""Command-line front end.

Reports are one record per line in key=value form.  The exit status is 0
when the report status is pass, 1 for a fail or inconclusive verdict and 2
for rejected input (an error= line).  All randomized stages consume an
explicit seed so reruns are byte-identical.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .cohomology import (
    cohomology_dims,
    forbidden_sets,
    higher_cohomology_witness,
    strong_exceptional_check,
)
from .diagonal import (
    FIBER_PRIME,
    FIBER_SEED,
    FIBER_TRIALS,
    diagonal_resolution_verdict,
    serialize_complex,
)
from .fans import validate_fan
from .frobenius import frobenius_gen_support, frobenius_split_classes, gen_twists
from .method1 import GenerationCertificate, generation_closure
from .pipelines import (
    FROM_M,
    METHOD1_M,
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

    def fail(self, exc):
        """Record a rejected input: an error= line and status=fail."""
        self.add("error", f"{type(exc).__name__}: {exc}")
        self.set_status("fail")

    def text(self):
        return "\n".join(self.lines + [f"status={self.status}"]) + "\n"

    def finish(self, code=None):
        """Write the report to --out, echo it and exit.

        An --out path that cannot be written fails the report, which still
        reaches stdout, with exit status 2.
        """
        if self.out:
            try:
                Path(self.out).write_text(self.text())
            except OSError as exc:
                self.fail(exc)
                code = 2
        click.echo(self.text(), nl=False)
        sys.exit(code if code is not None else 0 if self.status == "pass" else 1)


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


def _class(text):
    return tuple(int(x) for x in text.split(","))


class _Main(click.Group):
    """Owns the invocation's one report and ends it once the command returns.

    Every library error class is a ValueError, so one handler names them
    all: status=fail with an error= line after whatever the command wrote,
    and exit status 2, unlike a verdict.
    """

    def invoke(self, ctx):
        rep = ctx.ensure_object(dict)["rep"] = Report(ctx.params.get("out"))
        code = None
        try:
            super().invoke(ctx)
        except ValueError as exc:
            rep.fail(exc)
            code = 2
        rep.finish(code)


@click.group(cls=_Main)
@click.option("--data", "data_dir", default=None,
              help="Directory of fan/collection/poset files (default: bundled).")
@click.option("--out", default=None, help="Write the report to this file as well.")
@click.option("--seed", default=FIBER_SEED, show_default=True)
@click.option("--trials", default=FIBER_TRIALS, show_default=True)
@click.option("--prime", default=FIBER_PRIME, show_default=True)
@click.pass_context
def main(ctx, data_dir, out, seed, trials, prime):
    """Verify strong exceptional collections on smooth toric Fano varieties."""
    ctx.obj["ws"] = load_workspace(data_dir)
    ctx.obj["seed"] = seed
    ctx.obj["trials"] = trials
    ctx.obj["prime"] = prime


@main.command()
@click.argument("label")
@click.pass_context
def validate(ctx, label):
    """Smoothness, completeness and the Fano test for one fan."""
    ws = ctx.obj["ws"]
    rep = ctx.obj["rep"]
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


@main.command("forbidden-sets")
@click.argument("label")
@click.pass_context
def forbidden_sets_cmd(ctx, label):
    """Forbidden ray sets grouped by the cohomology degree they feed."""
    ws = ctx.obj["ws"]
    rep = ctx.obj["rep"]
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


@main.command()
@click.argument("label")
@click.argument("cls")
@click.pass_context
def cohomology(ctx, label, cls):
    """Cone test and brute-force dims for one Pic class (comma-separated)."""
    ws = ctx.obj["ws"]
    rep = ctx.obj["rep"]
    fan, pic = ws.fan(label), ws.pic(label)
    rep.add("label", label)
    vec = _class(cls)
    witness, point = higher_cohomology_witness(fan, pic, vec)
    bad = witness is not None
    dims = cohomology_dims(fan, pic, vec)
    rep.add("class", _fmt_vec(vec))
    rep.add("higher_cohomology", bad)
    rep.add("dims", _fmt_vec(dims))
    if bad:
        rep.add("witness", _fmt_vec(sorted(witness.ray_indices)))
        rep.add("witness_point", _fmt_vec(point))
    if bad != any(d for d in dims[1:]):
        rep.set_status("fail")
        rep.add("error", "cone test disagrees with the character oracle")


@main.command("strong-exceptional")
@click.argument("label")
@click.pass_context
def strong_exceptional(ctx, label):
    """Strong exceptionality of the registered collection."""
    ws = ctx.obj["ws"]
    rep = ctx.obj["rep"]
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
    rep = ctx.obj["rep"]
    fan, pic = ws.fan(label), ws.pic(label)
    rep.add("label", label)
    rep.add("m", m)
    rep.add("twist", twist)
    split = frobenius_split_classes(fan, pic, m, (twist,) * fan.n_rays)
    rep.add("support", len(split.support))
    for cls in sorted(split.support):
        rep.add("class", _fmt_vec(cls))
    if gen:
        union = set()
        # the gen-set's pieces; reuse the one just split
        for i in gen_twists(fan):
            piece = split if i == twist else \
                frobenius_split_classes(fan, pic, m, (i,) * fan.n_rays)
            rep.add(f"size_twist_{i}", len(piece.support))
            union |= piece.support
        rep.add("size_gen", len(union))


@main.command()
@click.argument("label")
@click.option("--m", default=None, type=int, help="Frobenius level for the target set.")
@click.pass_context
def method1(ctx, label, m):
    """Generation closure of the registered collection over D_m^gen."""
    ws = ctx.obj["ws"]
    rep = ctx.obj["rep"]
    fan, pic = ws.fan(label), ws.pic(label)
    bundles, _, stored_m = _collection(ws, label)
    mm = m if m is not None else stored_m or METHOD1_M
    rep.add("label", label)
    rep.add("m", mm)
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


@main.command()
@click.argument("label")
@click.option("--total-space", "on_y", is_flag=True,
              help="Build the arrows of degree 0 and 1 on tot(omega).")
@click.pass_context
def quiver(ctx, label, on_y):
    """Quiver of sections of the registered collection."""
    ws = ctx.obj["ws"]
    rep = ctx.obj["rep"]
    fan, pic = ws.fan(label), ws.pic(label)
    bundles, _, _ = _collection(ws, label)
    q = covering_quiver_on_y(fan, pic, bundles) if on_y \
        else build_quiver_of_sections(fan, pic, bundles)
    rep.add("label", label)
    rep.add("vertices", q.n_vertices)
    rep.add("arrows", len(q.arrows))
    for n, a in enumerate(q.arrows, start=1):
        rep.add("arrow", f"{n}|{a.tail}|{a.head}|{_fmt_vec(a.div)}")


@main.command()
@click.argument("label")
@click.option("--dump-complex", "dump_path", default=None,
              help="Also serialize the signed chain complex to this file.")
@click.pass_context
def method2(ctx, label, dump_path):
    """Diagonal-resolution verdict for the registered collection."""
    ws = ctx.obj["ws"]
    rep = ctx.obj["rep"]
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


@main.command()
@click.argument("source")
@click.argument("target")
@click.option("--m", default=None, type=int)
@click.pass_context
def propagate(ctx, source, target, m):
    """Push the source collection down the contraction chain to the target."""
    ws = ctx.obj["ws"]
    rep = ctx.obj["rep"]
    chain = ws.poset.chain(source, target)
    bundles, _, stored_m = _collection(ws, source)
    mm = m if m is not None else stored_m or FROM_M
    rep.add("source", source)
    rep.add("target", target)
    rep.add("m", mm)
    report = propagate_collection(chain, bundles, mm)
    rep.add("membership", report.membership_m is not None)
    if report.chain_verdict:
        for level, image, ok in report.chain_verdict.per_level:
            rep.add(f"level_{level}_size", len(image))
            rep.add(f"level_{level}_ok", ok)
    if not report.ok:
        rep.set_status("fail")
        rep.add("failure", report.detail)


@main.command("tilting-total-space")
@click.argument("label")
@click.pass_context
def tilting_total_space(ctx, label):
    """Nef threshold T, computed in closed form, and vanishing below it on tot(omega)."""
    ws = ctx.obj["ws"]
    rep = ctx.obj["rep"]
    fan, pic = ws.fan(label), ws.pic(label)
    bundles, _, _ = _collection(ws, label)
    report = tilting_total_space_check(fan, pic, bundles)
    rep.add("label", label)
    rep.add("T", report.threshold)
    rep.add("pairs_checked", len(bundles) * (len(bundles) - 1) * report.threshold)
    if not report.ok:
        rep.set_status("fail")
        for f in report.failures[:10]:
            rep.add("failure", f)


@main.command()
@click.argument("label")
@click.option("--m", default=None, type=int)
@click.pass_context
def recipe(ctx, label, m):
    """Run the database verification recipe for one variety."""
    ws = ctx.obj["ws"]
    rep = ctx.obj["rep"]
    verdict = verify_variety_recipe(ws, label, m=m, seed=ctx.obj["seed"],
                                    trials=ctx.obj["trials"], prime=ctx.obj["prime"])
    rep.add("label", verdict.label)
    rep.add("recipe", verdict.recipe)
    rep.add("detail", verdict.detail)
    rep.set_status(verdict.status)


@main.command()
@click.argument("label")
@click.option("--steps", default=0, show_default=True)
@click.option("--twist-class", "twist_cls", default=None,
              help="Comma-separated Pic coordinates of the twist.")
@click.pass_context
def helix(ctx, label, steps, twist_cls):
    """Thread shift plus twist of the registered collection."""
    ws = ctx.obj["ws"]
    rep = ctx.obj["rep"]
    fan, pic = ws.fan(label), ws.pic(label)
    bundles, _, _ = _collection(ws, label)
    rep.add("label", label)
    rep.add("steps", steps)
    twist = _class(twist_cls) if twist_cls else (0,) * pic.rank
    rep.add("twist", _fmt_vec(twist))
    result = helix_twist(fan, pic, bundles, steps, twist)
    for b in result.collection:
        rep.add("bundle", _fmt_vec(b))
    if not result.ok:
        rep.set_status("fail")
        rep.add("failure", result.detail)


if __name__ == "__main__":
    main()
