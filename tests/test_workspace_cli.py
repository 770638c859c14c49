import re
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from toricsec.cli import main
from toricsec.cohomology import fiber_feasible, fiber_refuters, forbidden_sets
from toricsec.files import (
    CollectionFile,
    ParseError,
    parse_collection_file,
    parse_fan_file,
    parse_poset_file,
    write_collection_file,
    write_fan_file,
)
from toricsec.polyhedra import ParametricIntegerFeasibility
from toricsec.workspace import WorkspaceError, bundled_data_dir, load_workspace

from conftest import refuted


def test_bundled_workspace_loads_expected_labels():
    ws = load_workspace()
    expected = {"P1", "P2", "P3", "P4", "P1xP1", "S1", "S2", "S3",
                "B1", "E1", "I1", "J1", "M1", "R3", "V4", "B1_3", "D1_3"}
    assert expected <= set(ws.fans)


def test_empty_directory_warns(tmp_path):
    ws = load_workspace(tmp_path)
    assert ws.warnings


def test_non_primitive_ray_rejected(tmp_path):
    bad = tmp_path / "bad.fan"
    bad.write_text("label bad\ndim 2\nrays\n2 0\n0 1\n-1 -1\nmax_cones\n0 1\n1 2\n2 0\n")
    with pytest.raises((ParseError, WorkspaceError)):
        load_workspace(tmp_path)


def test_invalid_fan_aborts_with_label(tmp_path):
    bad = tmp_path / "bad.fan"
    bad.write_text("label brokenfan\ndim 2\nrays\n1 0\n0 1\n-1 -1\nmax_cones\n0 1\n1 2\n")
    with pytest.raises(WorkspaceError) as err:
        load_workspace(tmp_path)
    assert "brokenfan" in str(err.value)


def test_collection_width_must_match_pic_rank(tmp_path):
    ws = load_workspace()
    write_fan_file(tmp_path / "p1xp1.fan", ws.fan("P1xP1"))
    (tmp_path / "narrow.col").write_text(
        "label narrow\nfan P1xP1\nbundles\n0\n1\n")
    with pytest.raises(WorkspaceError) as err:
        load_workspace(tmp_path)
    assert "narrow" in str(err.value)


def test_missing_data_directory_is_a_workspace_error(tmp_path):
    missing = tmp_path / "nowhere"
    error = re.escape(f"no such data path: {str(missing)!r}")
    with pytest.raises(WorkspaceError, match=error):
        load_workspace(missing)


def test_missing_file_among_data_files_is_a_workspace_error(tmp_path):
    missing = tmp_path / "gone.fan"
    error = re.escape(f"no such data path: {str(missing)!r}")
    with pytest.raises(WorkspaceError, match=error):
        load_workspace([bundled_data_dir() / "P2.fan", missing])


def test_pic_of_unknown_label_is_a_workspace_error():
    with pytest.raises(WorkspaceError, match="no fan registered under 'NOPE'"):
        load_workspace().pic("NOPE")


E1_NODE = 'node E1 fan=E1 collection=e1 recipe="method2"\n'


@pytest.mark.parametrize("poset", [None, E1_NODE], ids=["fan-label", "poset-node"])
@pytest.mark.parametrize("changes, error", [
    ({"basis": (0, 1, 2)},
     "collection 'e1': basis (0, 1, 2) differs from the pinned basis (4, 5, 6) of fan 'E1'"),
    ({"bundles": [(0, 0), (0, 1)]},
     "collection 'e1': bundle width differs from the Pic rank 3 of fan 'E1'"),
], ids=["basis", "width"])
def test_cli_collection_not_in_its_fans_pic_reports_fail(tmp_path, poset, changes, error):
    # without the poset node the collection is read by its fan label
    shutil.copy(bundled_data_dir() / "E1.fan", tmp_path)
    col = parse_collection_file(bundled_data_dir() / "e1.col")
    write_collection_file(tmp_path / "e1.col", col._replace(**changes))
    if poset:
        (tmp_path / "v.poset").write_text(poset)
    result = CliRunner().invoke(main, ["--data", str(tmp_path), "strong-exceptional", "E1"])
    assert result.exit_code == 2
    assert result.output == f"error=WorkspaceError: {error}\nstatus=fail\n"


def test_cli_poset_node_with_another_fans_collection_reports_fail(tmp_path):
    for name in ("E1.fan", "S3.fan", "s3.col"):
        shutil.copy(bundled_data_dir() / name, tmp_path)
    (tmp_path / "v.poset").write_text('node E1 fan=E1 collection=s3 recipe="method2"\n')
    result = CliRunner().invoke(main, ["--data", str(tmp_path), "recipe", "E1"])
    assert result.exit_code == 2
    assert result.output == ("error=WorkspaceError: poset node E1: collection 's3' is "
                             "for fan 'S3', not 'E1'\nstatus=fail\n")


@pytest.mark.parametrize("record", [
    "edge A B junk", "edge A B collapsed=x", "node", 'node A recipe="method2',
])
def test_malformed_poset_record_names_file_and_line(tmp_path, record):
    path = tmp_path / "bad.poset"
    path.write_text(f"# comment\n{record}\n")
    with pytest.raises(ParseError) as err:
        parse_poset_file(path)
    assert f"{path}:2:" in str(err.value)


def test_fan_file_roundtrip(tmp_path):
    ws = load_workspace()
    fan = ws.fan("E1")
    out = tmp_path / "e1_copy.fan"
    write_fan_file(out, fan, (4, 5, 6))
    parsed = parse_fan_file(out)
    assert parsed.fan == fan
    assert parsed.pic_basis == (4, 5, 6)


def test_collection_file_roundtrip(tmp_path):
    ws = load_workspace()
    col = ws.collections["j1"]
    out = tmp_path / "j1_copy.col"
    write_collection_file(out, col)
    parsed = parse_collection_file(out)
    assert parsed.bundles == col.bundles
    assert parsed.theta == col.theta
    # a collection tied to no fan writes no fan line and reads back unchanged
    bare = CollectionFile("c", "", None, [(0,), (1,)])
    write_collection_file(out, bare)
    assert parse_collection_file(out) == bare


def test_cli_validate_pass():
    runner = CliRunner()
    result = runner.invoke(main, ["validate", "E1"])
    assert result.exit_code == 0
    assert "status=pass" in result.output


def test_cli_forbidden_sets_e1_tables():
    runner = CliRunner()
    result = runner.invoke(main, ["forbidden-sets", "E1"])
    assert result.exit_code == 0
    assert "h1=0,4" in result.output
    assert "h4=0,1,2,3,4,5,6" in result.output
    assert "count=11" in result.output


def test_cli_cohomology():
    runner = CliRunner()
    result = runner.invoke(main, ["cohomology", "P2", "--", "-3"])
    assert result.exit_code == 0
    assert "higher_cohomology=True" in result.output
    assert "dims=0,0,1" in result.output


def test_cli_cohomology_searches_each_forbidden_fiber_once(monkeypatch):
    # the witness set and its point come from the same first-point search;
    # fibers that a level-0 row refutes are empty and are not searched
    ws = load_workspace()
    fan, pic, cls = ws.fan("D1_3"), ws.pic("D1_3"), (2, 1, -3)
    sets = forbidden_sets(fan)
    hit = next(n for n, fs in enumerate(sets) if fiber_feasible(pic, cls, fs.ray_indices))
    assert hit == 6 and sorted(sets[hit].ray_indices) == [1, 2, 5]
    tried = sum(not refuted(fiber_refuters(pic, fs.ray_indices), cls) for fs in sets[:hit + 1])
    assert tried == 1
    searches = []
    points = ParametricIntegerFeasibility.points

    def counting(self, *args, **kwargs):
        searches.append(args)
        return points(self, *args, **kwargs)

    monkeypatch.setattr(ParametricIntegerFeasibility, "points", counting)
    result = CliRunner().invoke(main, ["cohomology", "D1_3", "--", "2,1,-3"])
    assert result.exit_code == 0
    assert "witness=1,2,5\n" in result.output and "witness_point=" in result.output
    assert len(searches) == tried


def test_cli_cohomology_rejects_a_class_of_the_wrong_length():
    runner = CliRunner()
    for cls in ("1,2", "x"):
        result = runner.invoke(main, ["cohomology", "P2", "--", cls])
        assert result.exit_code == 2
        assert "status=fail" in result.output
        assert "error=" in result.output
        assert "dims=" not in result.output


def test_cli_helix_rejects_a_twist_class_of_the_wrong_length():
    runner = CliRunner()
    for cls in ("0", "0,0,5", "a"):
        result = runner.invoke(main, ["helix", "P1xP1", "--steps", "1",
                                      "--twist-class", cls])
        assert result.exit_code == 2
        assert "status=fail" in result.output
        assert "error=" in result.output
        assert "bundle=" not in result.output


def test_cli_reports_input_errors_as_fail(tmp_path):
    (tmp_path / "bad.poset").write_text("edge A B junk\n")
    runner = CliRunner()
    for args in (["validate", "NOPE"],               # WorkspaceError
                 ["propagate", "E1", "P1"],          # PipelineError
                 ["--data", str(tmp_path), "validate", "P1"]):  # ParseError
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert result.output.endswith("status=fail\n"), args
        assert "error=" in result.output, args


@pytest.mark.parametrize("label, error", [
    ("P1xP1", "poset node P1xP1: recipe 'product P1,NOPE' names no poset node 'NOPE'"),
    ("X", "poset node X: recipe 'from' needs exactly one argument"),
    ("Y", "poset node Y: recipe 'method2' needs a fan"),
], ids=["unknown-factor", "from-without-source", "method2-without-fan"])
def test_cli_malformed_recipe_reports_fail(tmp_path, label, error):
    data = load_workspace()
    write_fan_file(tmp_path / "P1.fan", data.fan("P1"))
    write_fan_file(tmp_path / "P1xP1.fan", data.fan("P1xP1"))
    write_collection_file(tmp_path / "p1xp1.col", data.collections["p1xp1"])
    (tmp_path / "v.poset").write_text(
        'node P1 fan=P1 recipe="beilinson"\n'
        'node P1xP1 fan=P1xP1 collection=p1xp1 recipe="product P1,NOPE"\n'
        'node X fan=P1 recipe="from"\n'
        'node Y recipe="method2"\n')
    result = CliRunner().invoke(main, ["--data", str(tmp_path), "recipe", label])
    assert result.exit_code == 2
    assert result.output == f"error=PipelineError: {error}\nstatus=fail\n"


S_CHAIN = ('node S3 fan=S3 collection=s3 recipe="method2"\n'
           'node S2 fan=S2 recipe="from S3"\n'
           'node S1 fan=S1 recipe="from S2"\n'
           'edge S3 S2 collapsed=5\n'
           'edge S2 S1 collapsed=4\n')


def _s_chain_data(tmp_path, poset):
    for name in ("S1.fan", "S2.fan", "S3.fan", "s3.col"):
        shutil.copy(bundled_data_dir() / name, tmp_path)
    (tmp_path / "v.poset").write_text(poset)
    return ["--data", str(tmp_path)]


@pytest.mark.parametrize("args", [["recipe", "S2"], ["propagate", "S3", "S2"]])
def test_cli_wrong_collapsed_ray_reports_fail(tmp_path, args):
    # ray 2 of S3 is not the one the blow-down to S2 collapses
    data = _s_chain_data(tmp_path, S_CHAIN.replace("collapsed=5", "collapsed=2"))
    result = CliRunner().invoke(main, data + args)
    assert result.exit_code == 2
    assert result.output == ("error=FanError: target rays are not the source rays "
                             "minus the collapsed one\nstatus=fail\n")


@pytest.mark.parametrize("label, recipe, problem", [
    ("S1", "from S2", "names source 'S2', which has no stored collection"),
    ("X", "beilinsn", "has unknown kind 'beilinsn'"),
    ("Y", "method2 bogus", "takes no arguments"),
    ("Z", "beilinson S3", "takes no arguments"),
], ids=["from-source-without-collection", "unknown-kind", "method2-extra-argument",
        "beilinson-extra-argument"])
def test_cli_recipe_record_that_misreports_is_rejected(tmp_path, label, recipe, problem):
    data = _s_chain_data(tmp_path, S_CHAIN + (
        'node X fan=S3 collection=s3 recipe="beilinsn"\n'
        'node Y fan=S3 collection=s3 recipe="method2 bogus"\n'
        'node Z fan=S3 recipe="beilinson S3"\n'))
    result = CliRunner().invoke(main, data + ["recipe", label])
    assert result.exit_code == 2
    assert result.output == (f"error=PipelineError: poset node {label}: recipe "
                             f"{recipe!r} {problem}\nstatus=fail\n")


P1_FAN = "label P1\ndim 1\nrays\n1\n-1\nmax_cones\n0\n1\n"


@pytest.mark.parametrize("name, text, error", [
    ("v.poset", "node D1_3 fan=D1_3 colection=d1_3\n",
     "v.poset:1: unknown key 'colection', expected one of fan, collection, recipe"),
    ("v.poset", "edge E1 B1 colapsed=6\n",
     "v.poset:1: unknown key 'colapsed', expected one of collapsed, note"),
    ("x.fan", P1_FAN.replace("label P1", "label P1 extra"),
     "x.fan:1: label needs exactly one value, got ['P1', 'extra']"),
    ("x.col", "label c extra\nfan P1\nbundles\n0\n1\n",
     "x.col:1: label needs exactly one value, got ['c', 'extra']"),
    ("x.fan", P1_FAN.replace("rays\n", "rays 1\n"), "x.fan:3: rays takes no value, got ['1']"),
    ("x.col", "label c\nfan P1\nbundles 0\n1\n", "x.col:3: bundles takes no value, got ['0']"),
    ("x.fan", P1_FAN.replace("dim 1\n", "dim 1\ndim 2\n"), "x.fan:3: dim given twice"),
    ("v.poset", "node P1 fan=P1 fan=P2\n", "v.poset:1: fan given twice"),
], ids=["node-key", "edge-key", "fan-label", "collection-label", "rays-value",
        "bundles-value", "repeated-header", "repeated-key"])
def test_cli_record_with_a_dropped_token_reports_fail(tmp_path, name, text, error):
    (tmp_path / name).write_text(text)
    result = CliRunner().invoke(main, ["--data", str(tmp_path), "validate", "P1"])
    assert result.exit_code == 2
    assert result.output == f"error=ParseError: {tmp_path / error}\nstatus=fail\n"


def test_cli_rejection_keeps_the_lines_already_written(tmp_path):
    out = tmp_path / "report.txt"
    result = CliRunner().invoke(main, ["--out", str(out), "helix", "P1xP1", "--steps", "9"])
    assert result.exit_code == 2
    assert result.output == ("label=P1xP1\nsteps=9\ntwist=0,0\n"
                             "error=PipelineError: steps must lie between 0 and the "
                             "collection size\nstatus=fail\n")
    assert out.read_text() == result.output


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_cli_unwritable_out_still_reports_on_stdout(tmp_path, where):
    out = tmp_path / "no" / "report.txt" if where == "missing-dir" else tmp_path
    error = "FileNotFoundError" if where == "missing-dir" else "IsADirectoryError"
    result = CliRunner().invoke(main, ["--out", str(out), "recipe", "P2"])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith("label=P2\nrecipe=beilinson\n")
    *_, error_line, status = result.output.splitlines()
    assert error_line.startswith(f"error={error}: ") and str(out) in error_line
    assert status == "status=fail"
    assert not (tmp_path / "no").exists()


def test_cli_missing_data_path_names_it(tmp_path):
    missing = tmp_path / "nowhere"
    result = CliRunner().invoke(main, ["--data", str(missing), "recipe", "P2"])
    assert result.exit_code == 2
    assert result.output == (f"error=WorkspaceError: no such data path: {str(missing)!r}\n"
                             "status=fail\n")


@pytest.mark.parametrize("basis", [(0, 1), (0, 0), (5,)],
                         ids=["too-long", "repeated", "out-of-range"])
def test_cli_malformed_pinned_pic_basis_reports_fail(tmp_path, basis):
    # a pinned basis of P2 is one ray index in 0..2
    write_fan_file(tmp_path / "P2.fan", load_workspace().fan("P2"), pic_basis=basis)
    with pytest.raises(WorkspaceError, match="fan 'P2'"):
        load_workspace(tmp_path)
    result = CliRunner().invoke(main, ["--data", str(tmp_path), "validate", "P2"])
    assert result.exit_code == 2
    assert result.output == (f"error=WorkspaceError: fan 'P2': pic_basis {basis} must "
                             "list 1 distinct ray indices in 0..2\nstatus=fail\n")


@pytest.mark.parametrize("command", ["strong-exceptional", "method1", "quiver"])
def test_cli_label_without_collection_reports_fail(command):
    result = CliRunner().invoke(main, [command, "P2"])
    assert result.exit_code == 2
    assert result.output == ("error=WorkspaceError: no collection registered for P2\n"
                             "status=fail\n")


@pytest.mark.parametrize("args", [["quiver", "P1xP1"],
                                  ["quiver", "P1xP1", "--total-space"],
                                  ["method2", "P1xP1"]])
def test_cli_collection_not_hom_ordered_reports_fail(tmp_path, args):
    data = load_workspace()
    write_fan_file(tmp_path / "P1xP1.fan", data.fan("P1xP1"))
    (tmp_path / "p1xp1.col").write_text(
        "label p1xp1\nfan P1xP1\nbundles\n1 1\n0 1\n1 0\n0 0\n")
    result = CliRunner().invoke(main, ["--data", str(tmp_path)] + args)
    assert result.exit_code == 2
    assert result.output == ("error=QuiverError: collection is not Hom-ordered: "
                             "sections from 1 to 0\nstatus=fail\n")


@pytest.mark.parametrize("args", [
    ["frobenius", "P2", "--m", "0"],
    ["frobenius", "P2", "--m", "-3", "--gen"],
    ["method1", "I1", "--m", "-1"],
    ["method1", "I1", "--m", "0"],
    ["propagate", "E1", "B1", "--m", "-1"],
    ["propagate", "E1", "B1", "--m", "0"],
])
def test_cli_frobenius_level_must_be_positive(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.endswith("error=ValueError: m must be positive\nstatus=fail\n")


@pytest.mark.parametrize("label, m", [("P2", "0"), ("B1", "0"), ("P2", "-1"), ("I1", "-2")])
def test_cli_recipe_level_must_be_positive(label, m):
    result = CliRunner().invoke(main, ["recipe", label, "--m", m])
    assert result.exit_code == 2
    assert result.output == f"error=PipelineError: m must be at least 1, got {m}\nstatus=fail\n"


def test_cli_recipe_uses_the_level_given():
    result = CliRunner().invoke(main, ["recipe", "P2", "--m", "3"])
    assert result.exit_code == 0
    assert "at m=3\n" in result.output


@pytest.mark.parametrize("name, text, error", [
    ("bad.fan", "label bad\ndim x\n", "bad.fan:2: expected integers, got ['x']"),
    ("bad.fan", "label bad\ndim\n", "bad.fan:2: dim needs exactly one value, got []"),
    ("bad.fan", "label bad\ndim 2 3\n", "bad.fan:2: dim needs exactly one value, got ['2', '3']"),
    ("bad.col", "label c\nfan\n", "bad.col:2: fan needs exactly one value, got []"),
    ("bad.col", "label c\nfan P1xP1\nfrobenius_m x\n",
     "bad.col:3: expected integers, got ['x']"),
    ("bad.col", "label c\nfan P1xP1\nfrobenius_m 0\n",
     "bad.col:3: frobenius_m must be at least 1, got 0"),
    ("bad.col", "label c\nfan P1xP1\nfrobenius_m\n",
     "bad.col:3: frobenius_m needs exactly one value, got []"),
], ids=["dim-not-int", "dim-missing", "dim-two-values", "fan-missing",
        "m-not-int", "m-zero", "m-missing"])
def test_cli_malformed_scalar_field_reports_fail(tmp_path, name, text, error):
    write_fan_file(tmp_path / "P1xP1.fan", load_workspace().fan("P1xP1"))
    (tmp_path / name).write_text(text + "rays\n" if name.endswith(".fan") else
                                 text + "bundles\n0 0\n")
    result = CliRunner().invoke(main, ["--data", str(tmp_path), "validate", "P1xP1"])
    assert result.exit_code == 2
    assert result.output == f"error=ParseError: {tmp_path / error}\nstatus=fail\n"


def test_label_without_value_falls_back_to_the_file_stem(tmp_path):
    write_fan_file(tmp_path / "unlabeled.fan", load_workspace().fan("P1"))
    (tmp_path / "cut.col").write_text("label\nfan P1\nbundles\n0\n1\n")
    assert parse_fan_file(tmp_path / "unlabeled.fan").label == "P1"
    assert parse_collection_file(tmp_path / "cut.col").label == "cut"
    (tmp_path / "bare.fan").write_text("label\ndim 1\nrays\n1\n-1\nmax_cones\n0\n1\n")
    assert parse_fan_file(tmp_path / "bare.fan").label == "bare"


def test_cli_frobenius_sizes():
    runner = CliRunner()
    result = runner.invoke(main, ["frobenius", "I1", "--m", "10", "--gen"])
    assert result.exit_code == 0
    assert "size_twist_0=18" in result.output
    assert "size_gen=46" in result.output


def test_cli_frobenius_gen_splits_each_twist_once(monkeypatch):
    from toricsec import frobenius
    calls = []
    real = frobenius.frobenius_summands

    def spy(fan, pic, m, w, sigma=None):
        calls.append(tuple(w))  # every split is on the first chart
        return real(fan, pic, m, w, sigma)

    monkeypatch.setattr(frobenius, "frobenius_summands", spy)
    result = CliRunner().invoke(main, ["frobenius", "P2", "--m", "3", "--gen"])
    assert result.exit_code == 0
    assert calls and len(calls) == len(set(calls))


def test_cli_strong_exceptional():
    runner = CliRunner()
    result = runner.invoke(main, ["strong-exceptional", "E1"])
    assert result.exit_code == 0


def test_cli_unknown_command_usage_error():
    runner = CliRunner()
    result = runner.invoke(main, ["no-such-command"])
    assert result.exit_code != 0


def test_cli_reports_are_idempotent(tmp_path):
    runner = CliRunner()
    args = ["--seed", "7", "method2", "S3"]
    out1 = runner.invoke(main, ["--out", str(tmp_path / "a.txt")] + args)
    out2 = runner.invoke(main, ["--out", str(tmp_path / "b.txt")] + args)
    assert out1.exit_code == 0 and out2.exit_code == 0
    assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()


def test_cli_exit_status_tracks_report():
    runner = CliRunner()
    ok = runner.invoke(main, ["recipe", "P2"])
    assert ok.exit_code == 0 and "status=pass" in ok.output
    bad = runner.invoke(main, ["recipe", "K3"])
    assert bad.exit_code == 1


# Every subcommand on valid input, then a rejected input for each one.
REPORT_LIFECYCLE = [
    (["validate", "P2"], "pass"),
    (["forbidden-sets", "P2"], "pass"),
    (["cohomology", "P2", "--", "-3"], "pass"),
    (["strong-exceptional", "P1xP1"], "pass"),
    (["frobenius", "P2", "--m", "2", "--gen"], "pass"),
    (["method1", "P1xP1"], "pass"),
    (["quiver", "P1xP1", "--total-space"], "pass"),
    (["method2", "P1xP1"], "pass"),
    (["propagate", "S3", "S2"], "pass"),
    (["tilting-total-space", "P1xP1"], "pass"),
    (["recipe", "P2"], "pass"),
    (["helix", "P1xP1", "--steps", "1"], "pass"),
    (["recipe", "K3"], "fail"),
    (["validate", "NOPE"], "rejected"),
    (["forbidden-sets", "NOPE"], "rejected"),
    (["cohomology", "NOPE", "--", "-3"], "rejected"),
    (["cohomology", "P2", "--", "1,2"], "rejected"),
    (["strong-exceptional", "P2"], "rejected"),
    (["frobenius", "NOPE"], "rejected"),
    (["method1", "NOPE"], "rejected"),
    (["quiver", "NOPE"], "rejected"),
    (["method2", "NOPE"], "rejected"),
    (["propagate", "S3", "NOPE"], "rejected"),
    (["tilting-total-space", "NOPE"], "rejected"),
    (["recipe", "P2", "--m", "0"], "rejected"),
    (["recipe", "NOPE"], "rejected"),
    (["helix", "NOPE"], "rejected"),
    (["helix", "P1xP1", "--twist-class", "0"], "rejected"),
]


@pytest.mark.parametrize("args, status", REPORT_LIFECYCLE,
                         ids=[" ".join(args) for args, _ in REPORT_LIFECYCLE])
def test_cli_group_ends_every_report_once(tmp_path, args, status):
    out = tmp_path / "report.txt"
    result = CliRunner().invoke(main, ["--out", str(out)] + args)
    lines = result.output.splitlines()
    assert len(lines) > 1 and [x for x in lines if x.startswith("status=")] == lines[-1:]
    if status == "rejected":
        assert lines[-2].startswith("error=") and lines[-1] == "status=fail"
    else:
        assert lines[-1] == f"status={status}"
    assert result.exit_code == {"pass": 0, "fail": 1, "rejected": 2}[status]
    assert out.read_text() == result.output


@pytest.mark.parametrize("command", ["method2", "recipe"])
@pytest.mark.parametrize("option, error", [
    (["--trials", "0"], "trials must be at least 1, got 0"),
    (["--trials", "-1"], "trials must be at least 1, got -1"),
    (["--prime", "1"], "prime 1 is not prime"),
    (["--prime", "9"], "prime 9 is not prime"),
    (["--prime", "2"], "prime 2 is too small: over F_2 no point lies off the diagonal"),
])
def test_cli_fiber_parameters_rejected(command, option, error):
    result = CliRunner().invoke(main, option + [command, "S3"])
    assert result.exit_code == 2
    assert result.output == f"error=DiagonalError: {error}\nstatus=fail\n"
