from pathlib import Path

import pytest
from click.testing import CliRunner

from toricsec.cli import main
from toricsec.files import (
    ParseError,
    parse_collection_file,
    parse_fan_file,
    parse_poset_file,
    write_collection_file,
    write_fan_file,
)
from toricsec.workspace import WorkspaceError, load_workspace


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


@pytest.mark.parametrize("command", ["strong-exceptional", "method1", "quiver"])
def test_cli_label_without_collection_reports_fail(command):
    result = CliRunner().invoke(main, [command, "P2"])
    assert result.exit_code == 2
    assert result.output == ("error=WorkspaceError: no collection registered for P2\n"
                             "status=fail\n")


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

    def spy(fan, pic, m, w, sigma):
        calls.append((tuple(w), tuple(sigma)))
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
