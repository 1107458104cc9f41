"""Command-line surface: exit codes, formats, and the verification suites."""

import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from expflag.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_weyl_lengths(runner):
    res = runner.invoke(main, ["weyl", "--group", "SL2", "--bound", "3"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["group"] == "SL2"
    lengths = sorted(row["length"] for row in doc["rows"])
    assert lengths[0] == 0 and lengths[-1] == 3


def test_weyl_zero_w_listing(runner):
    res = runner.invoke(
        main, ["weyl", "--group", "SL2", "--bound", "4", "--list", "0W"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["rows"]
    for row in doc["rows"]:
        assert row["in_0W"]
        assert row["strictly_dominant_translation"]


def test_hecke_quadratic(runner):
    res = runner.invoke(
        main, ["hecke", "--group", "SL2", "--left", "0", "--right", "0"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert len(doc["product"]) == 2


def test_spherical_product(runner):
    res = runner.invoke(
        main, ["spherical", "--group", "SL2", "--lam", "1", "--mu", "1"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["product"]


def test_expmod_action(runner):
    res = runner.invoke(
        main, ["expmod", "--group", "SL2", "--lam", "1", "--mu", "1"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    coeffs = {tuple(e["mu"]): e["qpoly"] for e in doc["action"]}
    assert set(coeffs) == {(0,), (1,), (2,)}


def test_expmod_rank_one_certificate(runner):
    res = runner.invoke(
        main, ["expmod", "--group", "SL2", "--rank-one", "--bound", "2"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert "determinant" in doc["rank_one"]


def test_expmod_requires_work(runner):
    res = runner.invoke(main, ["expmod", "--group", "SL2"])
    assert res.exit_code == 2


def test_fiber_table(runner):
    res = runner.invoke(
        main, ["fiber", "--group", "SL2", "--source", "z", "--word", "0"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["rows"]
    classes = sorted(row["display"] for row in doc["rows"])
    assert classes  # nonzero fibers exist over the zero stratum


def test_oracle_window(runner):
    res = runner.invoke(
        main,
        ["oracle", "--group", "SL2", "--q", "3", "--bound", "1",
         "--mode", "window"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["size"] == 13
    assert len(doc["points"]) == 13


def test_oracle_interpolate_matches_expmod(runner):
    res = runner.invoke(
        main,
        ["oracle", "--group", "SL2", "--mode", "interpolate",
         "--lam", "1", "--mu", "1", "--q", "2,3,4,5"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    consts = {tuple(e["nu"]): e["display"] for e in doc["constants"]}
    assert set(consts) == {(0,), (1,), (2,)}


def test_verify_passes(runner):
    for group in ("SL2", "PGL2", "SL3"):
        res = runner.invoke(
            main, ["verify", "--group", group, "--bound", "1", "--q", "2,3"]
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["passed"]


def test_bad_group_is_config_error(runner):
    res = runner.invoke(main, ["weyl", "--group", "E9"])
    assert res.exit_code == 2


def test_bad_q_is_config_error(runner):
    res = runner.invoke(
        main, ["verify", "--group", "SL2", "--q", "6"]
    )
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["verify", "--group", "SL2", "--q", "11"],
    ["oracle", "--group", "SL2", "--q", "11"],
    ["oracle", "--group", "SL2", "--q", "8"],
    ["verify", "--group", "SL2", "--q", "8"],
])
def test_unsupported_field_is_config_error(runner, args):
    # only the fields the F_q arithmetic implements are accepted
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "unsupported field size" in res.output


@pytest.mark.parametrize("lam,mu", [("-1", "1"), ("0", "-1"), ("1,0", "1")])
def test_non_dominant_expmod_index_is_config_error(runner, lam, mu):
    res = runner.invoke(
        main, ["expmod", "--group", "SL2", "--lam", lam, "--mu", mu]
    )
    assert res.exit_code == 2, res.output
    assert "not a dominant coweight" in res.output


def test_bad_bound_is_config_error(runner):
    res = runner.invoke(main, ["weyl", "--group", "SL2", "--bound", "-1"])
    assert res.exit_code == 2


def test_tsv_output(runner):
    res = runner.invoke(
        main,
        ["fiber", "--group", "SL2", "--source", "z", "--word", "0",
         "--output", "tsv"],
    )
    assert res.exit_code == 0
    lines = [l for l in res.output.splitlines() if l.strip()]
    assert all("\t" in l for l in lines)


def test_out_file(runner, tmp_path):
    target = tmp_path / "rows.json"
    res = runner.invoke(
        main,
        ["weyl", "--group", "SL2", "--bound", "2", "--out", str(target)],
    )
    assert res.exit_code == 0
    doc = json.loads(target.read_text())
    assert doc["rows"]


def test_verify_rejects_non_semisimple_group(runner):
    res = runner.invoke(main, ["verify", "--group", "GL2", "--bound", "1"])
    assert res.exit_code == 2, res.output
    assert "GL2" in res.output and "semisimple" in res.output


def _readme_commands():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("expflag ")]


def test_readme_examples_run(runner):
    commands = _readme_commands()
    assert len(commands) >= 9
    for args in commands:
        res = runner.invoke(main, args)
        assert res.exit_code == 0, (args, res.output)
