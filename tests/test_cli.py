"""Command-line surface: exit codes, formats, and the verification suites."""

import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("args", [
    ["spherical", "--group", "SL2", "--lam", "1,5", "--mu", "0"],
    ["spherical", "--group", "SL3", "--lam", "0", "--mu", "0,0"],
])
def test_spherical_wrong_rank_coweight_is_config_error(runner, args):
    # the pairing zips coordinates, so a wrong-rank index must be caught at the input
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "is not a coweight of" in res.output


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


def test_fiber_targets_is_a_choice(runner):
    args = ["fiber", "--group", "SL2", "--source", "coset:1", "--word", "0,1"]
    rows = {}
    for targets in ("all", "with-zero"):
        res = runner.invoke(main, args + ["--targets", targets])
        assert res.exit_code == 0, res.output
        rows[targets] = json.loads(res.output)["rows"]
    zero = [r for r in rows["with-zero"] if r["display"] == "QPoly(0)"]
    assert zero and [r for r in rows["with-zero"] if r not in zero] == rows["all"]
    # a typo used to list the zero classes silently
    res = runner.invoke(main, args + ["--targets", "every"])
    assert res.exit_code == 2
    assert "'every' is not one of" in res.output


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


@pytest.mark.parametrize("args", [
    # coweights with the wrong number of coordinates
    ["oracle", "--group", "SL2", "--mode", "action", "--lam", "0,0", "--mu", "1"],
    ["oracle", "--group", "SL2", "--mode", "action", "--lam", "1", "--mu", "1,7"],
    ["oracle", "--group", "GL2", "--mode", "action", "--lam", "1", "--mu", "1"],
    ["oracle", "--group", "SL2", "--mode", "interpolate", "--lam", "0,0", "--mu", "1"],
    ["oracle", "--group", "SL2", "--mode", "interpolate", "--lam", "1", "--mu", "1,7"],
    ["oracle", "--group", "GL2", "--mode", "interpolate", "--lam", "1", "--mu", "1"],
    # non-dominant coweights
    ["oracle", "--group", "SL2", "--mode", "action", "--lam", "-1", "--mu", "1"],
    ["oracle", "--group", "GL2", "--mode", "action", "--lam", "0,1", "--mu", "1,0"],
    ["oracle", "--group", "SL2", "--mode", "action", "--lam", "1", "--mu", "-1"],
    ["oracle", "--group", "SL2", "--mode", "interpolate", "--lam", "1", "--mu", "-1"],
])
def test_malformed_oracle_coweight_is_config_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "coordinate" in res.output or "must be dominant" in res.output


@pytest.mark.parametrize("args", [
    ["hecke", "--group", "SL2", "--left", "5", "--right", "0"],
    ["hecke", "--group", "SL2", "--left", "-1", "--right", "0"],
    ["hecke", "--group", "SL3", "--left", "1", "--right", "0,3"],
    ["fiber", "--group", "SL2", "--source", "coset:7", "--word", "0"],
    ["fiber", "--group", "SL2", "--source", "z", "--word", "0,-1"],
])
def test_out_of_range_simple_reflection_is_config_error(runner, args):
    # -1 used to pick the last simple reflection silently
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "no simple reflection" in res.output


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
    # weyl and fiber enumerate the length-zero subgroup, which needs a
    # semisimple group just as verify does
    for args in (["verify", "--group", "GL2", "--bound", "1"],
                 ["weyl", "--group", "GL2"],
                 ["fiber", "--group", "GL2", "--source", "z", "--word", "0"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
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


def test_oracle_action_ignores_bound(runner):
    # --bound sets the window of the window and orbits modes only
    args = ["oracle", "--group", "SL2", "--q", "3", "--mode", "action",
            "--lam", "0", "--mu", "1"]
    plain = runner.invoke(main, args)
    bounded = runner.invoke(main, args + ["--bound", "5"])
    assert plain.exit_code == bounded.exit_code == 0
    assert bounded.stdout == plain.stdout
    assert "bound" not in json.loads(plain.stdout)


PRESETS = ["SL2", "PGL2", "GL2", "SL3", "PGL3", "Sp4", "G2"]


def _invalid_coweight(rd, text):
    """Whether the CLI must reject ``text`` as a coweight of rd."""
    try:
        mu = tuple(int(x) for x in text.split(","))
    except ValueError:
        return True
    return len(mu) != rd.char_lattice_rank or not rd.is_dominant(mu)


_coweight_text = st.one_of(
    st.text(max_size=8),
    st.lists(st.integers(-3, 3), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=3).map(
        lambda xs: ",".join(map(str, xs))),
)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["spherical", "expmod"]),
       group=st.sampled_from(PRESETS), text=_coweight_text,
       bad_first=st.booleans())
def test_invalid_coweight_text_is_config_error(command, group, text, bad_first):
    from expflag.root_datum import build_root_datum

    rd = build_root_datum(group)
    assume(_invalid_coweight(rd, text))
    zero = ",".join("0" for _ in range(rd.char_lattice_rank))
    lam, mu = (text, zero) if bad_first else (zero, text)
    res = CliRunner().invoke(main, [command, "--group", group,
                                    f"--lam={lam}", f"--mu={mu}"])
    assert res.exit_code == 2, (res.output, res.exception)
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
