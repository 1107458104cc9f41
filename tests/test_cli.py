"""Command-line surface: exit codes, formats, and the verification suites."""

import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import expflag
from expflag.affine_weyl import AffineWeyl, ExpLabel
from expflag.cli import main
from expflag.exp_module import basis_vector, fiber_class, phi_element
from expflag.root_datum import build_root_datum


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


@pytest.mark.parametrize("group,lam,mu,q_sizes", [
    ("SL2", "1", "2", [2, 3, 4, 5, 7]),
    ("PGL2", "1", "2", [2, 3, 4]),
    ("GL2", "1,0", "2,0", [2, 3, 4]),
])
def test_oracle_interpolate_needs_dim_gr_mu_plus_one_field_sizes(runner, group, lam, mu, q_sizes):
    # each count is a sum of |Gr^mu(F_q)| roots of unity, of degree at most
    # <2 rho, mu>; one size fewer used to fit a wrong polynomial and exit 0
    args = ["oracle", "--group", group, "--mode", "interpolate", "--lam", lam, "--mu", mu]
    res = runner.invoke(main, args + ["--q", ",".join(map(str, q_sizes[:-1]))])
    assert res.exit_code == 2, res.output
    assert f"needs at least {len(q_sizes)} field sizes" in res.output
    res = runner.invoke(main, args + ["--q", ",".join(map(str, q_sizes))])
    assert res.exit_code == 0, res.output


def test_oracle_interpolate_reports_counts_off_the_fit(runner, monkeypatch):
    # a count off by one at q = 5 leaves the four samples of a degree-2 fit
    # inconsistent: an invariant violation, not a wrong polynomial
    from expflag import fq_oracle

    real = fq_oracle.whittaker_action

    def corrupt(preset, bound, mu, q):
        matrix = real(preset, bound, mu, q)
        return {k: v + 1 for k, v in matrix.items()} if q == 5 else matrix

    monkeypatch.setattr(fq_oracle, "whittaker_action", corrupt)
    res = runner.invoke(main, ["oracle", "--group", "SL2", "--mode", "interpolate",
                               "--lam", "1", "--mu", "1", "--q", "2,3,4,5"])
    assert res.exit_code == 1, res.output
    errors = [v["error"] for v in json.loads(res.output)["violations"]]
    assert all("not a polynomial of degree <= 2" in e for e in errors), errors


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


@pytest.mark.parametrize("group,code", [("SL2", 0), ("E9", 2)])
def test_python_m_expflag_runs_the_cli(group, code):
    """python -m expflag runs the command from a checkout, with its exit
    codes: 0 for a passing verify, 2 for an unknown group."""
    env = dict(os.environ, PYTHONPATH=str(Path(expflag.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "expflag", "verify", "--group", group, "--bound", "1",
         "--q", "2,3"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code, done.stderr
    if code == 0:
        assert json.loads(done.stdout)["passed"]
    else:
        assert "unknown group 'E9'" in done.stderr


@pytest.mark.parametrize("args", [
    ["weyl", "--group", "SL2"],
    ["expmod", "--group", "SL2", "--rank-one"],
])
def test_program_error_is_not_a_config_error(runner, monkeypatch, args):
    # a bug while building the datum must surface, not read as a user mistake
    def broken(group):
        raise RuntimeError("broken build")

    monkeypatch.setattr("expflag.cli.build_root_datum", broken)
    res = runner.invoke(main, args)
    assert isinstance(res.exception, RuntimeError), res.output
    assert res.exit_code != 2


@pytest.mark.parametrize("group,message", [
    ("E9", "unknown preset 'E9'"),
    ("GL2", "requires a semisimple datum"),
])
def test_expmod_bad_group_is_config_error(runner, group, message):
    res = runner.invoke(main, ["expmod", "--group", group, "--rank-one"])
    assert res.exit_code == 2, res.output
    assert message in res.output


def test_oracle_rejects_a_group_without_an_oracle(runner):
    res = runner.invoke(main, ["oracle", "--group", "SL3", "--q", "3"])
    assert res.exit_code == 2, res.output
    assert "oracle presets: SL2, PGL2, GL2" in res.output


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


def test_unwritable_out_is_config_error(runner, tmp_path):
    # a path that cannot be opened used to exit 1 with a bare traceback
    target = tmp_path / "missing" / "x.json"
    res = runner.invoke(
        main,
        ["spherical", "--group", "SL2", "--lam", "1", "--mu", "1", "--out", str(target)],
    )
    assert res.exit_code == 2, res.output
    assert str(target) in res.output


def test_fiber_bad_source_tag_is_config_error(runner):
    res = runner.invoke(
        main, ["fiber", "--group", "SL2", "--source", "bad:1", "--word", "0"]
    )
    assert res.exit_code == 2, res.output
    assert "bad source tag 'bad'" in res.output


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


@pytest.mark.parametrize("args,q", [
    (["oracle", "--group", "SL2", "--mode", "interpolate", "--lam", "1",
      "--mu", "1", "--q", "2,2"], 2),
    (["verify", "--group", "SL2", "--q", "3,3", "--bound", "1"], 3),
])
def test_duplicate_field_size_is_config_error(runner, args, q):
    # interpolation used to crash on the repeated sample, and verify ran
    # the oracle suite twice
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert f"duplicate field size {q}" in res.output


def _patched_verify(monkeypatch, change=None):
    """Run PGL2 verify over q = 2, 3 with whittaker_action wrapped."""
    from expflag import fq_oracle

    calls = []
    real = fq_oracle.whittaker_action

    def wrapper(preset, bound, mu, q):
        calls.append((bound, mu, q))
        out = real(preset, bound, mu, q)
        return change(out, mu, q) if change else out

    monkeypatch.setattr(fq_oracle, "whittaker_action", wrapper)
    res = CliRunner().invoke(
        main, ["verify", "--group", "PGL2", "--bound", "2", "--q", "2,3"])
    return res, calls


def test_verify_builds_one_whittaker_matrix_per_q_and_mu(monkeypatch):
    from expflag.root_datum import build_root_datum

    window = build_root_datum("PGL2").dominant_window((2,))
    res, calls = _patched_verify(monkeypatch)
    assert res.exit_code == 0, res.output
    assert len(calls) == 2 * len(window)
    assert {bound for bound, _mu, _q in calls} == {window[-1]}
    assert json.loads(res.output)["passed"]["oracle_vs_generic"] == 2 * len(window) ** 2


def test_verify_reports_a_corrupted_row(monkeypatch):
    # one entry of row (0,) of the q = 3, mu = (1,) matrix is off by one
    def corrupt(matrix, mu, q):
        if (mu, q) != ((1,), 3):
            return matrix
        key = min(k for k in matrix if k[0] == (0,))
        return {**matrix, key: matrix[key] + 1}

    res, _calls = _patched_verify(monkeypatch, corrupt)
    assert res.exit_code == 1, res.output
    errors = [v["error"] for v in json.loads(res.output)["violations"]]
    assert any("oracle mismatch at q=3, (0,),(1,)" in e for e in errors), errors


_word_text = st.one_of(
    st.text(max_size=6),
    st.lists(st.integers(-2, 3).map(str) | st.integers(-2, 3).map("s{}".format),
             max_size=3).map(",".join),
)
_small_coweight_text = st.one_of(
    st.text(max_size=6),
    *(st.lists(st.integers(lo, 3), min_size=1, max_size=2).map(
        lambda xs: ",".join(map(str, xs))) for lo in (-3, 0)),
)
# supported fields only in the last list, so repeats come up often
_q_text = st.one_of(
    st.text(max_size=6),
    *(st.lists(st.sampled_from(fields), min_size=1, max_size=4).map(
        lambda xs: ",".join(map(str, xs)))
      for fields in ([0, 1, 2, 3, 4, 6, 8, 9], [2, 3, 4, 5, 9])),
)
_group = st.sampled_from(PRESETS)
# one strategy per remaining free-text or integer input
_CLI_ARGS = st.one_of(
    st.tuples(_group, _word_text, _word_text).map(
        lambda t: ["hecke", "--group", t[0], f"--left={t[1]}", f"--right={t[2]}"]),
    st.tuples(_group, st.sampled_from(["coset", "zero", ""]), _word_text,
              _word_text).map(
        lambda t: ["fiber", "--group", t[0],
                   f"--source={t[1]}:{t[2]}" if t[1] else f"--source={t[2]}",
                   f"--word={t[3]}"]),
    st.tuples(st.sampled_from(["SL2", "PGL2", "GL2", "SL3"]),
              st.sampled_from(["action", "interpolate"]),
              _small_coweight_text, _small_coweight_text).map(
        lambda t: ["oracle", "--group", t[0], "--mode", t[1], "--q", "2,3",
                   f"--lam={t[2]}", f"--mu={t[3]}"]),
    st.tuples(_group, st.integers(-3, 3)).map(
        lambda t: ["weyl", "--group", t[0], "--bound", str(t[1])]),
    st.tuples(st.sampled_from(["action", "interpolate"]), _q_text).map(
        lambda t: ["oracle", "--group", "SL2", "--mode", t[0], "--lam", "1",
                   "--mu", "1", f"--q={t[1]}"]),
)


@settings(max_examples=120, deadline=None)
@given(args=_CLI_ARGS)
def test_cli_text_inputs_exit_zero_or_two(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code in (0, 2), (args, res.output, res.exception)
    assert "Traceback" not in res.output
    if res.exit_code == 0 and args[0] == "fiber":
        # a zero orbit exists only over a left-W0-maximal element
        doc = json.loads(res.output)
        if doc["source"]["tag"] == "zero":
            W = AffineWeyl(build_root_datum(doc["group"]))
            assert W.is_left_w0_maximal(W.from_json(doc["source"])), args


@pytest.mark.parametrize("args", [
    ["weyl", "--group", "SL2", "--bound", "0"],
    ["expmod", "--group", "SL2", "--rank-one", "--bound", "0"],
    ["oracle", "--group", "SL2", "--bound", "0"],
    ["verify", "--group", "SL2", "--bound", "0"],
    # the --q text parses, so the bound is checked before the repeat
    ["verify", "--group", "SL2", "--q", "2,2", "--bound", "0"],
])
def test_nonpositive_bound_message(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "bound must be positive" in res.output


def test_unparsable_q_is_reported_before_the_bound(runner):
    res = runner.invoke(main, ["oracle", "--bound", "0", "--q", "x"])
    assert res.exit_code == 2, res.output
    assert "bad coordinate list 'x'" in res.output


@pytest.mark.parametrize("args", [
    ["weyl", "--group", "SL2", "--bound", "100000000"],
    # targets up to length 50,002: past the element cap before any letter acts
    ["fiber", "--group", "SL2", "--source", "e", "--word",
     ",".join(["0"] * 50001)],
])
def test_element_cap_is_config_error(runner, args):
    start = time.perf_counter()
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "more than 100000 elements" in res.output
    # a generous guard against running to the end: the cap is reached in
    # about a second
    assert time.perf_counter() - start < 60


@pytest.mark.parametrize("group,source,element", [
    ("SL3", "zero:1", '{"lambda": [0, 0], "v_word": [1]}'),
    ("SL2", "zero:", '{"lambda": [0], "v_word": []}'),
    ("SL2", "zero:1", '{"lambda": [-1], "v_word": [0]}'),
])
def test_fiber_zero_source_must_be_left_w0_maximal(runner, group, source, element):
    res = runner.invoke(main, ["fiber", "--group", group, "--source", source,
                               "--word", "0"])
    assert res.exit_code == 2, res.output
    assert f"zero source {element} is not left-W0-maximal" in res.output


def _box_height_window(rd, bound):
    """The window by a scan of a box: the dominant coweights lam of height at
    most <2 rho, bound>, with the central part m1 + m2 of bound on GL2."""
    cap = rd.pair(rd.two_rho, bound)
    radius = cap + max(map(abs, bound))
    return sorted(
        lam for lam in itertools.product(range(-radius, radius + 1), repeat=rd.char_lattice_rank)
        if rd.is_dominant(lam) and rd.pair(rd.two_rho, lam) <= cap
        and (rd.name != "GL2" or sum(lam) == sum(bound))
    )


_RANK_THREE = {
    "Sp6": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "Spin7": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "PGL4": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
}
# GL2 bounds (m1, m2) with central parts m1 + m2 from -4 to 9
_GL2_BOUNDS = [(0, 0), (1, 0), (2, 0), (3, 3), (5, 4), (-1, -3), (1, -2), (0, -3), (5, 2)]


@pytest.mark.parametrize("group,bound", [
    *((g, b) for g in ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2"] for b in (1, 2, 3)),
    *((g, b) for g in _RANK_THREE for b in (1, 2)),
    *(("GL2", b) for b in _GL2_BOUNDS),
])
def test_height_window_matches_box_scan(group, bound):
    """RootDatum.dominant_window, on the bound (k, ..., k) that expmod
    --rank-one and verify pass for --bound k, and on GL2 bounds, where the
    central part of the bound carries over to the window."""
    from expflag.root_datum import _adjoint_preset, _simply_connected

    if group in _RANK_THREE:
        make = _adjoint_preset if group.startswith("PGL") else _simply_connected
        rd = build_root_datum(make(group, _RANK_THREE[group]))
    else:
        rd = build_root_datum(group)
    if group == "GL2":
        window = rd.dominant_window(bound)
        assert window == _box_height_window(rd, bound)
        assert window
        assert (bound in window) == rd.is_dominant(bound)
        return
    window = rd.dominant_window((bound,) * rd.rank)
    assert window == _box_height_window(rd, (bound,) * rd.rank)
    assert window[0] == tuple(0 for _ in range(rd.rank))


@pytest.mark.parametrize("group", ["SL2", "SL3"])
def test_fiber_applies_a_word_that_is_not_reduced(runner, group):
    res = runner.invoke(main, ["fiber", "--group", group, "--source", "e",
                               "--word", "0,0", "--targets", "with-zero"])
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)["rows"]
    W = AffineWeyl(build_root_datum(group))
    src = ExpLabel("coset", W.identity)
    identity = phi_element(basis_vector(W, src), W.word_to_element([0, 0]))
    differs = False
    for row in rows:
        target = ExpLabel(row["target"]["tag"], W.from_json(row["target"]))
        cls = fiber_class(src, [0, 0], target, W)
        assert row["class"] == cls.to_json(), row
        differs = differs or cls != identity.coefficient(target)
    # T_s0 T_s0 = (q - 1) T_s0 + q, not T_(s0 s0) = 1
    assert differs


@pytest.mark.parametrize("command", [
    ["weyl"], ["hecke", "--left", "0", "--right", "1"],
    ["spherical", "--lam", "1", "--mu", "1"], ["expmod", "--rank-one"],
    ["fiber", "--source", "z", "--word", "0"], ["oracle"],
])
def test_seed_is_a_verify_option_only(runner, command):
    # only verify draws random elements; elsewhere --seed would be ignored
    res = runner.invoke(main, command + ["--group", "SL2", "--seed", "5"])
    assert res.exit_code == 2, res.output
    assert "No such option" in res.output
    res = runner.invoke(main, ["verify", "--group", "SL2", "--bound", "1",
                               "--q", "2", "--seed", "5"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("mode", ["window", "orbits", "action"])
def test_single_field_modes_reject_a_list_of_fields(runner, mode):
    # these modes compute at one q; a second field must not be dropped
    # without a word
    res = runner.invoke(main, ["oracle", "--group", "SL2", "--mode", mode,
                               "--q", "2,3", "--lam", "0", "--mu", "1"])
    assert res.exit_code == 2, res.output
    assert f"--mode {mode} takes one field size" in res.output
    res = runner.invoke(main, ["oracle", "--group", "SL2", "--mode", mode,
                               "--q", "3", "--lam", "0", "--mu", "1"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("args,estimate", [
    (["--group", "SL2", "--bound", "5", "--q", "9"], 48427561),
    # only the last field is too large: every field is checked up front
    (["--group", "PGL2", "--bound", "7", "--q", "2,9"], 5380840),
])
def test_oversized_oracle_window_is_config_error(monkeypatch, args, estimate):
    from expflag.affine_weyl import AffineWeyl

    suites = []
    monkeypatch.setattr(AffineWeyl, "enumerate_elements",
                        lambda self, bound: suites.append(bound) or [])
    start = time.perf_counter()
    res = CliRunner().invoke(main, ["verify", *args])
    assert res.exit_code == 2, res.output
    assert f"window would contain about {estimate} points" in res.output
    # no suite ran; the check takes well under a second (the suites ran
    # for about a minute before the oracle suite hit the window)
    assert not suites
    assert time.perf_counter() - start < 10


def test_oversized_oracle_action_is_config_error(runner):
    # the Whittaker read-off builds no point of K mu K / K, but the window
    # cap still holds: |K 12 K / K| over F_9 is far past it
    res = runner.invoke(main, ["oracle", "--group", "SL2", "--mode", "action",
                               "--lam", "0", "--mu", "12", "--q", "9"])
    assert res.exit_code == 2, res.output
    assert "window would contain about 89737248461481573596281 points" in res.output
