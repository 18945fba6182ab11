"""CLI subcommands, exit-code contract, and byte determinism.

The tests call `cli.main` in-process through `run`; an exception that
leaves `main` fails the test.  Only what a fresh interpreter tests starts
a process: one `python -m selfcontract.cli` run per command, and one
pipeline compared byte for byte with two in-process runs.
"""
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from conftest import SMALL_TREE_TEXT

from selfcontract import cli

CLI = [sys.executable, "-m", "selfcontract.cli"]


def run(args, cwd):
    """`python -m selfcontract.cli *args` in `cwd`, called in-process."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(args))
    finally:
        os.chdir(home)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "space = spider:3\n"
        "objective = dist\n"
        "objective.target = 1,1.0\n"
        "start = 2,1.0\n"
        "tau = 0.5\n"
        "steps = 6\n"
        "seed = 7\n"
        "out = run1\n"
    )
    r = run(["simulate", "--config", "sim.cfg"], tmp_path)
    assert r.returncode == 0, r.stderr
    return tmp_path


def test_simulate_outputs(workdir):
    assert (workdir / "run1.curve.json").exists()
    assert (workdir / "run1.interp.json").exists()
    assert (workdir / "run1.values.csv").exists()
    log = json.loads((workdir / "run1.log.json").read_text())
    assert log["seed"] == 7 and log["diagnostic"] is None
    values = (workdir / "run1.values.csv").read_text().splitlines()
    assert values[0] == "k,t,f"
    assert len(values) == 8  # header + 7 points


def test_simulate_unknown_objective(tmp_path):
    r = run(["simulate", "--space", "euclidean:2", "--objective", "nope",
             "--out", "x"], tmp_path)
    assert r.returncode == 2
    assert "unknown objective" in r.stderr


@pytest.mark.parametrize("config, key, reads", [
    ("space = book:2\nobjective = dist_to_spine_segment\nobjective.hii = 3\n",
     "hii", "['hi', 'lo']"),
    ("space = euclidean:2\nobjective = half_sq_dist\nobjective.target = 0,0\n"
     "objective.sheet = 1.5\n", "sheet", "['target']"),
], ids=["book-hii", "plane-sheet"])
def test_simulate_refuses_unread_objective_keys(tmp_path, config, key, reads):
    """A misspelt optional key would otherwise run with the default."""
    (tmp_path / "typo.cfg").write_text(config + "out = typo\n")
    r = run(["simulate", "--config", "typo.cfg"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert f"reads no parameter ['{key}']; it reads {reads}" in r.stderr
    assert not (tmp_path / "typo.log.json").exists()


def test_simulate_refuses_a_nan_objective_parameter(tmp_path):
    """`objective.hi = nan` used to run as hi = +inf and exit 0."""
    (tmp_path / "nan.cfg").write_text(
        "space = book:2\nobjective = dist_to_spine_segment\nobjective.hi = nan\n"
        "start = 1,0.5,0.5\nout = nan\n")
    r = run(["simulate", "--config", "nan.cfg"], tmp_path)
    assert r.returncode == 2 and "Traceback" not in r.stderr, r.stderr
    assert "hi=nan" in r.stderr
    assert not (tmp_path / "nan.log.json").exists()


def test_simulate_beyond_the_numeric_solver(tmp_path):
    """half_sq_dist steps in closed form on a space no numeric solver covers."""
    (tmp_path / "r3.cfg").write_text(
        "space = euclidean:3\nobjective = half_sq_dist\n"
        "objective.target = 1.0,0.0,-0.5\nstart = 0.5,1.5,2.0\nout = r3\n")
    r = run(["simulate", "--config", "r3.cfg"], tmp_path)
    assert r.returncode == 0, r.stderr
    log = json.loads((tmp_path / "r3.log.json").read_text())
    assert log["n_points"] == 9 and log["diagnostic"] is None


@pytest.mark.parametrize("dim", [2, 3])
def test_simulate_where_the_squared_distance_overflows(tmp_path, dim):
    """Coordinates near 1e154 square to finite values whose sum overflows:
    the distance is inf, and the run exits 0 without a traceback."""
    (tmp_path / "far.cfg").write_text(
        f"space = euclidean:{dim}\nobjective = half_sq_dist\n"
        f"objective.target = {','.join(['0'] * dim)}\n"
        f"start = {','.join(['1e154'] * dim)}\nsteps = 3\nout = far\n")
    r = run(["simulate", "--config", "far.cfg"], tmp_path)
    assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr
    assert json.loads((tmp_path / "far.log.json").read_text())["n_points"] == 4


def test_verify_pass_and_exit_codes(workdir):
    r = run(["verify", "run1.curve.json",
             "--check", "self_contracted,stationarity,angle_estimate",
             "--out", "ver.json"], workdir)
    assert r.returncode == 0
    doc = json.loads((workdir / "ver.json").read_text())
    assert doc["passed"] and len(doc["reports"]) == 3

    r = run(["verify", "run1.curve.json", "--check", "self_contracted,bogus"], workdir)
    assert r.returncode == 2 and "unknown checks ['bogus']" in r.stderr

    r = run(["verify", "missing.json"], workdir)
    assert r.returncode == 2

    (workdir / "latin1.json").write_bytes(b"\xff\xfe")
    r = run(["verify", "latin1.json"], workdir)
    assert r.returncode == 2 and "Traceback" not in r.stderr, r.stderr


@pytest.mark.parametrize("space, line", [
    ("spider:3", "start = 2,abc"),
    ("spider:3", "start = 2"),
    ("product:[euclidean:1|spider:3]", "objective.target = 0.5,2,0.25"),
    ("spider:3", "objective.target = 2.7,0.5"),
    ("spider:3", "objective.target = 1,0.5,0.2"),
    ("book:2", "start = 0,inf,0"),
])
def test_simulate_unparsable_point_spec(tmp_path, space, line):
    objective = {"spider:3": "dist_to_leg_segment",
                 "book:2": "dist_to_spine_segment"}.get(space, "dist")
    (tmp_path / "bad.cfg").write_text(
        f"space = {space}\nobjective = {objective}\n{line}\nsteps = 1\nout = x\n"
    )
    r = run(["simulate", "--config", "bad.cfg"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert "cannot parse point" in r.stderr


def test_verify_rejects_nan_sample_time(tmp_path):
    doc = {
        "schema_version": 1,
        "space": {"kind": "euclidean", "dim": 1, "tolerance": 1e-9},
        "mode": "discrete",
        "domain_end": "inf",
        "samples": [{"t": 0.0, "p": [0.0]}, {"t": float("nan"), "p": [1.0]}],
    }
    (tmp_path / "nan.json").write_text(json.dumps(doc))
    r = run(["verify", "nan.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr


def _curve_doc(space: dict, points: list, times=(0.0, 1.0), domain_end="inf") -> dict:
    return {"schema_version": 1, "space": space, "mode": "discrete",
            "domain_end": domain_end,
            "samples": [{"t": t, "p": p} for t, p in zip(times, points)]}


SPIDER3 = {"kind": "spider", "k": 3, "leg_lengths": [1.0, 1.0, 1.0], "tolerance": 1e-9}
BOOK2 = {"kind": "book", "k": 2, "tolerance": 1e-9}
LINE = {"kind": "euclidean", "dim": 1, "tolerance": 1e-9}
NAN = float("nan")


@pytest.mark.parametrize("doc", [
    _curve_doc({"kind": "hyperbolic2", "tolerance": 1e-9},
               [[1.0, 0.0, 0.0], [NAN, 0.0, 0.0]]),
    _curve_doc(BOOK2, [[0, NAN, 0.0], [1, 0.5, 0.5]]),
    _curve_doc(BOOK2, [[1.5, 0.5, 0.5], [1, 0.5, 0.25]]),
    _curve_doc(SPIDER3, [[1, 0.5], [2, 0.5]], times=(0.0, "abc")),
    _curve_doc(SPIDER3, [[1, 0.5], [2, 0.5]], domain_end="abc"),
    _curve_doc(SPIDER3, [[1, 0.5], [NAN, 0.5]]),
    _curve_doc(SPIDER3, [[1, 0.5], [0, NAN]]),
    _curve_doc(SPIDER3, [[1, 0.5, 0.2], [2, 0.5]]),
    _curve_doc({**SPIDER3, "leg_lengths": [1.0, NAN, 1.0]}, [[1, 0.5], [3, 0.5]]),
    _curve_doc({**SPIDER3, "leg_lengths": [1.0, float("inf"), 1.0]},
               [[1, 0.5], [2, 0.5]]),
    _curve_doc(LINE, [[0.0], 0.5]),
    _curve_doc(LINE, [[0.0], "0.5"]),
    _curve_doc({**LINE, "tolerance": NAN}, [[0.0], [1.0]]),
    _curve_doc({**LINE, "tolerance": float("inf")}, [[0.0], [1.0]]),
    _curve_doc({**LINE, "tolerance": -1.0}, [[0.0], [1.0]]),
    _curve_doc({**LINE, "dim": 2.7}, [[0.0, 0.0], [1.0, 0.0]]),
    _curve_doc({**BOOK2, "k": 2.5}, [[1, 0.5, 0.5], [2, 0.5, 0.25]]),
    _curve_doc({**SPIDER3, "k": 3.5}, [[1, 0.5], [2, 0.5]]),
    _curve_doc({**LINE, "dim": 10 ** 400}, [[0.0], [1.0]]),
], ids=["hyperbolic-nan", "book-spine-nan", "book-fractional-sheet", "time-abc",
        "domain-end-abc", "spider-nan-leg", "spider-nan-centre", "spider-extra-field",
        "spider-nan-length", "spider-inf-length", "bare-number-point", "string-point",
        "tolerance-nan", "tolerance-inf", "tolerance-negative", "fractional-dim",
        "book-fractional-k", "spider-fractional-k", "huge-dim"])
def test_verify_rejects_hostile_curve_files(tmp_path, doc):
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    for command in (["verify", "bad.json"], ["audit", "bad.json", "--bound", "generic"]):
        r = run(command, tmp_path)
        assert r.returncode == 2, (command, r.stdout, r.stderr)
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize("space", ["spider:3:nan", "spider:3:inf"])
def test_simulate_rejects_non_finite_leg_lengths(tmp_path, space):
    (tmp_path / "bad.cfg").write_text(
        f"space = {space}\nobjective = half_sq_dist\nobjective.target = 0,0\n"
        "start = 0,0\nsteps = 2\nout = x\n")
    r = run(["simulate", "--config", "bad.cfg"], tmp_path)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert "Traceback" not in r.stderr


COMMANDS = {
    "simulate": ["simulate"],
    "verify": ["verify", "run1.curve.json"],
    "audit": ["audit", "run1.curve.json", "--bound", "generic"],
    "counterexample": ["counterexample", "--out", "cex"],
}


@pytest.mark.parametrize("option, commands", [
    ("steps = abc", ["simulate"]),
    ("steps = 0", ["simulate"]),
    ("--steps -2", ["simulate"]),
    ("seed = x", ["simulate", "verify", "audit"]),
    ("seed = -1", ["simulate", "verify", "audit"]),
    ("--seed -1", ["simulate", "verify", "audit"]),
    ("tau = 0.5,x", ["simulate"]),
    ("--tau 0.5,x", ["simulate"]),
    ("tol = x", ["verify", "audit"]),
    ("--tol nan", ["verify", "audit"]),
    ("k = x", ["counterexample"]),
    ("--seed 1.5", ["simulate", "verify", "audit"]),
    ("--steps 1.5", ["simulate"]),
    ("--tol abc", ["verify", "audit"]),
    ("--k abc", ["counterexample"]),
    ("--k -2e0", ["counterexample"]),
    ("--seed -1e0", ["simulate", "verify", "audit"]),
    ("--steps -2e0", ["simulate"]),
    ("--tau -0.5,x", ["simulate"]),
    ("--tol -inf", ["verify", "audit"]),
], ids=lambda v: v if isinstance(v, str) else "+".join(v))
def test_malformed_numeric_options_are_usage_errors(workdir, option, commands):
    """A bad number, from a flag or a config line, exits 2 without a traceback."""
    for command in commands:
        args = list(COMMANDS[command])
        if option.startswith("--"):
            args += option.split()
            if command == "simulate":
                args += ["--config", "sim.cfg"]
        else:
            # the base config without the option's own line, so that no key repeats
            key = option.split()[0]
            base = "".join(line for line in (workdir / "sim.cfg").read_text().splitlines(True)
                           if line.split()[0] != key) if command == "simulate" else ""
            (workdir / "bad.cfg").write_text(f"{base}{option}\n")
            args += ["--config", "bad.cfg"]
        r = run(args, workdir)
        assert r.returncode == 2, (command, r.stdout, r.stderr)
        assert "error:" in r.stderr and "Traceback" not in r.stderr, (command, r.stderr)
        assert f"option {option.lstrip('-').split()[0]} " in r.stderr, (command, r.stderr)


WRITING = {
    **COMMANDS,
    "simulate": ["simulate", "--config", "sim.cfg"],
    "counterexample": ["counterexample", "--k", "2"],
    "report": ["report", "rows.csv"],
}


@pytest.mark.parametrize("args", [
    *[COMMANDS[c] + ["--config", "missing.cfg"] for c in COMMANDS],
    *[COMMANDS[c] + ["--config", "."] for c in COMMANDS],
    ["simulate", "--space", "tree:.", "--objective", "dist", "--out", "x"],
    *[WRITING[c] + ["--out", "run1.curve.json/x"] for c in WRITING],
], ids=[f"config-missing-{c}" for c in COMMANDS] + [f"config-dir-{c}" for c in COMMANDS]
    + ["tree-dir"] + [f"out-below-file-{c}" for c in WRITING])
def test_unusable_paths_are_usage_errors(workdir, args):
    """A path that names nothing, a directory, or a place below a file exits
    2 with the system's message, never with a traceback."""
    (workdir / "rows.csv").write_text(
        f"{BOUND_HEADER}\n1,tree,spider:3,2.0,1.0,,10.0,0.2,1,0,{{}}\n")
    r = run(args, workdir)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert "error:" in r.stderr and "Traceback" not in r.stderr, r.stderr


@pytest.mark.parametrize("args", [
    ["simulate", "--space", "euclidean", "--objective", "dist", "--out", "x"],
    ["simulate", "--space", "spider", "--objective", "dist", "--out", "x"],
    *[COMMANDS[c] + ["--config", "latin.cfg"] for c in COMMANDS],
], ids=["euclidean-without-dim", "spider-without-k"] + [f"config-not-utf8-{c}" for c in COMMANDS])
def test_unreadable_specs_are_usage_errors(workdir, args):
    """A space spec without its parameter, and a config file that is not
    UTF-8, exit 2 with a message, never with a traceback."""
    (workdir / "latin.cfg").write_bytes(b"\xff\xfe\x00")
    r = run(args, workdir)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert "error:" in r.stderr and "Traceback" not in r.stderr, r.stderr


@pytest.mark.parametrize("spec", ["euclidean:2:7", "book:3:junk", "hyperbolic2:5",
                                  "spider:3:2.0:9"])
def test_space_specs_with_extra_fields_are_usage_errors(tmp_path, monkeypatch, capsys, spec):
    """A `:` field the space does not read is refused, not dropped: each of
    these used to run on the space without it (`euclidean:2`, `book:3`,
    `hyperbolic2`, `spider:3:2.0`)."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--space", spec, "--objective", "dist", "--out", "x"]) == 2
    assert f"error: space spec {spec!r} has more fields than" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_tree_path_may_hold_a_colon(tmp_path, monkeypatch, capsys):
    """The rest of a `tree:` spec is the path, `:` and all."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a:b.tree").write_text(SMALL_TREE_TEXT)
    (tmp_path / "t.cfg").write_text("objective.target = 1,1.0\n")
    assert cli.main(["simulate", "--space", "tree:a:b.tree", "--objective", "dist",
                     "--config", "t.cfg", "--start", "3,1.0", "--out", "t"]) == 0, \
        capsys.readouterr().err
    assert json.loads((tmp_path / "t.log.json").read_text())["space"] == "tree:a:b.tree"


def test_simulate_refuses_a_non_finite_final_value(tmp_path, monkeypatch, capsys):
    """From (1e308, 1e308) every value of half_sq_dist toward the origin
    overflows.  The run used to exit 0 and write `"final_value": Infinity`,
    which is not JSON, into the log and `inf` into the values file; now it
    exits 2 and writes no file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "far.cfg").write_text("objective.target = 0,0\n")
    assert cli.main(["simulate", "--space", "euclidean:2", "--objective", "half_sq_dist",
                     "--start", "1e308,1e308", "--config", "far.cfg", "--out", "far"]) == 2
    assert "error: the run's final value is inf" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["far.cfg"]


def test_simulate_refuses_overflowing_leg_lengths(tmp_path, monkeypatch, capsys):
    """`spider:3:1e308` without `--start` used to end in `OverflowError:
    intermediate overflow in fsum` when the start was drawn."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--space", "spider:3:1e308", "--objective", "dist",
                     "--out", "x"]) == 2
    err = capsys.readouterr().err
    assert "error: the segment lengths sum past the largest float" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, key, value", [
    (["counterexample"], "k", "-2e0"),
    (["verify", "run1.curve.json"], "tol", "-1e-3"),
    (["audit", "run1.curve.json", "--bound", "tree"], "tol", "-1e-3"),
    (["simulate", "--config", "sim.cfg"], "steps", "-3e0"),
], ids=["k", "verify-tol", "audit-tol", "steps"])
def test_a_flag_value_that_starts_with_a_dash_reads_as_its_config_line(
        workdir, monkeypatch, capsys, command, key, value):
    """`--k -2e0` and `--tol -1e-3` used to get argparse's "expected one
    argument", where the config line got the option's own message."""
    monkeypatch.chdir(workdir)
    flag = cli.main(command + [f"--{key}", value])
    flag_err = capsys.readouterr().err
    base = (workdir / "sim.cfg").read_text() if "simulate" in command else ""
    (workdir / "dash.cfg").write_text(base.replace(f"{key} = ", "# ") + f"{key} = {value}\n")
    config = [a for a in command if a not in ("--config", "sim.cfg")] + ["--config", "dash.cfg"]
    assert (flag, flag_err) == (cli.main(config), capsys.readouterr().err)
    assert "expected one argument" not in flag_err


def test_a_flag_followed_by_a_flag_is_argparse_usage_error(capsys):
    for argv in (["counterexample", "--k", "--out", "x"], ["counterexample", "--k", "-h"]):
        assert cli.main(argv) == 2
        assert "argument --k: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, key", [
    (["simulate"], "stpes = 100\n", "stpes"),
    (["simulate"], "steps = 100\nsteps = 3\n", "steps"),
    (["simulate"], "config = other.cfg\n", "config"),
    (["verify", "run1.curve.json"], "objective.target = 1,1.0\n", "objective.target"),
    (["audit", "run1.curve.json", "--bound", "tree"], "steps = 3\n", "steps"),
    (["counterexample", "--k", "2"], "check = angle_estimate\n", "check"),
], ids=["misspelt", "repeated", "config", "verify-objective", "audit-steps",
        "counterexample-check"])
def test_config_keys_that_the_command_does_not_read_are_refused(
        workdir, monkeypatch, capsys, command, config, key):
    """`stpes = 100` in a `simulate` config used to run the default 8 steps
    and exit 0, and a repeated key kept its last value."""
    monkeypatch.chdir(workdir)
    base = (workdir / "sim.cfg").read_text().replace("out = run1", "out = typo")
    (workdir / "typo.cfg").write_text((base if command == ["simulate"] else "") + config)
    before = sorted(p.name for p in workdir.iterdir())
    assert cli.main(command + ["--config", "typo.cfg"]) == 2
    assert f"{key!r}" in capsys.readouterr().err
    assert sorted(p.name for p in workdir.iterdir()) == before


def test_simulate_refuses_a_spine_segment_with_no_finite_point(tmp_path, monkeypatch, capsys):
    """`lo = hi = inf` used to exit 2 with "geodesic parameter nan outside
    [0, 1]", a message that names no parameter."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inf.cfg").write_text("objective.lo = inf\nobjective.hi = inf\n")
    assert cli.main(["simulate", "--space", "book:2", "--objective", "dist_to_spine_segment",
                     "--start", "1,0.5,0.5", "--config", "inf.cfg", "--out", "inf"]) == 2
    assert "lo=inf" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inf.cfg"]


def test_verify_refuses_a_negative_tolerance(workdir):
    """The sampling config refuses tol < 0, under which every check would fail."""
    r = run(["verify", "run1.curve.json", "--tol", "-1"], workdir)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert "tolerance must be finite and >= 0" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("check", [",", ", ,"])
def test_verify_refuses_empty_check_list(workdir, check):
    r = run(["verify", "run1.curve.json", "--check", check, "--out", "ver.json"], workdir)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert "names no check" in r.stderr
    assert not (workdir / "ver.json").exists()


def test_verify_planted_violation(tmp_path):
    doc = {
        "schema_version": 1,
        "space": {"kind": "euclidean", "dim": 1, "tolerance": 1e-9},
        "mode": "discrete",
        "domain_end": 3.0,
        "samples": [{"t": 0.0, "p": [0.0]}, {"t": 1.0, "p": [3.0]},
                    {"t": 2.0, "p": [1.0]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    r = run(["verify", "bad.json", "--out", "rep.json"], tmp_path)
    assert r.returncode == 1
    rep = json.loads((tmp_path / "rep.json").read_text())
    witness = rep["reports"][0]["witness"]
    assert witness["t1"] == 0.0 and witness["t2"] == 1.0 and witness["t3"] == 2.0


def test_audit_pass_fail_unsupported(workdir):
    r = run(["audit", "run1.curve.json", "--bound", "tree", "--out", "aud"],
            workdir)
    assert r.returncode == 0
    rows = (workdir / "aud.csv").read_text().splitlines()
    assert rows[0].startswith("schema_version,bound,space")
    assert rows[1].split(",")[1] == "tree"

    r = run(["audit", "run1.curve.json", "--bound", "book"], workdir)
    assert r.returncode == 2

    r = run(["audit", "run1.curve.json", "--bound", "generic"], workdir)
    assert r.returncode == 0

    # a large --tol turns any finite ratio into a pass; exit still 0
    r = run(["audit", "run1.curve.json", "--bound", "tree", "--tol", "100"],
            workdir)
    assert r.returncode == 0


@pytest.mark.parametrize("args, flag", [
    (["simulate", "--config", "sim.cfg", "--tol", "123"], "--tol"),
    (["counterexample", "--k", "2", "--seed", "99"], "--seed"),
    (["counterexample", "--k", "2", "--tol", "7"], "--tol"),
], ids=["simulate-tol", "counterexample-seed", "counterexample-tol"])
def test_flags_that_a_command_does_not_read_are_usage_errors(workdir, args, flag):
    """`simulate --tol 123` and `counterexample --seed 99 --tol 7` used to
    exit 0 and ignore the values; each command accepts only flags it reads."""
    before = sorted(p.name for p in workdir.iterdir())
    r = run(args, workdir)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert f"unrecognized arguments: {flag}" in r.stderr and "Traceback" not in r.stderr
    assert sorted(p.name for p in workdir.iterdir()) == before


@pytest.mark.parametrize("command, key", [
    (["simulate"], "tol"),
    (["counterexample", "--k", "2"], "seed"),
    (["counterexample", "--k", "2"], "tol"),
], ids=["simulate-tol", "counterexample-seed", "counterexample-tol"])
def test_config_keys_of_dropped_flags_are_refused(workdir, command, key):
    """A `tol = ...` line in a `simulate` config, or a `seed` or `tol` line
    in a `counterexample` one, names no flag of the command."""
    base = (workdir / "sim.cfg").read_text().replace("out = run1", "out = typo")
    (workdir / "typo.cfg").write_text((base if command == ["simulate"] else "")
                                      + f"{key} = 7\n")
    r = run(command + ["--config", "typo.cfg"], workdir)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert f"config key {key!r} is not read by {command[0]}" in r.stderr
    assert "Traceback" not in r.stderr


def test_verify_tol_leaves_the_angle_estimate_tolerance(workdir):
    """`--tol` sets the tolerance of every check but angle_estimate, which
    keeps its own 1e-6 radians."""
    r = run(["verify", "run1.curve.json", "--tol", "0.5", "--out", "ver.json", "--check",
             "self_contracted,stationarity,tail_halving,angle_estimate"], workdir)
    assert r.returncode == 0, r.stderr
    reports = json.loads((workdir / "ver.json").read_text())["reports"]
    assert {rep["check"]: rep["tolerance"] for rep in reports} == {
        "self_contracted": 0.5, "stationarity": 0.5, "tail_halving": 0.5,
        "angle_estimate": 1e-6}


def test_simulate_exits_1_with_the_solver_diagnostic(tmp_path):
    """neg_cube from 0.5 has no resolvent minimizer: the run stops at its
    first step, writes its four files, and exits 1 with the diagnostic."""
    r = run(["simulate", "--space", "euclidean:1", "--objective", "neg_cube",
             "--start", "0.5", "--out", "nc"], tmp_path)
    assert r.returncode == 1 and "Traceback" not in r.stderr, r.stderr
    message = "resolvent unbounded at step 1"
    assert f"diagnostic: {message}" in r.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "nc.curve.json", "nc.interp.json", "nc.log.json", "nc.values.csv"]
    assert json.loads((tmp_path / "nc.log.json").read_text())["diagnostic"].startswith(message)


@pytest.mark.parametrize("args, message", [
    (["audit", "run1.curve.json"], "audit needs --bound (euclidean, tree, book, generic)"),
    (["audit", "run1.curve.json", "--bound", "spider"], "unknown bound 'spider'"),
    (["counterexample", "--k", "1"], "counterexample needs --k >= 2"),
], ids=["audit-no-bound", "audit-unknown-bound", "counterexample-k-1"])
def test_missing_or_out_of_range_options_are_usage_errors(workdir, args, message):
    before = sorted(p.name for p in workdir.iterdir())
    r = run(args, workdir)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert f"error: {message}" in r.stderr and "Traceback" not in r.stderr
    assert sorted(p.name for p in workdir.iterdir()) == before


def test_tree_file_vertex_lines_set_the_vertex_order(tmp_path):
    """`vertex NAME` lines register vertices ahead of the edges' own, and a
    vertex on no edge breaks the edge count."""
    (tmp_path / "t.tree").write_text("vertex e\nvertex a\n" + SMALL_TREE_TEXT)
    (tmp_path / "t.cfg").write_text("objective.target = 1,1.0\n")
    r = run(["simulate", "--space", "tree:t.tree", "--objective", "dist",
             "--config", "t.cfg", "--start", "3,1.0", "--out", "t"], tmp_path)
    assert r.returncode == 0, r.stderr
    space = json.loads((tmp_path / "t.curve.json").read_text())["space"]
    assert space["vertices"] == ["e", "a", "b", "c", "d"]
    (tmp_path / "lone.tree").write_text("vertex z\n" + SMALL_TREE_TEXT)
    r = run(["simulate", "--space", "tree:lone.tree", "--objective", "dist",
             "--config", "t.cfg", "--start", "3,1.0", "--out", "lone"], tmp_path)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert "error: a tree on n vertices has exactly n-1 edges" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "lone.log.json").exists()


@pytest.mark.parametrize("change, message", [
    ({"space": {"kind": "moebius", "tolerance": 1e-9}}, "unknown space kind 'moebius'"),
    ({"samples": []}, "curve document has no samples"),
], ids=["unknown-space-kind", "no-samples"])
@pytest.mark.parametrize("command", [["verify"], ["audit", "--bound", "generic"]],
                         ids=["verify", "audit"])
def test_curve_files_that_name_no_curve_are_usage_errors(workdir, change, message, command):
    doc = json.loads((workdir / "run1.curve.json").read_text())
    (workdir / "doc.json").write_text(json.dumps({**doc, **change}))
    r = run([command[0], "doc.json", *command[1:], "--out", "odd"], workdir)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert f"error: cannot read curve file: {message}" in r.stderr
    assert "Traceback" not in r.stderr
    assert not list(workdir.glob("odd*"))


def test_counterexample_and_report(workdir):
    r = run(["counterexample", "--k", "5", "--out", "cex"], workdir)
    assert r.returncode == 0
    growth = (workdir / "cex.growth.csv").read_text().splitlines()
    assert growth[0] == "family,k,length,diam,ratio"
    assert len(growth) == 1 + 2 * 4  # two families, k = 2..5
    # ratios grow with unit slope in k
    orth = [line.split(",") for line in growth[1:] if line.startswith("orthonormal")]
    ratios = [float(row[4]) for row in orth]
    assert ratios == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-12)

    r = run(["audit", "run1.curve.json", "--bound", "tree", "--out", "aud"],
            workdir)
    assert r.returncode == 0, r.stderr
    r = run(["report", "aud.csv", "cex.growth.csv", "--out", "rep"], workdir)
    assert r.returncode == 0
    agg = (workdir / "rep.aggregate.csv").read_text().splitlines()
    assert agg[0] == "space,bound,n,n_passed,max_ratio,all_passed"
    assert agg[1].startswith("spider:3,tree,1,1,")
    plot = (workdir / "rep.plotdata.csv").read_text().splitlines()
    assert plot[0] == "family,k,ratio"
    assert len(plot) == 1 + 8


def test_report_empty_input(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    r = run(["report", "empty.csv"], tmp_path)
    assert r.returncode == 2


def test_report_mixed_pass_fail_marks_fail(tmp_path):
    header = ("schema_version,bound,space,length,diam,width,bound_value,"
              "ratio,passed,seed,constants")
    rows = [
        header,
        '1,tree,spider:3,2.0,1.0,,10.0,0.2,1,0,{}',
        '1,tree,spider:3,20.0,1.0,,10.0,2.0,0,0,{}',
    ]
    (tmp_path / "rows.csv").write_text("\n".join(rows) + "\n")
    r = run(["report", "rows.csv", "--out", "agg"], tmp_path)
    assert r.returncode == 1
    agg = (tmp_path / "agg.aggregate.csv").read_text().splitlines()
    assert agg[1].endswith(",0")  # all_passed flag cleared


BOUND_HEADER = ("schema_version,bound,space,length,diam,width,bound_value,"
                "ratio,passed,seed,constants")


@pytest.mark.parametrize("text", [
    "family,k,length,diam,ratio\northonormal,abc,1.0,1.0,1.0\n",
    "family,k,length,diam,ratio\northonormal,2,1.0\n",
    BOUND_HEADER + "\n1,tree,spider:3,2.0,1.0,,10.0,abc,1,0,{}\n",
], ids=["growth-k-abc", "growth-three-fields", "bound-ratio-abc"])
def test_report_refuses_malformed_rows(tmp_path, text):
    (tmp_path / "rows.csv").write_text(text)
    r = run(["report", "rows.csv", "--out", "agg"], tmp_path)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert "error:" in r.stderr
    assert "Traceback" not in r.stderr


def test_byte_determinism(workdir):
    first = {}
    for name in ("run1.curve.json", "run1.interp.json", "run1.values.csv",
                 "run1.log.json"):
        first[name] = (workdir / name).read_bytes()
    r = run(["simulate", "--config", "sim.cfg"], workdir)
    assert r.returncode == 0
    for name, blob in first.items():
        assert (workdir / name).read_bytes() == blob

    r = run(["verify", "run1.curve.json", "--out", "v1.json", "--seed", "3"],
            workdir)
    assert r.returncode == 0, r.stderr
    v1 = (workdir / "v1.json").read_bytes()
    r = run(["verify", "run1.curve.json", "--out", "v1.json", "--seed", "3"],
            workdir)
    assert r.returncode == 0, r.stderr
    assert (workdir / "v1.json").read_bytes() == v1


def test_simulate_reads_objective_keys_as_numbers(tmp_path):
    """Every `objective.*` key but a point is a number: `leg = 2` selects
    leg 2, and `leg = 1.5` is refused as a leg the spider does not have."""
    cfg = ("space = spider:3\nobjective = dist_to_leg_segment\nobjective.lo = 0.2\n"
           "start = 1,1.0\nsteps = 2\nout = x\n")
    (tmp_path / "two.cfg").write_text(cfg + "objective.leg = 2\n")
    r = run(["simulate", "--config", "two.cfg"], tmp_path)
    assert r.returncode == 0, r.stderr
    # the start lies on leg 1, 0.2 from leg 2's segment through the centre
    assert json.loads((tmp_path / "x.log.json").read_text())["final_value"] == 0.2
    (tmp_path / "half.cfg").write_text(cfg + "objective.leg = 1.5\n")
    r = run(["simulate", "--config", "half.cfg"], tmp_path)
    assert r.returncode == 2
    assert "no leg 1.5 on spider:3" in r.stderr


@pytest.mark.parametrize("args, code", [
    (["simulate", "--config", "sim.cfg"], 0),
    (["verify", "run1.curve.json", "--check", "self_contracted"], 0),
    (["audit", "run1.curve.json", "--bound", "book"], 2),
    (["counterexample", "--k", "3", "--out", "cex"], 0),
    (["report", "aud.csv"], 0),
], ids=["simulate", "verify", "audit", "counterexample", "report"])
def test_module_entry_point(workdir, args, code):
    """Each command through `python -m selfcontract.cli`, so that the module
    entry point and `sys.exit(main())` stay covered: the documented exit
    code, and no traceback."""
    assert run(["audit", "run1.curve.json", "--bound", "tree", "--out", "aud"],
               workdir).returncode == 0
    r = subprocess.run(CLI + args, capture_output=True, text=True, cwd=workdir)
    assert r.returncode == code and "Traceback" not in r.stderr, r.stderr


PIPELINE = [
    ["simulate", "--config", "sim.cfg"],
    ["verify", "run1.curve.json", "--seed", "3", "--out", "ver.json"],
    ["audit", "run1.curve.json", "--bound", "tree", "--out", "aud"],
]


def test_in_process_runs_match_a_fresh_interpreter(workdir, tmp_path_factory):
    """State that in-process calls could share, such as a module cache,
    would hide from the tests above: the pipeline run twice in this process
    and once in a fresh one writes the same bytes."""
    outputs = {}
    for name in ("first", "second", "fresh"):
        here = tmp_path_factory.mktemp(name)
        (here / "sim.cfg").write_bytes((workdir / "sim.cfg").read_bytes())
        if name == "fresh":
            code = ("import sys\nfrom selfcontract import cli\n"
                    f"sys.exit(max(cli.main(args) for args in {PIPELINE!r}))\n")
            r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, cwd=here)
            assert r.returncode == 0, r.stderr
        else:
            for args in PIPELINE:
                assert run(args, here).returncode == 0
        outputs[name] = {p.name: p.read_bytes() for p in sorted(here.iterdir())}
    assert len(outputs["first"]) == 8
    assert outputs["first"] == outputs["second"] == outputs["fresh"]
