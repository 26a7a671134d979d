import csv
import io
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import yanglee
from yanglee import cli
from yanglee.cli import build_parser, run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_xxz_poly_table(tmp_path, capsys):
    out = tmp_path / "poly.csv"
    assert run(["xxz-poly", "--L", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "exponent,coefficient"
    assert lines[1:] == ["0,2", "3,2", "4,1"]


def test_stdout_default(capsys):
    assert run(["ssh-chi", "--u", "1", "--v", "1", "--w", "1",
                "--beta", "100"]) == 0
    captured = capsys.readouterr().out.splitlines()
    assert captured[0] == "u,v,w,beta,chi,formula,ratio"
    fields = captured[1].split(",")
    assert fields[4] == "16"
    assert abs(float(fields[5]) - 15.9154943092) < 1e-9
    assert abs(float(fields[6]) - 1.00530964915) < 1e-9


def test_csv_determinism(tmp_path):
    args = ["xxz-zeros", "--L", "2", "--beta", "50", "--re-min", "0.95",
            "--re-max", "1.05", "--im-min", "0.0", "--im-max", "0.1",
            "--grid-n", "25"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _csv_writer_table(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cli._fmt(v) for v in row])
    return buf.getvalue()


_FLOATS = [0.0, -0.0, 1.0, -2.5, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308,
           123456789012.5, 1e16, float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("rows", [
    [(f, i, b, "numeric") for f, i, b in zip(_FLOATS, range(-6, 7), [True, False] * 7)],
    [(i, 10 ** 30 * i) for i in range(-3, 4)],  # ints of any size
    [(1.0, "a,b"), (2.0, "plain")],  # quoted by csv.writer
    [(1.0, 'say "x"'), (2.0, "plain")],
    [(1.0, "two\nlines"), (2.0, "plain")],
    [(1.0, "cr\r"), (2.0, "plain")],
    [(1.0, ""), (2.0, "plain")],  # empty field
    [(1.0, 2), (2, 1.0)],  # mixed column types
    [(np.float64(1.5), np.int64(2)), (np.float64(-0.0), np.int64(-3))],
    [(True, 1.0), (1, 2.0)],  # bool and int in one column
    [(1.0, 2.0), (3.0,)],  # ragged
    [(0.25,), (0.5,)],  # one column
    [("a",), ("b",)],
    [("",), ("b",)],  # a lone empty field is quoted
    [(), ()],
    [],
])
def test_table_bytes_match_csv_writer(tmp_path, rows):
    width = max((len(r) for r in rows), default=2)
    header = [f"c{j}" for j in range(width)]
    out = tmp_path / "t.csv"
    cli._write_table(header, rows, str(out), "csv")
    assert out.read_bytes() == _csv_writer_table(header, rows).encode()


def test_one_format_line_for_plain_tables():
    rows = [(0.5, 3, True, "numeric"), (-1e-20, -4, False, "analytic")]
    assert cli._row_format(rows) == "%.12g,%d,%d,%s\n"
    assert cli._row_format([(0.5, "a,b")]) is None


def test_manifest_contents(tmp_path):
    out = tmp_path / "gap.csv"
    manifest = tmp_path / "gap.json"
    code = run(["xxz-gap", "--L-list", "6", "--out", str(out),
                "--manifest", str(manifest)])
    assert code == 0
    data = json.loads(manifest.read_text())
    assert data["command"] == "xxz-gap"
    assert data["outputs"] == [str(out)]
    assert data["wall_time"] >= 0.0
    assert "numpy" in data["versions"]
    for path in data["outputs"]:
        assert out.read_text()  # listed outputs exist and are non-empty
    assert data["parameters"]["L_list"] == [6]


def test_cached_parser_carries_no_state_between_runs(tmp_path, capsys):
    # run() reuses one parser per process: what one call sets must not
    # become a default of the next
    manifest = tmp_path / "gap.json"
    calls = [["xxz-gap", "--L-list", "6", "--manifest", str(manifest)],
             ["xxz-gap"],
             ["xxz-poly", "--L", "5", "--format", "json"],
             ["xxz-poly", "--L", "5"]]
    outputs = []
    for argv in calls:
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
        if manifest.exists():
            assert argv == calls[0]
            manifest.unlink()
    assert [row.split(",")[0] for row in outputs[1].splitlines()[1:]] == ["6", "8", "10"]
    assert outputs[3].startswith("exponent,coefficient\n")
    assert sorted(tmp_path.iterdir()) == []
    for argv, output in zip(calls, outputs):
        build_parser.cache_clear()
        assert run(argv) == 0
        assert capsys.readouterr().out == output
    manifest.unlink()


def test_json_format(capsys):
    assert run(["xxz-poly", "--L", "3", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records == [{"exponent": "0", "coefficient": "2"},
                       {"exponent": "2", "coefficient": "2"}]


def test_usage_errors_exit_one(capsys):
    assert run(["no-such-command"]) == 1
    assert run(["xxz-poly"]) == 1  # missing required --L
    assert run(["xxz-poly", "--L", "4", "--bogus-flag"]) == 1
    # --grid-n belongs to xxz-zeros and --tol to ssh-corr only
    assert run(["ssh-corr", "--u", "1", "--v", "2", "--w", "1",
                "--grid-n", "2"]) == 1
    assert run(["xxz-poly", "--L", "4", "--tol", "1e-6"]) == 1
    # nothing is random, so there is no --seed; chi is exact, so no --h
    assert run(["xxz-bethe", "--L", "6", "--M", "3", "--seed", "3"]) == 1
    assert run(["xxz-susceptibility", "--h", "1e-4"]) == 1


@pytest.mark.parametrize("argv", [
    ["ssh-ee", "--u", "0", "--v", "1", "--w", "2", "--subsystems", "2:10:0"],
    ["ssh-ee", "--u", "0", "--v", "1", "--w", "2", "--subsystems", "abc"],
    ["xxz-susceptibility", "--deltas", "x"],
    ["xxz-gap", "--L-list", "x"],
    ["xxz-gap", "--L-list=,"],
    ["ssh-ee", "--u", "0", "--v", "1", "--w", "2", "--subsystems=,"],
    ["ssh-ee", "--u", "0", "--v", "1", "--w", "2", "--subsystems", "20:10"],
    ["xxz-susceptibility", "--deltas=,"],
])
def test_malformed_list_flags_exit_one(argv, capsys):
    assert run(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run([]) == 1


def test_numerical_failure_exits_two(capsys):
    # T = 0 correlators are undefined in the PT-broken phase, the
    # predicted gap -J Re delta / (L - 1) of xxz-gap is the gapless-side
    # one, and x_max > 32768 puts the first correlator grid at the node cap
    for argv in (["ssh-corr", "--u", "1", "--v", "1", "--w", "1", "--x-max", "3"],
                 ["xxz-gap", "--L-list", "6", "--delta-re=0"],
                 ["xxz-gap", "--L-list", "6", "--delta-re=0.05"],
                 ["ssh-corr", "--u=1", "--v=2.05", "--w=1", "--x-max=32769"]):
        assert run(argv) == 2
        assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("flags, name", [
    (["--beta=-5"], "beta"),
    (["--beta=0"], "beta"),
    (["--beta=nan"], "beta"),
    (["--beta=inf"], "beta"),
    (["--beta=100", "--grid-n=0"], "grid_n"),
    (["--beta=100", "--grid-n=1"], "grid_n"),
    (["--beta=100", "--re-max=inf"], "windows"),
    (["--beta=100", "--im-min=nan"], "windows"),
])
def test_zero_search_domain_errors_exit_two(flags, name, capsys):
    # these used to exit 0 with an empty table
    assert run(["xxz-zeros", "--L", "4"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err and name in captured.err


@pytest.mark.parametrize("flags", [["--delta-re", "nan"],
                                   ["--delta-re", "1", "--delta-im", "inf"]])
def test_non_finite_anisotropy_exits_two(flags, capsys):
    assert run(["xxz-ee", "--L", "4"] + flags) == 2
    assert "anisotropy Delta must be finite" in capsys.readouterr().err


_XXZ_WITH_J = [["xxz-zeros", "--L=4", "--beta=50", "--grid-n=8"],
               ["xxz-verify-zeros", "--L=4", "--beta=50"],
               ["xxz-ee", "--L=4", "--delta-re=0.9"],
               ["xxz-gap", "--L-list=4"],
               ["xxz-susceptibility", "--L=4"]]


@pytest.mark.parametrize("argv", [
    *(argv + [f"--J={j}"] for argv in _XXZ_WITH_J for j in ("nan", "inf")),
    ["xxz-zeros", "--L=4", "--beta=50", "--grid-n=8", "--analytic", "--J=nan"],
    ["xxz-verify-zeros", "--L=4", "--beta=nan"],
    ["xxz-verify-zeros", "--L=4", "--beta=inf"],
    ["xxz-susceptibility", "--L=4", "--deltas=nan,-0.1"],
])
def test_non_finite_xxz_inputs_exit_two(argv, capsys):
    # these used to end in a LinAlgError traceback (exit 1) or print nan rows
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err


@pytest.mark.parametrize("argv", [
    ["ssh-zeros-scan", "--wv-min=nan"],
    ["ssh-zeros-scan", "--t-max=inf"],
    ["ssh-zeros-scan", "--u=nan"],
    ["ssh-zeros-scan", "--t-min=1e-20"],
    ["ssh-chi", "--u=1", "--v=1", "--w=1", "--beta=nan"],
    ["ssh-chi", "--u=1", "--v=1", "--w=1", "--beta=inf"],
    ["ssh-chi", "--u=1", "--v=1", "--w=1", "--beta=1e25"],
    ["ssh-ee", "--u=1", "--v=inf", "--w=1"],
    ["ssh-corr", "--u=1", "--v=2.05", "--w=1", "--tol=nan"],
])
def test_bad_ssh_inputs_exit_two(argv, capsys):
    # these used to end in a ValueError or OverflowError traceback;
    # ssh-corr --tol=nan used to run to the quadrature node cap first
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err


def test_ssh_corr_underflowing_asymptote_gives_nan_ratio(capsys):
    # at xi = 4.48 the K0 asymptote is subnormal from x = 3315 and exactly
    # 0 from x = 3316 on; the ratio used to end in a ZeroDivisionError
    assert run(["ssh-corr", "--u=1", "--v=2.05", "--w=1", "--x-max=4000"]) == 0
    rows = [[float(f) for f in line.split(",")]
            for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 4000
    for x, _, _, re_a, im_a, ratio in rows:
        if abs(complex(re_a, im_a)) <= 1e-9:
            assert ratio != ratio, x
        else:
            assert 0.0 <= ratio < float("inf"), x
    assert rows[-1][3:5] == [0.0, 0.0]


def test_subnormal_hopping_product_warns_nothing(capsys):
    # v w = 1e-320 overflowed (u^2 - v^2 - w^2) / (2 v w) with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["ssh-chi", "--u=1", "--v=1e-160", "--w=1e-160", "--beta=10"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[4] == "0"


@pytest.mark.parametrize("flag", ["--wv-steps=0", "--t-steps=-3", "--t-steps=x"])
def test_scan_steps_below_one_exit_one(flag, capsys):
    assert run(["ssh-zeros-scan", flag]) == 1
    assert "error:" in capsys.readouterr().err


def test_ssh_ee_subsystem_parsing(tmp_path):
    out = tmp_path / "ee.csv"
    assert run(["ssh-ee", "--u", "0", "--v", "1", "--w", "2", "--cells", "60",
                "--subsystems", "4,6,8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "l_a,re_s,im_s"
    assert len(lines) == 4


def test_bethe_csv(capsys):
    assert run(["xxz-bethe", "--L", "4", "--M", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "j,re_zeta,im_zeta"
    ims = sorted(float(line.split(",")[2]) for line in out[1:])
    assert ims[0] == pytest.approx(-1.0 / 3.0 ** 0.5, abs=1e-9)
    assert ims[1] == pytest.approx(+1.0 / 3.0 ** 0.5, abs=1e-9)


def test_readme_cli_commands_parse():
    # every line of README's CLI block must be accepted as written
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    commands = [line for line in block.splitlines() if line.startswith("yanglee ")]
    assert len(commands) >= 10
    parser = build_parser()
    rejected = []
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            rejected.append(line)
    assert rejected == []


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys):
    # every line of README's CLI block runs as written; --out paths are
    # relative, so run in a scratch directory
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    commands = [line for line in block.splitlines() if line.startswith("yanglee ")]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    failed = []
    for line in commands:
        argv = shlex.split(line)[1:]
        code = run(argv)
        output = capsys.readouterr().out
        if "--out" in argv:
            output = (tmp_path / argv[argv.index("--out") + 1]).read_text()
        if code != 0 or not output.strip():
            failed.append((line, code))
    assert failed == []


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg costs about 0.3 s of start-up; the modules that use it
    # import bare scipy, which loads the submodule on first attribute access
    src = str(Path(yanglee.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, yanglee.cli; print('scipy.linalg' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
